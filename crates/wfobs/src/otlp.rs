//! OTLP/JSON export: OpenTelemetry `ExportTraceServiceRequest` /
//! `ExportMetricsServiceRequest` documents rendered from a Full-level
//! [`ObsReport`](crate::bus::ObsReport) — no network, no protobuf crate,
//! file-sink only, byte-deterministic.
//!
//! The mapper turns the flat event stream into a span tree:
//!
//! ```text
//! run <name>                                  (single root per run)
//! └─ node w3 #0..#k   (one span per billing incarnation; SegmentOpen/
//!    │                 SegmentClose; StorageOp/CacheHit/CacheMiss are
//!    │                 span events; billing attrs; links to the
//!    │                 previous incarnation)
//!    └─ task mProject_17 (one span per execution attempt; TaskStart →
//!       │                 TaskEnd/TaskKilled/TaskFailed; retries link
//!       │                 to the previous attempt)
//!       └─ overhead / ops / stage-in / read / compute / write /
//!          stage-out  (one span per lifecycle phase interval)
//! ```
//!
//! Fault-class events (`Fault`, `FilesLost`, `RescueResubmit`,
//! `NodeRecovered`) become span events on the root; resource attributes
//! carry the seed, workflow name, storage backend, cluster size and the
//! final run digest.
//!
//! **Id derivation.** The 128-bit trace id and every 64-bit span id are
//! FNV-1a hashes chained from `(seed, digest)` — the same digest stream
//! that pins replay fidelity — plus the span's structural identity (kind
//! tag, integer id, occurrence ordinal). Same seed + config ⇒ the same
//! digest ⇒ byte-identical OTLP files; the conformance suite asserts
//! uniqueness and reproducibility.
//!
//! **Timestamps.** `timeUnixNano` fields carry *simulated* nanoseconds
//! with epoch 0 = run start (the simulator has no wall clock). Backends
//! like Jaeger/Tempo render such traces as early-1970 sessions, which is
//! harmless; relative durations — the paper's deliverable — are exact.
//!
//! The conformance half of the contract lives with the tests: a checker
//! in `tests/otlp_check/` reads these documents back through the shim's
//! JSON parser, so well-formedness (single root, resolving parents and
//! links, nested intervals, unique reproducible ids) and parity
//! (phase/cost reconstruction) are checked end to end through real bytes.

use crate::bus::ObsReport;
use crate::digest::{fnv_step, FNV_OFFSET};
use crate::event::{Event, OpKind, Phase};
use crate::spans::{Outcome, Spans, Step};
use crate::{json_esc, name_or};
use std::collections::{BTreeMap, BTreeSet};

/// Human-readable labels and run metadata the exporter joins back onto
/// the integer-id event stream. Everything here is optional: missing
/// task/node names render as `t<id>`/`w<id>`, missing metadata renders
/// as empty attributes.
#[derive(Debug, Clone, Default)]
pub struct OtlpLabels {
    /// `service.name` resource attribute (e.g. `wfsim`).
    pub service_name: String,
    /// Workflow/run name (`wf.run.name` resource attribute, root span name).
    pub run_name: String,
    /// Storage backend label (`wf.storage.backend` resource attribute).
    pub storage: String,
    /// Cluster size (`wf.cluster.workers` resource attribute).
    pub workers: u32,
    /// Task names by task id.
    pub task_names: Vec<String>,
    /// Node labels by node id.
    pub node_names: Vec<String>,
    /// Billed lease intervals, in per-node incarnation order; attached as
    /// `wf.billing.*` attributes to the matching node-incarnation span.
    pub segments: Vec<SegmentLabel>,
}

/// One billed instance incarnation, as attached to a node span.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLabel {
    /// Cluster node id the incarnation belonged to.
    pub node: u32,
    /// Instance-type API name (e.g. `c1.xlarge`).
    pub itype: String,
    /// Whether the incarnation ran on the spot market.
    pub spot: bool,
    /// Billed seconds from acquisition to release.
    pub secs: f64,
}

/// A typed attribute value (the subset of OTLP `AnyValue` we emit).
#[derive(Debug, Clone, PartialEq)]
enum Attr {
    Str(String),
    I64(i64),
    F64(f64),
    Bool(bool),
}

type Attrs = Vec<(&'static str, Attr)>;

/// One span being assembled by the mapper.
#[derive(Debug)]
struct SpanBuf {
    id: u64,
    /// 0 = no parent (the root span).
    parent: u64,
    name: String,
    start: u64,
    end: u64,
    attrs: Attrs,
    events: Vec<(u64, &'static str, Attrs)>,
    /// `(span id, wf.link attribute)` pairs; linked spans share the trace.
    links: Vec<(u64, &'static str)>,
    /// OTLP status code: 0 unset, 1 ok, 2 error.
    status: u8,
}

impl SpanBuf {
    fn new(id: u64, parent: u64, name: String, start: u64) -> Self {
        SpanBuf {
            id,
            parent,
            name,
            start,
            end: start,
            attrs: Vec::new(),
            events: Vec::new(),
            links: Vec::new(),
            status: 0,
        }
    }
}

/// Deterministic id generator chained from `(seed, digest)`.
struct IdGen {
    base: u64,
}

impl IdGen {
    fn new(seed: u64, digest: u64) -> Self {
        let mut base = fnv_step(FNV_OFFSET, b"wfobs.otlp");
        base = fnv_step(base, &seed.to_le_bytes());
        base = fnv_step(base, &digest.to_le_bytes());
        IdGen { base }
    }

    /// 128-bit trace id as `(hi, lo)`.
    fn trace_id(&self) -> (u64, u64) {
        (
            fnv_step(self.base, b"trace.hi"),
            fnv_step(self.base, b"trace.lo"),
        )
    }

    /// 64-bit span id from a structural identity. Never returns 0 (the
    /// OTLP "invalid span id").
    fn span_id(&self, tag: u8, a: u64, b: u64) -> u64 {
        let mut s = fnv_step(self.base, &[tag]);
        s = fnv_step(s, &a.to_le_bytes());
        s = fnv_step(s, &b.to_le_bytes());
        if s == 0 {
            1
        } else {
            s
        }
    }
}

const TAG_RUN: u8 = 0;
const TAG_NODE: u8 = 1;
const TAG_TASK: u8 = 2;
const TAG_PHASE: u8 = 3;

/// Phase label including the implicit dispatch-overhead interval.
fn phase_label(p: Option<Phase>) -> &'static str {
    match p {
        None => "overhead",
        Some(p) => p.label(),
    }
}

fn op_event_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Read => "storage.read",
        OpKind::Write => "storage.write",
        OpKind::StageIn => "storage.stage_in",
        OpKind::StageOut => "storage.stage_out",
        OpKind::OpStorm => "storage.op_storm",
    }
}

/// Everything the span mapper produced.
struct SpanForest {
    trace_hi: u64,
    trace_lo: u64,
    spans: Vec<SpanBuf>,
}

/// What the task-attempt fold carries per attempt for the mapper: the
/// task span's index and the attempt's occurrence ordinal (its
/// `TaskStart` count).
type TaskSpan = (usize, u64);

/// The span mapper: node incarnations, ids and links around the shared
/// task-attempt fold.
struct Mapper<'a> {
    ids: IdGen,
    labels: &'a OtlpLabels,
    spans: Vec<SpanBuf>,
    /// Node → open incarnation span index.
    inc_open: Vec<Option<usize>>,
    /// Node → incarnations so far.
    inc_seen: Vec<u64>,
    /// Task → (attempts started so far, latest attempt span id).
    starts: BTreeMap<u32, (u64, u64)>,
    /// Tasks the rescue pass resubmitted whose rerun has not started.
    rescue_pending: BTreeSet<u32>,
}

impl Mapper<'_> {
    /// The open incarnation span of `node`, or the root.
    fn node_span(&self, node: u32) -> usize {
        self.inc_open
            .get(node as usize)
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    /// One step of the task-attempt fold; `wasted` is the killing
    /// event's thrown-away work.
    fn task_step(&mut self, step: Step<'_, TaskSpan>, wasted: Option<u64>) {
        match step {
            Step::Start(a) => {
                let task = a.task;
                let parent = self.spans[self.node_span(a.node)].id;
                let (count, prev) = self.starts.entry(task).or_insert((0, 0));
                let ordinal = *count;
                *count += 1;
                let id = self.ids.span_id(TAG_TASK, u64::from(task), ordinal);
                let name = name_or(&self.labels.task_names, task, 't');
                let mut s = SpanBuf::new(id, parent, name, a.start);
                s.attrs.push(("wf.task.id", Attr::I64(i64::from(task))));
                s.attrs
                    .push(("wf.task.attempt", Attr::I64(i64::from(a.number))));
                s.attrs.push(("wf.node.id", Attr::I64(i64::from(a.node))));
                if ordinal > 0 {
                    let kind = if self.rescue_pending.remove(&task) {
                        "rescue_rerun_of"
                    } else {
                        "retry_of"
                    };
                    s.links.push((*prev, kind));
                }
                *prev = id;
                a.data = (self.spans.len(), ordinal);
                self.spans.push(s);
            }
            Step::Phase(a, iv) => {
                let (ix, ordinal) = a.data;
                let seq = (ordinal << 16) | u64::from(iv.seq);
                let id = self.ids.span_id(TAG_PHASE, u64::from(a.task), seq);
                let label = phase_label(iv.phase);
                let mut s = SpanBuf::new(id, self.spans[ix].id, label.to_string(), iv.start);
                s.end = iv.end;
                s.attrs.push(("wf.phase", Attr::Str(label.to_string())));
                self.spans.push(s);
            }
            Step::End(a, outcome, end) => {
                let s = &mut self.spans[a.data.0];
                s.end = end;
                let (outcome, status) = match outcome {
                    Outcome::Ok => ("ok", 1),
                    Outcome::Killed => ("killed", 2),
                    Outcome::Failed => ("failed", 2),
                    Outcome::Unfinished => ("unfinished", s.status),
                };
                s.attrs
                    .push(("wf.task.outcome", Attr::Str(outcome.to_string())));
                s.status = status;
                if let Some(w) = wasted {
                    s.attrs.push(("wf.task.wasted_nanos", Attr::I64(w as i64)));
                }
            }
        }
    }

    /// Every event outside the task-attempt lifecycle.
    fn event(&mut self, t: u64, ev: Event) {
        let labels = self.labels;
        match ev {
            Event::SegmentOpen { node, spot } => {
                let n = node as usize;
                if self.inc_open.len() <= n {
                    self.inc_open.resize(n + 1, None);
                    self.inc_seen.resize(n + 1, 0);
                }
                let ordinal = self.inc_seen[n];
                self.inc_seen[n] += 1;
                let id = self.ids.span_id(TAG_NODE, u64::from(node), ordinal);
                let node_name = name_or(&labels.node_names, node, 'w');
                let name = if ordinal == 0 {
                    node_name
                } else {
                    format!("{node_name} #{ordinal}")
                };
                let mut s = SpanBuf::new(id, self.spans[0].id, name, t);
                s.attrs.push(("wf.node.id", Attr::I64(i64::from(node))));
                s.attrs
                    .push(("wf.node.incarnation", Attr::I64(ordinal as i64)));
                s.attrs.push(("wf.node.spot", Attr::Bool(spot)));
                // The k-th incarnation of a node bills the node's k-th
                // segment.
                let mut segs = labels.segments.iter().filter(|g| g.node == node);
                if let Some(seg) = segs.nth(ordinal as usize) {
                    s.attrs
                        .push(("wf.billing.itype", Attr::Str(seg.itype.clone())));
                    s.attrs.push(("wf.billing.spot", Attr::Bool(seg.spot)));
                    s.attrs.push(("wf.billing.secs", Attr::F64(seg.secs)));
                }
                if ordinal > 0 {
                    let prev = self.ids.span_id(TAG_NODE, u64::from(node), ordinal - 1);
                    s.links.push((prev, "previous_incarnation"));
                }
                s.status = 1;
                self.inc_open[n] = Some(self.spans.len());
                self.spans.push(s);
            }
            Event::SegmentClose { node } => {
                if let Some(ix) = self.inc_open.get_mut(node as usize).and_then(Option::take) {
                    self.spans[ix].end = t;
                }
            }
            Event::StorageOp { op, node, bytes } => {
                let target = self.node_span(node);
                self.spans[target].events.push((
                    t,
                    op_event_name(op),
                    vec![
                        ("wf.op.kind", Attr::Str(op.label().to_string())),
                        ("wf.op.bytes", Attr::I64(bytes as i64)),
                        ("wf.node.id", Attr::I64(i64::from(node))),
                    ],
                ));
            }
            Event::CacheHit { node } | Event::CacheMiss { node } => {
                let name = match ev {
                    Event::CacheHit { .. } => "cache.hit",
                    _ => "cache.miss",
                };
                let target = self.node_span(node);
                self.spans[target].events.push((
                    t,
                    name,
                    vec![("wf.node.id", Attr::I64(i64::from(node)))],
                ));
            }
            Event::Fault { kind, node } => {
                self.spans[0].events.push((
                    t,
                    "fault",
                    vec![
                        ("wf.fault.kind", Attr::Str(kind.label().to_string())),
                        ("wf.node.id", Attr::I64(i64::from(node))),
                    ],
                ));
            }
            Event::FilesLost { count } => {
                self.spans[0].events.push((
                    t,
                    "files_lost",
                    vec![("wf.files.count", Attr::I64(i64::from(count)))],
                ));
            }
            Event::RescueResubmit { task } => {
                self.rescue_pending.insert(task);
                self.spans[0].events.push((
                    t,
                    "rescue_resubmit",
                    vec![("wf.task.id", Attr::I64(i64::from(task)))],
                ));
            }
            Event::NodeRecovered { node } => {
                self.spans[0].events.push((
                    t,
                    "node_recovered",
                    vec![("wf.node.id", Attr::I64(i64::from(node)))],
                ));
            }
            // Task lifecycle events go through the fold; flow- and
            // queue-level events are metrics material, not spans.
            _ => {}
        }
    }
}

/// Build the span tree from the recorded event stream.
fn build_spans(report: &ObsReport, labels: &OtlpLabels) -> SpanForest {
    let ids = IdGen::new(report.seed, report.digest);
    let (trace_hi, trace_lo) = ids.trace_id();

    // Root span (index 0) — closed at the last observed timestamp.
    let root_name = if labels.run_name.is_empty() {
        "run".to_string()
    } else {
        format!("run {}", labels.run_name)
    };
    let mut root = SpanBuf::new(ids.span_id(TAG_RUN, 0, 0), 0, root_name, 0);
    root.attrs.push(("wf.seed", Attr::I64(report.seed as i64)));
    root.attrs
        .push(("wf.digest", Attr::Str(format!("{:016x}", report.digest))));
    root.attrs
        .push(("wf.events", Attr::I64(report.events.len() as i64)));
    root.status = 1;

    let mut m = Mapper {
        ids,
        labels,
        spans: vec![root],
        inc_open: Vec::new(),
        inc_seen: Vec::new(),
        starts: BTreeMap::new(),
        rescue_pending: BTreeSet::new(),
    };
    let mut attempts: Spans<TaskSpan> = Spans::new();
    let mut t_end: u64 = 0;
    for &(t, ev) in &report.events {
        t_end = t_end.max(t);
        let wasted = match ev {
            Event::TaskKilled { wasted_nanos, .. } => Some(wasted_nanos),
            _ => None,
        };
        attempts.apply(t, &ev, |step| m.task_step(step, wasted));
        m.event(t, ev);
    }

    // Close everything still open (a run that ended mid-fault, rescue
    // pending) at the last observed timestamp so intervals stay nested.
    attempts.finish(t_end, |step| m.task_step(step, None));
    for ix in m.inc_open.iter_mut().filter_map(Option::take) {
        m.spans[ix].end = t_end;
    }
    m.spans[0].end = t_end;

    SpanForest {
        trace_hi,
        trace_lo,
        spans: m.spans,
    }
}

// ---------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------

/// OTLP `AnyValue` JSON. int64 values are decimal strings, per the
/// proto3 JSON mapping OTLP/JSON uses.
fn attr_value_json(v: &Attr) -> String {
    match v {
        Attr::Str(s) => format!("{{\"stringValue\":\"{}\"}}", json_esc(s)),
        Attr::I64(n) => format!("{{\"intValue\":\"{n}\"}}"),
        Attr::F64(f) => format!("{{\"doubleValue\":{f}}}"),
        Attr::Bool(b) => format!("{{\"boolValue\":{b}}}"),
    }
}

fn attrs_json(attrs: &[(&'static str, Attr)]) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("{{\"key\":\"{k}\",\"value\":{}}}", attr_value_json(v)))
        .collect();
    format!("[{}]", parts.join(","))
}

/// Shared resource block: service identity plus run metadata.
fn resource_json(report: &ObsReport, labels: &OtlpLabels) -> String {
    let service = if labels.service_name.is_empty() {
        "wfsim"
    } else {
        &labels.service_name
    };
    let attrs: Vec<(&'static str, Attr)> = vec![
        ("service.name", Attr::Str(service.to_string())),
        ("wf.run.name", Attr::Str(labels.run_name.clone())),
        ("wf.seed", Attr::I64(report.seed as i64)),
        ("wf.storage.backend", Attr::Str(labels.storage.clone())),
        ("wf.cluster.workers", Attr::I64(i64::from(labels.workers))),
        ("wf.digest", Attr::Str(format!("{:016x}", report.digest))),
    ];
    format!("{{\"attributes\":{}}}", attrs_json(&attrs))
}

const SCOPE_JSON: &str = "{\"name\":\"wfobs\",\"version\":\"0.1.0\"}";

fn span_json(s: &SpanBuf, trace_hi: u64, trace_lo: u64) -> String {
    let trace_id = format!("{trace_hi:016x}{trace_lo:016x}");
    let parent = if s.parent == 0 {
        String::new()
    } else {
        format!("{:016x}", s.parent)
    };
    let events: Vec<String> = s
        .events
        .iter()
        .map(|(t, name, attrs)| {
            format!(
                "{{\"timeUnixNano\":\"{t}\",\"name\":\"{name}\",\"attributes\":{}}}",
                attrs_json(attrs)
            )
        })
        .collect();
    let links: Vec<String> = s
        .links
        .iter()
        .map(|(id, kind)| {
            format!(
                "{{\"traceId\":\"{trace_id}\",\"spanId\":\"{id:016x}\",\"attributes\":\
                 [{{\"key\":\"wf.link\",\"value\":{{\"stringValue\":\"{kind}\"}}}}]}}"
            )
        })
        .collect();
    format!(
        "{{\"traceId\":\"{trace_id}\",\"spanId\":\"{:016x}\",\"parentSpanId\":\"{parent}\",\
         \"name\":\"{}\",\"kind\":1,\"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\",\
         \"attributes\":{},\"events\":[{}],\"links\":[{}],\"status\":{{\"code\":{}}}}}",
        s.id,
        json_esc(&s.name),
        s.start,
        s.end,
        attrs_json(&s.attrs),
        events.join(","),
        links.join(","),
        s.status,
    )
}

/// Render a Full-level report as an OTLP/JSON `ExportTraceServiceRequest`.
///
/// Byte-deterministic: same report + labels ⇒ identical output. Suitable
/// for `POST /v1/traces` on any OTLP/HTTP collector.
pub fn otlp_trace(report: &ObsReport, labels: &OtlpLabels) -> String {
    let forest = build_spans(report, labels);
    let spans: Vec<String> = forest
        .spans
        .iter()
        .map(|s| span_json(s, forest.trace_hi, forest.trace_lo))
        .collect();
    format!(
        "{{\"resourceSpans\":[{{\"resource\":{},\"scopeSpans\":[{{\"scope\":{SCOPE_JSON},\
         \"spans\":[\n{}\n]}}]}}]}}\n",
        resource_json(report, labels),
        spans.join(",\n"),
    )
}

/// Render the metrics registry of a Full-level report as an OTLP/JSON
/// `ExportMetricsServiceRequest`: counters become cumulative monotonic
/// sums, histograms keep their explicit bounds, and event-boundary time
/// series become multi-point gauges.
pub fn otlp_metrics(report: &ObsReport, labels: &OtlpLabels) -> String {
    let t_end = report.events.last().map_or(0, |&(t, _)| t);
    let mut metrics: Vec<String> = Vec::new();

    for (name, v) in report.metrics.counters() {
        metrics.push(format!(
            "{{\"name\":\"wf.{name}\",\"sum\":{{\"dataPoints\":[{{\"startTimeUnixNano\":\"0\",\
             \"timeUnixNano\":\"{t_end}\",\"asInt\":\"{v}\"}}],\"aggregationTemporality\":2,\
             \"isMonotonic\":true}}}}"
        ));
    }
    for (name, h) in report.metrics.histograms() {
        let bounds: Vec<String> = h.bounds.iter().map(|b| format!("{b}")).collect();
        let counts: Vec<String> = h.counts.iter().map(|c| format!("\"{c}\"")).collect();
        metrics.push(format!(
            "{{\"name\":\"wf.{name}\",\"histogram\":{{\"dataPoints\":[{{\"startTimeUnixNano\":\
             \"0\",\"timeUnixNano\":\"{t_end}\",\"count\":\"{}\",\"sum\":{},\"bucketCounts\":[{}],\
             \"explicitBounds\":[{}]}}],\"aggregationTemporality\":2}}}}",
            h.n,
            h.sum,
            counts.join(","),
            bounds.join(","),
        ));
    }
    let mut series_names: Vec<&str> = report.metrics.series_names().collect();
    series_names.sort_unstable();
    for name in series_names {
        let Some(pts) = report.metrics.series(name) else {
            continue;
        };
        let points: Vec<String> = pts
            .iter()
            .map(|&(t, v)| format!("{{\"timeUnixNano\":\"{t}\",\"asDouble\":{v}}}"))
            .collect();
        metrics.push(format!(
            "{{\"name\":\"wf.{}\",\"gauge\":{{\"dataPoints\":[{}]}}}}",
            json_esc(name),
            points.join(","),
        ));
    }

    format!(
        "{{\"resourceMetrics\":[{{\"resource\":{},\"scopeMetrics\":[{{\"scope\":{SCOPE_JSON},\
         \"metrics\":[\n{}\n]}}]}}]}}\n",
        resource_json(report, labels),
        metrics.join(",\n"),
    )
}
