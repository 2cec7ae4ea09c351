//! OTLP/JSON export at the `wfobs` level: round trips of a small
//! synthetic run through the shared conformance checker, and the
//! checker's own rejections.
//!
//! The rejection tests feed the well-formedness checker hand-built
//! documents that each break exactly one rule, so a checker that accepts
//! everything fails here rather than passing every exporter test.

mod otlp_check;

use wfobs::{
    otlp_metrics, otlp_trace, Event, FaultKind, ObsHandle, ObsLevel, ObsReport, OpKind, OtlpLabels,
    Phase, SegmentLabel,
};

fn sample_report() -> ObsReport {
    let h = ObsHandle::new(ObsLevel::Full, 7);
    h.set_now(0);
    h.emit(Event::SegmentOpen {
        node: 0,
        spot: false,
    });
    h.emit(Event::TaskStart {
        task: 0,
        node: 0,
        attempt: 0,
    });
    h.set_now(250_000_000);
    h.emit(Event::TaskPhase {
        task: 0,
        node: 0,
        phase: Phase::Read,
    });
    h.emit(Event::StorageOp {
        op: OpKind::Read,
        node: 0,
        bytes: 1000,
    });
    h.emit(Event::CacheMiss { node: 0 });
    h.set_now(1_000_000_000);
    h.emit(Event::TaskPhase {
        task: 0,
        node: 0,
        phase: Phase::Compute,
    });
    h.set_now(2_000_000_000);
    h.emit(Event::Fault {
        kind: FaultKind::NodeCrash,
        node: 0,
    });
    h.emit(Event::TaskKilled {
        task: 0,
        node: 0,
        wasted_nanos: 2_000_000_000,
    });
    h.emit(Event::SegmentClose { node: 0 });
    h.set_now(2_100_000_000);
    h.emit(Event::SegmentOpen {
        node: 0,
        spot: false,
    });
    h.emit(Event::TaskStart {
        task: 0,
        node: 0,
        attempt: 0,
    });
    h.set_now(3_000_000_000);
    h.emit(Event::TaskEnd {
        task: 0,
        node: 0,
        attempt: 1,
    });
    h.emit(Event::SegmentClose { node: 0 });
    h.take_report().unwrap()
}

fn labels() -> OtlpLabels {
    OtlpLabels {
        service_name: "wfsim".into(),
        run_name: "sample".into(),
        storage: "NFS".into(),
        workers: 1,
        task_names: vec!["mAdd".into()],
        node_names: vec!["w0".into()],
        segments: vec![
            SegmentLabel {
                node: 0,
                itype: "c1.xlarge".into(),
                spot: false,
                secs: 2.0,
            },
            SegmentLabel {
                node: 0,
                itype: "c1.xlarge".into(),
                spot: false,
                secs: 0.9,
            },
        ],
    }
}

#[test]
fn export_round_trips_and_is_well_formed() {
    let report = sample_report();
    let json = otlp_trace(&report, &labels());
    let t = otlp_check::trace(&json).expect("decodes");
    otlp_check::check_well_formed(&t).expect("well-formed");
    // run root + 2 node incarnations + 2 task attempts + phases
    // (overhead, read, compute of attempt 0; overhead of attempt 1).
    assert_eq!(t.spans.len(), 1 + 2 + 2 + 4, "{json}");
    assert_eq!(
        t.resource_attr("wf.storage.backend").unwrap().as_str(),
        Some("NFS")
    );
    let root = t
        .spans
        .iter()
        .find(|s| s.parent_span_id.is_empty())
        .unwrap();
    assert_eq!(root.name, "run sample");
    assert!(root.events.iter().any(|e| e.name == "fault"));
}

#[test]
fn retry_links_to_previous_attempt_and_kill_is_error() {
    let t = otlp_check::trace(&otlp_trace(&sample_report(), &labels())).unwrap();
    let attempts: Vec<_> = t.spans.iter().filter(|s| s.name == "mAdd").collect();
    assert_eq!(attempts.len(), 2);
    let killed = attempts
        .iter()
        .find(|s| s.attr("wf.task.outcome").unwrap().as_str() == Some("killed"))
        .expect("killed attempt present");
    assert_eq!(killed.status_code, 2);
    let retry = attempts
        .iter()
        .find(|s| s.attr("wf.task.outcome").unwrap().as_str() == Some("ok"))
        .expect("successful attempt present");
    assert_eq!(retry.links.len(), 1);
    assert_eq!(retry.links[0].span_id, killed.span_id);
    assert_eq!(
        retry.links[0].attrs[0].1.as_str(),
        Some("retry_of"),
        "link kind"
    );
}

#[test]
fn billing_attributes_follow_incarnation_order() {
    let t = otlp_check::trace(&otlp_trace(&sample_report(), &labels())).unwrap();
    let incs: Vec<_> = t
        .spans
        .iter()
        .filter(|s| s.attr("wf.billing.secs").is_some())
        .collect();
    assert_eq!(incs.len(), 2);
    assert_eq!(incs[0].attr("wf.billing.secs").unwrap().as_f64(), Some(2.0));
    assert_eq!(incs[1].attr("wf.billing.secs").unwrap().as_f64(), Some(0.9));
    assert_eq!(
        incs[1].links[0].attrs[0].1.as_str(),
        Some("previous_incarnation")
    );
}

#[test]
fn export_is_byte_deterministic() {
    let report = sample_report();
    assert_eq!(
        otlp_trace(&report, &labels()),
        otlp_trace(&report, &labels())
    );
    assert_eq!(
        otlp_metrics(&report, &labels()),
        otlp_metrics(&report, &labels())
    );
}

#[test]
fn ids_derive_from_seed_and_digest() {
    let report = sample_report();
    let a = otlp_check::trace(&otlp_trace(&report, &labels())).unwrap();
    let b = otlp_check::trace(&otlp_trace(&report, &labels())).unwrap();
    assert_eq!(a.spans[0].trace_id, b.spans[0].trace_id);
    // A different seed produces a different digest, hence new ids.
    let other = {
        let h = ObsHandle::new(ObsLevel::Full, 8);
        h.emit(Event::BgDone);
        h.take_report().unwrap()
    };
    let c = otlp_check::trace(&otlp_trace(&other, &labels())).unwrap();
    assert_ne!(a.spans[0].trace_id, c.spans[0].trace_id);
}

#[test]
fn metrics_round_trip() {
    let report = sample_report();
    let json = otlp_metrics(&report, &labels());
    let doc = otlp_check::metrics(&json).expect("decodes");
    let sum = |name: &str| doc.sum(name).unwrap_or_else(|| panic!("{name} missing"));
    assert_eq!(sum("wf.tasks_started"), 2);
    assert_eq!(sum("wf.tasks_finished"), 1);
    assert_eq!(sum("wf.tasks_killed"), 1);
    assert_eq!(sum("wf.cache_misses"), 1);
    assert_eq!(
        doc.resource,
        otlp_check::trace(&otlp_trace(&report, &labels()))
            .unwrap()
            .resource,
        "trace and metrics share the resource block"
    );
}

#[test]
fn empty_report_still_exports_single_root() {
    let h = ObsHandle::new(ObsLevel::Full, 3);
    let report = h.take_report().unwrap();
    let t = otlp_check::trace(&otlp_trace(&report, &OtlpLabels::default())).unwrap();
    otlp_check::check_well_formed(&t).expect("well-formed");
    assert_eq!(t.spans.len(), 1);
    assert_eq!(t.spans[0].start, t.spans[0].end);
}

const TRACE_ID: &str = "0123456789abcdef0123456789abcdef";
const ROOT: &str = "00000000000000a1";
const NODE: &str = "00000000000000b2";
const TASK: &str = "00000000000000c3";
const MISSING: &str = "00000000000000ff";

/// The fields of one hand-built span the checker looks at.
struct Span {
    trace: &'static str,
    id: &'static str,
    parent: &'static str,
    start: u64,
    end: u64,
    link: Option<&'static str>,
}

/// A well-formed run → node → task tree; the task links to its node.
fn tree() -> Vec<Span> {
    let span = |id, parent, start, end, link| Span {
        trace: TRACE_ID,
        id,
        parent,
        start,
        end,
        link,
    };
    vec![
        span(ROOT, "", 0, 100, None),
        span(NODE, ROOT, 10, 90, None),
        span(TASK, NODE, 20, 80, Some(NODE)),
    ]
}

/// Render spans as an `ExportTraceServiceRequest` in the exporter's shape.
fn render(spans: &[Span]) -> String {
    let spans: Vec<String> = spans
        .iter()
        .map(|s| {
            let links = s.link.map_or(String::new(), |l| {
                format!(
                    "{{\"traceId\":\"{}\",\"spanId\":\"{l}\",\"attributes\":\
                     [{{\"key\":\"wf.link\",\"value\":{{\"stringValue\":\"retry_of\"}}}}]}}",
                    s.trace
                )
            });
            format!(
                "{{\"traceId\":\"{}\",\"spanId\":\"{}\",\"parentSpanId\":\"{}\",\"name\":\"s\",\
                 \"kind\":1,\"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\",\
                 \"attributes\":[],\"events\":[],\"links\":[{links}],\"status\":{{\"code\":1}}}}",
                s.trace, s.id, s.parent, s.start, s.end
            )
        })
        .collect();
    format!(
        "{{\"resourceSpans\":[{{\"resource\":{{\"attributes\":[]}},\"scopeSpans\":\
         [{{\"scope\":{{\"name\":\"wfobs\",\"version\":\"0.1.0\"}},\"spans\":[{}]}}]}}]}}",
        spans.join(",")
    )
}

/// Assert the checker rejects `spans`, naming the broken rule.
fn assert_rejected(spans: &[Span], rule: &str) {
    let trace = otlp_check::trace(&render(spans)).expect("hand-built document parses");
    let err = otlp_check::check_well_formed(&trace)
        .expect_err(&format!("checker accepted a document breaking: {rule}"));
    assert!(
        err.contains(rule),
        "rejected for {err:?}, expected {rule:?}"
    );
}

#[test]
fn hand_built_tree_is_accepted() {
    let trace = otlp_check::trace(&render(&tree())).expect("parses");
    otlp_check::check_well_formed(&trace).expect("the base tree is well-formed");
}

#[test]
fn rejects_an_empty_document() {
    assert_rejected(&[], "no spans");
}

#[test]
fn rejects_two_roots() {
    let mut spans = tree();
    spans[1].parent = "";
    assert_rejected(&spans, "single root span, found 2");
}

#[test]
fn rejects_a_dangling_parent() {
    let mut spans = tree();
    spans[2].parent = MISSING;
    assert_rejected(&spans, &format!("parent {MISSING:?} does not resolve"));
}

#[test]
fn rejects_a_duplicate_span_id() {
    let mut spans = tree();
    spans[2].id = NODE;
    spans[2].link = None;
    assert_rejected(&spans, "duplicate span id");
}

#[test]
fn rejects_zero_and_short_span_ids() {
    let mut spans = tree();
    spans[2].id = "0000000000000000";
    assert_rejected(&spans, "invalid id");
    spans[2].id = "c3";
    assert_rejected(&spans, "invalid id");
}

#[test]
fn rejects_zero_and_short_trace_ids() {
    for bad in ["00000000000000000000000000000000", "0123456789abcdef"] {
        let spans: Vec<Span> = tree()
            .into_iter()
            .map(|s| Span { trace: bad, ..s })
            .collect();
        assert_rejected(&spans, "bad trace id");
    }
}

#[test]
fn rejects_mixed_trace_ids() {
    let mut spans = tree();
    spans[2].trace = "fedcba9876543210fedcba9876543210";
    assert_rejected(&spans, "differs");
}

#[test]
fn rejects_a_span_ending_before_it_starts() {
    let mut spans = tree();
    // Both ends stay inside the parent's [10, 90], so only this rule breaks.
    spans[2].start = 60;
    spans[2].end = 30;
    assert_rejected(&spans, "ends before it starts");
}

#[test]
fn rejects_a_child_outside_its_parent() {
    let mut spans = tree();
    spans[2].start = 5;
    assert_rejected(&spans, "not nested in parent");
    let mut spans = tree();
    spans[2].end = 95;
    assert_rejected(&spans, "not nested in parent");
}

#[test]
fn rejects_a_dangling_link() {
    let mut spans = tree();
    spans[2].link = Some(MISSING);
    assert_rejected(&spans, &format!("link {MISSING:?} does not resolve"));
}

#[test]
fn rejects_a_dangling_link_on_the_root() {
    let mut spans = tree();
    spans[0].link = Some(MISSING);
    assert_rejected(&spans, &format!("link {MISSING:?} does not resolve"));
}
