//! OTLP/JSON conformance checker shared by the OTLP test targets.
//!
//! Reads the documents [`wfobs::otlp_trace`] and [`wfobs::otlp_metrics`]
//! render through the workspace's one JSON parser (`serde_json::Value`)
//! and checks the structural rules every exported span tree must satisfy.
//! It reads exactly the fields the tests inspect; it is not an OTLP
//! client. `wfobs`'s tests include it with `mod otlp_check;`, the engine
//! and expt test targets with
//! `#[path = "../../wfobs/tests/otlp_check/mod.rs"] mod otlp_check;`.

// Each including test target uses a different subset.
#![allow(dead_code)]

use serde_json::Value;
use std::collections::BTreeMap;

/// An OTLP `AnyValue` object, e.g. `{"intValue":"3"}`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrVal(Value);

impl AttrVal {
    /// The `stringValue` payload.
    pub fn as_str(&self) -> Option<&str> {
        match self.0.get("stringValue")? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The `intValue` payload (a decimal string in OTLP/JSON).
    pub fn as_i64(&self) -> Option<i64> {
        match self.0.get("intValue")? {
            Value::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The `doubleValue` payload. Whole doubles render without a point
    /// (`2.0f64` prints as `2`) and parse as integers, so every numeric
    /// variant counts.
    pub fn as_f64(&self) -> Option<f64> {
        match *self.0.get("doubleValue")? {
            Value::F64(f) => Some(f),
            Value::I64(n) => Some(n as f64),
            Value::U64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The `boolValue` payload.
    pub fn as_bool(&self) -> Option<bool> {
        match *self.0.get("boolValue")? {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// An attribute list in document order.
pub type Attrs = Vec<(String, AttrVal)>;

/// A span event.
#[derive(Debug)]
pub struct SpanEvent {
    pub name: String,
}

/// A span link.
#[derive(Debug)]
pub struct Link {
    pub span_id: String,
    pub attrs: Attrs,
}

/// A span. Timestamps are simulated nanoseconds; the root has an empty
/// `parent_span_id`; `status_code` is 0 unset, 1 ok, 2 error.
#[derive(Debug)]
pub struct Span {
    pub trace_id: String,
    pub span_id: String,
    pub parent_span_id: String,
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub attrs: Attrs,
    pub events: Vec<SpanEvent>,
    pub links: Vec<Link>,
    pub status_code: i64,
}

impl Span {
    /// Look up a span attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrVal> {
        lookup(&self.attrs, key)
    }
}

/// An `ExportTraceServiceRequest`: resource attributes and every span in
/// document order.
#[derive(Debug, Default)]
pub struct Trace {
    pub resource: Attrs,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Look up a resource attribute by key.
    pub fn resource_attr(&self, key: &str) -> Option<&AttrVal> {
        lookup(&self.resource, key)
    }
}

/// An `ExportMetricsServiceRequest`: resource attributes and the
/// cumulative sums (the exported counters).
#[derive(Debug, Default)]
pub struct MetricsDoc {
    pub resource: Attrs,
    sums: Vec<(String, i64)>,
}

impl MetricsDoc {
    /// The value of the `Sum` metric called `name`.
    pub fn sum(&self, name: &str) -> Option<i64> {
        self.sums.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fn lookup<'a>(attrs: &'a Attrs, key: &str) -> Option<&'a AttrVal> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string")),
    }
}

/// A decimal-string integer (the OTLP/JSON mapping of 64-bit ints).
fn int<T: std::str::FromStr>(v: &Value, key: &str) -> Result<T, String> {
    text(v, key)?
        .parse()
        .map_err(|_| format!("`{key}` is not a decimal integer"))
}

fn attrs(v: &Value) -> Result<Attrs, String> {
    array(v, "attributes")?
        .iter()
        .map(|kv| {
            let value = kv.get("value").ok_or("attribute without a value")?;
            Ok((text(kv, "key")?, AttrVal(value.clone())))
        })
        .collect()
}

fn resource(v: &Value) -> Result<Attrs, String> {
    attrs(v.get("resource").ok_or("`resource` missing")?)
}

fn span(sp: &Value) -> Result<Span, String> {
    let events = array(sp, "events")?
        .iter()
        .map(|e| {
            Ok(SpanEvent {
                name: text(e, "name")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let links = array(sp, "links")?
        .iter()
        .map(|l| {
            Ok(Link {
                span_id: text(l, "spanId")?,
                attrs: attrs(l)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let status_code = match sp.get("status").and_then(|s| s.get("code")) {
        Some(&Value::I64(code)) => code,
        _ => return Err("`status.code` is not an integer".into()),
    };
    Ok(Span {
        trace_id: text(sp, "traceId")?,
        span_id: text(sp, "spanId")?,
        parent_span_id: text(sp, "parentSpanId")?,
        name: text(sp, "name")?,
        start: int(sp, "startTimeUnixNano")?,
        end: int(sp, "endTimeUnixNano")?,
        attrs: attrs(sp)?,
        events,
        links,
        status_code,
    })
}

fn parse(json: &str) -> Result<Value, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// Read an `ExportTraceServiceRequest` document.
pub fn trace(json: &str) -> Result<Trace, String> {
    let doc = parse(json)?;
    let mut trace = Trace::default();
    for rs in array(&doc, "resourceSpans")? {
        trace.resource = resource(rs)?;
        for ss in array(rs, "scopeSpans")? {
            for sp in array(ss, "spans")? {
                trace.spans.push(span(sp)?);
            }
        }
    }
    Ok(trace)
}

/// Read an `ExportMetricsServiceRequest` document.
pub fn metrics(json: &str) -> Result<MetricsDoc, String> {
    let doc = parse(json)?;
    let mut out = MetricsDoc::default();
    for rm in array(&doc, "resourceMetrics")? {
        out.resource = resource(rm)?;
        for sm in array(rm, "scopeMetrics")? {
            for m in array(sm, "metrics")? {
                let Some(sum) = m.get("sum") else { continue };
                let point = array(sum, "dataPoints")?
                    .first()
                    .ok_or("sum without data points")?;
                out.sums.push((text(m, "name")?, int(point, "asInt")?));
            }
        }
    }
    Ok(out)
}

/// Whether `id` has `len` characters and is not all zeros (OTLP's
/// invalid id).
fn valid_id(id: &str, len: usize) -> bool {
    id.len() == len && id.bytes().any(|b| b != b'0')
}

/// Check the structural invariants every exported span tree must
/// satisfy: a single root, parent ids and links that resolve within the
/// document, one trace id shared by all spans, unique valid span ids, and
/// child intervals nested inside their parents'.
pub fn check_well_formed(trace: &Trace) -> Result<(), String> {
    let Some(first) = trace.spans.first() else {
        return Err("no spans in document".into());
    };
    let trace_id = &first.trace_id;
    if !valid_id(trace_id, 32) {
        return Err(format!("bad trace id {trace_id:?}"));
    }
    let mut ids = BTreeMap::new();
    let mut roots = 0usize;
    for (i, s) in trace.spans.iter().enumerate() {
        if s.trace_id != *trace_id {
            return Err(format!("span {i} trace id {:?} differs", s.trace_id));
        }
        if !valid_id(&s.span_id, 16) {
            return Err(format!("span {i} has invalid id {:?}", s.span_id));
        }
        if ids.insert(s.span_id.as_str(), s).is_some() {
            return Err(format!("duplicate span id {:?}", s.span_id));
        }
        if s.parent_span_id.is_empty() {
            roots += 1;
        }
        if s.end < s.start {
            return Err(format!("span {i} ends before it starts"));
        }
    }
    if roots != 1 {
        return Err(format!("expected a single root span, found {roots}"));
    }
    for (i, s) in trace.spans.iter().enumerate() {
        for l in &s.links {
            if !ids.contains_key(l.span_id.as_str()) {
                return Err(format!("span {i} link {:?} does not resolve", l.span_id));
            }
        }
        if s.parent_span_id.is_empty() {
            continue;
        }
        let Some(parent) = ids.get(s.parent_span_id.as_str()) else {
            return Err(format!(
                "span {i} parent {:?} does not resolve",
                s.parent_span_id
            ));
        };
        if s.start < parent.start || s.end > parent.end {
            return Err(format!(
                "span {i} [{}, {}] not nested in parent [{}, {}]",
                s.start, s.end, parent.start, parent.end
            ));
        }
    }
    Ok(())
}
