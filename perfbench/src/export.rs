//! Rendering every `wfobs` exporter to memory, timed one by one.

use crate::outcome::fnv1a;
use std::time::Instant;
use wfdag::Workflow;
use wfengine::RunStats;
use wfobs::ObsReport;

/// One rendered export.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// Exporter name.
    pub name: &'static str,
    /// Host seconds spent rendering.
    pub secs: f64,
    /// Size of the rendered document in bytes.
    pub bytes: usize,
    /// FNV-1a of the rendered bytes.
    pub hash: u64,
}

/// Render OTLP traces, OTLP metrics, the Chrome trace, the folded storage
/// stacks and the metrics CSV of a Full-level run, as `wfsim run` would
/// write them, but to memory. Each document is hashed and dropped before
/// the next is rendered.
pub fn render_all(stats: &RunStats, wf: &Workflow, storage: &str, workers: u32) -> Vec<Rendered> {
    let report: &ObsReport = stats.obs.as_ref().expect("Full level records a report");
    let task_names: Vec<String> = wf.tasks().iter().map(|t| t.name.clone()).collect();
    let otlp = wfengine::otlp_labels(stats, wf, storage, workers);
    let chrome = wfobs::ChromeLabels {
        task_names: task_names.clone(),
        node_names: Vec::new(),
    };
    let mut out = Vec::with_capacity(5);
    let mut time = |name: &'static str, render: &dyn Fn() -> String| {
        let t = Instant::now();
        let doc = std::hint::black_box(render());
        let secs = t.elapsed().as_secs_f64();
        out.push(Rendered {
            name,
            secs,
            bytes: doc.len(),
            hash: fnv1a(doc.as_bytes()),
        });
    };
    time("otlp_trace", &|| wfobs::otlp_trace(report, &otlp));
    time("otlp_metrics", &|| wfobs::otlp_metrics(report, &otlp));
    time("chrome", &|| wfobs::chrome_trace(report, &chrome));
    time("folded", &|| {
        wfobs::folded_storage_stacks(report, &task_names, storage)
    });
    time("metrics_csv", &|| report.metrics.to_csv());
    out
}
