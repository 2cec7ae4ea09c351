//! Golden test for the span exporters under faults: the OTLP trace, the
//! Chrome trace, the folded storage stacks and the bus phase breakdown of
//! two faulted tiny Montage runs must reproduce the checked-in FNV-1a
//! hashes and byte lengths (and, for the breakdown, the exact `f64`
//! bits). The crash run kills attempts mid-phase and retries them on a
//! reprovisioned node; the task-failure run takes the `TaskFailed` path.
//! Whole documents are too large to pin (the Chrome trace alone is
//! ~230 KB), so only their hashes are kept. Regenerate after an
//! intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test export_golden
//! ```

use wfengine::{
    phase_breakdown_from_bus, run_workflow, FailureModel, FaultPlan, NodeCrashSpec, RunConfig,
    RunStats,
};
use wfgen::App;
use wfobs::{Event, ObsLevel};
use wfstorage::StorageKind;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/export_golden.txt"
);

const KIND: StorageKind = StorageKind::GlusterNufa;
const WORKERS: u32 = 3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn faulted_run(plan: FaultPlan) -> (RunStats, wfdag::Workflow) {
    let wf = App::Montage.tiny_workflow();
    let mut cfg = RunConfig::cell(KIND, WORKERS)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    cfg.faults = Some(plan);
    let stats = run_workflow(wf.clone(), cfg).expect("faulted run succeeds");
    (stats, wf)
}

/// The `tui_golden` crash run: node 1 crashes at 40 s and is
/// reprovisioned.
fn crash_run() -> (RunStats, wfdag::Workflow) {
    let mut plan = FaultPlan::zero();
    plan.node_crash = Some(NodeCrashSpec {
        rate_per_hour: 0.0,
        scheduled: vec![(1, 40.0)],
        reprovision: true,
    });
    plan.max_fault_retries = 16;
    faulted_run(plan)
}

/// Transient failures at compute end, retried.
fn task_failure_run() -> (RunStats, wfdag::Workflow) {
    let mut plan = FaultPlan::zero();
    plan.task_failures = Some(FailureModel {
        prob: 0.2,
        max_retries: 8,
    });
    faulted_run(plan)
}

/// One `name kind len hash` line per exporter, plus the breakdown bits.
fn pin(name: &str, stats: &RunStats, wf: &wfdag::Workflow) -> String {
    let report = stats.obs.as_ref().expect("Full level records a report");
    let task_names: Vec<String> = wf.tasks().iter().map(|t| t.name.clone()).collect();
    let otlp = wfobs::otlp_trace(
        report,
        &wfengine::otlp_labels(stats, wf, KIND.label(), WORKERS),
    );
    let chrome = wfobs::chrome_trace(
        report,
        &wfobs::ChromeLabels {
            task_names: task_names.clone(),
            node_names: Vec::new(),
        },
    );
    let folded = wfobs::folded_storage_stacks(report, &task_names, KIND.label());
    let mut out = String::new();
    for (kind, doc) in [("otlp_trace", otlp), ("chrome", chrome), ("folded", folded)] {
        out.push_str(&format!(
            "{name} {kind} {} {:016x}\n",
            doc.len(),
            fnv1a(doc.as_bytes())
        ));
    }
    let p = phase_breakdown_from_bus(report);
    let bits: Vec<String> = [
        p.overhead,
        p.ops,
        p.stage_in,
        p.read,
        p.compute,
        p.write,
        p.stage_out,
    ]
    .iter()
    .map(|v| format!("{:016x}", v.to_bits()))
    .collect();
    out.push_str(&format!("{name} phases {}\n", bits.join(" ")));
    out
}

fn count(stats: &RunStats, pred: fn(&Event) -> bool) -> usize {
    let report = stats.obs.as_ref().expect("Full level records a report");
    report.events.iter().filter(|(_, e)| pred(e)).count()
}

#[test]
fn faulted_exports_match_golden() {
    let (crash, crash_wf) = crash_run();
    assert!(crash.faults.node_crashes > 0, "the scheduled crash fired");
    assert!(
        count(&crash, |e| matches!(e, Event::TaskKilled { .. })) > 0,
        "the crash killed running attempts"
    );
    let (fail, fail_wf) = task_failure_run();
    assert!(
        count(&fail, |e| matches!(e, Event::TaskFailed { .. })) > 0,
        "transient failures fired"
    );

    let got = pin("crash", &crash, &crash_wf) + &pin("task_failure", &fail, &fail_wf);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "exports drifted from {GOLDEN}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}
