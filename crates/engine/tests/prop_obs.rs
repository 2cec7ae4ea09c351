//! Property tests for the observability subsystem (`wfobs`) as wired
//! through the engine:
//!
//! 1. **Chrome traces are well-formed.** For random DAGs, storage kinds
//!    and seeds, the exported Trace Event JSON parses, has a
//!    `traceEvents` array, and every lane's `"X"` spans are strictly
//!    nested or disjoint — the invariant `chrome://tracing` renders by.
//! 2. **The run digest is a replay contract.** Same workflow + config +
//!    seed → same digest (at `Digest` *and* `Full` level — the digest
//!    must not depend on whether events are also being recorded);
//!    different seeds → different digests.
//! 3. **Levels record exactly what they promise.** Sampling
//!    `Off`/`Digest`/`Full`: `Off` produces neither digest nor report,
//!    `Digest` produces the digest but no exporter-visible events, and
//!    `Full` produces both with the same digest value.

use proptest::prelude::*;
use wfengine::{run_workflow, RunConfig, RunStats};
use wfobs::{chrome_trace, ChromeLabels, ObsLevel};
use wfstorage::StorageKind;

/// Generation parameters of one task: compute seconds, output size, and
/// a parent-selection mask over earlier tasks.
#[derive(Debug, Clone, Copy)]
struct GenTask {
    cpu_ds: u16,
    out_mb: u8,
    parent_mask: u32,
}

fn gen_task() -> impl Strategy<Value = GenTask> {
    (1u16..50, 1u8..20, 0u32..=u32::MAX).prop_map(|(cpu_ds, out_mb, parent_mask)| GenTask {
        cpu_ds,
        out_mb,
        parent_mask,
    })
}

/// Build a random but well-formed DAG: task `i` consumes the outputs of
/// the earlier tasks its mask selects (plus a common input for roots).
fn build_workflow(tasks: &[GenTask]) -> wfdag::Workflow {
    let mut b = wfdag::WorkflowBuilder::new("prop-obs");
    let root_in = b.file("in.dat", 2_000_000);
    let mut outs = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let out = b.file(format!("f{i}.dat"), u64::from(t.out_mb) * 1_000_000);
        let parents: Vec<_> = (0..i)
            .filter(|j| t.parent_mask >> (j % 32) & 1 == 1)
            .map(|j| outs[j])
            .collect();
        let inputs = if parents.is_empty() {
            vec![root_in]
        } else {
            parents
        };
        b.task(
            format!("t{i}"),
            "w",
            f64::from(t.cpu_ds) / 10.0,
            128 << 20,
            inputs,
            vec![out],
        );
        outs.push(out);
    }
    b.build().expect("generated DAG is acyclic by construction")
}

const KINDS: [StorageKind; 5] = [
    StorageKind::Nfs,
    StorageKind::S3,
    StorageKind::GlusterNufa,
    StorageKind::GlusterDistribute,
    StorageKind::Pvfs,
];

fn run(tasks: &[GenTask], kind_ix: usize, workers: u32, seed: u64, obs: ObsLevel) -> RunStats {
    let cfg = RunConfig::cell(KINDS[kind_ix % KINDS.len()], workers)
        .with_seed(seed)
        .with_obs(obs);
    run_workflow(build_workflow(tasks), cfg).expect("fault-free run succeeds")
}

/// Extract `(ts, ts + dur)` for every complete (`"ph":"X"`) span, grouped
/// by `(pid, tid)` lane.
fn spans_by_lane(trace: &serde_json::Value) -> Result<Vec<Vec<(f64, f64)>>, TestCaseError> {
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| TestCaseError::fail("traceEvents array missing"))?;
    let num = |v: &serde_json::Value| -> Option<f64> {
        match *v {
            serde_json::Value::F64(f) => Some(f),
            serde_json::Value::I64(n) => Some(n as f64),
            serde_json::Value::U64(n) => Some(n as f64),
            _ => None,
        }
    };
    type Lane = ((f64, f64), Vec<(f64, f64)>);
    let mut lanes: Vec<Lane> = Vec::new();
    for ev in events {
        let ph = ev.get("ph");
        let is_x = matches!(ph, Some(serde_json::Value::Str(s)) if s == "X");
        if !is_x {
            continue;
        }
        let pid = ev.get("pid").and_then(&num).expect("X span has pid");
        let tid = ev.get("tid").and_then(&num).expect("X span has tid");
        let ts = ev.get("ts").and_then(&num).expect("X span has ts");
        let dur = ev.get("dur").and_then(&num).expect("X span has dur");
        prop_assert!(ts >= 0.0 && dur >= 0.0, "negative ts/dur: {ts}/{dur}");
        let key = (pid, tid);
        match lanes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push((ts, ts + dur)),
            None => lanes.push((key, vec![(ts, ts + dur)])),
        }
    }
    Ok(lanes.into_iter().map(|(_, v)| v).collect())
}

/// Chrome's rendering invariant: within one lane, spans sorted by start
/// (ties: longest first) must form a stack — each span either starts
/// after the enclosing span ends, or ends no later than it. `ts` and
/// `dur` are printed at microsecond precision with 3 decimals, so two
/// spans closing at the same instant can disagree by the rounding of
/// `ts + dur`; 2.5 ns absorbs that without masking real overlaps.
fn assert_nested_or_disjoint(mut spans: Vec<(f64, f64)>) -> Result<(), TestCaseError> {
    const EPS: f64 = 0.0025;
    spans.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(b.1.partial_cmp(&a.1).unwrap())
    });
    let mut stack: Vec<(f64, f64)> = Vec::new();
    for (start, end) in spans {
        while let Some(&(_, top_end)) = stack.last() {
            if top_end <= start + EPS {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(top_start, top_end)) = stack.last() {
            prop_assert!(
                end <= top_end + EPS,
                "span [{start}, {end}] straddles enclosing [{top_start}, {top_end}]"
            );
        }
        stack.push((start, end));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A full-level run's Chrome trace parses as JSON and every lane's
    /// spans are nested or disjoint.
    #[test]
    fn chrome_trace_is_valid_and_lanes_nest(
        tasks in proptest::collection::vec(gen_task(), 1..12),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..=u64::MAX,
    ) {
        let stats = run(&tasks, kind_ix, workers, seed, ObsLevel::Full);
        let report = stats.obs.as_ref().expect("Full level records a report");
        prop_assert!(!report.events.is_empty(), "run emitted no events");
        let wf = build_workflow(&tasks);
        let labels = ChromeLabels {
            task_names: wf.tasks().iter().map(|t| t.name.clone()).collect(),
            node_names: Vec::new(),
        };
        let json = chrome_trace(report, &labels);
        let parsed: serde_json::Value =
            serde_json::from_str(&json).expect("chrome trace is valid JSON");
        let lanes = spans_by_lane(&parsed)?;
        prop_assert!(!lanes.is_empty(), "no spans exported");
        for lane in lanes {
            assert_nested_or_disjoint(lane)?;
        }
    }

    /// Digest is stable across same-seed replays, identical between
    /// `Digest` and `Full` levels, and perturbed by the seed.
    #[test]
    fn digest_replays_and_separates_seeds(
        tasks in proptest::collection::vec(gen_task(), 1..10),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..u64::MAX,
    ) {
        let a = run(&tasks, kind_ix, workers, seed, ObsLevel::Digest);
        let b = run(&tasks, kind_ix, workers, seed, ObsLevel::Digest);
        let full = run(&tasks, kind_ix, workers, seed, ObsLevel::Full);
        let other = run(&tasks, kind_ix, workers, seed + 1, ObsLevel::Digest);
        prop_assert!(a.digest.is_some(), "digest missing at Digest level");
        prop_assert_eq!(a.digest, b.digest, "same-seed digests diverged");
        prop_assert_eq!(a.digest, full.digest, "Digest and Full levels disagree");
        prop_assert!(a.digest != other.digest, "different seeds collided");
    }

    /// Each observability level records exactly what it promises: `Off`
    /// nothing, `Digest` only the digest (no exporter-visible event log),
    /// `Full` the digest plus a non-empty report that agrees with it. No
    /// level changes the simulation: makespan bits, events and flow-engine
    /// work all equal those of an `Off` run on the same inputs.
    #[test]
    fn obs_levels_record_what_they_promise(
        tasks in proptest::collection::vec(gen_task(), 1..8),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..=u64::MAX,
        level_ix in 0usize..3,
    ) {
        let level = [ObsLevel::Off, ObsLevel::Digest, ObsLevel::Full][level_ix];
        let stats = run(&tasks, kind_ix, workers, seed, level);
        match level {
            ObsLevel::Off => {
                prop_assert!(stats.digest.is_none(), "Off must not digest");
                prop_assert!(stats.obs.is_none(), "Off must not record");
            }
            ObsLevel::Digest => {
                prop_assert!(stats.digest.is_some(), "Digest must digest");
                prop_assert!(
                    stats.obs.is_none(),
                    "Digest must emit no exporter-visible events"
                );
            }
            ObsLevel::Full => {
                let report = stats.obs.as_ref().expect("Full records a report");
                prop_assert!(!report.events.is_empty(), "Full recorded no events");
                prop_assert_eq!(
                    stats.digest,
                    Some(report.digest),
                    "report digest and stats digest diverged"
                );
            }
        }
        // The digest value itself never depends on the recording level.
        if level != ObsLevel::Off {
            let other = run(&tasks, kind_ix, workers, seed, ObsLevel::Digest);
            prop_assert_eq!(stats.digest, other.digest);
            let off = run(&tasks, kind_ix, workers, seed, ObsLevel::Off);
            prop_assert_eq!(
                stats.makespan_secs.to_bits(),
                off.makespan_secs.to_bits(),
                "observability changed simulated time"
            );
            prop_assert_eq!(stats.events, off.events);
            prop_assert_eq!(stats.flow_work, off.flow_work);
        }
    }
}
