//! The traced pass: host time split across the simulator's layers, with
//! the fidelity checks that make the split trustworthy.

use crate::export::render_all;
use crate::outcome::RunSummary;
use crate::recompose::{run_recomposed, set_up};
use crate::replay::{replay, resource_capacities, Schedule};
use crate::workload::{Scale, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wfengine::{run_workflow, RunConfig, RunStats};
use wfobs::ObsLevel;
use wfstorage::StorageOpStats;

/// Host seconds of one set-up, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// `wfgen::montage`.
    pub wfgen_s: f64,
    /// `Cluster::provision`.
    pub provision_s: f64,
    /// `build_storage` plus `World::new`.
    pub storage_world_s: f64,
}

impl SetupSplit {
    /// Generate the workload's workflow and build its simulation, timing
    /// each step; the built simulation is dropped untimed.
    pub fn measure(workload: Workload, scale: Scale, seed: u64) -> SetupSplit {
        let t = Instant::now();
        let wf = workload.workflow(scale, seed);
        let wfgen_s = t.elapsed().as_secs_f64();
        let (sim, world, times) = set_up(wf, workload.config(seed), |s| s);
        drop(std::hint::black_box((sim, world)));
        SetupSplit {
            wfgen_s,
            provision_s: times.provision,
            storage_world_s: times.build_storage + times.world,
        }
    }

    /// The whole set-up: what `setup_s` reports.
    pub fn total(&self) -> f64 {
        self.wfgen_s + self.provision_s + self.storage_world_s
    }
}

/// Everything the traced pass measured.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// Per-layer metrics, by name, in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Fidelity failures (empty when every check passed).
    pub failures: Vec<String>,
    /// Whether the solver replay reproduced every rate and completion.
    pub solver_verified: bool,
    /// Simulation passes run.
    pub passes: u64,
    /// Traced rounds the medians are over.
    pub rounds: u64,
    /// Outputs of the first round's `run_workflow` at Off.
    pub summary: Option<RunSummary>,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Medians per step over `reps` set-ups.
fn setup_medians(workload: Workload, scale: Scale, seed: u64, reps: usize) -> SetupSplit {
    let splits: Vec<SetupSplit> = (0..reps)
        .map(|_| SetupSplit::measure(workload, scale, seed))
        .collect();
    let step = |f: fn(&SetupSplit) -> f64| median(splits.iter().map(f).collect());
    SetupSplit {
        wfgen_s: step(|s| s.wfgen_s),
        provision_s: step(|s| s.provision_s),
        storage_world_s: step(|s| s.storage_world_s),
    }
}

fn timed_run(wf: &wfdag::Workflow, cfg: RunConfig) -> Result<(RunStats, f64), String> {
    let wf = wf.clone();
    let t = Instant::now();
    let stats = run_workflow(wf, cfg).map_err(|e| e.to_string())?;
    Ok((stats, t.elapsed().as_secs_f64()))
}

fn check(failures: &mut Vec<String>, what: &str, got: &RunSummary, want: &RunSummary) {
    if let Some(field) = got.first_difference(want) {
        failures.push(format!("{what}: {field} differs from run_workflow"));
    }
}

/// Upper bound on traced rounds, whatever the budget.
const MAX_ROUNDS: usize = 7;

/// Run the traced pass on one workload.
///
/// One round is, on the same generated workflow:
/// 1. `run_workflow` at Off (the `trace.overhead` base);
/// 2. the recomposed run at Off, Digest and Full, storage timed, each
///    checked against `run_workflow` at the same level (Off from 1, the
///    Digest reference from the first round);
/// 3. for the export workload, `run_workflow` at Full plus every
///    exporter, timed;
/// 4. the solver replay of the flow schedule the first round's Full pass
///    captured.
///
/// Rounds repeat while another one fits in `budget` (at least one, at
/// most [`MAX_ROUNDS`]); every host time reported is the median over
/// rounds.
pub fn traced_run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Duration,
) -> Result<LayerReport, String> {
    let started = Instant::now();
    let setup = setup_medians(workload, scale, seed, 5);
    let wf = workload.workflow(scale, seed);
    let cfg = |level: ObsLevel| workload.config(seed).with_obs(level);
    let mut failures = Vec::new();

    let (dig_stats, _) = timed_run(&wf, cfg(ObsLevel::Digest))?;
    let dig_ref = RunSummary::from_stats(&dig_stats);
    drop(dig_stats);
    let mut passes = 1;

    let mut t = Walls::default();
    let mut schedule: Option<Schedule> = None;
    let (mut probe_calls, mut probe_legs, mut events, mut events_recorded) = (0, 0, 0, 0);
    let mut ops = StorageOpStats::default();
    let mut export_mb = 0.0;
    let mut first_off = None;
    for round in 0..MAX_ROUNDS {
        let round_started = Instant::now();
        let (off_stats, off_wall) = timed_run(&wf, cfg(ObsLevel::Off))?;
        let off_ref = RunSummary::from_stats(&off_stats);
        t.untraced.push(off_wall);
        first_off.get_or_insert_with(|| off_ref.clone());

        let rec_off = run_recomposed(wf.clone(), cfg(ObsLevel::Off), false)?;
        check(
            &mut failures,
            "recomposed Off run",
            &rec_off.summary,
            &off_ref,
        );
        t.traced_off.push(rec_off.wall.as_secs_f64());
        t.plan.push(rec_off.probe.busy.as_secs_f64());
        (probe_calls, probe_legs) = (rec_off.probe.calls, rec_off.probe.legs);
        (events, ops) = (off_ref.events, off_ref.op_stats);

        let rec_dig = run_recomposed(wf.clone(), cfg(ObsLevel::Digest), false)?;
        check(
            &mut failures,
            "recomposed Digest run",
            &rec_dig.summary,
            &dig_ref,
        );
        t.digest.push(rec_dig.wall.as_secs_f64());

        let capture = round == 0;
        let rec_full = run_recomposed(wf.clone(), cfg(ObsLevel::Full), capture)?;
        check(
            &mut failures,
            "recomposed Full run",
            &rec_full.summary,
            &dig_ref,
        );
        t.full.push(rec_full.wall.as_secs_f64());
        passes += 4;
        if capture {
            let report = rec_full.report.ok_or("the Full pass recorded no report")?;
            events_recorded = report.events.len();
            let capacities = resource_capacities(&cfg(ObsLevel::Full));
            if capacities.len() != report.resources.len() {
                failures.push(format!(
                    "capacity probe found {} resources, the run registered {}",
                    capacities.len(),
                    report.resources.len()
                ));
            }
            let caps = rec_full.probe.caps.unwrap_or_default();
            schedule = Some(Schedule::capture(&report, caps, capacities));
        }

        if workload.exports() {
            let (full_stats, _) = timed_run(&wf, cfg(ObsLevel::Full))?;
            passes += 1;
            check(
                &mut failures,
                "run_workflow Full run",
                &RunSummary::from_stats(&full_stats),
                &dig_ref,
            );
            let storage = workload.storage().label();
            for r in render_all(&full_stats, &wf, storage, workload.workers()) {
                t.exports.entry(r.name).or_default().push(r.secs);
                if round == 0 {
                    export_mb += r.bytes as f64 / 1e6;
                }
            }
        }

        let sched = schedule.clone().ok_or("no flow schedule was captured")?;
        let rep = replay(sched);
        t.replay.push(rep.elapsed.as_secs_f64());
        t.mismatches = t.mismatches.max(rep.mismatches());
        // Stop unless another round of the same length fits the budget.
        if started.elapsed() + round_started.elapsed() > budget {
            break;
        }
    }
    let schedule = schedule.ok_or("no flow schedule was captured")?;
    let mismatches = t.mismatches + schedule.unmatched_caps;

    let off_traced = median(t.traced_off.clone());
    let plan_s = median(t.plan.clone());
    let replay_s = median(t.replay.clone());
    let residual_s = off_traced - plan_s - replay_s;
    let per = |secs: f64, n: f64| if n > 0.0 { secs * 1e9 / n } else { 0.0 };
    let lookups = ops.cache_hits + ops.cache_misses;
    let export_s = |name: &str| t.exports.get(name).map_or(0.0, |v| median(v.clone()));
    let flows = schedule.flows() as f64;
    let events = events as f64;

    let metrics = vec![
        ("storage.plan_s", plan_s),
        ("storage.calls", probe_calls as f64),
        ("storage.ns_per_call", per(plan_s, probe_calls as f64)),
        ("storage.legs", probe_legs as f64),
        (
            "storage.cache_hit_ratio",
            if lookups > 0 {
                ops.cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
        ),
        ("solver.replay_s", replay_s),
        ("solver.flows", flows),
        ("solver.ns_per_flow", per(replay_s, flows)),
        ("solver.path_len_mean", schedule.path_len_mean()),
        ("solver.same_instant_frac", schedule.same_instant_frac()),
        ("solver.replay_mismatches", mismatches as f64),
        ("loop.residual_s", residual_s),
        ("loop.events", events),
        ("loop.ns_per_event", per(residual_s, events)),
        ("obs.digest_ratio", median(t.digest.clone()) / off_traced),
        ("obs.full_ratio", median(t.full.clone()) / off_traced),
        ("obs.events_recorded", events_recorded as f64),
        ("export.otlp_trace_s", export_s("otlp_trace")),
        ("export.otlp_metrics_s", export_s("otlp_metrics")),
        ("export.chrome_s", export_s("chrome")),
        ("export.folded_s", export_s("folded")),
        ("export.metrics_csv_s", export_s("metrics_csv")),
        ("export.mb", export_mb),
        ("setup.wfgen_s", setup.wfgen_s),
        ("setup.provision_s", setup.provision_s),
        ("setup.storage_world_s", setup.storage_world_s),
        ("trace.overhead", off_traced / median(t.untraced.clone())),
    ];
    Ok(LayerReport {
        metrics,
        failures,
        solver_verified: mismatches == 0,
        passes,
        rounds: t.untraced.len() as u64,
        summary: first_off,
    })
}

/// Host times collected over the traced rounds, seconds.
#[derive(Default)]
struct Walls {
    untraced: Vec<f64>,
    traced_off: Vec<f64>,
    plan: Vec<f64>,
    digest: Vec<f64>,
    full: Vec<f64>,
    replay: Vec<f64>,
    exports: BTreeMap<&'static str, Vec<f64>>,
    mismatches: u64,
}
