//! `perfbench` — one measurement per invocation, printed as one JSON line.
//! `run.py` runs it repeatedly and aggregates.
//!
//! ```text
//! perfbench rep    --workload W --seed N             timed set-ups, then one timed run
//! perfbench verify --workload W --seed N             the recomposed run's outputs
//! perfbench trace  --workload W --seed N --seconds S per-layer split + fidelity
//! ```

use perfbench::export::render_all;
use perfbench::layers::{traced_run, SetupSplit};
use perfbench::outcome::{peak_rss_mb, RunSummary};
use perfbench::recompose::run_recomposed;
use perfbench::workload::{Scale, Workload};
use std::time::{Duration, Instant};
use wfgen::App;

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    budget: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing subcommand")?;
    let (mut workload, mut seed) = (None, 42);
    let mut budget = Duration::ZERO;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be a u64")?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                budget = Duration::try_from_secs_f64(secs).map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        cmd,
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget,
    })
}

/// Set-ups timed per `rep` process. Host speed differs from process to
/// process, so set-up samples are spread over every timed run's process.
const SETUPS_PER_RUN: usize = 3;

/// [`SETUPS_PER_RUN`] timed set-ups (workflow generation, provisioning,
/// storage construction, `World::new`), then one timed workload run: from
/// the generated workflow to the checked `RunStats`, plus every export
/// for the export workload.
fn cmd_rep(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let setups: Vec<String> = (0..SETUPS_PER_RUN)
        .map(|_| {
            SetupSplit::measure(w, Scale::Paper, a.seed)
                .total()
                .to_string()
        })
        .collect();
    let wf = w.workflow(Scale::Paper, a.seed);
    let expected_tasks = wf.task_count();
    let wf_for_labels = wf.clone();
    let cfg = w.config(a.seed);
    let t = Instant::now();
    let stats = wfengine::run_workflow(wf, cfg.clone()).map_err(|e| e.to_string())?;
    let exports = if w.exports() {
        render_all(&stats, &wf_for_labels, w.storage().label(), w.workers())
    } else {
        Vec::new()
    };
    let wall = t.elapsed().as_secs_f64();
    if stats.tasks != expected_tasks || stats.retries != 0 {
        return Err(format!(
            "ran {} of {expected_tasks} tasks with {} retries",
            stats.tasks, stats.retries
        ));
    }
    let cell = expt::Cell::new(App::Montage, w.storage(), w.workers());
    let cost = expt::grid::summarize(cell, &cfg, &stats);
    let exports_json: Vec<String> = exports
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"bytes\": {}, \"hash\": \"{:016x}\", \"secs\": {}}}",
                r.name, r.bytes, r.hash, r.secs
            )
        })
        .collect();
    Ok(format!(
        "{{\"wall_s\": {wall}, \"setup_s\": [{}], \"peak_rss_mb\": {}, {}, \
         \"cost_per_hour_bits\": \"{:016x}\", \"cost_per_second_bits\": \"{:016x}\", \
         \"exports\": [{}]}}",
        setups.join(", "),
        peak_rss_mb().unwrap_or(0.0),
        RunSummary::from_stats(&stats).json_fields(),
        cost.cost_per_hour_usd.to_bits(),
        cost.cost_per_second_usd.to_bits(),
        exports_json.join(", ")
    ))
}

/// The recomposed run at the workload's own level, for comparison with
/// the timed `run_workflow` runs.
fn cmd_verify(a: &Args) -> Result<String, String> {
    let wf = a.workload.workflow(Scale::Paper, a.seed);
    let rec = run_recomposed(wf, a.workload.config(a.seed), false)?;
    Ok(format!("{{{}}}", rec.summary.json_fields()))
}

fn cmd_trace(a: &Args) -> Result<String, String> {
    let r = traced_run(a.workload, Scale::Paper, a.seed, a.budget)?;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('"', "'")))
        .collect();
    Ok(format!(
        "{{\"passes\": {}, \"rounds\": {}, \"solver_verified\": {}, \"failures\": [{}], \
         \"summary\": {{{}}}, \"metrics\": {{{}}}}}",
        r.passes,
        r.rounds,
        r.solver_verified,
        failures.join(", "),
        r.summary
            .as_ref()
            .map_or_else(String::new, RunSummary::json_fields),
        metrics.join(", ")
    ))
}

fn main() {
    let result = parse_args().and_then(|a| match a.cmd.as_str() {
        "rep" => cmd_rep(&a),
        "verify" => cmd_verify(&a),
        "trace" => cmd_trace(&a),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
