//! Perf smoke for the simulation kernel: the Montage-scale flow schedule
//! driven through both the incremental [`FlowEngine`] and the preserved
//! O(F²) reference solver, timed, and checked against `BENCH.json`.
//!
//! `cargo run --release -p expt --bin repro -- --bench-smoke` runs this in
//! a few seconds (`--update` rewrites the baseline); `wfbench`'s `kernel`
//! benchmark reuses the same workload for fuller Criterion statistics.

use serde::Serialize;
use simcore::naive::NaiveFlowEngine;
use simcore::{FlowEngine, FlowSpec, ResourceId, Sim, SimTime};
use std::time::Instant;
use wfobs::{ObsHandle, ObsLevel};

/// A deterministic Montage-scale flow schedule over shared resources.
pub struct KernelWorkload {
    /// Resource capacities (bytes/second), index = resource id.
    pub caps: Vec<f64>,
    /// `(arrival ns, bytes, path as resource indices, optional rate cap)`.
    pub arrivals: Vec<(u64, u64, Vec<usize>, Option<f64>)>,
}

/// Build the benchmark schedule: `n_flows` staggered transfers over 64
/// resources (31 worker nodes × disk+NIC plus a shared file-server NIC and
/// disk). Most traffic is node-local; one transfer in 32 crosses the shared
/// server, periodically stitching node components together — the access
/// pattern of a Montage run on a shared file system.
pub fn montage_scale_workload(n_flows: u64) -> KernelWorkload {
    const NODES: usize = 31;
    let mut caps = Vec::new();
    for _ in 0..NODES {
        caps.push(1.0e8); // node disk
        caps.push(1.0e8); // node NIC
    }
    let srv_nic = caps.len();
    caps.push(1.0e9);
    let srv_disk = caps.len();
    caps.push(5.0e8);

    let mut arrivals = Vec::with_capacity(n_flows as usize);
    for i in 0..n_flows {
        // SplitMix-style hash: deterministic, no RNG state to thread.
        let mut z = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        let node = (i as usize) % NODES;
        let bytes = 1_000_000 + z % 8_000_000;
        let mut path = vec![2 * node, 2 * node + 1];
        if z % 32 == 0 {
            path.push(srv_nic);
            path.push(srv_disk);
        }
        let cap = (z % 16 == 1).then_some(2.0e7);
        arrivals.push((i * 2_000_000, bytes, path, cap));
    }
    KernelWorkload { caps, arrivals }
}

macro_rules! drive {
    ($fe:expr, $w:expr) => {{
        let w = $w;
        let mut fe = $fe;
        let rids: Vec<ResourceId> = w
            .caps
            .iter()
            .enumerate()
            .map(|(i, c)| fe.add_resource(format!("r{i}"), *c))
            .collect();
        let mut next = 0;
        let mut last = SimTime::ZERO;
        loop {
            let ta = w.arrivals.get(next).map(|a| SimTime::from_nanos(a.0));
            match (ta, fe.next_completion()) {
                (None, None) => break,
                (Some(t), done) if done.is_none() || t <= done.unwrap().0 => {
                    let (_, bytes, ref path, cap) = w.arrivals[next];
                    next += 1;
                    let mut spec = FlowSpec::new(bytes, path.iter().map(|&p| rids[p]).collect());
                    if let Some(c) = cap {
                        spec = spec.with_cap(c);
                    }
                    fe.start(t, spec, ());
                }
                (_, Some((t, id))) => {
                    fe.complete(t, id);
                    last = t;
                }
                (_, None) => unreachable!(),
            }
        }
        let (started, completed) = fe.flow_counters();
        assert_eq!(started, completed, "all flows must complete");
        last
    }};
}

/// Run the workload through the incremental engine; returns the final
/// completion instant.
pub fn drive_incremental(w: &KernelWorkload) -> SimTime {
    drive!(FlowEngine::<()>::new(), w)
}

/// Run the workload through the preserved O(F²) reference engine.
pub fn drive_naive(w: &KernelWorkload) -> SimTime {
    drive!(NaiveFlowEngine::<()>::new(), w)
}

/// Run the workload through the full event-driven [`Sim`] loop at the
/// given observability level. This is the path the event bus actually
/// instruments (flow start/rate/finish emissions live in `Sim`, not in
/// the flow engine), so timing it at `Off` vs `Digest` vs `Full` measures
/// the bus overhead the disabled-by-default design promises to avoid.
pub fn drive_sim(w: &KernelWorkload, level: ObsLevel) -> SimTime {
    let mut sim: Sim<()> = Sim::new();
    sim.set_obs(ObsHandle::new(level, 42));
    let rids: Vec<ResourceId> = w
        .caps
        .iter()
        .enumerate()
        .map(|(i, c)| sim.add_resource(format!("r{i}"), *c))
        .collect();
    for (t_ns, bytes, path, cap) in &w.arrivals {
        let mut spec = FlowSpec::new(*bytes, path.iter().map(|&p| rids[p]).collect());
        if let Some(c) = *cap {
            spec = spec.with_cap(c);
        }
        sim.schedule_at(SimTime::from_nanos(*t_ns), move |sim, _| {
            sim.start_flow(spec, |_, _| {});
        });
    }
    sim.run(&mut ());
    let (started, completed) = sim.flow_counters();
    assert_eq!(started, completed, "all flows must complete");
    sim.now()
}

/// One timed engine run inside [`BenchSmoke`].
#[derive(Debug, Serialize)]
pub struct EngineTiming {
    /// Engine label (`incremental` / `naive`).
    pub engine: &'static str,
    /// Best-of-`runs` wall time, milliseconds.
    pub min_ms: f64,
    /// Mean wall time, milliseconds.
    pub mean_ms: f64,
    /// Number of timed runs.
    pub runs: u32,
}

/// The `BENCH.json` document.
#[derive(Debug, Serialize)]
pub struct BenchSmoke {
    /// Workload description.
    pub workload: String,
    /// Flows in the schedule.
    pub flows: u64,
    /// Resources in the schedule.
    pub resources: usize,
    /// Final completion instant (must agree between engines), seconds.
    pub makespan_secs: f64,
    /// Timings per engine.
    pub engines: Vec<EngineTiming>,
    /// `naive.min_ms / incremental.min_ms`.
    pub speedup: f64,
    /// `sim/obs-digest min_ms ÷ sim/obs-off min_ms` — the cost of digest
    /// hashing on the full simulation loop.
    pub obs_digest_overhead: f64,
    /// `sim/obs-full min_ms ÷ sim/obs-off min_ms` — the cost of recording
    /// every event and metric sample.
    pub obs_full_overhead: f64,
}

fn time_runs(mut f: impl FnMut() -> SimTime, runs: u32) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..runs {
        let t = Instant::now();
        std::hint::black_box(f());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        total += ms;
    }
    (best, total / f64::from(runs))
}

/// Time both engines on the Montage-scale schedule and return the report.
/// Panics if the engines disagree on the final completion instant.
pub fn bench_smoke(n_flows: u64) -> BenchSmoke {
    let w = montage_scale_workload(n_flows);
    let inc_makespan = drive_incremental(&w);
    let naive_makespan = drive_naive(&w);
    assert_eq!(
        inc_makespan, naive_makespan,
        "engines disagree on the schedule's final completion"
    );
    let sim_makespan = drive_sim(&w, ObsLevel::Off);
    assert_eq!(
        sim_makespan,
        drive_sim(&w, ObsLevel::Full),
        "observability changed simulated time"
    );
    // The incremental timing doubles as the regression baseline for the
    // 5% disabled-bus gate, so sample it deeper: min-of-10 sits at the
    // machine's true floor rather than a lucky draw.
    let (inc_min, inc_mean) = time_runs(|| drive_incremental(&w), 10);
    let (nv_min, nv_mean) = time_runs(|| drive_naive(&w), 3);
    let (off_min, off_mean) = time_runs(|| drive_sim(&w, ObsLevel::Off), 5);
    let (dig_min, dig_mean) = time_runs(|| drive_sim(&w, ObsLevel::Digest), 5);
    let (full_min, full_mean) = time_runs(|| drive_sim(&w, ObsLevel::Full), 5);
    BenchSmoke {
        workload: "montage_scale: staggered node-local transfers, 1/32 via shared server".into(),
        flows: n_flows,
        resources: w.caps.len(),
        makespan_secs: inc_makespan.as_secs_f64(),
        engines: vec![
            EngineTiming {
                engine: "incremental",
                min_ms: inc_min,
                mean_ms: inc_mean,
                runs: 10,
            },
            EngineTiming {
                engine: "naive",
                min_ms: nv_min,
                mean_ms: nv_mean,
                runs: 3,
            },
            EngineTiming {
                engine: "sim/obs-off",
                min_ms: off_min,
                mean_ms: off_mean,
                runs: 5,
            },
            EngineTiming {
                engine: "sim/obs-digest",
                min_ms: dig_min,
                mean_ms: dig_mean,
                runs: 5,
            },
            EngineTiming {
                engine: "sim/obs-full",
                min_ms: full_min,
                mean_ms: full_mean,
                runs: 5,
            },
        ],
        speedup: nv_min / inc_min,
        obs_digest_overhead: dig_min / off_min,
        obs_full_overhead: full_min / off_min,
    }
}

/// Render a short human-readable summary of the smoke run.
pub fn render(b: &BenchSmoke) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "KERNEL PERF SMOKE — {} flows over {} resources (makespan {:.1}s simulated)\n",
        b.flows, b.resources, b.makespan_secs
    ));
    for e in &b.engines {
        out.push_str(&format!(
            "  {:<12} min {:>9.2}ms  mean {:>9.2}ms  ({} runs)\n",
            e.engine, e.min_ms, e.mean_ms, e.runs
        ));
    }
    out.push_str(&format!(
        "  speedup (naive/incremental, min): {:.1}x\n",
        b.speedup
    ));
    out.push_str(&format!(
        "  obs overhead on sim loop (min): digest {:.3}x, full {:.3}x\n",
        b.obs_digest_overhead, b.obs_full_overhead
    ));
    out
}
