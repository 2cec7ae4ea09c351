//! Solver replay: the flow schedule of a Full-level run, captured from its
//! event log, driven again through `simcore::FlowEngine` alone.

use crate::recompose::LegKey;
use simcore::{FlowEngine, FlowId, FlowSpec, ResourceId, Sim, SimTime};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use vcluster::Cluster;
use wfengine::RunConfig;
use wfobs::{Event, ObsHandle, ObsLevel, ObsReport};
use wfstorage::{build_storage, cluster_spec_for};

/// Capacity of every resource the run's cluster and storage register, in
/// registration order. The simulator does not expose capacities, so each
/// one is read back as the rate a lone flow gets on that resource alone.
pub fn resource_capacities(cfg: &RunConfig) -> Vec<f64> {
    let mut sim: Sim<()> = Sim::new();
    sim.set_obs(ObsHandle::new(ObsLevel::Full, cfg.seed));
    let mut spec = cluster_spec_for(cfg.storage, cfg.workers, cfg.server_type);
    spec.initialize_disks = cfg.initialize_disks;
    let cluster = Cluster::provision(&mut sim, &spec);
    let _storage = build_storage(cfg.storage, &mut sim, &cluster, &cfg.storage_cfgs);
    for ix in 0..sim.resource_count() {
        let spec = FlowSpec::new(1 << 40, vec![ResourceId::from_index(ix)]);
        sim.start_flow(spec, |_, _| {});
    }
    let report = sim
        .obs()
        .take_report()
        .expect("Full level records a report");
    report
        .events
        .iter()
        .filter_map(|(_, ev)| match ev {
            Event::FlowStart { rate_bits, .. } => Some(f64::from_bits(*rate_bits)),
            _ => None,
        })
        .collect()
}

/// One solver call of the captured schedule.
#[derive(Debug, Clone)]
pub enum Op {
    /// A flow started; `rate_bits` is the initial rate the run saw.
    Start {
        /// Simulated time.
        t: SimTime,
        /// Flow id in the run.
        id: u64,
        /// What was started.
        spec: FlowSpec,
        /// Initial rate recorded by the run.
        rate_bits: u64,
    },
    /// A flow delivered its last byte.
    End {
        /// Simulated time.
        t: SimTime,
        /// Flow id in the run.
        id: u64,
    },
    /// A flow was cancelled.
    Cancel {
        /// Simulated time.
        t: SimTime,
        /// Flow id in the run.
        id: u64,
    },
}

/// A captured flow schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Resource capacities, by resource index.
    pub capacities: Vec<f64>,
    /// Solver calls in log order.
    pub ops: Vec<Op>,
    /// Started flows whose leg (and so rate cap) was not found among the
    /// recorded plans.
    pub unmatched_caps: u64,
}

impl Schedule {
    /// Rebuild the schedule from a Full-level event log. Rate caps come
    /// from the planned legs, matched by (bytes, path) in planning order.
    pub fn capture(
        report: &ObsReport,
        mut caps: HashMap<LegKey, VecDeque<Option<f64>>>,
        capacities: Vec<f64>,
    ) -> Schedule {
        let mut s = Schedule {
            capacities,
            ..Schedule::default()
        };
        // A start is complete once its trailing `FlowRes` events are in.
        let mut pending: Option<(u64, u64, u64, u64, Vec<u32>)> = None;
        let mut flush = |s: &mut Schedule, p: Option<(u64, u64, u64, u64, Vec<u32>)>| {
            let Some((t, id, bytes, rate_bits, path)) = p else {
                return;
            };
            let key = (bytes, path);
            let cap = match caps.get_mut(&key).and_then(VecDeque::pop_front) {
                Some(cap) => cap,
                None => {
                    s.unmatched_caps += 1;
                    None
                }
            };
            let path = key
                .1
                .iter()
                .map(|&r| ResourceId::from_index(r as usize))
                .collect();
            s.ops.push(Op::Start {
                t: SimTime::from_nanos(t),
                id,
                spec: FlowSpec {
                    bytes,
                    path,
                    rate_cap: cap,
                },
                rate_bits,
            });
        };
        for &(t, ev) in &report.events {
            match ev {
                Event::FlowRes { id, resource } => {
                    if let Some(p) = pending.as_mut().filter(|p| p.1 == id) {
                        p.4.push(resource);
                    }
                    continue;
                }
                Event::FlowStart {
                    id,
                    bytes,
                    rate_bits,
                } => {
                    flush(&mut s, pending.take());
                    pending = Some((t, id, bytes, rate_bits, Vec::new()));
                    continue;
                }
                _ => {}
            }
            flush(&mut s, pending.take());
            match ev {
                Event::FlowEnd { id } => s.ops.push(Op::End {
                    t: SimTime::from_nanos(t),
                    id,
                }),
                Event::FlowCancel { id } => s.ops.push(Op::Cancel {
                    t: SimTime::from_nanos(t),
                    id,
                }),
                _ => {}
            }
        }
        flush(&mut s, pending.take());
        s
    }

    /// Flows started.
    pub fn flows(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Start { .. }))
            .count() as u64
    }

    /// Mean resources per started flow.
    pub fn path_len_mean(&self) -> f64 {
        let (n, len) = self
            .ops
            .iter()
            .fold((0u64, 0usize), |(n, len), op| match op {
                Op::Start { spec, .. } => (n + 1, len + spec.path.len()),
                _ => (n, len),
            });
        if n == 0 {
            0.0
        } else {
            len as f64 / n as f64
        }
    }

    /// Share of flow starts at the same simulated instant as the previous
    /// start: the starts a batched solver could coalesce.
    pub fn same_instant_frac(&self) -> f64 {
        let mut prev: Option<SimTime> = None;
        let (mut n, mut same) = (0u64, 0u64);
        for op in &self.ops {
            if let Op::Start { t, .. } = op {
                n += 1;
                if prev == Some(*t) {
                    same += 1;
                }
                prev = Some(*t);
            }
        }
        if n == 0 {
            0.0
        } else {
            same as f64 / n as f64
        }
    }
}

/// Outcome of a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Host time inside the flow engine.
    pub elapsed: Duration,
    /// Starts whose replayed initial rate differs from the run's.
    pub rate_mismatches: u64,
    /// Completions the replayed engine would not have announced next (at
    /// the logged time, for the logged flow).
    pub order_mismatches: u64,
}

impl Replay {
    /// Every disagreement with the captured run.
    pub fn mismatches(&self) -> u64 {
        self.rate_mismatches + self.order_mismatches
    }
}

/// Drive `schedule` through a fresh [`FlowEngine`] and compare its rates
/// and completion order with the captured run.
pub fn replay(schedule: Schedule) -> Replay {
    let mut engine: FlowEngine<()> = FlowEngine::new();
    for &c in &schedule.capacities {
        engine.add_resource(String::new(), c);
    }
    // Run flow ids are dense from 0, so a vector maps them to engine ids.
    let mut ids: Vec<Option<FlowId>> = Vec::new();
    let mut out = Replay::default();
    let mut now = SimTime::ZERO;
    let started = Instant::now();
    for op in schedule.ops {
        match op {
            Op::Start {
                t,
                id,
                spec,
                rate_bits,
            } => {
                now = t;
                let fid = engine.start(t, spec, ());
                if engine.flow_rate(fid).map(f64::to_bits) != Some(rate_bits) {
                    out.rate_mismatches += 1;
                }
                let ix = id as usize;
                if ids.len() <= ix {
                    ids.resize(ix + 1, None);
                }
                ids[ix] = Some(fid);
            }
            Op::End { t, id } => {
                let Some(fid) = ids.get(id as usize).copied().flatten() else {
                    out.order_mismatches += 1;
                    continue;
                };
                match engine.next_completion() {
                    Some((due, next)) if next == fid && due.max(now) == t => {}
                    _ => out.order_mismatches += 1,
                }
                now = t;
                engine.complete(t, fid);
            }
            Op::Cancel { t, id } => {
                now = t;
                if let Some(fid) = ids.get(id as usize).copied().flatten() {
                    engine.cancel(t, fid);
                }
            }
        }
    }
    out.elapsed = started.elapsed();
    out
}
