//! Top-level entry point: execute one workflow under one configuration.

use crate::config::RunConfig;
use crate::driver::{makespan, start_run};
use crate::world::{TaskRecord, World};
use serde::{Deserialize, Serialize};
use simcore::{Sim, SimTime};
use vcluster::Cluster;
use wfcost::BilledSegment;
use wfdag::Workflow;
use wfstorage::{build_storage, cluster_spec_for, StorageBilling, StorageOpStats};

/// Injected faults and the recovery work they caused, plus the billing
/// segments the instance churn produced (feed them to
/// `wfcost::PriceBook::segments_cents` for the fault-adjusted bill).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Worker instances that crashed.
    pub node_crashes: u64,
    /// Spot instances revoked by the market.
    pub spot_terminations: u64,
    /// Storage service failures injected.
    pub storage_failures: u64,
    /// Executions killed mid-flight by a fault.
    pub tasks_killed: u64,
    /// Completed tasks resubmitted by the rescue-DAG pass.
    pub rescue_resubmits: u64,
    /// Files reported lost by storage failover.
    pub files_lost: u64,
    /// Slot-seconds of partially-executed work thrown away by kills.
    pub wasted_task_secs: f64,
    /// Billed lease intervals, one per instance incarnation. A fault-free
    /// run has exactly one full-makespan segment per node.
    pub segments: Vec<BilledSegment>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The makespan (§V): first submission to last task completion.
    pub makespan_secs: f64,
    /// Tasks executed.
    pub tasks: usize,
    /// Simulation events fired (diagnostic).
    pub events: u64,
    /// Flow-engine work counters (diagnostic, like `events`: never
    /// digested, exported or reported).
    pub flow_work: simcore::FlowWork,
    /// Storage operation counters.
    pub op_stats: StorageOpStats,
    /// Billing-relevant usage (S3 requests).
    pub billing: StorageBilling,
    /// Sum of wall time tasks spent in I/O phases.
    pub total_io_secs: f64,
    /// Sum of wall time tasks spent computing.
    pub total_cpu_secs: f64,
    /// Task re-executions after injected failures.
    pub retries: u64,
    /// Fault injections and recovery work (all zero without a plan).
    pub faults: FaultSummary,
    /// Per-task execution records, indexed by task id.
    pub records: Vec<TaskRecord>,
    /// Per-resource usage rows (disks, NICs, servers), for utilization
    /// reports.
    pub resources: Vec<ResourceRow>,
    /// Streaming run digest over the observability event stream
    /// (`None` when `RunConfig::obs` is `Off`). Equal configs and seeds
    /// produce equal digests — the replay-verification contract.
    pub digest: Option<u64>,
    /// The full observability report (events, metrics, resource labels)
    /// when `RunConfig::obs` is `Full`.
    pub obs: Option<wfobs::ObsReport>,
}

/// Usage of one simulated resource over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRow {
    /// Resource name (e.g. `w0.disk.fw`, `srv.nic.out`, `nfs.ops`).
    pub name: String,
    /// Total bytes (or operation units) that crossed it.
    pub bytes: f64,
    /// Seconds during which at least one flow used it.
    pub busy_secs: f64,
    /// Mean utilization over the makespan, 0..=1.
    pub mean_utilization: f64,
}

impl RunStats {
    /// Fraction of occupied-slot time spent on I/O (and WMS overhead)
    /// rather than compute — the paper calls Montage >95% I/O by this
    /// style of measure.
    pub fn io_fraction(&self) -> f64 {
        let total = self.total_io_secs + self.total_cpu_secs;
        if total <= 0.0 {
            0.0
        } else {
            self.total_io_secs / total
        }
    }
}

/// Errors a run can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A task needs more memory than any worker has — it can never be
    /// scheduled.
    TaskTooLarge {
        /// Name of the offending task.
        task: String,
    },
    /// The simulation drained with unfinished tasks (a scheduling
    /// deadlock; indicates a bug or an infeasible configuration).
    Deadlock {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// A task kept failing past its retry budget (failure injection).
    RetriesExhausted {
        /// Name of the failing task.
        task: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskTooLarge { task } => {
                write!(f, "task {task} needs more memory than any worker provides")
            }
            RunError::Deadlock { completed, total } => {
                write!(f, "run stalled at {completed}/{total} tasks")
            }
            RunError::RetriesExhausted { task } => {
                write!(f, "task {task} exhausted its retry budget")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Execute `workflow` under `cfg` and return the statistics.
///
/// Deterministic: the same workflow, config and seed produce identical
/// results.
pub fn run_workflow(workflow: Workflow, cfg: RunConfig) -> Result<RunStats, RunError> {
    let obs = wfobs::ObsHandle::new(cfg.obs, cfg.seed);
    run_workflow_with_obs(workflow, cfg, obs)
}

/// Like [`run_workflow`], but over a caller-built observability handle —
/// the entry point for live consumption: attach
/// [`ObsSink`](wfobs::ObsSink)s (TUI viewer, frame capturers) and tune
/// the tick throttle before the run starts. Sinks are flushed exactly
/// once, after the simulation drains and before statistics are
/// extracted. Attaching sinks never changes the digest or the stats.
pub fn run_workflow_with_obs(
    workflow: Workflow,
    cfg: RunConfig,
    obs: wfobs::ObsHandle,
) -> Result<RunStats, RunError> {
    let mut sim: Sim<World> = Sim::new();
    sim.set_obs(obs);
    let spec = {
        let mut s = cluster_spec_for(cfg.storage, cfg.workers, cfg.server_type);
        s.initialize_disks = cfg.initialize_disks;
        s
    };
    let cluster = Cluster::provision(&mut sim, &spec);

    // Feasibility: every task must fit in some worker's usable memory.
    let usable = (cluster.node(cluster.workers()[0]).memory_bytes() as f64 * 0.9) as u64;
    if let Some(t) = workflow.tasks().iter().find(|t| t.peak_mem > usable) {
        return Err(RunError::TaskTooLarge {
            task: t.name.clone(),
        });
    }

    let storage = build_storage(cfg.storage, &mut sim, &cluster, &cfg.storage_cfgs);
    let mut world = World::new(workflow, cluster, storage, cfg);
    world.obs = sim.obs().clone();

    sim.schedule_at(SimTime::ZERO, start_run);
    sim.run(&mut world);
    // Final metric tick + sink flush — before the error checks, so a
    // live viewer restores the terminal even when the run fails.
    sim.obs().flush_sinks();

    let total = world.wf.task_count();
    if let Some(t) = world.aborted {
        return Err(RunError::RetriesExhausted {
            task: world.wf.task(t).name.clone(),
        });
    }
    if world.done != total {
        return Err(RunError::Deadlock {
            completed: world.done,
            total,
        });
    }
    // A zero-task workflow never sets `finished_at` (nothing completes);
    // it finishes the moment it starts.
    let finished = makespan(&world).unwrap_or(SimTime::ZERO);
    let makespan_secs = finished.as_secs_f64();

    let mut total_io_secs = 0.0;
    let mut total_cpu_secs = 0.0;
    let records: Vec<TaskRecord> = world
        .records
        .iter()
        .map(|r| r.expect("every task has a record"))
        .collect();
    for r in &records {
        total_io_secs += r.io_secs();
        total_cpu_secs += r.cpu_secs();
    }

    let resources = (0..sim.resource_count())
        .map(|i| {
            let id = simcore::ResourceId::from_index(i);
            let s = sim.resource_stats(id);
            ResourceRow {
                name: sim.resource_name(id).to_string(),
                bytes: s.bytes,
                busy_secs: s.busy_secs,
                mean_utilization: if makespan_secs > 0.0 {
                    (s.util_integral / makespan_secs).min(1.0)
                } else {
                    0.0
                },
            }
        })
        .collect();

    // Billing segments: close every still-open lease at the moment the
    // workflow finished (events after the last completion — late fault
    // draws, drained timers — must not inflate the bill).
    let mut segments = Vec::new();
    for (i, node) in world.cluster.nodes().iter().enumerate() {
        for seg in &world.node_segments[i] {
            let close = seg.close.unwrap_or(finished);
            segments.push(BilledSegment {
                node: i as u32,
                itype: node.itype,
                secs: close.since(seg.open).as_secs_f64(),
                spot: seg.spot,
            });
        }
    }
    let c = world.fault_counters;
    let faults = FaultSummary {
        node_crashes: c.node_crashes,
        spot_terminations: c.spot_terminations,
        storage_failures: c.storage_failures,
        tasks_killed: c.tasks_killed,
        rescue_resubmits: c.rescue_resubmits,
        files_lost: c.files_lost,
        wasted_task_secs: c.wasted_task_secs,
        segments,
    };

    let obs_handle = sim.obs().clone();
    let digest = obs_handle.digest();
    let obs = match obs_handle.level() {
        wfobs::ObsLevel::Full => obs_handle.take_report(),
        _ => None,
    };

    Ok(RunStats {
        makespan_secs,
        tasks: total,
        events: sim.events_fired(),
        flow_work: sim.flow_work(),
        op_stats: world.storage.op_stats(),
        billing: world.storage.billing(),
        total_io_secs,
        total_cpu_secs,
        retries: world.retries,
        faults,
        records,
        resources,
        digest,
        obs,
    })
}
