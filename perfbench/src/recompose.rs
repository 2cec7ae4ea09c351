//! `run_workflow_with_obs` rebuilt from the engine's public parts, with a
//! forwarding storage wrapper that times every call into the storage
//! model and records the legs of every plan it returns.

use crate::outcome::RunSummary;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};
use vcluster::{Cluster, NodeId};
use wfdag::{FileId, Workflow};
use wfengine::{driver, RunConfig, World};
use wfobs::{ObsHandle, ObsReport};
use wfstorage::op::{Note, OpPlan};
use wfstorage::{
    build_storage, cluster_spec_for, Constraints, FailoverResponse, FileRef, StorageBilling,
    StorageOpStats, StorageSystem,
};

/// Flow key of a planned leg: payload bytes and resource path (raw
/// indices). A started flow is matched back to its leg by this key.
pub type LegKey = (u64, Vec<u32>);

/// What the storage wrapper saw during one run.
#[derive(Debug, Default)]
pub struct StorageProbe {
    /// Calls into the storage model while the run was live.
    pub calls: u64,
    /// Host time spent inside those calls.
    pub busy: Duration,
    /// Flow legs in the returned plans (foreground and background).
    pub legs: u64,
    /// When capturing: the rate caps of planned, non-instant legs,
    /// queued per flow key in planning order.
    pub caps: Option<HashMap<LegKey, VecDeque<Option<f64>>>>,
}

impl StorageProbe {
    fn record(&mut self, started: Instant, plan: Option<&OpPlan>) {
        self.busy += started.elapsed();
        self.calls += 1;
        let Some(plan) = plan else { return };
        let stages = plan
            .stages
            .iter()
            .chain(plan.background.iter().map(|(s, _)| s));
        for stage in stages {
            self.legs += stage.legs.len() as u64;
            let Some(caps) = self.caps.as_mut() else {
                continue;
            };
            for leg in &stage.legs {
                if leg.to_spec().is_instant() {
                    continue;
                }
                let key = (
                    leg.bytes,
                    leg.path.iter().map(|r| r.index() as u32).collect(),
                );
                caps.entry(key).or_default().push_back(leg.rate_cap);
            }
        }
    }
}

/// A [`StorageSystem`] that forwards every method — the defaulted ones
/// included — to the wrapped backend, timing the calls that do model work.
pub struct TimedStorage {
    inner: Box<dyn StorageSystem>,
    probe: Rc<RefCell<StorageProbe>>,
}

impl TimedStorage {
    /// Wrap `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn StorageSystem>, probe: Rc<RefCell<StorageProbe>>) -> Self {
        TimedStorage { inner, probe }
    }

    fn plan(&mut self, f: impl FnOnce(&mut dyn StorageSystem) -> OpPlan) -> OpPlan {
        let t = Instant::now();
        let plan = f(self.inner.as_mut());
        self.probe.borrow_mut().record(t, Some(&plan));
        plan
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn StorageSystem) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        self.probe.borrow_mut().record(t, None);
        out
    }
}

impl StorageSystem for TimedStorage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attach_obs(&mut self, obs: ObsHandle) {
        self.inner.attach_obs(obs);
    }

    fn constraints(&self) -> Constraints {
        self.inner.constraints()
    }

    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        self.timed(|s| s.prestage(cluster, files));
    }

    fn plan_task_ops(&mut self, cluster: &Cluster, node: NodeId, io_ops: u32) -> OpPlan {
        self.plan(|s| s.plan_task_ops(cluster, node, io_ops))
    }

    fn plan_stage_in(&mut self, cluster: &Cluster, node: NodeId, inputs: &[FileRef]) -> OpPlan {
        self.plan(|s| s.plan_stage_in(cluster, node, inputs))
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan {
        self.plan(|s| s.plan_read(cluster, node, file))
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan {
        self.plan(|s| s.plan_write(cluster, node, file))
    }

    fn plan_stage_out(&mut self, cluster: &Cluster, node: NodeId, outputs: &[FileRef]) -> OpPlan {
        self.plan(|s| s.plan_stage_out(cluster, node, outputs))
    }

    fn on_background_done(&mut self, note: Note) {
        self.timed(|s| s.on_background_done(note));
    }

    fn on_node_failed(&mut self, cluster: &Cluster, node: NodeId) -> FailoverResponse {
        self.timed(|s| s.on_node_failed(cluster, node))
    }

    fn missing_files(&self, files: &[FileRef]) -> Vec<FileId> {
        self.inner.missing_files(files)
    }

    fn local_bytes(&self, cluster: &Cluster, node: NodeId, files: &[FileRef]) -> u64 {
        self.inner.local_bytes(cluster, node, files)
    }

    fn op_stats(&self) -> StorageOpStats {
        self.inner.op_stats()
    }

    fn billing(&self) -> StorageBilling {
        self.inner.billing()
    }
}

/// Host-time split of the set-up steps, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Cluster::provision`.
    pub provision: f64,
    /// `wfstorage::build_storage`.
    pub build_storage: f64,
    /// `World::new`.
    pub world: f64,
}

/// A finished recomposed run.
pub struct Recomposed {
    /// Checked outputs, comparable with `run_workflow`'s.
    pub summary: RunSummary,
    /// Host time from `Sim::new` to the extracted summary.
    pub wall: Duration,
    /// The Full-level report, when the run recorded one.
    pub report: Option<ObsReport>,
    /// What the storage wrapper saw.
    pub probe: StorageProbe,
}

/// Build the simulation exactly as `run_workflow_with_obs` does, without
/// running it: the set-up a user pays before the first event.
pub fn set_up(
    wf: Workflow,
    cfg: RunConfig,
    wrap: impl FnOnce(Box<dyn StorageSystem>) -> Box<dyn StorageSystem>,
) -> (simcore::Sim<World>, World, SetupTimes) {
    let mut sim: simcore::Sim<World> = simcore::Sim::new();
    sim.set_obs(ObsHandle::new(cfg.obs, cfg.seed));
    let mut spec = cluster_spec_for(cfg.storage, cfg.workers, cfg.server_type);
    spec.initialize_disks = cfg.initialize_disks;
    let t = Instant::now();
    let cluster = Cluster::provision(&mut sim, &spec);
    let provision = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let storage = wrap(build_storage(
        cfg.storage,
        &mut sim,
        &cluster,
        &cfg.storage_cfgs,
    ));
    let build_storage = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut world = World::new(wf, cluster, storage, cfg);
    world.obs = sim.obs().clone();
    let world_secs = t.elapsed().as_secs_f64();
    let times = SetupTimes {
        provision,
        build_storage,
        world: world_secs,
    };
    (sim, world, times)
}

/// Run `wf` under `cfg` through the engine's public parts, with the
/// backend wrapped by `wrap`: the outputs, the host time from `Sim::new`
/// on, and the Full-level report if one was recorded.
pub fn run_recomposed_with(
    wf: Workflow,
    cfg: RunConfig,
    wrap: impl FnOnce(Box<dyn StorageSystem>) -> Box<dyn StorageSystem>,
) -> Result<(RunSummary, Duration, Option<ObsReport>), String> {
    let t = Instant::now();
    let (mut sim, mut world, _) = set_up(wf, cfg, wrap);
    sim.schedule_at(simcore::SimTime::ZERO, driver::start_run);
    sim.run(&mut world);
    sim.obs().flush_sinks();
    let total = world.wf.task_count();
    if let Some(task) = world.aborted {
        return Err(format!(
            "task {} exhausted its retries",
            world.wf.task(task).name
        ));
    }
    if world.done != total {
        return Err(format!("run stalled at {}/{total} tasks", world.done));
    }
    let makespan = driver::makespan(&world).unwrap_or(simcore::SimTime::ZERO);
    let obs = sim.obs().clone();
    let summary = RunSummary {
        makespan_bits: makespan.as_secs_f64().to_bits(),
        tasks: total,
        events: sim.events_fired(),
        op_stats: world.storage.op_stats(),
        billing: world.storage.billing(),
        digest: obs.digest(),
    };
    let report = match obs.level() {
        wfobs::ObsLevel::Full => obs.take_report(),
        _ => None,
    };
    Ok((summary, t.elapsed(), report))
}

/// [`run_recomposed_with`] over the standard [`TimedStorage`] wrapper;
/// `capture_caps` makes it queue every planned leg's rate cap.
pub fn run_recomposed(
    wf: Workflow,
    cfg: RunConfig,
    capture_caps: bool,
) -> Result<Recomposed, String> {
    let probe = Rc::new(RefCell::new(StorageProbe {
        caps: capture_caps.then(HashMap::new),
        ..StorageProbe::default()
    }));
    let p = Rc::clone(&probe);
    let (summary, wall, report) =
        run_recomposed_with(wf, cfg, move |inner| Box::new(TimedStorage::new(inner, p)))?;
    let probe = Rc::try_unwrap(probe)
        .map_err(|_| "storage wrapper outlived its run".to_owned())?
        .into_inner();
    Ok(Recomposed {
        summary,
        wall,
        report,
        probe,
    })
}
