//! Fidelity of the benchmark's instruments, on tiny Montage cells of each
//! workload's storage kind: the recomposed run must be `run_workflow`, and
//! the solver replay must be the run's solver.

use perfbench::layers::traced_run;
use perfbench::outcome::RunSummary;
use perfbench::recompose::{run_recomposed, run_recomposed_with, StorageProbe, TimedStorage};
use perfbench::replay::{replay, resource_capacities, Schedule};
use perfbench::workload::{Scale, Workload};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;
use vcluster::{Cluster, NodeId};
use wfdag::FileId;
use wfengine::{run_workflow, FaultPlan, NodeCrashSpec, RunConfig, SchedulerPolicy};
use wfobs::{ObsHandle, ObsLevel};
use wfstorage::op::{Note, OpPlan};
use wfstorage::{
    Constraints, FailoverResponse, FileRef, StorageBilling, StorageOpStats, StorageSystem,
};

const SEED: u64 = 42;

fn tiny(w: Workload) -> wfdag::Workflow {
    w.workflow(Scale::Tiny, SEED)
}

fn reference(w: Workload, cfg: RunConfig) -> RunSummary {
    RunSummary::from_stats(&run_workflow(tiny(w), cfg).expect("reference run"))
}

fn assert_recomposes(w: Workload, cfg: RunConfig) {
    let want = reference(w, cfg.clone());
    let got = run_recomposed(tiny(w), cfg.clone(), true).expect("recomposed run");
    assert_eq!(got.summary, want, "{} at {:?}", w.name(), cfg.obs);
    assert!(got.probe.calls > 0 && got.probe.legs > 0);
}

#[test]
fn recomposed_run_equals_run_workflow_at_every_level() {
    for w in Workload::ALL {
        for level in [ObsLevel::Off, ObsLevel::Digest, ObsLevel::Full] {
            assert_recomposes(w, w.config(SEED).with_obs(level));
        }
    }
}

#[test]
fn recomposed_run_forwards_locality_and_failover_hooks() {
    // The data-aware scheduler asks storage for `local_bytes`; a node
    // crash goes through `on_node_failed` and the rescue pass through
    // `missing_files`. A wrapper that fell back to the trait defaults
    // would change these runs.
    for w in Workload::ALL {
        let mut cfg = w.config(SEED).with_obs(ObsLevel::Digest);
        cfg.scheduler = SchedulerPolicy::DataAware;
        assert_recomposes(w, cfg);

        let mut cfg = w.config(SEED).with_obs(ObsLevel::Digest);
        cfg.faults = Some(FaultPlan {
            node_crash: Some(NodeCrashSpec {
                rate_per_hour: 0.0,
                scheduled: vec![(1, 120.0)],
                reprovision: true,
            }),
            max_fault_retries: 5,
            ..FaultPlan::zero()
        });
        let stats = run_workflow(tiny(w), cfg.clone()).expect("crash run");
        assert_eq!(stats.faults.node_crashes, 1, "{}", w.name());
        assert_recomposes(w, cfg);
    }
}

#[test]
fn solver_replay_reproduces_every_rate_and_completion() {
    for w in Workload::ALL {
        let cfg = w.config(SEED).with_obs(ObsLevel::Full);
        let rec = run_recomposed(tiny(w), cfg.clone(), true).expect("Full run");
        let report = rec.report.expect("Full level records a report");
        let capacities = resource_capacities(&cfg);
        assert_eq!(capacities.len(), report.resources.len(), "{}", w.name());
        let schedule = Schedule::capture(&report, rec.probe.caps.expect("caps"), capacities);
        assert_eq!(schedule.unmatched_caps, 0, "{}", w.name());
        assert!(schedule.flows() > 0);
        let r = replay(schedule);
        assert_eq!(r.rate_mismatches, 0, "{}", w.name());
        assert_eq!(r.order_mismatches, 0, "{}", w.name());
    }
}

#[test]
fn replay_flags_a_perturbed_schedule() {
    let w = Workload::MontagePvfs4;
    let cfg = w.config(SEED).with_obs(ObsLevel::Full);
    let rec = run_recomposed(tiny(w), cfg.clone(), true).expect("Full run");
    let report = rec.report.expect("Full level records a report");
    let mut capacities = resource_capacities(&cfg);
    for c in &mut capacities {
        *c *= 1.5;
    }
    let schedule = Schedule::capture(&report, rec.probe.caps.expect("caps"), capacities);
    assert!(replay(schedule).rate_mismatches > 0);
}

#[test]
fn traced_pass_passes_its_fidelity_checks() {
    for w in Workload::ALL {
        let r = traced_run(w, Scale::Tiny, SEED, Duration::ZERO).expect("traced run");
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        assert!(r.solver_verified, "{}", w.name());
        assert_eq!(r.rounds, 1);
        for (name, v) in &r.metrics {
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        let get = |name: &str| {
            r.metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("metric reported")
        };
        assert_eq!(get("solver.replay_mismatches"), 0.0);
        assert!(get("storage.calls") > 0.0 && get("solver.flows") > 0.0);
        assert_eq!(get("export.mb") > 0.0, w.exports(), "{}", w.name());
    }
}

/// A wrapper that forgets one defaulted method: NFS write-back
/// completions never reach the backend, so its dirty-page throttle never
/// drains.
struct DropsBackgroundDone(TimedStorage);

impl StorageSystem for DropsBackgroundDone {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn attach_obs(&mut self, obs: ObsHandle) {
        self.0.attach_obs(obs);
    }
    fn constraints(&self) -> Constraints {
        self.0.constraints()
    }
    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        self.0.prestage(cluster, files);
    }
    fn plan_task_ops(&mut self, cluster: &Cluster, node: NodeId, io_ops: u32) -> OpPlan {
        self.0.plan_task_ops(cluster, node, io_ops)
    }
    fn plan_stage_in(&mut self, cluster: &Cluster, node: NodeId, inputs: &[FileRef]) -> OpPlan {
        self.0.plan_stage_in(cluster, node, inputs)
    }
    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan {
        self.0.plan_read(cluster, node, file)
    }
    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan {
        self.0.plan_write(cluster, node, file)
    }
    fn plan_stage_out(&mut self, cluster: &Cluster, node: NodeId, outputs: &[FileRef]) -> OpPlan {
        self.0.plan_stage_out(cluster, node, outputs)
    }
    fn on_background_done(&mut self, _note: Note) {}
    fn on_node_failed(&mut self, cluster: &Cluster, node: NodeId) -> FailoverResponse {
        self.0.on_node_failed(cluster, node)
    }
    fn missing_files(&self, files: &[FileRef]) -> Vec<FileId> {
        self.0.missing_files(files)
    }
    fn local_bytes(&self, cluster: &Cluster, node: NodeId, files: &[FileRef]) -> u64 {
        self.0.local_bytes(cluster, node, files)
    }
    fn op_stats(&self) -> StorageOpStats {
        self.0.op_stats()
    }
    fn billing(&self) -> StorageBilling {
        self.0.billing()
    }
}

#[test]
fn digest_check_catches_a_wrapper_that_drops_a_default_method() {
    let w = Workload::MontageNfs4;
    let cfg = w.config(SEED).with_obs(ObsLevel::Digest);
    let want = reference(w, cfg.clone());
    let probe = Rc::new(RefCell::new(StorageProbe::default()));
    let (got, ..) = run_recomposed_with(tiny(w), cfg, move |inner| {
        Box::new(DropsBackgroundDone(TimedStorage::new(inner, probe)))
    })
    .expect("broken run still completes");
    assert!(got.first_difference(&want).is_some());
    assert_ne!(got.digest, want.digest);
}
