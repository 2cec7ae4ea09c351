//! Every storage backend's operation counters agree with the events it
//! put on the bus: `op_stats` is what the recorded `StorageOp`,
//! `CacheHit` and `CacheMiss` events add up to, on a real tiny Montage run
//! of each kind.

use wfengine::{run_workflow, RunConfig};
use wfgen::App;
use wfobs::{Event, ObsLevel, OpKind};
use wfstorage::{StorageKind, StorageOpStats};

/// The counters the recorded events give.
fn from_events(events: &[(u64, Event)]) -> StorageOpStats {
    let mut s = StorageOpStats::default();
    for (_, ev) in events {
        match *ev {
            Event::StorageOp {
                op: OpKind::Read,
                bytes,
                ..
            } => {
                s.reads += 1;
                s.bytes_read += bytes;
            }
            Event::StorageOp {
                op: OpKind::Write,
                bytes,
                ..
            } => {
                s.writes += 1;
                s.bytes_written += bytes;
            }
            Event::CacheHit { .. } => s.cache_hits += 1,
            Event::CacheMiss { .. } => s.cache_misses += 1,
            _ => {}
        }
    }
    s
}

#[test]
fn op_stats_match_recorded_events_on_every_backend() {
    for kind in StorageKind::ALL {
        let workers = if kind == StorageKind::Local { 1 } else { 2 };
        let cfg = RunConfig::cell(kind, workers)
            .with_seed(42)
            .with_obs(ObsLevel::Full);
        let stats = run_workflow(App::Montage.tiny_workflow(), cfg).expect("tiny Montage runs");
        let report = stats.obs.expect("Full level keeps a report");
        let ops = stats.op_stats;
        assert_eq!(ops, from_events(&report.events), "{kind}@{workers}");
        assert!(ops.reads > 0 && ops.writes > 0, "{kind}: no I/O counted");
        // Striped and placement-only systems have no cache to count;
        // every other backend counts each read (or stage-in input) once.
        let cacheless = matches!(
            kind,
            StorageKind::GlusterNufa
                | StorageKind::GlusterDistribute
                | StorageKind::Pvfs
                | StorageKind::XtreemFs
        );
        assert_eq!(
            cacheless,
            ops.cache_hits + ops.cache_misses == 0,
            "{kind}: cache counters {ops:?}"
        );
    }
}
