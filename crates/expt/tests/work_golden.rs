//! Golden test for the simulator's own work: two real tiny Montage cells
//! must reproduce the checked-in flow-engine work counters, event count
//! and storage cache counters exactly. The counters are deterministic, so
//! the bound is equality; unlike a wall-clock bound it cannot flake on a
//! loaded host, and it moves when the solver does more (or less) work even
//! if every simulated result stays the same.
//!
//! * PVFS@8 stripes every file over every node, so all active flows form
//!   one component: the giant-component solve path.
//! * NFS@4 serves reads through the server page cache: the cache path.
//!
//! Each cell runs at every observability level; the levels must agree on
//! the makespan bits, events, flow work and storage counters before the
//! `Off` run is compared with the fixture. Regenerate after an intentional
//! change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test work_golden
//! ```

use wfengine::{run_workflow, RunConfig, RunStats};
use wfgen::App;
use wfobs::ObsLevel;
use wfstorage::StorageKind;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/work_golden.txt"
);

const CELLS: [(&str, StorageKind, u32); 2] = [
    ("montage-pvfs8", StorageKind::Pvfs, 8),
    ("montage-nfs4", StorageKind::Nfs, 4),
];

fn run(kind: StorageKind, workers: u32, obs: ObsLevel) -> RunStats {
    let cfg = RunConfig::cell(kind, workers).with_seed(42).with_obs(obs);
    run_workflow(App::Montage.tiny_workflow(), cfg).expect("tiny Montage run succeeds")
}

/// Run one cell at every level, check the levels agree, and return the
/// cell's `name key value ...` line.
fn pin(name: &str, kind: StorageKind, workers: u32) -> String {
    let off = run(kind, workers, ObsLevel::Off);
    for level in [ObsLevel::Digest, ObsLevel::Full] {
        let other = run(kind, workers, level);
        assert_eq!(
            off.makespan_secs.to_bits(),
            other.makespan_secs.to_bits(),
            "{name}: makespan at {level:?} differs from Off"
        );
        assert_eq!(off.events, other.events, "{name}: events at {level:?}");
        assert_eq!(
            off.flow_work, other.flow_work,
            "{name}: flow work at {level:?}"
        );
        assert_eq!(
            off.op_stats, other.op_stats,
            "{name}: op stats at {level:?}"
        );
    }
    let w = off.flow_work;
    let ops = off.op_stats;
    format!(
        "{name} solves {} flows_resolved {} heap_pushes {} sorted_solves {} \
         events {} cache_hits {} cache_misses {}\n",
        w.solves,
        w.flows_resolved,
        w.heap_pushes,
        w.sorted_solves,
        off.events,
        ops.cache_hits,
        ops.cache_misses
    )
}

#[test]
fn work_counters_match_golden() {
    let got: String = CELLS
        .iter()
        .map(|&(name, kind, workers)| pin(name, kind, workers))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "work counters drifted from {GOLDEN}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}
