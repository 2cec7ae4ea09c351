//! The benchmark's workloads: three paper-scale Montage cells, each chosen
//! so that one layer of the simulator dominates its host time.

use wfdag::Workflow;
use wfengine::RunConfig;
use wfgen::MontageConfig;
use wfobs::ObsLevel;
use wfstorage::StorageKind;

/// One benchmark workload: a Montage cell at a fixed storage option,
/// worker count and observability level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NFS@4 with the bus off (the `repro` figure path). Storage planning
    /// dominates: the server page cache evicts on nearly every write.
    MontageNfs4,
    /// PVFS@4 at Digest level (`wfsim run --storage pvfs --workers 4`).
    /// Every file is striped over every node, so the flow solver works on
    /// one giant component.
    MontagePvfs4,
    /// GlusterFS-NUFA@8 at Full level, then every exporter rendered to
    /// memory. Storage and solver are cheap; the bus and exporters are not.
    MontageNufa8Export,
}

/// Workflow size: the paper's 10,429-task mosaic, or the same shape at a
/// few dozen tasks for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `MontageConfig::paper()`.
    Paper,
    /// `MontageConfig::tiny()`.
    Tiny,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MontageNfs4,
        Workload::MontagePvfs4,
        Workload::MontageNufa8Export,
    ];

    /// The name the benchmark's command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MontageNfs4 => "montage-nfs4",
            Workload::MontagePvfs4 => "montage-pvfs4",
            Workload::MontageNufa8Export => "montage-nufa8-export",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The storage option under test.
    pub fn storage(self) -> StorageKind {
        match self {
            Workload::MontageNfs4 => StorageKind::Nfs,
            Workload::MontagePvfs4 => StorageKind::Pvfs,
            Workload::MontageNufa8Export => StorageKind::GlusterNufa,
        }
    }

    /// Worker nodes.
    pub fn workers(self) -> u32 {
        match self {
            Workload::MontageNfs4 | Workload::MontagePvfs4 => 4,
            Workload::MontageNufa8Export => 8,
        }
    }

    /// The observability level the timed runs use.
    pub fn level(self) -> ObsLevel {
        match self {
            Workload::MontageNfs4 => ObsLevel::Off,
            Workload::MontagePvfs4 => ObsLevel::Digest,
            Workload::MontageNufa8Export => ObsLevel::Full,
        }
    }

    /// Whether a timed run also renders every exporter.
    pub fn exports(self) -> bool {
        self == Workload::MontageNufa8Export
    }

    /// The run configuration for `seed`, at the workload's own level.
    pub fn config(self, seed: u64) -> RunConfig {
        RunConfig::cell(self.storage(), self.workers())
            .with_seed(seed)
            .with_obs(self.level())
    }

    /// Generate the workload's Montage instance. The seed feeds the
    /// generator's service-time jitter.
    pub fn workflow(self, scale: Scale, seed: u64) -> Workflow {
        let mut cfg = match scale {
            Scale::Paper => MontageConfig::paper(),
            Scale::Tiny => MontageConfig::tiny(),
        };
        cfg.seed = seed;
        wfgen::montage(cfg)
    }
}
