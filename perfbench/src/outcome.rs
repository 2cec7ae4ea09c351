//! What a run produced, reduced to the values the output checks compare.

use wfengine::RunStats;
use wfstorage::{StorageBilling, StorageOpStats};

/// The checked outputs of one simulated run. Everything here is simulated
/// (never host time), so equal inputs must give equal summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Simulated makespan, as `f64::to_bits`.
    pub makespan_bits: u64,
    /// Tasks completed.
    pub tasks: usize,
    /// Simulation events fired.
    pub events: u64,
    /// Storage operation counters.
    pub op_stats: StorageOpStats,
    /// Billing-relevant storage usage.
    pub billing: StorageBilling,
    /// Run digest (`None` at `ObsLevel::Off`).
    pub digest: Option<u64>,
}

impl RunSummary {
    /// Summarise a [`wfengine::run_workflow`] result.
    pub fn from_stats(stats: &RunStats) -> RunSummary {
        RunSummary {
            makespan_bits: stats.makespan_secs.to_bits(),
            tasks: stats.tasks,
            events: stats.events,
            op_stats: stats.op_stats,
            billing: stats.billing,
            digest: stats.digest,
        }
    }

    /// The first field on which `self` and `other` differ, if any.
    pub fn first_difference(&self, other: &RunSummary) -> Option<&'static str> {
        if self.makespan_bits != other.makespan_bits {
            Some("makespan")
        } else if self.tasks != other.tasks {
            Some("tasks")
        } else if self.events != other.events {
            Some("events")
        } else if self.op_stats != other.op_stats {
            Some("op_stats")
        } else if self.billing != other.billing {
            Some("billing")
        } else if self.digest != other.digest {
            Some("digest")
        } else {
            None
        }
    }

    /// JSON object members (without braces), in a fixed order.
    pub fn json_fields(&self) -> String {
        let o = &self.op_stats;
        let b = &self.billing;
        let digest = self
            .digest
            .map_or_else(|| "null".to_owned(), |d| format!("\"{d:016x}\""));
        format!(
            "\"makespan_bits\": \"{:016x}\", \"makespan_s\": {}, \"tasks\": {}, \
             \"events\": {}, \"op_stats\": {{\"reads\": {}, \"writes\": {}, \
             \"bytes_read\": {}, \"bytes_written\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}}}, \"billing\": {{\"s3_puts\": {}, \"s3_gets\": {}, \
             \"s3_peak_bytes\": {}}}, \"digest\": {digest}",
            self.makespan_bits,
            f64::from_bits(self.makespan_bits),
            self.tasks,
            self.events,
            o.reads,
            o.writes,
            o.bytes_read,
            o.bytes_written,
            o.cache_hits,
            o.cache_misses,
            b.s3_puts,
            b.s3_gets,
            b.s3_peak_bytes,
        )
    }
}

/// 64-bit FNV-1a, for fingerprinting rendered exports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
