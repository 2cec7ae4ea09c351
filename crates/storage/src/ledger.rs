//! The one place a backend counts and reports its planned operations.
//!
//! Every [`StorageOpStats`] counter and every storage or cache event on
//! the obs bus goes through a [`Ledger`], so a backend states *what* it
//! planned and the ledger keeps the counters and the event stream in step.

use crate::traits::StorageOpStats;
use vcluster::NodeId;
use wfobs::{Event, ObsHandle, OpKind};

/// A backend's operation counters and its obs handle.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) stats: StorageOpStats,
    pub(crate) obs: ObsHandle,
}

impl Ledger {
    /// A foreground read of `bytes` by `node`.
    pub(crate) fn read(&mut self, node: NodeId, bytes: u64) {
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
        self.op(OpKind::Read, node, bytes);
    }

    /// A foreground write of `bytes` by `node`.
    pub(crate) fn write(&mut self, node: NodeId, bytes: u64) {
        self.stats.writes += 1;
        self.stats.bytes_written += bytes;
        self.op(OpKind::Write, node, bytes);
    }

    /// A read `node` served from a cache.
    pub(crate) fn hit(&mut self, node: NodeId) {
        self.stats.cache_hits += 1;
        self.obs.emit(Event::CacheHit { node: node.0 });
    }

    /// A read that missed every cache `node` consults.
    pub(crate) fn miss(&mut self, node: NodeId) {
        self.stats.cache_misses += 1;
        self.obs.emit(Event::CacheMiss { node: node.0 });
    }

    /// An operation reported on the bus but not counted (op storms,
    /// stage-in and stage-out transfers).
    pub(crate) fn op(&self, kind: OpKind, node: NodeId, bytes: u64) {
        self.obs.emit(Event::StorageOp {
            op: kind,
            node: node.0,
            bytes,
        });
    }
}
