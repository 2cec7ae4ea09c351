//! Streaming run digest: a 64-bit FNV-1a hash over the canonical event
//! stream, seeded with the run seed.
//!
//! The digest is the one-word answer to "did this run replay
//! byte-identically?". Two runs with the same workflow, configuration and
//! seed must produce the same digest; any divergence in event ordering,
//! payload, or timestamp changes it. Seeding the hash state with the run
//! seed guarantees that different seeds produce different digests even on
//! the (degenerate) workloads whose event streams coincide.

use crate::event::Event;

/// FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Fold `bytes` into an FNV-1a 64 state.
#[inline]
pub(crate) fn fnv_step(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Incremental FNV-1a 64 hasher over `(time, event)` records.
#[derive(Debug, Clone)]
pub struct RunDigest {
    state: u64,
    count: u64,
}

impl RunDigest {
    /// Start a digest for a run with the given seed.
    pub fn new(seed: u64) -> Self {
        let mut d = RunDigest {
            state: FNV_OFFSET,
            count: 0,
        };
        d.write(&seed.to_le_bytes());
        d
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = fnv_step(self.state, bytes);
    }

    /// Fold one timestamped event into the digest.
    pub fn absorb(&mut self, t_nanos: u64, ev: &Event) {
        self.write(&t_nanos.to_le_bytes());
        ev.encode_into(&mut |b| self.state = fnv_step(self.state, b));
        self.count += 1;
    }

    /// Fold arbitrary bytes (for digests over non-`Event` streams, e.g.
    /// the differential oracle's flow-completion records).
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.count += 1;
    }

    /// Number of records absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The digest value. Folding the record count in at the end makes
    /// truncated streams distinguishable from complete ones.
    pub fn value(&self) -> u64 {
        let mut tail = self.clone();
        tail.write(&self.count.to_le_bytes());
        tail.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_same_digest() {
        let mut a = RunDigest::new(7);
        let mut b = RunDigest::new(7);
        for d in [&mut a, &mut b] {
            d.absorb(10, &Event::TaskReady { task: 0 });
            d.absorb(
                20,
                &Event::TaskStart {
                    task: 0,
                    node: 1,
                    attempt: 0,
                },
            );
        }
        assert_eq!(a.value(), b.value());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn seed_perturbs_digest_of_identical_streams() {
        let mut a = RunDigest::new(7);
        let mut b = RunDigest::new(8);
        for d in [&mut a, &mut b] {
            d.absorb(10, &Event::TaskReady { task: 0 });
        }
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn timestamp_and_payload_perturb_digest() {
        let base = {
            let mut d = RunDigest::new(1);
            d.absorb(10, &Event::TaskReady { task: 0 });
            d.value()
        };
        let late = {
            let mut d = RunDigest::new(1);
            d.absorb(11, &Event::TaskReady { task: 0 });
            d.value()
        };
        let other = {
            let mut d = RunDigest::new(1);
            d.absorb(10, &Event::TaskReady { task: 1 });
            d.value()
        };
        assert_ne!(base, late);
        assert_ne!(base, other);
    }

    #[test]
    fn truncated_stream_differs_from_empty_tail() {
        // One event vs the same event plus nothing folded differently:
        // the trailing count makes prefix streams distinguishable.
        let one = {
            let mut d = RunDigest::new(1);
            d.absorb(0, &Event::BgDone);
            d.value()
        };
        let two = {
            let mut d = RunDigest::new(1);
            d.absorb(0, &Event::BgDone);
            d.absorb(0, &Event::BgDone);
            d.value()
        };
        assert_ne!(one, two);
    }
}
