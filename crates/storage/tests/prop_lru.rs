//! Property tests for the byte-budgeted LRU cache.

use proptest::prelude::*;
use std::collections::HashMap;
use wfdag::FileId;
use wfstorage::LruBytes;

/// Reference LRU: every eviction scans the whole map for the minimum
/// `(stamp, file)`. `LruBytes` must match it op for op.
struct ScanLru {
    capacity: u64,
    used: u64,
    stamp: u64,
    entries: HashMap<FileId, (u64, u64)>, // file -> (bytes, last-use stamp)
}

impl ScanLru {
    fn new(capacity: u64) -> Self {
        ScanLru {
            capacity,
            used: 0,
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    fn touch(&mut self, file: FileId) -> bool {
        self.stamp += 1;
        if let Some(e) = self.entries.get_mut(&file) {
            e.1 = self.stamp;
            true
        } else {
            false
        }
    }

    fn insert(&mut self, file: FileId, bytes: u64) -> Vec<FileId> {
        self.stamp += 1;
        if let Some(e) = self.entries.get_mut(&file) {
            // Write-once workloads never change a file's size.
            e.1 = self.stamp;
            return Vec::new();
        }
        if bytes > self.capacity {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(id, (_, st))| (*st, **id))
                .map(|(id, _)| *id)
                .expect("over budget implies non-empty");
            let (vbytes, _) = self.entries.remove(&victim).expect("victim resident");
            self.used -= vbytes;
            evicted.push(victim);
        }
        self.entries.insert(file, (bytes, self.stamp));
        self.used += bytes;
        evicted
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Touch(u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..40, 1u64..5000).prop_map(|(f, b)| Op::Insert(f, b)),
            (0u32..40).prop_map(Op::Touch),
        ],
        1..200,
    )
}

/// Differential op streams: a small file universe so refreshes and
/// touch hits are common (files 24..32 are only ever touched, so those
/// touches always miss), sizes from tiny to larger than the capacity
/// drawn below, and big inserts that evict several entries each.
fn diff_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..24, 1u64..600).prop_map(|(f, b)| Op::Insert(f, b)),
            (0u32..24, 1u64..600).prop_map(|(f, b)| Op::Insert(f, b)),
            (0u32..24, 600u64..2500).prop_map(|(f, b)| Op::Insert(f, b)),
            (0u32..24, 2500u64..4000).prop_map(|(f, b)| Op::Insert(f, b)),
            (0u32..32).prop_map(Op::Touch),
            (0u32..32).prop_map(Op::Touch),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `LruBytes` behaves exactly like the scan reference: same eviction
    /// lists in the same order, same touch results, same accounting and
    /// the same resident set after every op.
    #[test]
    fn matches_scan_reference(capacity in 500u64..3000, ops in diff_ops()) {
        let mut cache = LruBytes::new(capacity);
        let mut scan = ScanLru::new(capacity);
        for op in ops {
            match op {
                Op::Insert(f, b) => {
                    prop_assert_eq!(cache.insert(FileId(f), b), scan.insert(FileId(f), b));
                }
                Op::Touch(f) => {
                    prop_assert_eq!(cache.touch(FileId(f)), scan.touch(FileId(f)));
                }
            }
            prop_assert_eq!(cache.used(), scan.used);
            prop_assert_eq!(cache.len(), scan.entries.len());
            for f in 0..32 {
                prop_assert_eq!(cache.contains(FileId(f)), scan.entries.contains_key(&FileId(f)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache never exceeds its byte budget, usage matches the
    /// resident set, and evicted entries are really gone.
    #[test]
    fn budget_and_accounting_hold(capacity in 1000u64..20_000, ops in ops()) {
        let mut cache = LruBytes::new(capacity);
        let mut model: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Insert(f, b) => {
                    let evicted = cache.insert(FileId(f), b);
                    for e in evicted {
                        prop_assert!(model.remove(&e.0).is_some(), "evicted something not resident");
                    }
                    if b <= capacity {
                        model.entry(f).or_insert(b);
                    }
                }
                Op::Touch(f) => {
                    let hit = cache.touch(FileId(f));
                    prop_assert_eq!(hit, model.contains_key(&f));
                }
            }
            prop_assert!(cache.used() <= capacity, "{} > {capacity}", cache.used());
            let model_bytes: u64 = model.values().sum();
            prop_assert_eq!(cache.used(), model_bytes);
            prop_assert_eq!(cache.len(), model.len());
        }
    }

    /// Entries touched most recently survive a squeeze.
    #[test]
    fn recency_is_respected(n in 3usize..20) {
        let per = 100u64;
        let mut cache = LruBytes::new(per * n as u64);
        for i in 0..n {
            cache.insert(FileId(i as u32), per);
        }
        // Refresh the first entry, then overflow by one: the *second*
        // entry (now the LRU) must be the victim.
        cache.touch(FileId(0));
        let evicted = cache.insert(FileId(999), per);
        prop_assert_eq!(evicted, vec![FileId(1)]);
        prop_assert!(cache.contains(FileId(0)));
    }
}
