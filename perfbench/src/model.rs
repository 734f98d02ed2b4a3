//! Inputs and exact models of the benchmark's workloads.
//!
//! Every workload generates its keys from the seed and keeps a model of what
//! the map must contain, so each run checks the program's answers: gets on
//! keys nobody mutated, the bounds of every scan under load, and — after
//! `flush()` — the exact count and checksums of a full scan.

use std::collections::HashMap;

use pma_common::bytemap::ByteScanStats;
use pma_common::map::ScanStats;
use pma_common::{Key, Value};

/// A small, fast, seedable generator (SplitMix64) for op mixes and key
/// choices on the benchmark threads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5851_F42D_4C95_7F2D)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Count and wrapping sums of a key/value set: what a full u64 scan
/// (`ScanStats`) must report for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    /// Number of entries.
    pub count: u64,
    /// Sum of keys.
    pub key_sum: i128,
    /// Sum of values.
    pub value_sum: i128,
}

impl Fold {
    /// Adds one entry.
    pub fn add(&mut self, key: Key, value: Value) {
        self.count += 1;
        self.key_sum += key as i128;
        self.value_sum += value as i128;
    }

    /// Takes one entry away.
    pub fn sub(&mut self, key: Key, value: Value) {
        self.count -= 1;
        self.key_sum -= key as i128;
        self.value_sum -= value as i128;
    }

    /// The fold of the bulk-loaded set `{4k -> k : k < n}`.
    pub fn loaded(n: u64) -> Fold {
        let n = n as i128;
        let k_sum = n * (n - 1) / 2;
        Fold {
            count: n as u64,
            key_sum: 4 * k_sum,
            value_sum: k_sum,
        }
    }

    /// Whether a scan's stats match this fold exactly.
    pub fn matches(&self, scan: &ScanStats) -> bool {
        scan.count == self.count && scan.key_sum == self.key_sum && scan.value_sum == self.value_sum
    }
}

/// The bulk-loaded u64 input: keys `4k` with value `k` for `k < n`, so every
/// third of the gaps between loaded keys is free for fresh inserts.
pub fn loaded_items(n: usize) -> Vec<(Key, Value)> {
    (0..n as i64).map(|k| (k * 4, k)).collect()
}

/// Fresh insert keys for `scan-insert`: the `i`-th key is `4·h(i) + 2`,
/// where `h` is a seeded bijection of `[0, 2^bits)`. Keys are therefore
/// distinct, never collide with a loaded key (those are `≡ 0 mod 4`) and
/// spread uniformly over the loaded range.
#[derive(Debug, Clone, Copy)]
pub struct FreshKeys {
    bits: u32,
    mask: u64,
    seed: u64,
}

impl FreshKeys {
    /// A key stream covering the range of `n` loaded keys.
    pub fn new(n: usize, seed: u64) -> FreshKeys {
        let bits = (n.max(2) as u64)
            .next_power_of_two()
            .trailing_zeros()
            .max(2);
        FreshKeys {
            bits,
            mask: (1u64 << bits) - 1,
            seed,
        }
    }

    /// The `i`-th fresh key (distinct for every `i < 2^bits`).
    #[inline]
    pub fn key(&self, i: u64) -> Key {
        // Each step is a bijection of the `bits`-bit domain.
        let half = self.bits / 2;
        let mut x = (i ^ self.seed) & self.mask;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & self.mask;
        x ^= x >> half;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93 | 1) & self.mask;
        x ^= x >> half;
        (x * 4 + 2) as Key
    }
}

/// Maps Zipf rank `r` of client `thread` (one of `threads`) to that client's
/// own key: keys are cut into blocks of four (one loaded key and three free
/// slots each) and blocks are dealt round-robin to the clients, so the key
/// classes are disjoint, each holds loaded and fresh keys alike, and a small
/// rank is a small key for every client.
#[inline]
pub fn churn_key(thread: u64, threads: u64, r: u64) -> Key {
    (((r >> 2) * threads + thread) * 4 + (r & 3)) as Key
}

/// One `point-churn` client's exact model of the keys it owns.
#[derive(Debug, Default)]
pub struct ChurnModel {
    /// Last operation applied to each touched key: `Some(v)` after an insert
    /// of `v`, `None` after a remove.
    touched: HashMap<Key, Option<Value>>,
}

impl ChurnModel {
    /// What the loaded set holds at `key`.
    pub fn loaded_value(key: Key) -> Option<Value> {
        (key % 4 == 0).then_some(key / 4)
    }

    /// Records an insert.
    pub fn insert(&mut self, key: Key, value: Value) {
        self.touched.insert(key, Some(value));
    }

    /// Records a remove.
    pub fn remove(&mut self, key: Key) {
        self.touched.insert(key, None);
    }

    /// The value a get on `key` must return when the key has never been
    /// mutated, or `None` when the key was mutated (asynchronous update
    /// modes may still hold the mutation in a queue, so only never-mutated
    /// keys are checked during the run).
    pub fn expected_untouched(&self, key: Key) -> Option<Option<Value>> {
        if self.touched.contains_key(&key) {
            None
        } else {
            Some(Self::loaded_value(key))
        }
    }

    /// Applies this client's net effect to the fold of the whole map.
    pub fn apply_to(&self, fold: &mut Fold) {
        for (&key, &now) in &self.touched {
            if let Some(v) = Self::loaded_value(key) {
                fold.sub(key, v);
            }
            if let Some(v) = now {
                fold.add(key, v);
            }
        }
    }
}

/// Suffix that turns a corpus key into its churn twin. Corpus keys end in
/// eight digits, so a twin never equals a corpus key and sorts directly after
/// its base key.
pub const TWIN_SUFFIX: &[u8] = b"/e";

/// The `url-bytes` churn pool: `size` twins of corpus keys spread evenly
/// over the sorted corpus, each present or absent.
#[derive(Debug, Clone)]
pub struct TwinPool {
    stride: usize,
    present: Vec<Option<Value>>,
}

impl TwinPool {
    /// A pool of (up to) `size` twins over a corpus of `corpus_len` keys,
    /// all absent.
    pub fn new(corpus_len: usize, size: usize) -> TwinPool {
        let stride = (corpus_len / size.max(1)).max(1);
        TwinPool {
            stride,
            present: vec![None; corpus_len.div_ceil(stride).min(size.max(1))],
        }
    }

    /// Number of twins in the pool.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Corpus index of twin `j`'s base key.
    pub fn base_index(&self, j: usize) -> usize {
        j * self.stride
    }

    /// Twin `j`'s key.
    #[cfg(test)]
    pub fn key(&self, corpus: &[(Vec<u8>, Value)], j: usize) -> Vec<u8> {
        let mut key = corpus[self.base_index(j)].0.clone();
        key.extend_from_slice(TWIN_SUFFIX);
        key
    }

    /// Records an insert of twin `j`.
    pub fn insert(&mut self, j: usize, value: Value) {
        self.present[j] = Some(value);
    }

    /// Records a remove of twin `j`.
    pub fn remove(&mut self, j: usize) {
        self.present[j] = None;
    }

    /// How many twins have a base key in corpus positions `[lo, hi)`: the
    /// most a scan of that span may find beyond its corpus keys.
    pub fn in_span(&self, lo: usize, hi: usize) -> usize {
        let first = lo.div_ceil(self.stride);
        let end = hi.div_ceil(self.stride).min(self.present.len());
        end.saturating_sub(first)
    }

    /// The exact stats a full scan of corpus plus present twins must give.
    pub fn expected_scan(&self, corpus: &[(Vec<u8>, Value)]) -> ByteScanStats {
        let mut stats = ByteScanStats::default();
        let mut twin = Vec::new();
        for (i, (key, value)) in corpus.iter().enumerate() {
            stats.visit(key, *value);
            if i % self.stride == 0 {
                if let Some(Some(v)) = self.present.get(i / self.stride) {
                    twin.clear();
                    twin.extend_from_slice(key);
                    twin.extend_from_slice(TWIN_SUFFIX);
                    stats.visit(&twin, *v);
                }
            }
        }
        stats
    }
}

/// Corpus positions `[lo, hi)` of the keys that start with `prefix`.
pub fn prefix_span(corpus: &[(Vec<u8>, Value)], prefix: &[u8]) -> (usize, usize) {
    let lo = corpus.partition_point(|(k, _)| k.as_slice() < prefix);
    let hi = lo + corpus[lo..].partition_point(|(k, _)| k.starts_with(prefix));
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..100).map(|_| a.below(10)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(10)).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.below(10)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&x| x < 10));
    }

    #[test]
    fn loaded_fold_matches_the_items() {
        let items = loaded_items(1000);
        let mut fold = Fold::default();
        for &(k, v) in &items {
            fold.add(k, v);
        }
        assert_eq!(fold, Fold::loaded(1000));
        let mut scan = ScanStats::default();
        for &(k, v) in &items {
            scan.visit(k, v);
        }
        assert!(fold.matches(&scan));
        scan.visit(1, 1);
        assert!(!fold.matches(&scan));
    }

    #[test]
    fn fresh_keys_are_distinct_and_never_loaded() {
        let fresh = FreshKeys::new(1000, 42);
        let keys: HashSet<Key> = (0..1024).map(|i| fresh.key(i)).collect();
        assert_eq!(keys.len(), 1024);
        assert!(keys.iter().all(|k| k % 4 == 2 && (0..4 * 1024).contains(k)));
        // Another seed permutes the same key set differently.
        let other = FreshKeys::new(1000, 43);
        assert_ne!(fresh.key(0), other.key(0));
    }

    #[test]
    fn churn_classes_are_disjoint_and_mix_loaded_keys() {
        let a: HashSet<Key> = (0..4000).map(|r| churn_key(0, 2, r)).collect();
        let b: HashSet<Key> = (0..4000).map(|r| churn_key(1, 2, r)).collect();
        assert_eq!(a.len(), 4000);
        assert!(a.is_disjoint(&b));
        let loaded = a.iter().filter(|&&k| k % 4 == 0).count();
        assert_eq!(loaded, 1000);
        assert_eq!(churn_key(0, 2, 0), 0);
        assert_eq!(churn_key(1, 2, 0), 4);
    }

    #[test]
    fn churn_model_tracks_the_net_effect() {
        let mut m = ChurnModel::default();
        assert_eq!(m.expected_untouched(8), Some(Some(2)));
        assert_eq!(m.expected_untouched(9), Some(None));
        m.insert(9, 100); // fresh key
        m.remove(8); // loaded key
        m.insert(12, 7); // overwrite of a loaded key
        m.remove(13); // remove of an absent key
        assert_eq!(m.expected_untouched(8), None);
        let mut fold = Fold::loaded(4); // keys 0, 4, 8, 12
        m.apply_to(&mut fold);
        let mut expect = Fold::default();
        for (k, v) in [(0, 0), (4, 1), (9, 100), (12, 7)] {
            expect.add(k, v);
        }
        assert_eq!(fold, expect);
    }

    fn corpus() -> Vec<(Vec<u8>, Value)> {
        let mut c: Vec<(Vec<u8>, Value)> = ["a/01", "a/02", "b/01", "b/02", "b/03", "c/01"]
            .iter()
            .map(|k| (k.as_bytes().to_vec(), k.len() as Value))
            .collect();
        c.sort();
        c
    }

    #[test]
    fn twin_pool_expected_scan_matches_a_sorted_fold() {
        let corpus = corpus();
        let mut pool = TwinPool::new(corpus.len(), 3);
        assert_eq!(pool.len(), 3);
        pool.insert(1, 50);
        pool.insert(2, 60);
        pool.remove(2);
        // Model: the corpus plus twin 1, folded in sorted key order.
        let mut all = corpus.clone();
        all.push((pool.key(&corpus, 1), 50));
        all.sort();
        let mut want = ByteScanStats::default();
        for (k, v) in &all {
            want.visit(k, *v);
        }
        assert_eq!(pool.expected_scan(&corpus), want);
    }

    #[test]
    fn prefix_span_and_twin_bounds() {
        let corpus = corpus();
        assert_eq!(prefix_span(&corpus, b"b/"), (2, 5));
        assert_eq!(prefix_span(&corpus, b"z"), (6, 6));
        assert_eq!(prefix_span(&corpus, b""), (0, 6));
        let pool = TwinPool::new(corpus.len(), 3); // bases 0, 2, 4
        assert_eq!(pool.in_span(2, 5), 2);
        assert_eq!(pool.in_span(0, 6), 3);
        assert_eq!(pool.in_span(5, 6), 0);
    }
}
