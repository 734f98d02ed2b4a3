//! [`ShardedByteMap`]: range-sharding for byte-keyed backends.
//!
//! N inner [`ConcurrentByteMap`] instances behind a [`ByteFences`] directory
//! (registry spec `bsharded:<n>[:<inner-byte-spec>]`). Routing probes the
//! fences' first-8-byte heads with the SIMD kernels and binary-searches the
//! run of fences sharing the key's head — the same byte-routing path the
//! `BytePma` chunk directory uses, one level up.
//!
//! The shard layout is **static**: fresh maps cut the byte space uniformly
//! by first byte, and bulk loads cut at data percentiles with the same
//! duplicate-run guard as the u64 engine's `plan_shards` (a cut landing
//! inside a run of equal keys slides to the next key boundary, so
//! duplicate-heavy corpora produce fewer — never empty — shards). Dynamic
//! split/merge of byte shards is future work; the u64 engine's load monitor
//! shows the shape it would take.
//!
//! Prefix scans fan out only to the shards the prefix interval
//! `[p, prefix_upper_bound(p))` can touch, visiting them in fence order so
//! the global scan stays ordered.

use std::sync::Arc;

use pma_common::bytemap::{
    dedup_sorted_bytes_last_wins, ByteMemoryStats, ConcurrentByteMap, FrozenByteView,
};
use pma_common::registry::Registry;
use pma_common::simd::ByteFences;
use pma_common::{MaintenanceStats, PmaError, Value};

/// Configuration of a [`ShardedByteMap`].
#[derive(Debug, Clone)]
pub struct ByteShardConfig {
    /// Number of shards (1..=64).
    pub shards: usize,
    /// Registry spec of the inner byte backend each shard runs.
    pub inner_spec: String,
}

impl ByteShardConfig {
    fn validate(&self) -> Result<(), PmaError> {
        if self.shards == 0 || self.shards > 64 {
            return Err(PmaError::invalid(
                "shards",
                format!("shard count must be in 1..=64, got {}", self.shards),
            ));
        }
        if self.inner_spec.starts_with("bsharded") {
            return Err(PmaError::invalid(
                "inner_spec",
                "nesting bsharded inside bsharded is not supported".to_string(),
            ));
        }
        Ok(())
    }
}

/// Range-sharded composition of byte-keyed backends (see the module docs).
pub struct ShardedByteMap {
    fences: Arc<ByteFences>,
    shards: Vec<Arc<dyn ConcurrentByteMap>>,
}

impl ShardedByteMap {
    /// Builds an empty sharded map with uniform first-byte fences: shard `i`
    /// of `n` covers first bytes `[256*i/n, 256*(i+1)/n)`.
    pub fn new(config: ByteShardConfig, registry: &Registry) -> Result<Self, PmaError> {
        config.validate()?;
        let mut fences: Vec<Vec<u8>> = vec![Vec::new()];
        for i in 1..config.shards {
            fences.push(vec![(i * 256 / config.shards) as u8]);
        }
        let shards = (0..config.shards)
            .map(|_| registry.build_bytes(&config.inner_spec))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            fences: Arc::new(ByteFences::from_keys(&fences)),
            shards,
        })
    }

    /// Bulk-loads a key-sorted run (non-decreasing; later duplicates win),
    /// cutting shard fences at data percentiles. Cuts never land inside a
    /// run of equal keys, so duplicate-heavy input yields fewer shards
    /// rather than empty or fence-violating ones.
    pub fn from_sorted_bytes(
        config: ByteShardConfig,
        registry: &Registry,
        items: &[(Vec<u8>, Value)],
    ) -> Result<Self, PmaError> {
        config.validate()?;
        let items = dedup_sorted_bytes_last_wins(items);
        if items.is_empty() {
            return Self::new(config, registry);
        }
        let n = config.shards;
        let mut cuts: Vec<usize> = vec![0];
        for i in 1..n {
            let mut target = (i * items.len() / n).max(cuts[cuts.len() - 1] + 1);
            // The duplicate-run guard (defensive here: `items` is deduped,
            // but the layout contract must not depend on that).
            while target < items.len() && items[target].0 == items[target - 1].0 {
                target += 1;
            }
            if target >= items.len() {
                break;
            }
            cuts.push(target);
        }
        cuts.push(items.len());
        let mut fences: Vec<Vec<u8>> = vec![Vec::new()];
        let mut shards = Vec::with_capacity(cuts.len() - 1);
        for (j, w) in cuts.windows(2).enumerate() {
            let run = &items[w[0]..w[1]];
            if j > 0 {
                fences.push(run[0].0.clone());
            }
            shards.push(registry.build_bytes_loaded(&config.inner_spec, run)?);
        }
        Ok(Self {
            fences: Arc::new(ByteFences::from_keys(&fences)),
            shards,
        })
    }

    /// Number of shards actually installed (may be fewer than requested
    /// after a duplicate-heavy bulk load).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn route(&self, key: &[u8]) -> &Arc<dyn ConcurrentByteMap> {
        &self.shards[self.fences.route(key)]
    }
}

impl ConcurrentByteMap for ShardedByteMap {
    fn insert(&self, key: &[u8], value: Value) {
        self.route(key).insert(key, value);
    }

    fn remove(&self, key: &[u8]) -> Option<Value> {
        self.route(key).remove(key)
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        self.route(key).get(key)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        let start = self.fences.route(lo);
        for idx in start..self.shards.len() {
            // A later shard whose fence is at or past `hi` cannot hold keys
            // below it; everything after is out of range too.
            if idx > start && hi.is_some_and(|hi| self.fences.fence(idx) >= hi) {
                break;
            }
            // Each shard holds only keys within its fence interval, so the
            // global bounds can be passed straight through; visiting shards
            // in fence order keeps the global scan ordered.
            self.shards[idx].range(lo, hi, visitor);
        }
    }

    fn insert_batch(&self, items: &[(Vec<u8>, Value)]) {
        // Forward maximal consecutive runs routing to the same shard, so a
        // sorted batch becomes one `insert_batch` per covered shard.
        let mut i = 0;
        while i < items.len() {
            let shard = self.fences.route(&items[i].0);
            let mut j = i + 1;
            while j < items.len() && self.fences.route(&items[j].0) == shard {
                j += 1;
            }
            self.shards[shard].insert_batch(&items[i..j]);
            i = j;
        }
    }

    fn flush(&self) {
        for shard in &self.shards {
            shard.flush();
        }
    }

    fn frozen(&self) -> Option<Box<dyn FrozenByteView>> {
        // Composes per-shard views captured in fence order. Each shard's
        // view is individually point-in-time; writes racing the capture may
        // land in a lower shard's view and miss a higher one's (the same
        // contract as scanning a sharded map while writing to it).
        let shards = self
            .shards
            .iter()
            .map(|s| s.frozen())
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(FrozenShardedBytes {
            fences: Arc::clone(&self.fences),
            shards,
        }))
    }

    fn memory_stats(&self) -> Option<ByteMemoryStats> {
        let mut total = ByteMemoryStats {
            entries: 0,
            heap_bytes: self.fences.heap_bytes(),
            key_bytes: 0,
        };
        for shard in &self.shards {
            total.merge(&shard.memory_stats()?);
        }
        Some(total)
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        let mut total = MaintenanceStats::default();
        let mut any = false;
        for shard in &self.shards {
            if let Some(stats) = shard.maintenance_stats() {
                total.merge(&stats);
                any = true;
            }
        }
        any.then_some(total)
    }

    fn name(&self) -> &'static str {
        "sharded-bytes"
    }
}

/// Composed frozen view over per-shard snapshots (see
/// [`ShardedByteMap::frozen`]).
struct FrozenShardedBytes {
    fences: Arc<ByteFences>,
    shards: Vec<Box<dyn FrozenByteView>>,
}

impl FrozenByteView for FrozenShardedBytes {
    fn get(&self, key: &[u8]) -> Option<Value> {
        self.shards[self.fences.route(key)].get(key)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        let start = self.fences.route(lo);
        for idx in start..self.shards.len() {
            if idx > start && hi.is_some_and(|hi| self.fences.fence(idx) >= hi) {
                break;
            }
            self.shards[idx].range(lo, hi, visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pma_common::bytemap::ByteScanStats;

    fn registry() -> &'static Registry {
        let registry = Registry::global();
        pma_core::register_backends(registry);
        pma_baselines::register_backends(registry);
        registry
    }

    fn config(n: usize) -> ByteShardConfig {
        ByteShardConfig {
            shards: n,
            inner_spec: "bpma:16".to_string(),
        }
    }

    fn url(i: usize) -> Vec<u8> {
        format!("https://example.com/users/{i:05}").into_bytes()
    }

    #[test]
    fn point_ops_route_across_byte_shards() {
        let map = ShardedByteMap::new(config(4), registry()).unwrap();
        let keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            vec![0x01],
            b"AAA".to_vec(),
            b"mmm".to_vec(),
            vec![0xFE, 0xFF],
        ];
        for (i, key) in keys.iter().enumerate() {
            map.insert(key, i as Value);
        }
        assert_eq!(map.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(map.get(key), Some(i as Value), "key {key:?}");
        }
        assert_eq!(map.remove(b"AAA"), Some(2));
        assert_eq!(map.len(), keys.len() - 1);
    }

    #[test]
    fn cross_shard_scans_preserve_global_order() {
        let map = ShardedByteMap::new(config(8), registry()).unwrap();
        for i in 0..400 {
            // Spread first bytes across the whole range.
            let key = vec![(i % 256) as u8, (i / 256) as u8, i as u8];
            map.insert(&key, i as Value);
        }
        let mut last: Option<Vec<u8>> = None;
        let mut count = 0;
        map.range(&[], None, &mut |key, _| {
            if let Some(prev) = &last {
                assert!(prev.as_slice() < key, "global order violated");
            }
            last = Some(key.to_vec());
            count += 1;
        });
        assert_eq!(count, 400);
    }

    #[test]
    fn prefix_agrees_with_filtered_full_scan() {
        let map = ShardedByteMap::new(config(4), registry()).unwrap();
        for i in 0..300 {
            map.insert(&url(i), i as Value);
            map.insert(format!("user:{i:04}").as_bytes(), i as Value);
        }
        for prefix in [
            &b"user:00"[..],
            b"https://example.com/users/000",
            b"",
            b"zzz",
        ] {
            let direct = map.prefix_stats(prefix);
            let mut filtered = ByteScanStats::default();
            map.range(&[], None, &mut |key, value| {
                if key.starts_with(prefix) {
                    filtered.visit(key, value);
                }
            });
            assert_eq!(direct, filtered, "prefix {prefix:?}");
        }
    }

    #[test]
    fn bulk_load_cuts_data_percentile_fences() {
        let items: Vec<(Vec<u8>, Value)> = (0..256).map(|i| (url(i), i as Value)).collect();
        let map = ShardedByteMap::from_sorted_bytes(config(4), registry(), &items).unwrap();
        assert_eq!(map.shard_count(), 4);
        assert_eq!(map.len(), 256);
        // Every shard carries a roughly equal cut of the skewed key space.
        for shard in &map.shards {
            assert!(shard.len() >= 32, "unbalanced shard: {}", shard.len());
        }
        assert_eq!(map.get(&url(200)), Some(200));
        assert_eq!(map.scan_all().count, 256);
    }

    #[test]
    fn duplicate_heavy_bulk_load_produces_no_empty_shards() {
        // 90% one key: percentile cuts all land inside the duplicate run.
        let mut items: Vec<(Vec<u8>, Value)> = vec![(b"dup".to_vec(), 0); 90];
        for i in 0..10 {
            items.push((format!("tail{i}").into_bytes(), i as Value));
        }
        items.sort();
        let map = ShardedByteMap::from_sorted_bytes(config(4), registry(), &items).unwrap();
        assert!(map.shard_count() >= 1);
        for shard in &map.shards {
            assert!(!shard.is_empty(), "empty shard from duplicate-heavy load");
        }
        assert_eq!(map.len(), 11, "one dup survivor + ten tails");
        assert_eq!(map.scan_all().count, 11);
    }

    #[test]
    fn frozen_composes_shard_views() {
        let items: Vec<(Vec<u8>, Value)> = (0..64).map(|i| (url(i), i as Value)).collect();
        let map = ShardedByteMap::from_sorted_bytes(config(4), registry(), &items).unwrap();
        let frozen = map.frozen().expect("bpma shards support frozen()");
        map.insert(b"zzz", -1);
        assert_eq!(frozen.len(), 64);
        assert_eq!(frozen.get(b"zzz"), None);
        assert_eq!(frozen.prefix_stats(b"https://").count, 64);
    }

    #[test]
    fn memory_stats_aggregate_across_shards() {
        let items: Vec<(Vec<u8>, Value)> = (0..128).map(|i| (url(i), i as Value)).collect();
        let map = ShardedByteMap::from_sorted_bytes(config(4), registry(), &items).unwrap();
        let mem = map.memory_stats().unwrap();
        assert_eq!(mem.entries, 128);
        assert_eq!(mem.key_bytes, 128 * url(0).len());
        assert!(mem.heap_bytes > 0);
    }

    #[test]
    fn nested_and_oversized_configs_are_rejected() {
        assert!(ShardedByteMap::new(
            ByteShardConfig {
                shards: 2,
                inner_spec: "bsharded:2:bpma".to_string(),
            },
            registry(),
        )
        .is_err());
        assert!(ShardedByteMap::new(config(0), registry()).is_err());
        assert!(ShardedByteMap::new(config(65), registry()).is_err());
    }
}
