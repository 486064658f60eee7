//! The [`Tier`] abstraction of the redesigned artifact store: memory,
//! decoded-disk, and mapped-disk backings behind one object-safe trait
//! with explicit per-tier [`TierStats`].
//!
//! `TGARTv1` hard-wired two tiers (sharded memory + a decoded
//! `HashMap` snapshot); the v2 format adds a third backing — records
//! served straight out of a mapped file — which the old shape could
//! not express. A [`TieredCache`] now owns a [`MemoryTier`] plus one
//! optional *warm tier* slot holding whichever disk tier the warm
//! start produced: a [`DecodedTier`] for legacy v1 files (decoded
//! once, rewritten as v2 on the next persist) or a [`MappedTier`]
//! serving lookups by index search + single-record decode.
//!
//! Lock shape: the warm slot is an `RwLock<Option<Arc<dyn Tier>>>` at
//! rank `store_shard`. Readers clone the `Arc` out under the read
//! guard and query the tier *outside* the lock — the tiers themselves
//! are immutable after construction (their stats are atomics), so the
//! slot guard is held only for the pointer copy.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::format::ArtifactView;
use crate::store::{ArtifactKind, DiskCodec};
use crate::sync::{rank_guard, unpoisoned, Rank};

/// Number of lock shards per in-memory cache. A small power of two: enough
/// to keep writer contention negligible for tens of worker threads without
/// bloating the struct.
const SHARDS: usize = 16;

/// Which backing a tier serves from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TierKind {
    /// The sharded in-memory maps every worker thread shares.
    Memory,
    /// A disk artifact decoded wholesale into a `HashMap` at warm start
    /// (the only disk tier v1 files can have).
    DecodedDisk,
    /// A `TGARTv2` file served in place: index binary search plus
    /// single-record decode, no up-front parse of the payload.
    MappedDisk,
}

impl TierKind {
    /// Stable lowercase name (used in stats rendering and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Memory => "memory",
            TierKind::DecodedDisk => "decoded-disk",
            TierKind::MappedDisk => "mapped-disk",
        }
    }
}

/// Counters of one tier of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups this tier answered.
    pub hits: u64,
    /// Lookups that reached this tier and fell through.
    pub misses: u64,
    /// Entries the tier holds (memory: live map size; disk tiers: the
    /// record count of the backing artifact).
    pub entries: u64,
    /// Approximate bytes behind the tier (memory: estimated heap;
    /// decoded: source file size; mapped: mapped file size — page
    /// cache, not heap, but it bounds what a reload would touch).
    pub bytes: u64,
}

/// One backing layer of a [`TieredCache`], object-safe so the warm
/// slot can hold either disk tier behind `Arc<dyn Tier>`.
///
/// Implementations are immutable after construction apart from their
/// hit/miss counters; `get` therefore takes `&self` and is safe to
/// call outside any lock.
pub(crate) trait Tier<K, V>: Send + Sync {
    /// Which backing this is.
    fn kind(&self) -> TierKind;
    /// Looks `key` up, counting a hit or miss.
    fn get(&self, key: &K) -> Option<V>;
    /// Number of entries.
    fn entries(&self) -> usize;
    /// Approximate bytes behind the tier (see [`TierStats::bytes`]).
    fn bytes(&self) -> u64;
    /// Visits every entry (used by merge-on-persist).
    fn for_each(&self, f: &mut dyn FnMut(K, V));
    /// Counter snapshot plus size.
    fn stats(&self) -> TierStats;
}

// ---------------------------------------------------------------------------
// Memory tier
// ---------------------------------------------------------------------------

/// A concurrent map sharded across [`SHARDS`] reader-writer locks.
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    fn new() -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get(&self, key: &K) -> Option<V> {
        let _rank = rank_guard(Rank::CacheShard);
        unpoisoned(self.shard(key).read()).get(key).cloned()
    }

    /// Inserts `value` unless the key is already present (first insert wins —
    /// cached values are pure functions of the key, so a racing duplicate is
    /// bit-identical) and returns the stored value.
    fn insert(&self, key: K, value: V) -> V {
        let _rank = rank_guard(Rank::CacheShard);
        unpoisoned(self.shard(&key).write())
            .entry(key)
            .or_insert(value)
            .clone()
    }

    fn len(&self) -> usize {
        let _rank = rank_guard(Rank::CacheShard);
        self.shards
            .iter()
            .map(|shard| unpoisoned(shard.read()).len())
            .sum()
    }

    fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _rank = rank_guard(Rank::CacheShard);
        for shard in &self.shards {
            for (k, v) in unpoisoned(shard.read()).iter() {
                f(k, v);
            }
        }
    }
}

/// The memory tier: a [`ShardedCache`] plus its own hit/miss counters.
pub(crate) struct MemoryTier<K, V> {
    map: ShardedCache<K, V>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Per-entry byte cost for [`TierStats::bytes`]; set by the store,
    /// which knows each cache's value shape.
    cost: fn(&K, &V) -> u64,
}

impl<K: Eq + Hash + Clone, V: Clone> MemoryTier<K, V> {
    fn new(cost: fn(&K, &V) -> u64) -> Self {
        MemoryTier {
            map: ShardedCache::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cost,
        }
    }

    fn insert(&self, key: K, value: V) -> V {
        self.map.insert(key, value)
    }
}

impl<K, V> Tier<K, V> for MemoryTier<K, V>
where
    K: Eq + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn kind(&self) -> TierKind {
        TierKind::Memory
    }

    fn get(&self, key: &K) -> Option<V> {
        let found = self.map.get(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn entries(&self) -> usize {
        self.map.len()
    }

    fn bytes(&self) -> u64 {
        let mut total = 0;
        self.map.for_each(|k, v| total += (self.cost)(k, v));
        total
    }

    fn for_each(&self, f: &mut dyn FnMut(K, V)) {
        self.map.for_each(|k, v| f(k.clone(), v.clone()));
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries() as u64,
            bytes: self.bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// Disk tiers
// ---------------------------------------------------------------------------

/// A disk artifact decoded wholesale at warm start. Immutable after
/// construction; this is how legacy `TGARTv1` files are served (and
/// how any file is served when mmap is disabled or unavailable).
pub(crate) struct DecodedTier<K, V> {
    map: HashMap<K, V>,
    source_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V> DecodedTier<K, V> {
    pub(crate) fn new(map: HashMap<K, V>, source_bytes: u64) -> Self {
        DecodedTier {
            map,
            source_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V> Tier<K, V> for DecodedTier<K, V>
where
    K: Eq + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn kind(&self) -> TierKind {
        TierKind::DecodedDisk
    }

    fn get(&self, key: &K) -> Option<V> {
        let found = self.map.get(key).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn entries(&self) -> usize {
        self.map.len()
    }

    fn bytes(&self) -> u64 {
        self.source_bytes
    }

    fn for_each(&self, f: &mut dyn FnMut(K, V)) {
        for (k, v) in &self.map {
            f(k.clone(), v.clone());
        }
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.len() as u64,
            bytes: self.source_bytes,
        }
    }
}

/// A `TGARTv2` file served in place: every lookup encodes the key,
/// binary-searches the index, and decodes exactly one record. The
/// backing may be a memory mapping (zero-copy warm start) or owned
/// bytes (the portable fallback) — the tier is agnostic.
pub(crate) struct MappedTier<K, V> {
    view: ArtifactView,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The owning cache's count of records found but undecodable —
    /// shared, so it survives this tier being replaced by a re-warm.
    rejected: Arc<AtomicU64>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> MappedTier<K, V> {
    pub(crate) fn new(view: ArtifactView, rejected: Arc<AtomicU64>) -> Self {
        MappedTier {
            view,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected,
            _marker: PhantomData,
        }
    }
}

impl<K, V> Tier<K, V> for MappedTier<K, V>
where
    K: DiskCodec + Eq + Hash + Clone + Send + Sync,
    V: DiskCodec + Clone + Send + Sync,
{
    fn kind(&self) -> TierKind {
        if self.view.is_mapped() {
            TierKind::MappedDisk
        } else {
            // v2 file read into owned bytes (mmap off / unavailable):
            // still index-served, but honesty in stats matters.
            TierKind::DecodedDisk
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        let mut kb = Vec::new();
        key.encode(&mut kb);
        let found = self.view.lookup(&kb);
        let decoded = found.and_then(|value_bytes| {
            let mut pos = 0;
            let v = V::decode(value_bytes, &mut pos)?;
            // A record with value bytes left over would be a codec
            // drift between writer and reader: refuse to serve it.
            (pos == value_bytes.len()).then_some(v)
        });
        if found.is_some() && decoded.is_none() {
            // The index vouched for the record but its bytes are
            // damaged: count it, and let the caller recompute.
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        match decoded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        decoded
    }

    fn entries(&self) -> usize {
        self.view.count()
    }

    fn bytes(&self) -> u64 {
        self.view.byte_len() as u64
    }

    fn for_each(&self, f: &mut dyn FnMut(K, V)) {
        for i in 0..self.view.count() {
            let record = self.view.record(i);
            let mut pos = 0;
            let Some(k) = K::decode(record, &mut pos) else {
                continue;
            };
            let Some(v) = V::decode(record, &mut pos) else {
                continue;
            };
            f(k, v);
        }
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.view.count() as u64,
            bytes: self.view.byte_len() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Tiered cache
// ---------------------------------------------------------------------------

/// One typed cache with a memory tier, an optional warm (disk) tier
/// and fall-through counters.
///
/// A lookup falls through: memory hit → warm-tier hit (promoted into
/// memory) → compute (counted as a miss; a disk miss too when a disk
/// tier is enabled). The miss counter therefore equals the number of
/// *computations*, which is what makes "zero misses on a warm run" a
/// meaningful assertion.
pub(crate) struct TieredCache<K, V> {
    kind: ArtifactKind,
    mem: MemoryTier<K, V>,
    /// The warm tier swapped in at warm start; rank `store_shard`.
    /// Readers clone the `Arc` out and drop the guard before querying.
    warm: RwLock<Option<Arc<dyn Tier<K, V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    /// Records a mapped warm tier found but could not decode; handed to
    /// each [`MappedTier`] this cache installs.
    disk_rejected: Arc<AtomicU64>,
}

impl<K, V> TieredCache<K, V>
where
    K: Eq + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    pub(crate) fn new(kind: ArtifactKind, cost: fn(&K, &V) -> u64) -> Self {
        TieredCache {
            kind,
            mem: MemoryTier::new(cost),
            warm: RwLock::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            disk_rejected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Which artifact this cache stores.
    pub(crate) fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// The current warm tier, if a warm start installed one.
    pub(crate) fn warm_tier(&self) -> Option<Arc<dyn Tier<K, V>>> {
        let _rank = rank_guard(Rank::StoreShard);
        unpoisoned(self.warm.read()).clone()
    }

    /// The counter a [`MappedTier`] of this cache bumps for each record
    /// it refuses at lookup.
    pub(crate) fn rejected_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.disk_rejected)
    }

    /// Installs (or replaces) the warm tier.
    pub(crate) fn set_warm(&self, tier: Arc<dyn Tier<K, V>>) {
        let _rank = rank_guard(Rank::StoreShard);
        *unpoisoned(self.warm.write()) = Some(tier);
    }

    /// Returns the cached value for `key`, computing and inserting it when
    /// every tier misses. `compute` runs *outside* any lock, and so do the
    /// warm-tier queries (the slot guard is held only to clone the `Arc`).
    pub(crate) fn get_or_insert_with(
        &self,
        key: K,
        disk_enabled: bool,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.mem.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        if disk_enabled {
            if let Some(tier) = self.warm_tier() {
                if let Some(v) = tier.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return self.mem.insert(key, v);
                }
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.mem.insert(key, v)
    }

    /// Entries in the memory tier.
    pub(crate) fn len(&self) -> usize {
        self.mem.entries()
    }

    /// Visits every memory-tier entry (merge-on-persist input).
    pub(crate) fn mem_for_each(&self, mut f: impl FnMut(K, V)) {
        self.mem.for_each(&mut f);
    }

    /// Approximate bytes across both tiers. Entries promoted from disk
    /// into memory are counted twice — acceptable for an eviction
    /// heuristic, which only needs a stable over-estimate.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let warm = self.warm_tier().map(|t| t.bytes()).unwrap_or(0);
        self.mem.bytes() + warm
    }

    /// Aggregate (hit, miss) counters — a disk-promoted hit counts as a
    /// hit here, so misses == computations.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// (hit, miss, rejected-record) counters of the warm tier
    /// fall-through.
    pub(crate) fn disk_counters(&self) -> (u64, u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
            self.disk_rejected.load(Ordering::Relaxed),
        )
    }

    /// Per-tier stats, memory first, then the warm tier when present.
    pub(crate) fn tier_stats(&self) -> Vec<(TierKind, TierStats)> {
        let mut out = vec![(TierKind::Memory, self.mem.stats())];
        if let Some(tier) = self.warm_tier() {
            out.push((tier.kind(), tier.stats()));
        }
        out
    }
}
