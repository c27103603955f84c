//! Content-addressed memo cache for the measurement front-half.
//!
//! Every design point in a sweep runs the same front-half: optimize the
//! netlist, then synthesize it twice (default and `maxdsp=0`). Fig. 1 and
//! the IEEE-1180 conformance sweep revisit the *same module* under many
//! stimuli and sweep parameters, so that work is identical across points —
//! [`front_half`] computes it once per distinct module and shares the
//! result process-wide.
//!
//! The key is the module's 128-bit structural hash
//! ([`hc_rtl::hash::content_hash`]) plus the active
//! [`PassConfig`](hc_rtl::passes::PassConfig) key, so runs under
//! `HC_NO_OPT=1` never alias artifacts with optimized runs. Entries are
//! computed outside the table lock, once per key: workers that miss on one
//! key at the same time share one in-flight computation and all but the
//! first wait for its result, so `cache.misses` counts each
//! distinct module exactly once however the workers interleave.
//!
//! # Concurrency
//!
//! The table is an N-way **sharded** LRU ([`ShardedLru`]): the shard is
//! chosen from the high bits of the content hash, each shard behind its
//! own mutex, so concurrent hc-serve clients (or sweep workers) hammering
//! the hot path contend only when their keys land on the same shard.
//! Within a shard, eviction picks the stalest entry via a lazy-deletion
//! min-heap of `(stamp, key)` pairs — `O(log n)` per operation where the
//! old implementation re-scanned the whole table (`O(n)`) on every insert
//! at capacity. Shard count comes from `HC_CACHE_SHARDS` (default scales
//! with the machine's parallelism); `HC_CACHE_SHARDS=1` reproduces the old
//! single-mutex behavior for A/B benchmarking.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hc_obs::metrics::Counter;

use hc_rtl::hash::content_hash;
use hc_rtl::passes::{optimize_with, OptReport, PassConfig};
use hc_rtl::Module;
use hc_synth::{synthesize, Device, SynthOptions, SynthReport};

/// The shared, immutable result of one front-half computation.
#[derive(Debug)]
pub struct FrontHalf {
    /// The module after the optimization pipeline (what gets simulated and
    /// what the synthesis reports describe).
    pub module: Arc<Module>,
    /// Pass-pipeline accounting (zero-change when passes are disabled).
    pub opt: OptReport,
    /// Synthesis with default options (DSPs allowed).
    pub full: Arc<SynthReport>,
    /// Synthesis with `maxdsp=0` (the paper's normalization run).
    pub nodsp: Arc<SynthReport>,
    /// The cache key this artifact lives under — `(content hash of the
    /// *input* module, pass-config byte)`. Carried so downstream tiers
    /// (the persistent store's measurement records) can derive their own
    /// keys without re-hashing.
    pub key: (u128, u8),
}

type Key = (u128, u8);

/// A key that can route itself to a shard: the high bits must be
/// well-mixed (a content hash qualifies), because consecutive shard
/// indices come straight from them.
pub trait ShardKey: std::hash::Hash + Eq + Copy + Ord {
    /// Well-mixed bits used for shard selection.
    fn shard_bits(&self) -> u64;
}

impl ShardKey for (u128, u8) {
    fn shard_bits(&self) -> u64 {
        // High half of the structural hash: the low half indexes the
        // HashMap buckets inside the shard, so shard choice and bucket
        // choice stay independent.
        (self.0 >> 64) as u64
    }
}

impl ShardKey for u64 {
    fn shard_bits(&self) -> u64 {
        // Test/bench keys are sequential; spread them before sharding.
        self.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// One shard: a stamped map plus a lazy-deletion min-heap over stamps.
///
/// Every hit refreshes the entry's clock stamp in the map and pushes the
/// fresh `(stamp, key)` pair onto the heap; stale heap entries (whose
/// stamp no longer matches the map) are discarded when they surface at the
/// top during eviction. The heap is rebuilt from the map whenever the
/// stale fraction grows past the live size, keeping memory bounded and
/// every operation amortized `O(log n)` — the old implementation scanned
/// the entire table for the minimum stamp on every insert at capacity.
#[derive(Debug)]
struct Shard<K, V> {
    cap: usize,
    clock: u64,
    map: HashMap<K, (V, u64)>,
    heap: BinaryHeap<Reverse<(u64, K)>>,
}

impl<K: ShardKey, V: Clone> Shard<K, V> {
    fn new(cap: usize) -> Self {
        Shard {
            cap: cap.max(1),
            clock: 0,
            map: HashMap::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn get(&mut self, k: &K) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        let hit = self.map.get_mut(k).map(|(v, stamp)| {
            *stamp = clock;
            v.clone()
        });
        if hit.is_some() {
            self.push_stamp(clock, *k);
        }
        hit
    }

    /// Inserts under first-insert-wins semantics: if `k` is already present
    /// (a racing worker computed it first), the existing value is returned
    /// and `v` is dropped. The existing entry's stamp is *not* refreshed —
    /// the same contract the scan-based table had.
    fn insert(&mut self, k: K, v: V) -> V {
        self.clock += 1;
        if let Some((existing, _)) = self.map.get(&k) {
            return existing.clone();
        }
        if self.map.len() >= self.cap {
            self.evict_stalest();
        }
        let clock = self.clock;
        self.map.insert(k, (v.clone(), clock));
        self.push_stamp(clock, k);
        v
    }

    /// Removes the entry with the minimum live stamp. Heap entries whose
    /// stamp disagrees with the map are leftovers from refreshes and are
    /// dropped on the way down.
    fn evict_stalest(&mut self) {
        while let Some(Reverse((stamp, k))) = self.heap.pop() {
            match self.map.get(&k) {
                Some((_, live)) if *live == stamp => {
                    self.map.remove(&k);
                    return;
                }
                _ => continue, // stale heap entry
            }
        }
    }

    fn push_stamp(&mut self, stamp: u64, k: K) {
        self.heap.push(Reverse((stamp, k)));
        // Bound the stale backlog: when more than half the heap is dead
        // weight, rebuild it from the live stamps.
        if self.heap.len() > self.map.len().saturating_mul(2) + 16 {
            self.heap = self
                .map
                .iter()
                .map(|(k, (_, stamp))| Reverse((*stamp, *k)))
                .collect();
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.heap.clear();
    }
}

/// An N-way sharded LRU map: shard = high bits of the key's
/// [`ShardKey::shard_bits`], one mutex per shard. Public so the `loadgen`
/// benchmark can A/B shard counts on a local instance without touching the
/// process-global front-half table.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
}

impl<K: ShardKey, V: Clone> ShardedLru<K, V> {
    /// Builds a table of `nshards` shards splitting `total_cap` entries
    /// between them (each shard holds at least one).
    pub fn new(nshards: usize, total_cap: usize) -> Self {
        let nshards = nshards.clamp(1, MAX_SHARDS);
        let per_shard = total_cap.div_ceil(nshards).max(1);
        ShardedLru {
            shards: (0..nshards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
        }
    }

    /// The shard index `k` routes to.
    pub fn shard_of(&self, k: &K) -> usize {
        // High bits select the shard; the multiply spreads them over the
        // non-power-of-two case too.
        let n = self.shards.len() as u64;
        ((u128::from(k.shard_bits()) * u128::from(n)) >> 64) as usize
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, k: &K) -> std::sync::MutexGuard<'_, Shard<K, V>> {
        // A panic while holding a shard lock (a caller's clone panicking)
        // leaves no torn state: every mutation completes before control
        // returns to the caller, so a poisoned shard is safe to adopt.
        self.shards[self.shard_of(k)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `k` up, refreshing its recency on a hit.
    pub fn get(&self, k: &K) -> Option<V> {
        self.shard(k).get(k)
    }

    /// First-insert-wins insert; returns the winning value.
    pub fn insert(&self, k: K, v: V) -> V {
        self.shard(&k).insert(k, v)
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry in every shard.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }
}

/// Per-key in-flight cells: callers that miss on one key at the same time
/// share one computation, and every caller but the first blocks until its
/// result is ready.
///
/// A cell lives in the map only while its key is being computed. If the
/// computing caller panics, the panic propagates to it alone; the cell
/// stays empty and the next waiter runs its own computation, so no waiter
/// hangs.
#[derive(Debug)]
pub(crate) struct SingleFlight<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K: Hash + Eq + Copy, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            cells: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Hash + Eq + Copy, V: Clone> SingleFlight<K, V> {
    /// Returns `compute()`'s value for `key`, running `compute` only when
    /// no other caller is computing the same key; otherwise waits for that
    /// caller's result.
    pub(crate) fn run(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.lock().entry(key).or_default());
        let value = cell.get_or_init(compute).clone();
        let mut cells = self.lock();
        if cells.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            cells.remove(&key);
        }
        value
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        // No caller code runs under this lock, so poisoning cannot tear it.
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Upper bound on the shard count: beyond this the per-shard capacity
/// rounds to nothing useful and counter noise outweighs contention wins.
pub const MAX_SHARDS: usize = 64;

/// Maximum number of cached front-half entries, from the `HC_CACHE_CAP`
/// override in the active [`hc_obs::config`] snapshot (default 256 — a
/// full Fig. 1 sweep holds ~70 distinct modules, so the default keeps any
/// realistic sweep fully resident while bounding multi-sweep processes).
fn cache_cap() -> usize {
    hc_obs::config().cache_cap.unwrap_or(256)
}

/// Shard count: the `HC_CACHE_SHARDS` override, otherwise twice the
/// machine's parallelism rounded up to a power of two (clamped to
/// [1, [`MAX_SHARDS`]]). Twice, because sweep workers and hc-serve
/// connection threads outnumber cores whenever requests queue.
fn cache_shards() -> usize {
    let cfg = hc_obs::config();
    cfg.cache_shards
        .unwrap_or_else(|| {
            let cores = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            (cores * 2).next_power_of_two()
        })
        .clamp(1, MAX_SHARDS)
}

struct Table {
    lru: ShardedLru<Key, Arc<FrontHalf>>,
    /// Misses being computed right now.
    inflight: SingleFlight<Key, Arc<FrontHalf>>,
    /// Per-shard `(hits, misses, store_hits)` metrics handles
    /// (`cache.shard[i].hits` / `.misses` / `.store_hits`).
    shard_counters: Vec<(Counter, Counter, Counter)>,
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let lru = ShardedLru::new(cache_shards(), cache_cap());
        let shard_counters = (0..lru.shards())
            .map(|i| {
                (
                    hc_obs::metrics::counter_named(&format!("cache.shard[{i}].hits")),
                    hc_obs::metrics::counter_named(&format!("cache.shard[{i}].misses")),
                    hc_obs::metrics::counter_named(&format!("cache.shard[{i}].store_hits")),
                )
            })
            .collect();
        Table {
            lru,
            inflight: SingleFlight::default(),
            shard_counters,
        }
    })
}

/// Hit/miss accounting lives in the process-wide metrics registry
/// (`cache.hits` / `cache.misses` / `cache.store_hits` aggregates plus
/// the per-shard `cache.shard[i].*` breakdown); these cached handles keep
/// each bump one uncontended atomic add. The three aggregates partition
/// every lookup: `hits` answered in memory, `store_hits` answered by the
/// persistent tier, `misses` fully computed — a store-tier answer is
/// **not** also a miss.
fn counters() -> (Counter, Counter, Counter) {
    static CELLS: OnceLock<(Counter, Counter, Counter)> = OnceLock::new();
    *CELLS.get_or_init(|| {
        (
            hc_obs::metrics::counter("cache.hits"),
            hc_obs::metrics::counter("cache.misses"),
            hc_obs::metrics::counter("cache.store_hits"),
        )
    })
}

/// The number of shards the live front-half table is running with.
pub fn shard_count() -> usize {
    table().lru.shards()
}

/// Optimizes and synthesizes `module`, memoized on its structural hash and
/// the environment's pass configuration.
///
/// The input module is not mutated; the returned [`FrontHalf`] carries the
/// optimized copy.
pub fn front_half(module: &Module) -> Arc<FrontHalf> {
    let (hits, misses, store_hits) = counters();
    let config = PassConfig::from_env();
    let key = (content_hash(module), config.key());
    let t = table();
    let shard = t.lru.shard_of(&key);
    let mut span = hc_obs::span("front_half").with("module", module.name());
    if let Some(hit) = t.lru.get(&key) {
        hits.inc();
        t.shard_counters[shard].0.inc();
        span.attach("hit", true);
        return hit;
    }

    // How this caller's answer was found: waiting on another caller's
    // computation counts as a hit, like finding its finished entry.
    enum Found {
        Memory,
        Store,
        Computed,
    }
    let mut found = Found::Memory;
    let entry = t.inflight.run(key, || {
        // A racing caller may have finished between the lookup and here.
        if let Some(hit) = t.lru.get(&key) {
            return hit;
        }
        // Second tier: the persistent store (when HC_STORE_DIR is set). A
        // store answer is *not* a miss — `cache.misses` counts only fully
        // computed artifacts, so hit-rate math stays honest when the store
        // absorbs the cold start.
        if let Some(store) = crate::persist::store() {
            let tier = crate::persist::tier_counters();
            if let Some(entry) = crate::persist::load_front_in(store, key) {
                tier.front_hits.inc();
                found = Found::Store;
                return t.lru.insert(key, entry);
            }
            tier.front_misses.inc();
        }
        found = Found::Computed;
        // Compute outside every lock: synthesis takes milliseconds and
        // would serialize the workers of other keys behind this miss.
        let mut optimized = module.clone();
        let opt = optimize_with(&mut optimized, &config);
        let device = Device::xcvu9p();
        let full = synthesize(&optimized, &device, &SynthOptions::default());
        let nodsp = synthesize(&optimized, &device, &SynthOptions::no_dsp());
        let entry = Arc::new(FrontHalf {
            module: Arc::new(optimized),
            opt,
            full: Arc::new(full),
            nodsp: Arc::new(nodsp),
            key,
        });
        if let Some(store) = crate::persist::store() {
            crate::persist::save_front_in(store, &entry);
        }
        t.lru.insert(key, entry)
    });
    match found {
        Found::Memory => {
            hits.inc();
            t.shard_counters[shard].0.inc();
            span.attach("hit", true);
        }
        Found::Store => {
            store_hits.inc();
            t.shard_counters[shard].2.inc();
            span.attach("store_hit", true);
        }
        Found::Computed => {
            misses.inc();
            t.shard_counters[shard].1.inc();
            span.attach("hit", false);
        }
    }
    entry
}

/// `(hits, misses)` since process start or the last [`reset_stats`] —
/// reads of the `cache.hits` / `cache.misses` metrics counters.
pub fn stats() -> (u64, u64) {
    let (hits, misses, _) = counters();
    (hits.get(), misses.get())
}

/// Lookups answered by the persistent store tier since process start or
/// the last [`reset_stats`] (the `cache.store_hits` aggregate).
pub fn store_hits() -> u64 {
    counters().2.get()
}

/// Per-shard `(hits, misses, store_hits)` reads, index = shard number.
/// The element-wise sums equal [`stats`] + [`store_hits`].
pub fn shard_stats() -> Vec<(u64, u64, u64)> {
    table()
        .shard_counters
        .iter()
        .map(|(h, m, s)| (h.get(), m.get(), s.get()))
        .collect()
}

/// Zeroes the hit/miss counters — the aggregates and every per-shard
/// breakdown (the cached entries stay).
pub fn reset_stats() {
    let (hits, misses, store_hits) = counters();
    hits.reset();
    misses.reset();
    store_hits.reset();
    for (h, m, s) in &table().shard_counters {
        h.reset();
        m.reset();
        s.reset();
    }
}

/// Drops every cached entry and zeroes the counters. Benchmarks use this
/// to measure a cold front-half honestly.
pub fn clear() {
    table().lru.clear();
    reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_rtl::BinaryOp;

    fn redundant_adder(name: &str) -> Module {
        let mut m = Module::new(name);
        let a = m.input("a", 8);
        let z = m.const_u(8, 0);
        let s1 = m.binary(BinaryOp::Add, a, z, 8);
        let s2 = m.binary(BinaryOp::Add, a, z, 8);
        let y = m.binary(BinaryOp::Or, s1, s2, 8);
        m.output("y", y);
        m
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let m = redundant_adder("cache_t1");
        let first = front_half(&m);
        let second = front_half(&m.clone());
        assert!(Arc::ptr_eq(&first, &second), "hit must share the entry");
        assert!(first.opt.changed(), "the adder had redundancy to remove");
        assert_eq!(first.full.module, "cache_t1");
    }

    #[test]
    fn different_modules_do_not_alias() {
        let a = front_half(&redundant_adder("cache_t2a"));
        let b = front_half(&redundant_adder("cache_t2b"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.nodsp.area.dsp, 0);
    }

    #[test]
    fn aggregate_counters_stay_the_sum_of_shard_counters() {
        // Every front_half bump updates the aggregate AND the key's shard,
        // so the deltas must agree no matter what other tests do in
        // parallel (they move both sides equally).
        let sum_shards = || {
            shard_stats()
                .iter()
                .fold((0u64, 0u64, 0u64), |(h, m, s), (ch, cm, cs)| {
                    (h + ch, m + cm, s + cs)
                })
        };
        let (h0, m0) = stats();
        let s0 = store_hits();
        let (sh0, sm0, ss0) = sum_shards();
        for i in 0..6 {
            let m = redundant_adder(&format!("cache_sum_{i}"));
            let _ = front_half(&m);
            let _ = front_half(&m);
        }
        let (h1, m1) = stats();
        let s1 = store_hits();
        let (sh1, sm1, ss1) = sum_shards();
        assert_eq!(h1 - h0, sh1 - sh0, "hit deltas diverged");
        assert_eq!(m1 - m0, sm1 - sm0, "miss deltas diverged");
        assert_eq!(s1 - s0, ss1 - ss0, "store-hit deltas diverged");
        assert!(h1 - h0 >= 6, "each module re-lookup hits");
        assert!(m1 - m0 >= 6, "each distinct module misses once");
    }

    #[test]
    fn single_flight_waiter_recovers_from_a_panicking_computation() {
        let flight: SingleFlight<u64, u64> = SingleFlight::default();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                flight.run(3, || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    panic!("computation failed");
                })
            });
            barrier.wait();
            // Blocks on the failing computation, then computes itself.
            assert_eq!(flight.run(3, || 7), 7);
            assert!(first.join().is_err());
        });
        assert_eq!(flight.run(3, || 8), 8, "the key computes again later");
    }

    #[test]
    fn lru_evicts_the_stalest_entry_at_the_cap() {
        let lru: ShardedLru<u64, u32> = ShardedLru::new(1, 2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // refresh 1 — 2 is now stalest
        lru.insert(3, 30);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None, "stalest entry evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn lru_insert_is_first_wins_and_never_evicts_on_rerace() {
        let lru: ShardedLru<u64, u32> = ShardedLru::new(1, 1);
        assert_eq!(lru.insert(7, 70), 70);
        // A racing loser's insert returns the winner's value...
        assert_eq!(lru.insert(7, 71), 70);
        // ...and a full table keeps a re-inserted key without eviction.
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&7), Some(70));
    }

    #[test]
    fn lru_cap_zero_still_holds_one_entry_per_shard() {
        let lru: ShardedLru<u64, u32> = ShardedLru::new(1, 0);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), Some(10));
        lru.insert(2, 20);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let lru: ShardedLru<u64, u32> = ShardedLru::new(8, 256);
        assert_eq!(lru.shards(), 8);
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..512u64 {
            let s = lru.shard_of(&k);
            assert!(s < 8);
            assert_eq!(s, lru.shard_of(&k), "routing must be deterministic");
            seen.insert(s);
        }
        assert!(
            seen.len() >= 4,
            "512 keys should spread over shards: {seen:?}"
        );
    }

    /// The scan-based table this PR replaced, kept verbatim as the
    /// eviction-order oracle: stamps are unique (the clock ticks on every
    /// operation), so `min_by_key` picks a deterministic victim and the
    /// heap-based shard must agree on every step.
    struct ScanLru<K, V> {
        cap: usize,
        clock: u64,
        map: HashMap<K, (V, u64)>,
    }

    impl<K: std::hash::Hash + Eq + Copy, V: Clone> ScanLru<K, V> {
        fn new(cap: usize) -> Self {
            ScanLru {
                cap: cap.max(1),
                clock: 0,
                map: HashMap::new(),
            }
        }

        fn get(&mut self, k: &K) -> Option<V> {
            self.clock += 1;
            let clock = self.clock;
            self.map.get_mut(k).map(|(v, stamp)| {
                *stamp = clock;
                v.clone()
            })
        }

        fn insert(&mut self, k: K, v: V) -> V {
            self.clock += 1;
            if self.map.len() >= self.cap && !self.map.contains_key(&k) {
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| *k)
                {
                    self.map.remove(&victim);
                }
            }
            let clock = self.clock;
            self.map.entry(k).or_insert((v, clock)).0.clone()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pins victim selection of the heap-based shard against the old
        /// O(n) scan on random mixed get/insert sequences over a key space
        /// big enough that eviction fires constantly: every get result,
        /// every insert return and the final population must agree.
        #[test]
        fn heap_eviction_order_matches_the_old_scan(
            cap in 1usize..24,
            ops in proptest::collection::vec((any::<bool>(), 0u64..48, any::<u64>()), 0..400),
        ) {
            let sharded: ShardedLru<u64, u64> = ShardedLru::new(1, cap);
            let mut scan: ScanLru<u64, u64> = ScanLru::new(cap);
            for (step, (is_insert, k, v)) in ops.iter().enumerate() {
                if *is_insert {
                    prop_assert_eq!(
                        sharded.insert(*k, *v),
                        scan.insert(*k, *v),
                        "step {} insert diverged on key {}", step, k
                    );
                } else {
                    prop_assert_eq!(
                        sharded.get(k),
                        scan.get(k),
                        "step {} get diverged on key {}", step, k
                    );
                }
            }
            prop_assert_eq!(sharded.len(), scan.map.len());
        }

        /// Multi-threaded hit/miss storm: racing threads insert distinct
        /// values under shared keys; first-insert-wins means every thread
        /// observes one winner per key, the config-byte sibling keys (the
        /// PassConfig half of the real front-half key) never alias, and
        /// per-thread hit/miss tallies sum to the table's totals.
        #[test]
        fn storm_first_insert_wins_across_threads(
            nshards in 1usize..9,
            nkeys in 1u64..33,
            threads in 2u64..7,
        ) {
            let nkeys = u128::from(nkeys);
            let lru: ShardedLru<(u128, u8), u64> = ShardedLru::new(nshards, 4096);
            let winners: Vec<std::sync::Mutex<Vec<u64>>> =
                (0..nkeys).map(|_| std::sync::Mutex::new(Vec::new())).collect();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let lru = &lru;
                    let winners = &winners;
                    s.spawn(move || {
                        for k in 0..nkeys {
                            let hash = (k + 1) << 64 | k; // distinct shard bits
                            let won = lru.insert((hash, 0), t * 1000 + k as u64);
                            winners[k as usize].lock().unwrap().push(won);
                            // The config-byte sibling holds its own value:
                            // same hash, different PassConfig key byte.
                            let sibling = lru.insert((hash, 1), u64::MAX - k as u64);
                            assert_eq!(sibling, u64::MAX - k as u64);
                            assert_eq!(lru.get(&(hash, 1)), Some(u64::MAX - k as u64));
                            // Re-reads keep returning the same winner.
                            assert_eq!(lru.get(&(hash, 0)), Some(won));
                        }
                    });
                }
            });
            for (k, w) in winners.iter().enumerate() {
                let w = w.lock().unwrap();
                prop_assert_eq!(w.len(), threads as usize);
                // Every thread saw the SAME winner, and it belongs to this
                // key (no cross-key or cross-config aliasing).
                for v in w.iter() {
                    prop_assert_eq!(*v, w[0], "key {}: winners diverged", k);
                    prop_assert_eq!(*v % 1000, k as u64, "key {}: foreign value", k);
                }
            }
            // Exactly two live entries per key (config bytes 0 and 1).
            prop_assert_eq!(lru.len(), 2 * nkeys as usize);
        }
    }
}
