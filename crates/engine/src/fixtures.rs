//! Shared evaluation fixtures and the memoizing [`FixtureCache`].
//!
//! Dataset synthesis, episode extraction and ADM training dominate the
//! cost of every exhibit; the cache keys each result by a content
//! address embedding the house spec's signature, days and seed (plus
//! the ADM kind and training horizon for models), so a full-suite run
//! pays each once. All entries are `Arc`-shared and the cache is
//! internally locked, so scenarios on parallel runner threads share one
//! cache safely. Any [`HouseSpec`] — the ARAS presets or a generated
//! scaled home — caches the same way; nothing here enumerates houses.
//!
//! A [`BlobStore`] disk tier can sit underneath the whole cache
//! ([`FixtureCache::with_disk`]): misses serialize and persist what
//! they computed, and a warm second run deserializes datasets, episode
//! sets, trained ADMs and memoized intermediates instead of recomputing
//! them — with byte-identical results, because every payload travels
//! through the exact (bit-pattern) wire codec. Independently, a RAM
//! budget ([`FixtureCache::with_memory_budget`]) bounds resident bytes
//! with deterministic insertion-order eviction; evicted entries
//! refault through the disk tier (or recompute), so eviction moves
//! counters and wall-clock only, never results.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use shatter_adm::{AdmKind, HullAdm};
use shatter_dataset::episodes::{extract_episodes, Episode};
use shatter_dataset::{
    episodes_from_blob, episodes_to_blob, synthesize, Dataset, HouseSpec, SynthConfig,
};
use shatter_hvac::EnergyModel;
use shatter_smarthome::Home;
use shatter_store::{Blob, BlobStore};

/// Schema string behind every fixture-store blob; bump when any
/// persisted encoding changes incompatibly (old blobs are then
/// discarded lazily instead of misdecoded).
pub const DISK_SCHEMA: &str = "shatter-fixture-store-v1";

/// The [`BlobStore`] schema signature for [`FixtureCache`] disk tiers.
pub fn disk_schema_sig() -> u64 {
    shatter_store::fnv::fnv1a_str(DISK_SCHEMA)
}

/// Seed of the canonical House-A month (same value as
/// [`shatter_dataset::spec::ARAS_A_SEED`]).
pub const HOUSE_A_SEED: u64 = shatter_dataset::spec::ARAS_A_SEED;
/// Seed of the canonical House-B month.
pub const HOUSE_B_SEED: u64 = shatter_dataset::spec::ARAS_B_SEED;

/// The canonical evaluation fixture for one house.
pub struct HouseFixture {
    /// House identity of this fixture.
    pub spec: HouseSpec,
    /// Days synthesized.
    pub days: usize,
    /// Dataset seed used.
    pub seed: u64,
    /// The home.
    pub home: Home,
    /// Canonical month of behaviour (shared with the cache).
    pub month: Arc<Dataset>,
    /// Energy/cost model.
    pub model: EnergyModel,
}

impl HouseFixture {
    /// Builds the fixture for a house with the canonical seed, outside
    /// any cache (each call re-synthesizes).
    pub fn new(spec: &HouseSpec, days: usize) -> HouseFixture {
        HouseFixture::with_seed(spec, days, spec.canonical_seed)
    }

    /// Builds the fixture with an explicit dataset seed.
    pub fn with_seed(spec: &HouseSpec, days: usize, seed: u64) -> HouseFixture {
        let month = synthesize(&SynthConfig::new(spec.clone(), days, seed));
        HouseFixture::from_month(spec, days, seed, month)
    }

    /// Wraps an already-synthesized month; the home and model are cheap
    /// and deterministic, so they are rebuilt rather than stored.
    fn from_month(spec: &HouseSpec, days: usize, seed: u64, month: Dataset) -> HouseFixture {
        let home = spec.home.build();
        let model = EnergyModel::standard(home.clone());
        HouseFixture {
            spec: spec.clone(),
            days,
            seed,
            home,
            month: Arc::new(month),
            model,
        }
    }

    /// Trains an ADM on the first `days` days of the month (defender
    /// view), outside any cache.
    pub fn adm(&self, kind: AdmKind, days: usize) -> HullAdm {
        HullAdm::train(&self.month.prefix_days(days), kind)
    }

    /// Memo-key fragment fully identifying this fixture's dataset:
    /// `"{label}-{spec signature:016x}/{days}/{seed}"`. Every schedule /
    /// reward-table / benign-cost memo key embeds it, so two specs
    /// sharing `days` and `seed` can never alias a cache entry.
    pub fn cache_key(&self) -> String {
        format!("{}/{}/{}", self.spec.cache_tag(), self.days, self.seed)
    }
}

/// Hit/miss counters of a [`FixtureCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-RAM tier.
    pub hits: u64,
    /// Lookups that computed and stored a fresh entry.
    pub misses: u64,
    /// Lookups served by deserializing a disk-tier blob.
    pub disk_hits: u64,
    /// Entries evicted from RAM under the memory budget. A perf
    /// counter, never a correctness event: evicted entries refault
    /// through the disk tier or recompute.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (disk hits count as hits), or `None`
    /// before any lookup — an empty cache has no rate, and reporting
    /// it as `0.0` used to make a fresh run indistinguishable from a
    /// 100%-miss run.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.disk_hits + self.misses;
        (total > 0).then(|| (self.hits + self.disk_hits) as f64 / total as f64)
    }
}

/// One shared cache entry of any kind.
type Entry = Arc<dyn Any + Send + Sync>;

/// Number of lock shards backing the entry map.
const SHARDS: usize = 16;

/// Memoizes fixture construction, episode extraction, ADM training and
/// arbitrary keyed intermediates (via [`FixtureCache::memo_blob`])
/// across scenarios.
///
/// Every kind goes through one lookup: RAM, then the optional disk
/// tier, then compute. Its key is the entry's durable content address
/// on disk too, so it must capture *all* inputs of the computation.
///
/// A cache built with [`FixtureCache::disabled`] never stores or serves
/// entries — every request recomputes, reproducing the pre-engine
/// harness's cost model (used as the "serial uncached" baseline leg).
pub struct FixtureCache {
    // The map carries the per-day schedule and SMT-window traffic of
    // every parallel scenario worker, so it is sharded by key hash to
    // keep lock contention off the hot path.
    shards: [Mutex<HashMap<String, Entry>>; SHARDS],
    disabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional disk tier; misses persist, refaults deserialize.
    disk: Option<BlobStore>,
    disk_hits: AtomicU64,
    /// Optional RAM budget in bytes (serialized sizes, a deliberate
    /// proxy for resident heap). `None` = unbounded.
    budget_bytes: Option<u64>,
    resident_bytes: AtomicU64,
    evictions: AtomicU64,
    /// Insertion-ordered eviction ledger of `(key, charged bytes)` over
    /// every budget-charged entry. Lock ordering: ledger before any
    /// shard lock, never the reverse.
    ledger: Mutex<VecDeque<(String, u64)>>,
}

/// Locks a cache mutex, panicking with the lookup context on poisoning.
///
/// Only pure `HashMap`/`VecDeque` operations run under cache locks (all
/// expensive computation happens outside them), so a poisoned lock
/// indicates a panic inside the map machinery itself. If that ever
/// happens, the panic names the cache key involved, and the runner's
/// fault isolation turns it into a per-scenario `Failed` report instead
/// of tearing down the suite.
fn lock<'a, T>(mutex: &'a Mutex<T>, key: &str) -> MutexGuard<'a, T> {
    mutex
        .lock()
        .unwrap_or_else(|_| panic!("fixture cache lock poisoned at key {key:?}"))
}

impl Default for FixtureCache {
    fn default() -> FixtureCache {
        FixtureCache {
            shards: std::array::from_fn(|_| Mutex::default()),
            disabled: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk: None,
            disk_hits: AtomicU64::new(0),
            budget_bytes: None,
            resident_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ledger: Mutex::default(),
        }
    }
}

impl FixtureCache {
    /// Creates an empty cache.
    pub fn new() -> FixtureCache {
        FixtureCache::default()
    }

    /// Creates a cache that never memoizes: every request recomputes and
    /// counts as a miss. Scenarios run against it exactly like the
    /// pre-engine ad-hoc harness.
    pub fn disabled() -> FixtureCache {
        FixtureCache {
            disabled: true,
            ..FixtureCache::default()
        }
    }

    /// Attaches a disk tier: misses persist what they computed, and
    /// refaults (cold-start or post-eviction) deserialize from disk
    /// instead of recomputing.
    pub fn with_disk(mut self, store: BlobStore) -> FixtureCache {
        self.disk = Some(store);
        self
    }

    /// Bounds resident cache bytes (serialized sizes). When an insert
    /// pushes the total past the budget, the oldest charged entries
    /// are evicted in insertion order until it fits again.
    pub fn with_memory_budget(mut self, bytes: u64) -> FixtureCache {
        self.budget_bytes = Some(bytes);
        self
    }

    /// The attached disk tier, if any (for stats reporting).
    pub fn disk(&self) -> Option<&BlobStore> {
        self.disk.as_ref()
    }

    /// The lock shard responsible for `key` (FNV-1a of the key).
    fn shard(&self, key: &str) -> MutexGuard<'_, HashMap<String, Entry>> {
        lock(
            &self.shards[(crate::scenario::fnv1a(key) as usize) % SHARDS],
            key,
        )
    }

    /// The one lookup path behind every cached kind: a RAM hit, else a
    /// disk blob that `decode` accepts, else `compute` — run outside
    /// every lock, so other keys stay available meanwhile and a racing
    /// duplicate insert is benign (identical content, last writer
    /// wins). A computed value is persisted through `encode` when a
    /// disk tier is attached; a new entry is charged against the RAM
    /// budget at its serialized size. An existing entry of another type
    /// under `key` counts as a RAM miss and is replaced.
    fn lookup<T: Send + Sync + 'static>(
        &self,
        key: &str,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        compute: impl FnOnce() -> T,
        encode: impl FnOnce(&T) -> Vec<u8>,
    ) -> Arc<T> {
        if self.disabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute());
        }
        if let Some(v) = self.shard(key).get(key) {
            if let Ok(t) = Arc::clone(v).downcast::<T>() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return t;
            }
        }
        let on_disk = self
            .disk
            .as_ref()
            .and_then(|disk| disk.get_with(key, |b| Some((decode(b)?, b.len()))));
        let (t, bytes) = match on_disk {
            Some((t, bytes)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                (Arc::new(t), bytes)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let t = Arc::new(compute());
                let mut bytes = 0;
                if self.disk.is_some() || self.budget_bytes.is_some() {
                    let blob = encode(&t);
                    bytes = blob.len();
                    if let Some(disk) = &self.disk {
                        disk.put(key, &blob).ok();
                    }
                }
                (t, bytes)
            }
        };
        if self
            .shard(key)
            .insert(key.to_string(), Arc::clone(&t) as Entry)
            .is_none()
        {
            self.charge(key, bytes as u64);
        }
        t
    }

    /// Charges a freshly inserted entry against the RAM budget and
    /// evicts from the front of the ledger until the budget holds.
    /// Call *without* holding any shard lock (the eviction loop takes
    /// them). No-op when no budget is configured.
    fn charge(&self, key: &str, bytes: u64) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        let mut ledger = lock(&self.ledger, key);
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        ledger.push_back((key.to_string(), bytes));
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            let Some((oldest, bytes)) = ledger.pop_front() else {
                break;
            };
            self.shard(&oldest).remove(&oldest);
            self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Memoizes a [`Blob`]-serializable intermediate under a
    /// caller-chosen key, backed by the disk tier (when attached) and
    /// charged against the RAM budget (when configured). The key must
    /// capture *all* inputs of `compute` — scenarios build keys on
    /// [`HouseFixture::cache_key`], which embeds the house spec
    /// signature, days and seed (e.g.
    /// `"sched/{fixture key}/{adm}/{strategy}/{cap:x}/{day}"` for attack
    /// schedules) — and is doubly load-bearing, because it is also the
    /// blob's durable content address across runs.
    pub fn memo_blob<T, F>(&self, key: &str, compute: F) -> Arc<T>
    where
        T: Blob + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.lookup(key, T::from_blob, compute, T::to_blob)
    }

    /// The fixture for `(spec, days, seed)`. Its disk blob is the
    /// month alone; the home and model are rebuilt.
    pub fn fixture_with_seed(&self, spec: &HouseSpec, days: usize, seed: u64) -> Arc<HouseFixture> {
        self.lookup(
            &format!("fixture/{}/{days}/{seed}", spec.cache_tag()),
            |b| {
                let fx = HouseFixture::from_month(spec, days, seed, Dataset::from_blob(b)?);
                // The blob checksum guards bytes, not meaning: a month
                // that does not match its own key's shape is damage
                // and must not be trusted.
                (fx.month.days.len() == days && fx.month.n_occupants == fx.home.occupants().len())
                    .then_some(fx)
            },
            || HouseFixture::with_seed(spec, days, seed),
            |fx| fx.month.to_blob(),
        )
    }

    /// Extracted episodes of the `(spec, days, seed)` dataset.
    pub fn episodes_with_seed(
        &self,
        spec: &HouseSpec,
        days: usize,
        seed: u64,
    ) -> Arc<Vec<Episode>> {
        self.lookup(
            &format!("episodes/{}/{days}/{seed}", spec.cache_tag()),
            episodes_from_blob,
            || extract_episodes(&self.fixture_with_seed(spec, days, seed).month),
            |eps| episodes_to_blob(eps),
        )
    }

    /// A trained ADM for the `(spec, days, seed)` dataset: `adm_kind`
    /// trained on the first `train_days` days. Identical to
    /// [`HouseFixture::adm`] but memoized.
    pub fn adm_with_seed(
        &self,
        spec: &HouseSpec,
        days: usize,
        seed: u64,
        adm_kind: AdmKind,
        train_days: usize,
    ) -> Arc<HullAdm> {
        // f64 parameters enter the key by bit pattern.
        let (tag, a, b, c) = match adm_kind {
            AdmKind::Dbscan(p) => (0, p.eps.to_bits(), p.min_pts as u64, 0),
            AdmKind::KMeans(p) => (1, p.k as u64, p.max_iter as u64, p.seed),
        };
        self.lookup(
            &format!(
                "adm/{}/{days}/{seed}/k{tag}-{a:016x}-{b:016x}-{c:016x}/{train_days}",
                spec.cache_tag()
            ),
            HullAdm::from_blob,
            || {
                self.fixture_with_seed(spec, days, seed)
                    .adm(adm_kind, train_days)
            },
            HullAdm::to_blob,
        )
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical-seed fixture of `spec` through `cache`.
    fn fixture(cache: &FixtureCache, spec: &HouseSpec, days: usize) -> Arc<HouseFixture> {
        cache.fixture_with_seed(spec, days, spec.canonical_seed)
    }

    #[test]
    fn hit_rate_distinguishes_empty_from_all_miss() {
        assert_eq!(CacheStats::default().hit_rate(), None);
        let stats = |hits, misses, disk_hits| CacheStats {
            hits,
            misses,
            disk_hits,
            evictions: 0,
        };
        assert_eq!(stats(0, 4, 0).hit_rate(), Some(0.0));
        assert_eq!(stats(2, 1, 0).hit_rate(), Some(2.0 / 3.0));
        assert_eq!(stats(5, 0, 0).hit_rate(), Some(1.0));
        // A disk hit is a hit: it avoided the recompute.
        assert_eq!(stats(1, 1, 2).hit_rate(), Some(0.75));
    }

    #[test]
    fn fixture_is_cached() {
        let cache = FixtureCache::new();
        let a = fixture(&cache, &HouseSpec::aras_a(), 3);
        let b = fixture(&cache, &HouseSpec::aras_a(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let cache = FixtureCache::new();
        let a = fixture(&cache, &HouseSpec::aras_a(), 3);
        let b = fixture(&cache, &HouseSpec::aras_b(), 3);
        let c = fixture(&cache, &HouseSpec::aras_a(), 4);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn specs_sharing_days_and_seed_never_alias() {
        // Regression for the latent memo key-collision risk: two house
        // specs with identical (days, seed) must resolve to different
        // fixture-cache entries AND different memo-key prefixes.
        let cache = FixtureCache::new();
        let s6 = HouseSpec::scaled(6, 2);
        let s10 = HouseSpec::scaled(10, 2);
        let a = cache.fixture_with_seed(&s6, 3, 5);
        let b = cache.fixture_with_seed(&s10, 3, 5);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.month, b.month);
        assert_ne!(a.cache_key(), b.cache_key());
        // Same shape, different occupant count: still distinct.
        let s6x3 = HouseSpec::scaled(6, 3);
        let c = cache.fixture_with_seed(&s6x3, 3, 5);
        assert_ne!(a.cache_key(), c.cache_key());
        // ARAS A vs B forced onto the same seed: distinct too.
        let fa = HouseFixture::with_seed(&HouseSpec::aras_a(), 2, 7);
        let fb = HouseFixture::with_seed(&HouseSpec::aras_b(), 2, 7);
        assert_ne!(fa.cache_key(), fb.cache_key());
    }

    #[test]
    fn cached_adm_matches_uncached_training() {
        let cache = FixtureCache::new();
        let spec = HouseSpec::aras_a();
        let seed = spec.canonical_seed;
        let cached = cache.adm_with_seed(&spec, 4, seed, AdmKind::default_kmeans(), 3);
        let again = cache.adm_with_seed(&spec, 4, seed, AdmKind::default_kmeans(), 3);
        assert!(Arc::ptr_eq(&cached, &again));
        let fx = HouseFixture::new(&spec, 4);
        let direct = fx.adm(AdmKind::default_kmeans(), 3);
        // HullAdm has no PartialEq and its Debug form iterates a hash
        // map; compare the learned geometry keyed and sorted instead.
        let geometry = |adm: &HullAdm| -> Vec<String> {
            let mut v: Vec<String> = adm
                .models()
                .map(|((o, z), zm)| format!("{}/{}: {zm:?}", o.index(), z.index()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(geometry(&cached), geometry(&direct));
    }

    #[test]
    fn memo_caches_by_key_and_recomputes_when_disabled() {
        let cache = FixtureCache::new();
        let a = cache.memo_blob("k1", || vec![42.0]);
        let b = cache.memo_blob::<Vec<f64>, _>("k1", || unreachable!("must be served from cache"));
        assert_eq!((a[0], b[0]), (42.0, 42.0));
        assert!(Arc::ptr_eq(&a, &b));
        let other = cache.memo_blob("k2", || vec![7.0]);
        assert_eq!(*other, [7.0]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            }
        );

        let off = FixtureCache::disabled();
        let x = off.memo_blob("k1", || vec![1.0]);
        let y = off.memo_blob("k1", || vec![2.0]);
        assert_eq!((x[0], y[0]), (1.0, 2.0));
        assert_eq!(off.stats().hits, 0);
        let f1 = fixture(&off, &HouseSpec::aras_a(), 2);
        let f2 = fixture(&off, &HouseSpec::aras_a(), 2);
        assert!(!Arc::ptr_eq(&f1, &f2));
    }

    #[test]
    fn episodes_cached_and_consistent() {
        let cache = FixtureCache::new();
        let spec = HouseSpec::aras_b();
        let e1 = cache.episodes_with_seed(&spec, 2, spec.canonical_seed);
        let e2 = cache.episodes_with_seed(&spec, 2, spec.canonical_seed);
        assert!(Arc::ptr_eq(&e1, &e2));
        let direct = extract_episodes(&HouseFixture::new(&spec, 2).month);
        assert_eq!(*e1, direct);
    }

    #[test]
    fn scaled_spec_fixtures_cache_like_preset_ones() {
        let cache = FixtureCache::new();
        let spec = HouseSpec::scaled(6, 3);
        let a = fixture(&cache, &spec, 2);
        let b = fixture(&cache, &spec, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.home.occupants().len(), 3);
        assert_eq!(a.month.n_occupants, 3);
    }

    #[test]
    fn misshapen_fixture_blob_is_discarded_not_hit() {
        let dir = std::env::temp_dir().join(format!(
            "shatter-fixture-shape-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let spec = HouseSpec::aras_a();
        let seed = spec.canonical_seed;
        // A valid 2-day month stored under the 3-day fixture's key: it
        // passes the store's checksum but not the fixture shape check.
        let store = BlobStore::open(&dir, disk_schema_sig()).unwrap();
        let two_days = HouseFixture::with_seed(&spec, 2, seed);
        let key = format!("fixture/{}/3/{seed}", spec.cache_tag());
        store.put(&key, &two_days.month.to_blob()).unwrap();
        let cache = FixtureCache::new().with_disk(store);
        let fx = fixture(&cache, &spec, 3);
        assert_eq!(fx.month.days.len(), 3, "recomputed, not misdecoded");
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.misses), (0, 1));
        let disk = cache.disk().unwrap().stats();
        assert_eq!((disk.hits, disk.discarded), (0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
