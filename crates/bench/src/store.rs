//! The content-addressed artifact store.
//!
//! Caches the products of every compilation stage across jobs (and, in the
//! `mi serve` daemon, across client connections), keyed by the FNV-1a hash
//! of the source (see [`crate::job::program_hash`]) plus the
//! stage's configuration:
//!
//! | level       | key                         | artifact                     |
//! |-------------|-----------------------------|------------------------------|
//! | `frontend`  | source hash                 | [`mir::Module`]              |
//! | `prefix`    | hash × opt level × ext pt   | post-prefix [`mir::Module`]  |
//! | `summaries` | hash × opt level × ext pt   | [`ModuleSummaries`]          |
//! | `compiled`  | hash × `Instrument` label   | [`CompiledProgram`]          |
//! | `bytecode`  | hash × `Instrument` label   | [`memvm::BcImage`]           |
//!
//! The `summaries` level shares the prefix key: interprocedural summaries
//! are a pure function of the prefix snapshot they were computed over, so
//! one entry serves every mechanism and optimization-flag combination of
//! that snapshot.
//!
//! Correctness rests on the pipeline being a pure function of its key: the
//! `Instrument` label grammar round-trips the whole configuration, the
//! pipeline-determinism properties in `tests/props.rs` pin the stages, and
//! the byte-identity tests in `crates/serve` hold store-served results
//! equal to direct compilation. Eviction (LRU per level, capacity-bounded)
//! and [`ArtifactStore::release`] therefore only ever cost recompilation,
//! never change results.
//!
//! **Single flight.** Every build level (`frontend`, `prefix`,
//! `summaries`, `compiled`) goes through one build-on-miss routine: the
//! lookup creates the key's entry under the lock, the builder runs outside
//! it, and concurrent callers of the same key wait for that one builder
//! instead of building again. So each built key counts exactly one miss
//! and every other lookup a hit, at any number of threads — which is what
//! lets the evaluation driver report these counters as its deterministic
//! `cache` block. A frontend diagnostic is cached like a module: it is a
//! pure function of the source hash. The `bytecode` level is filled after
//! execution instead ([`ArtifactStore::insert_bytecode`], first writer
//! wins), because the image comes out of the VM that runs the job.
//!
//! **Chained prefixes.** An O3 prefix is built from the snapshot at the
//! extension point before it (see [`crate::job::run_job`]):
//! VectorizerStart's from ScalarOptimizerLate's, and that one from
//! ModuleOptimizerEarly's, so each pipeline stage runs once per program.
//! The builder fetches the earlier snapshot with
//! [`ArtifactStore::chain_prefix`], which shares the entry and its single
//! flight but is not counted. An entry that chaining created counts as a
//! miss on its first counted lookup and as a hit after that. So the
//! counters read as if every requested prefix had been built from the
//! frontend module, and they stay deterministic at any number of threads.
//!
//! **Release.** A long-running daemon relies on LRU eviction. A sweep knows
//! better: the evaluation driver calls [`ArtifactStore::release`] to drop a
//! cell's `compiled`/`bytecode` entries when the cell finishes and a
//! program's remaining entries when its last cell finishes, so a sweep
//! holds only the artifacts of rows still in flight.
//!
//! Every lookup is hit/miss-counted into an internal
//! [`telemetry::Registry`] (`store_lookups{level,outcome}`,
//! `store_evictions{level}`, `store_entries{level}` gauges) that the
//! daemon merges into its `mi-metrics/1` endpoint.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use meminstrument::runtime::CompiledProgram;
use memvm::BcImage;
use mir::analysis::ipo::ModuleSummaries;
use mir::pipeline::{ExtensionPoint, OptLevel};
use telemetry::Registry;

/// Default per-level entry capacity: generous for the paper corpus
/// (57 programs × 14 configs) while bounding a long-running daemon.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Key of the `prefix` and `summaries` levels.
pub type PrefixKey = (u64, OptLevel, ExtensionPoint);
/// Key of the `compiled` and `bytecode` levels.
type LabelKey = (u64, String);

struct Entry<T> {
    /// Filled once by the single builder; waiters block on it.
    slot: Arc<OnceLock<T>>,
    last_used: u64,
    /// Whether a counted lookup has asked for the entry yet (an entry a
    /// chaining lookup created has not).
    requested: bool,
}

struct Level<K, T> {
    name: &'static str,
    map: HashMap<K, Entry<T>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, T> Level<K, T> {
    fn new(name: &'static str, capacity: usize) -> Level<K, T> {
        Level { name, map: HashMap::new(), capacity: capacity.max(1) }
    }

    /// The entry for `key`, created empty on a miss (evicting the least
    /// recently used entries while over capacity). A `counted` lookup is
    /// counted: a hit if an earlier counted lookup asked for the entry, a
    /// miss otherwise.
    fn slot(
        &mut self,
        key: K,
        tick: u64,
        counted: bool,
        metrics: &mut Registry,
    ) -> Arc<OnceLock<T>> {
        let (requested, slot) = match self.map.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                let requested = e.requested;
                e.requested |= counted;
                (requested, Arc::clone(&e.slot))
            }
            None => {
                let slot = Arc::new(OnceLock::new());
                let entry = Entry { slot: Arc::clone(&slot), last_used: tick, requested: counted };
                self.map.insert(key, entry);
                self.evict(metrics);
                (false, slot)
            }
        };
        if counted {
            let outcome = if requested { "hit" } else { "miss" };
            metrics.counter_add("store_lookups", &[("level", self.name), ("outcome", outcome)], 1);
        }
        slot
    }

    fn evict(&mut self, metrics: &mut Registry) {
        while self.map.len() > self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                metrics.counter_add("store_evictions", &[("level", self.name)], 1);
            }
        }
        self.set_gauge(metrics);
    }

    fn retain(&mut self, keep: impl Fn(&K) -> bool, metrics: &mut Registry) {
        self.map.retain(|k, _| keep(k));
        self.set_gauge(metrics);
    }

    fn set_gauge(&self, metrics: &mut Registry) {
        metrics.gauge_set("store_entries", &[("level", self.name)], self.map.len() as u64);
    }
}

struct Levels {
    frontend: Level<u64, Result<Arc<mir::Module>, String>>,
    prefix: Level<PrefixKey, Arc<mir::Module>>,
    summaries: Level<PrefixKey, Arc<ModuleSummaries>>,
    compiled: Level<LabelKey, Arc<CompiledProgram>>,
    bytecode: Level<LabelKey, Arc<BcImage>>,
}

struct Inner {
    tick: u64,
    levels: Levels,
    metrics: Registry,
}

/// A thread-safe, capacity-bounded, single-flight artifact cache shared
/// across jobs.
pub struct ArtifactStore {
    inner: Mutex<Inner>,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ArtifactStore {
    /// A store with the default per-level capacity.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// A store holding at most `capacity` entries per level.
    pub fn with_capacity(capacity: usize) -> ArtifactStore {
        ArtifactStore {
            inner: Mutex::new(Inner {
                tick: 0,
                levels: Levels {
                    frontend: Level::new("frontend", capacity),
                    prefix: Level::new("prefix", capacity),
                    summaries: Level::new("summaries", capacity),
                    compiled: Level::new("compiled", capacity),
                    bytecode: Level::new("bytecode", capacity),
                },
                metrics: Registry::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Builders run outside the lock, so only a bug in the bookkeeping
        // below can poison it.
        self.inner.lock().expect("artifact store lock poisoned")
    }

    /// The one build-on-miss routine behind every build level: the entry
    /// is found or created under the lock, then `build` runs outside it at
    /// most once per entry while concurrent callers of the key wait. Only a
    /// `counted` lookup is counted.
    fn build_on_miss<K: Eq + Hash + Clone, T: Clone>(
        &self,
        level: fn(&mut Levels) -> &mut Level<K, T>,
        key: K,
        counted: bool,
        build: impl FnOnce() -> T,
    ) -> T {
        let slot = {
            let Inner { tick, levels, metrics } = &mut *self.lock();
            *tick += 1;
            level(levels).slot(key, *tick, counted, metrics)
        };
        slot.get_or_init(build).clone()
    }

    /// Frontend module for `hash`, building it on a miss.
    ///
    /// # Errors
    ///
    /// The builder's error (a frontend diagnostic), cached like a module.
    pub fn frontend(
        &self,
        hash: u64,
        build: impl FnOnce() -> Result<mir::Module, String>,
    ) -> Result<Arc<mir::Module>, String> {
        self.build_on_miss(|l| &mut l.frontend, hash, true, || build().map(Arc::new))
    }

    /// Pipeline prefix for `(hash, opt, ep)`, building it on a miss.
    pub fn prefix(&self, key: PrefixKey, build: impl FnOnce() -> mir::Module) -> Arc<mir::Module> {
        self.build_on_miss(|l| &mut l.prefix, key, true, || Arc::new(build()))
    }

    /// [`ArtifactStore::prefix`] for a lookup made only to build a later
    /// prefix from this one. It shares the entry and its single flight but
    /// is not counted, so chaining leaves the counters as they would be
    /// without it.
    pub fn chain_prefix(
        &self,
        key: PrefixKey,
        build: impl FnOnce() -> mir::Module,
    ) -> Arc<mir::Module> {
        self.build_on_miss(|l| &mut l.prefix, key, false, || Arc::new(build()))
    }

    /// Interprocedural summaries for the `(hash, opt, ep)` prefix
    /// snapshot, building them on a miss. [`mir::analysis::ipo::summarize`]
    /// is deterministic, so a cached entry composes byte-identically with
    /// self-summarizing compilation of the same snapshot.
    pub fn summaries(
        &self,
        key: PrefixKey,
        build: impl FnOnce() -> ModuleSummaries,
    ) -> Arc<ModuleSummaries> {
        self.build_on_miss(|l| &mut l.summaries, key, true, || Arc::new(build()))
    }

    /// Instrumented program for `(hash, label)`, building it on a miss.
    pub fn compiled(
        &self,
        key: LabelKey,
        build: impl FnOnce() -> CompiledProgram,
    ) -> Arc<CompiledProgram> {
        self.build_on_miss(|l| &mut l.compiled, key, true, || Arc::new(build()))
    }

    /// Cached bytecode image for `(hash, label)`, if present (hit-counted).
    pub fn bytecode(&self, key: &LabelKey) -> Option<Arc<BcImage>> {
        let Inner { tick, levels, metrics } = &mut *self.lock();
        *tick += 1;
        let level = &mut levels.bytecode;
        let image = level.map.get_mut(key).and_then(|e| {
            e.last_used = *tick;
            e.slot.get().cloned()
        });
        let outcome = if image.is_some() { "hit" } else { "miss" };
        metrics.counter_add("store_lookups", &[("level", level.name), ("outcome", outcome)], 1);
        image
    }

    /// Stores a bytecode image (first writer wins).
    pub fn insert_bytecode(&self, key: LabelKey, image: BcImage) -> Arc<BcImage> {
        let Inner { tick, levels, metrics } = &mut *self.lock();
        *tick += 1;
        let level = &mut levels.bytecode;
        let entry = level.map.entry(key).or_insert(Entry {
            slot: Arc::default(),
            last_used: *tick,
            requested: true,
        });
        entry.last_used = *tick;
        let image = Arc::clone(entry.slot.get_or_init(|| Arc::new(image)));
        level.evict(metrics);
        image
    }

    /// Drops the entries of the program with content hash `hash`: with a
    /// `label`, that configuration's `compiled` and `bytecode` entries;
    /// without one, the program's entries at every level. Holders of an
    /// artifact keep their `Arc`; a later lookup rebuilds it.
    pub fn release(&self, hash: u64, label: Option<&str>) {
        let Inner { levels, metrics, .. } = &mut *self.lock();
        let keep_labelled = |k: &LabelKey| k.0 != hash || label.is_some_and(|l| k.1 != l);
        levels.compiled.retain(keep_labelled, metrics);
        levels.bytecode.retain(keep_labelled, metrics);
        if label.is_none() {
            levels.frontend.retain(|k| *k != hash, metrics);
            levels.prefix.retain(|k| k.0 != hash, metrics);
            levels.summaries.retain(|k| k.0 != hash, metrics);
        }
    }

    /// Total entries across all levels (the daemon's store-size gauge).
    pub fn entries(&self) -> usize {
        let l = &self.lock().levels;
        l.frontend.map.len()
            + l.prefix.map.len()
            + l.summaries.map.len()
            + l.compiled.map.len()
            + l.bytecode.map.len()
    }

    /// A snapshot of the store's lookup/eviction/size metrics.
    pub fn metrics(&self) -> Registry {
        self.lock().metrics.clone()
    }

    /// Resident frontend-level keys, sorted (observability/tests; does not
    /// count as a lookup or touch recency).
    pub fn frontend_keys(&self) -> Vec<u64> {
        let inner = self.lock();
        let mut keys: Vec<u64> = inner.levels.frontend.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

// The store is shared across daemon worker threads; everything it holds
// must be plain data. (`BcImage` deliberately omits the `Rc`-backed host
// closures — see `memvm::bytecode`.)
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ArtifactStore>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_lru_and_counted() {
        let store = ArtifactStore::with_capacity(2);
        let build = |n: u64| move || Ok(mir::builder::ModuleBuilder::new(format!("m{n}")).finish());
        for h in 0..3u64 {
            store.frontend(h, build(h)).unwrap();
        }
        // Capacity 2: hash 0 (least recently used) was evicted.
        assert_eq!(store.frontend_keys(), vec![1, 2]);
        // Touch 1, insert 3: 2 is now the LRU victim.
        store.frontend(1, build(1)).unwrap();
        store.frontend(3, build(3)).unwrap();
        assert_eq!(store.frontend_keys(), vec![1, 3]);
        let reg = store.metrics().to_json();
        assert!(reg.contains("store_evictions"), "{reg}");
        // An evicted entry rebuilds transparently with the same content.
        let m = store.frontend(2, build(2)).unwrap();
        assert_eq!(m.name, "m2");
    }

    #[test]
    fn concurrent_misses_build_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        const N: usize = 8;
        let store = ArtifactStore::new();
        let builds = AtomicUsize::new(0);
        let lookups = |reg: &Registry, outcome| {
            reg.counter("store_lookups", &[("level", "frontend"), ("outcome", outcome)])
        };
        let modules: Vec<Arc<mir::Module>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..N)
                .map(|i| {
                    let (store, builds) = (&store, &builds);
                    s.spawn(move || {
                        store
                            .frontend(7, || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Keep the build in flight until every thread
                                // has looked the key up.
                                while {
                                    let reg = store.metrics();
                                    lookups(&reg, "hit") + lookups(&reg, "miss") < N as u64
                                } {
                                    std::thread::yield_now();
                                }
                                Ok(mir::builder::ModuleBuilder::new(format!("m{i}")).finish())
                            })
                            .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "the builder must run exactly once");
        assert!(modules.iter().all(|m| Arc::ptr_eq(m, &modules[0])));
        let reg = store.metrics();
        assert_eq!((lookups(&reg, "miss"), lookups(&reg, "hit")), (1, N as u64 - 1));
    }

    #[test]
    fn frontend_errors_are_cached() {
        let store = ArtifactStore::new();
        assert_eq!(store.frontend(1, || Err("bad".to_string())).unwrap_err(), "bad");
        let again = store.frontend(1, || unreachable!("cached diagnostic must be served"));
        assert_eq!(again.unwrap_err(), "bad");
    }

    #[test]
    fn release_drops_cell_then_program_entries() {
        let store = ArtifactStore::new();
        let module = || mir::builder::ModuleBuilder::new("m").finish();
        let prog = || CompiledProgram {
            module: module().into(),
            mechanism: None,
            stats: Default::default(),
            elisions: Vec::new(),
        };
        let key = (3, OptLevel::O3, ExtensionPoint::VectorizerStart);
        store.frontend(3, || Ok(module())).unwrap();
        store.prefix(key, module);
        store.compiled((3, "a".into()), prog);
        store.compiled((3, "b".into()), prog);
        store.compiled((4, "a".into()), prog);
        assert_eq!(store.entries(), 5);
        store.release(3, Some("a"));
        assert_eq!(store.entries(), 4);
        store.release(3, None);
        assert_eq!(store.entries(), 1, "only the other program's entry is left");
    }
}
