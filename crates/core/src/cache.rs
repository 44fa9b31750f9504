//! The strategy-keyed compilation cache.
//!
//! Chain search and magic-number derivation dominate the cost of
//! [`Compiler`](crate::Compiler) calls; workloads replay the same few
//! constants thousands of times. The cache memoises whole
//! [`CompiledOp`](crate::CompiledOp)s keyed by `(OpKind, overflow model)` —
//! the operation kind already carries the constant and the trap flavor, and
//! the overflow model is baked into the prepared program, so two compilers
//! that would generate different executables never share an entry.
//!
//! The cache is one exact LRU behind one `Mutex`: a map from key to a slot
//! in a slab of entries, whose slots form an intrusive recency list. A hit
//! is a hash probe plus a relink and an eviction pops the list's tail, so
//! both are O(1), and every one of the `capacity` slots is usable by any
//! key. Engine workers never compile (constant operations compile on the
//! calling thread), so only user threads sharing one `Compiler` take the
//! lock.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use addchain::MulHasher;
use pa_sim::OverflowModel;

use crate::compiler::{CompiledOp, OpKind};

/// The full identity of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub kind: OpKind,
    pub overflow: OverflowModel,
}

/// Occupancy and traffic counters of the compile cache, for telemetry
/// gauges and the `hppa metrics` exporters. The cache is one LRU, so
/// [`Compiler::cache_stats`](crate::Compiler::cache_stats) returns exactly
/// one of these, with `shard: 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Always 0: the cache is a single LRU.
    pub shard: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed (each is followed by a cold compile).
    pub misses: u64,
    /// Entries pushed out by the LRU bound.
    pub evictions: u64,
    /// Times the cache's lock was found poisoned and healed (contents
    /// dropped, poison flag cleared). Always zero unless a thread panicked
    /// while holding the lock — in practice, only under an armed
    /// [`FaultPlan`](pa_sim::FaultPlan) shard-poison drill.
    pub recoveries: u64,
}

/// The end of the recency list.
const NIL: usize = usize::MAX;

/// One resident entry, linked into the recency list by slab index.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    op: CompiledOp,
    /// The next more recently used slot, or [`NIL`] at the head.
    newer: usize,
    /// The next less recently used slot, or [`NIL`] at the tail.
    older: usize,
}

/// The exact LRU the lock guards, with its traffic counters.
///
/// Slots are only ever appended (until `capacity` is reached) or reused in
/// place by an eviction, so the slab has no holes and needs no free list.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    /// Keyed by the program's own constants, so SipHash's flooding
    /// resistance buys nothing: never more than `capacity` keys, so even
    /// keys crafted to collide cost a probe at most a scan of them.
    index: HashMap<CacheKey, usize, BuildHasherDefault<MulHasher>>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next to evict.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    recoveries: u64,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            index: HashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            recoveries: 0,
        }
    }

    /// Drops every resident entry (recovery path: entries recompile on
    /// demand, so discarding is always safe). Traffic counters are kept.
    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, at: usize) {
        let Slot { newer, older, .. } = self.slots[at];
        match newer {
            NIL => self.head = older,
            newer => self.slots[newer].older = older,
        }
        match older {
            NIL => self.tail = newer,
            older => self.slots[older].newer = newer,
        }
    }

    fn push_head(&mut self, at: usize) {
        self.slots[at].newer = NIL;
        self.slots[at].older = self.head;
        match self.head {
            NIL => self.tail = at,
            head => self.slots[head].newer = at,
        }
        self.head = at;
    }

    fn touch(&mut self, at: usize) {
        if self.head != at {
            self.unlink(at);
            self.push_head(at);
        }
    }

    fn lookup(&mut self, key: &CacheKey) -> Option<CompiledOp> {
        let Some(&at) = self.index.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(at);
        Some(self.slots[at].op.clone())
    }

    fn insert(&mut self, key: CacheKey, op: CompiledOp) {
        if self.capacity == 0 {
            return;
        }
        // Two threads that missed the same key both compile it; the later
        // insert replaces the earlier one's program and refreshes it.
        if let Some(&at) = self.index.get(&key) {
            self.slots[at].op = op;
            self.touch(at);
            return;
        }
        let at = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                op,
                newer: NIL,
                older: NIL,
            });
            self.slots.len() - 1
        } else {
            let at = self.tail;
            self.unlink(at);
            let evicted = std::mem::replace(&mut self.slots[at].key, key);
            self.index.remove(&evicted);
            self.slots[at].op = op;
            self.evictions += 1;
            at
        };
        self.index.insert(key, at);
        self.push_head(at);
    }
}

/// The thread-safe compile cache: one exact LRU of at most `capacity`
/// entries behind one `Mutex`. Shared by every clone of a
/// [`Compiler`](crate::Compiler) (behind an `Arc`), so every distinct
/// compile is paid once however many threads share the compiler.
#[derive(Debug)]
pub(crate) struct CompileCache {
    lru: Mutex<Lru>,
    /// Set when a fault plan has armed the lock for self-poisoning on the
    /// next lookup. Swapped back atomically when it fires, so the drill
    /// injects exactly once no matter how many threads race through
    /// lookups.
    armed_poison: AtomicBool,
}

impl CompileCache {
    /// The default entry bound — comfortably above any paper workload's
    /// distinct-constant count.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A cache holding at most `capacity` entries; zero disables caching.
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            lru: Mutex::new(Lru::new(capacity)),
            armed_poison: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(|poisoned| {
            // A thread panicked while holding the lock. Its recency list
            // may be torn mid-relink, so heal rather than trust it: drop
            // the contents (entries recompile on demand — discarding is
            // always correct, just cold), clear the poison flag so later
            // locks are clean, and carry on with the healed cache.
            let mut lru = poisoned.into_inner();
            lru.clear();
            lru.recoveries += 1;
            self.lru.clear_poison();
            lru
        })
    }

    /// Arms the cache to poison its lock on the next lookup, for chaos
    /// drills. The lock is poisoned for real — a helper thread takes it and
    /// panics — so recovery exercises the same path a genuine mid-compile
    /// panic would.
    pub fn arm_poison(&self) {
        self.armed_poison.store(true, Ordering::Relaxed);
    }

    /// Fires an armed poison exactly once (first caller wins the swap).
    fn maybe_inject_poison(&self) {
        if !self.armed_poison.load(Ordering::Relaxed)
            || !self.armed_poison.swap(false, Ordering::Relaxed)
        {
            return;
        }
        self.poison();
        telemetry::emit(|| telemetry::Event::FaultInjected {
            kind: "shard-poison",
            target: "shard 0".to_string(),
            at: 0,
        });
    }

    /// Poisons the lock: a helper thread takes it and panics holding it.
    fn poison(&self) {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = self
                    .lru
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("chaos: injected shard poison");
            });
            assert!(handle.join().is_err(), "poison thread must panic");
        });
    }

    /// Looks up `key`, refreshing its recency and counting the hit or miss.
    ///
    /// A poisoned lock is healed by the lock call itself (contents dropped,
    /// poison cleared, recovery counted) and the lookup then runs against
    /// the healed cache, so a single panicked writer costs later readers one
    /// cold miss — never an error and never a stale torn entry. The lock is
    /// released before this returns.
    pub fn lookup(&self, key: &CacheKey) -> Option<CompiledOp> {
        self.maybe_inject_poison();
        self.lock().lookup(key)
    }

    /// Inserts `op` under `key`, evicting the least-recently-used entry when
    /// the cache is full.
    pub fn insert(&self, key: CacheKey, op: CompiledOp) {
        self.lock().insert(key, op);
    }

    /// Entries resident.
    pub fn entries(&self) -> usize {
        self.lock().slots.len()
    }

    /// The stats snapshot: exactly one entry, `shard: 0`.
    pub fn stats(&self) -> Vec<CacheShardStats> {
        let lru = self.lock();
        vec![CacheShardStats {
            shard: 0,
            entries: lru.slots.len(),
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            recoveries: lru.recoveries,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;

    fn key(n: i64) -> CacheKey {
        CacheKey {
            kind: OpKind::MulConst { n, checked: false },
            overflow: OverflowModel::default(),
        }
    }

    fn op(n: i64) -> CompiledOp {
        Compiler::new().mul_const(n).unwrap()
    }

    /// The resident keys, most recently used first, walked both ways: the
    /// two directions of the recency list must agree.
    fn recency(cache: &CompileCache) -> Vec<CacheKey> {
        let lru = cache.lock();
        let mut newest_first = Vec::new();
        let mut at = lru.head;
        while at != NIL {
            newest_first.push(lru.slots[at].key);
            at = lru.slots[at].older;
        }
        let mut oldest_first = Vec::new();
        let mut at = lru.tail;
        while at != NIL {
            oldest_first.push(lru.slots[at].key);
            at = lru.slots[at].newer;
        }
        oldest_first.reverse();
        assert_eq!(newest_first, oldest_first, "recency list is torn");
        assert_eq!(newest_first.len(), lru.index.len());
        newest_first
    }

    #[test]
    fn lookup_returns_inserted_entries() {
        let cache = CompileCache::new(4);
        assert!(cache.lookup(&key(10)).is_none());
        cache.insert(key(10), op(10));
        assert_eq!(cache.entries(), 1);
        let hit = cache.lookup(&key(10)).expect("hit");
        assert_eq!(
            hit.kind(),
            OpKind::MulConst {
                n: 10,
                checked: false
            }
        );
        let stats = cache.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].shard, stats[0].hits, stats[0].misses), (0, 1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = CompileCache::new(2);
        cache.insert(key(2), op(2));
        cache.insert(key(3), op(3));
        cache.lookup(&key(2)); // refresh 2 → 3 is now LRU
        cache.insert(key(5), op(5));
        assert!(cache.lookup(&key(3)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&key(2)).is_some());
        assert!(cache.lookup(&key(5)).is_some());
        assert_eq!(cache.stats()[0].evictions, 1);
    }

    #[test]
    fn recency_list_tracks_every_hit_insert_and_eviction() {
        let cache = CompileCache::new(3);
        for n in [2, 3, 5] {
            cache.insert(key(n), op(n));
        }
        assert_eq!(recency(&cache), [key(5), key(3), key(2)]);
        cache.lookup(&key(3)); // middle to head
        assert_eq!(recency(&cache), [key(3), key(5), key(2)]);
        cache.lookup(&key(2)); // tail to head
        assert_eq!(recency(&cache), [key(2), key(3), key(5)]);
        cache.lookup(&key(2)); // head stays put
        assert_eq!(recency(&cache), [key(2), key(3), key(5)]);
        cache.insert(key(7), op(7)); // evicts the tail, 5
        assert_eq!(recency(&cache), [key(7), key(2), key(3)]);
        cache.insert(key(3), op(3)); // re-insert refreshes, evicts nothing
        assert_eq!(recency(&cache), [key(3), key(7), key(2)]);
        assert_eq!(cache.stats()[0].evictions, 1);
    }

    #[test]
    fn interleaved_mul_and_div_keys_evict_in_strict_lru_order() {
        let ukey = |y: u32| CacheKey {
            kind: OpKind::UdivConst { y },
            overflow: OverflowModel::default(),
        };
        let uop = |y: u32| Compiler::new().udiv_const(y).unwrap();
        // Mul and div entries share one recency list, not per-family lists:
        // a hot multiply must be able to evict a stale divide and vice versa.
        let cache = CompileCache::new(3);
        cache.insert(key(3), op(3));
        cache.insert(ukey(3), uop(3));
        cache.insert(key(5), op(5));
        assert_eq!(cache.entries(), 3);
        // Refresh the divide: the oldest *multiply* is now LRU.
        assert!(cache.lookup(&ukey(3)).is_some());
        cache.insert(ukey(7), uop(7));
        assert!(cache.lookup(&key(3)).is_none(), "mul 3 was LRU");
        assert!(cache.lookup(&ukey(3)).is_some(), "refreshed div survived");
        // And the other way around: refresh a multiply, evict a divide.
        assert!(cache.lookup(&key(5)).is_some());
        cache.insert(key(9), op(9));
        assert!(cache.lookup(&ukey(7)).is_none(), "div 7 was LRU");
        assert!(cache.lookup(&key(5)).is_some());
        assert!(cache.lookup(&key(9)).is_some());
        assert_eq!(cache.entries(), 3);
    }

    #[test]
    fn mul_and_div_keys_with_equal_constants_are_distinct() {
        let cache = CompileCache::new(4);
        cache.insert(key(3), op(3));
        let div3 = CacheKey {
            kind: OpKind::UdivConst { y: 3 },
            overflow: OverflowModel::default(),
        };
        assert!(cache.lookup(&div3).is_none(), "udiv 3 must not alias mul 3");
        cache.insert(div3, Compiler::new().udiv_const(3).unwrap());
        assert_eq!(cache.entries(), 2);
        assert_eq!(
            cache.lookup(&key(3)).unwrap().kind(),
            OpKind::MulConst {
                n: 3,
                checked: false
            }
        );
        assert_eq!(
            cache.lookup(&div3).unwrap().kind(),
            OpKind::UdivConst { y: 3 }
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = CompileCache::new(0);
        cache.insert(key(10), op(10));
        assert_eq!(cache.entries(), 0);
        assert!(cache.lookup(&key(10)).is_none());
    }

    #[test]
    fn overflow_model_separates_entries() {
        let cache = CompileCache::new(4);
        cache.insert(key(10), op(10));
        let precise = CacheKey {
            kind: OpKind::MulConst {
                n: 10,
                checked: false,
            },
            overflow: OverflowModel::Precise,
        };
        assert!(cache.lookup(&precise).is_none());
    }

    #[test]
    fn poisoned_lock_heals_and_subsequent_lookups_hit() {
        let cache = CompileCache::new(64);
        cache.insert(key(7), op(7));
        assert!(cache.lookup(&key(7)).is_some());
        cache.poison();
        assert!(cache.lru.is_poisoned());
        // First post-poison lookup heals: contents dropped, one recovery
        // counted, and the lookup itself completes as a cold miss.
        assert!(cache.lookup(&key(7)).is_none(), "healed cache is cold");
        assert!(!cache.lru.is_poisoned());
        assert_eq!(cache.stats()[0].recoveries, 1);
        // The cache is fully live again: reinsert, then hit.
        cache.insert(key(7), op(7));
        assert!(cache.lookup(&key(7)).is_some(), "recovered cache hits");
        assert_eq!(recency(&cache), [key(7)]);
        assert_eq!(cache.stats()[0].recoveries, 1, "healed exactly once");
    }

    #[test]
    fn armed_poison_fires_exactly_once_and_emits() {
        let cache = CompileCache::new(64);
        cache.insert(key(3), op(3));
        cache.arm_poison();
        let (_, events) = telemetry::collect(|| {
            // The armed lookup trips the poison, heals, and misses cold;
            // later lookups are ordinary.
            assert!(cache.lookup(&key(3)).is_none());
            cache.insert(key(3), op(3));
            assert!(cache.lookup(&key(3)).is_some());
        });
        assert_eq!(cache.stats()[0].recoveries, 1);
        let faults: Vec<&telemetry::Event> = events
            .iter()
            .filter(|e| e.strategy_key().starts_with("fault/"))
            .collect();
        assert_eq!(faults.len(), 1);
        assert!(matches!(
            faults[0],
            telemetry::Event::FaultInjected {
                kind: "shard-poison",
                target,
                ..
            } if target == "shard 0"
        ));
    }

    /// Pins the compile path's double-lock shape: `lookup` takes the lock
    /// and releases it, then the telemetry closure calls `entries()`, which
    /// takes it again. Under contention — and with the lock being poisoned
    /// mid-flight — this must never deadlock and every thread's traffic
    /// must be accounted.
    #[test]
    fn poisoned_lock_does_not_deadlock_the_stats_paths() {
        let cache = CompileCache::new(64);
        let seeded = op(7);
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let (cache, seeded) = (&cache, &seeded);
                scope.spawn(move || {
                    for i in 0..50 {
                        let k = key(t * 100 + i);
                        if cache.lookup(&k).is_none() {
                            cache.insert(k, seeded.clone());
                        }
                        // The same lookup-then-sweep sequence the compile
                        // path's telemetry performs.
                        let _ = cache.entries();
                        let _ = cache.stats();
                    }
                });
            }
            // Meanwhile, keep poisoning the lock out from under them.
            let cache = &cache;
            scope.spawn(move || {
                for _ in 0..8 {
                    cache.poison();
                    std::thread::yield_now();
                }
            });
        });
        let stats = cache.stats()[0];
        assert_eq!(
            stats.hits + stats.misses,
            4 * 50,
            "every lookup counted, none deadlocked"
        );
        // Consecutive poisonings with no lock in between collapse into a
        // single heal, so only one heal is certain.
        assert!(stats.recoveries >= 1, "the lock healed: {stats:?}");
        recency(&cache);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = CompileCache::new(64);
        let seeded = op(7);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (cache, seeded) = (&cache, &seeded);
                scope.spawn(move || {
                    for _ in 0..100 {
                        if cache.lookup(&key(7)).is_none() {
                            cache.insert(key(7), seeded.clone());
                        }
                    }
                });
            }
        });
        assert_eq!(cache.entries(), 1, "all threads converged on one entry");
        let stats = cache.stats()[0];
        assert_eq!(stats.hits + stats.misses, 400);
    }
}
