//! Property tests for the compile cache and the batch APIs: a cache hit
//! must hand back code identical to a cold compile, and batching must be
//! indistinguishable (results and cycles) from singular calls across every
//! strategy tier.

use hppa_muldiv::{Compiler, Runtime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cached CompiledOp is the same program as a cold compile of the
    /// same kind — same instructions, same cycles, same results.
    #[test]
    fn cached_equals_cold(n in -10_000i64..10_000, x in any::<i32>()) {
        let warm = Compiler::new();
        let first = warm.mul_const(n).unwrap();
        let second = warm.mul_const(n).unwrap(); // cache hit
        let cold = Compiler::builder().cache_capacity(0).build();
        let fresh = cold.mul_const(n).unwrap(); // always recompiled
        prop_assert_eq!(first.program().insns(), second.program().insns());
        prop_assert_eq!(second.program().insns(), fresh.program().insns());
        prop_assert_eq!(second.run_i32(x).unwrap(), fresh.run_i32(x).unwrap());
        prop_assert_eq!(second.cycles_for(x as u32), fresh.cycles_for(x as u32));
    }

    /// Divide flavours: the cache key separates kinds that share a constant.
    #[test]
    fn divide_kinds_cache_independently(y in 2u32..5_000) {
        let c = Compiler::new();
        let udiv = c.udiv_const(y).unwrap();
        let urem = c.urem_const(y).unwrap();
        let sdiv = c.sdiv_const(y as i32).unwrap();
        prop_assert_eq!(c.cached_ops(), 3);
        // Hits return each kind's own program.
        prop_assert_eq!(
            c.udiv_const(y).unwrap().program().insns(),
            udiv.program().insns()
        );
        prop_assert_eq!(
            c.urem_const(y).unwrap().program().insns(),
            urem.program().insns()
        );
        prop_assert_eq!(
            c.sdiv_const(y as i32).unwrap().program().insns(),
            sdiv.program().insns()
        );
        prop_assert_eq!(c.cached_ops(), 3);
    }

    /// CompiledOp batches equal singular runs, input by input.
    #[test]
    fn compiled_batches_equal_singular(y in 1u32..10_000, xs in proptest::collection::vec(any::<u32>(), 8)) {
        let c = Compiler::new();
        let op = c.udiv_const(y).unwrap();
        let batch = op.run_batch_u32(&xs).unwrap();
        let mut cycles = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(batch.values[i], op.run_u32(x).unwrap());
            prop_assert_eq!(batch.values[i], x / y);
            cycles += op.cycles_for(x);
        }
        prop_assert_eq!(batch.cycles, cycles);
    }
}

/// Session batches must agree with per-call Runtime methods on operands
/// picked to land in every strategy tier of the switched multiply and both
/// divide tiers of the dispatch.
#[test]
fn session_batches_cover_every_strategy_tier() {
    let rt = Runtime::new().unwrap();
    let mut session = rt.session();

    // Multiply tiers: zero-exit, one-exit, nibble-x1, nibble-x2, swap, full.
    let mul_pairs: Vec<(i32, i32)> = vec![
        (0, 123),
        (1, -99),
        (5, 60_000),
        (300, 60_000),
        (60_000, 5),
        (-46_341, 46_341),
        (i32::MIN, -1),
    ];
    let batch = session.mul_batch(&mul_pairs).unwrap();
    let mut cycles = 0u64;
    for (i, &(x, y)) in mul_pairs.iter().enumerate() {
        let one = rt.mul(x, y).unwrap();
        assert_eq!(batch.values[i], one.value, "{x} * {y}");
        assert_eq!(batch.values[i], x.wrapping_mul(y), "{x} * {y}");
        cycles += one.cycles;
    }
    assert_eq!(batch.cycles, cycles);

    // Divide tiers: inlined bodies (y < 20), the general fallback, and the
    // remainder-carrying general routine.
    let div_pairs: Vec<(u32, u32)> = vec![
        (1_000_000, 3),
        (u32::MAX, 19),
        (12_345, 20),
        (u32::MAX, 65_537),
        (7, 0x8000_0000),
    ];
    let batch = session.div_dispatch_batch(&div_pairs).unwrap();
    let mut cycles = 0u64;
    for (i, &(x, y)) in div_pairs.iter().enumerate() {
        let one = rt.div_dispatch(x, y).unwrap();
        assert_eq!(batch.values[i], one.value, "{x} / {y}");
        assert_eq!(batch.values[i], x / y, "{x} / {y}");
        cycles += one.cycles;
    }
    assert_eq!(batch.cycles, cycles);

    let batch = session.div_unsigned_batch(&div_pairs).unwrap();
    let rems = batch.rems.as_ref().expect("udiv yields remainders");
    for (i, &(x, y)) in div_pairs.iter().enumerate() {
        assert_eq!(batch.values[i], x / y);
        assert_eq!(rems[i], x % y);
    }
}

/// The cache keeps compiled programs across unrelated compiles up to its
/// capacity, and eviction never changes results.
#[test]
fn eviction_preserves_correctness() {
    let c = Compiler::builder().cache_capacity(4).build();
    for n in 2..40i64 {
        let op = c.mul_const(n).unwrap();
        assert_eq!(op.run_i32(7).unwrap(), 7 * n as i32);
        assert!(c.cached_ops() <= 4);
    }
    // Re-compiling an evicted constant still works (cold path again).
    let op = c.mul_const(2).unwrap();
    assert_eq!(op.run_i32(-9).unwrap(), -18);
}

/// Interleaved multiply and divide compiles share one recency list: the
/// telemetry hit/miss stream shows recently touched entries of either
/// family surviving while the stale one — whatever its family — evicts.
#[test]
fn interleaved_mul_div_eviction_is_lru_across_families() {
    let c = Compiler::builder().cache_capacity(4).build();
    // Fill: mul 3, udiv 3, urem 3, sdiv 3 — four distinct keys, one
    // constant, recency order oldest→newest as listed.
    c.mul_const(3).unwrap();
    c.udiv_const(3).unwrap();
    c.urem_const(3).unwrap();
    c.sdiv_const(3).unwrap();
    assert_eq!(c.cached_ops(), 4);
    // Refresh the multiply, then insert a fifth key: the unsigned divide
    // (now LRU) must be the one to go.
    c.mul_const(3).unwrap();
    c.mul_const(5).unwrap();
    assert_eq!(c.cached_ops(), 4);
    let (_, events) = telemetry::collect(|| {
        c.mul_const(3).unwrap(); // hit
        c.urem_const(3).unwrap(); // hit
        c.sdiv_const(3).unwrap(); // hit
        c.mul_const(5).unwrap(); // hit
    });
    let hist = telemetry::strategy_histogram(&events);
    assert_eq!(hist.get("cache/hit"), Some(&4), "{hist:?}");
    assert_eq!(hist.get("cache/miss"), None, "{hist:?}");
    let (op, events) = telemetry::collect(|| c.udiv_const(3).unwrap());
    let hist = telemetry::strategy_histogram(&events);
    assert_eq!(hist.get("cache/miss"), Some(&1), "udiv 3 was evicted");
    // The recompiled entry still divides correctly.
    assert_eq!(op.run_u32(10).unwrap(), 3);
    assert_eq!(c.cached_ops(), 4);
}

/// A default compiler holds as many constants as its capacity: after the
/// multipliers 2..=129 (128 keys, the default capacity) compile once,
/// cycling over them never misses and never evicts.
#[test]
fn default_cache_holds_its_full_capacity() {
    let c = Compiler::new();
    for n in 2..=129i64 {
        c.mul_const(n).unwrap();
    }
    let warm = c.cache_stats()[0];
    assert_eq!(warm.entries, 128);
    for _ in 0..100 {
        for n in 2..=129i64 {
            c.mul_const(n).unwrap();
        }
    }
    let after = c.cache_stats();
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].misses, warm.misses, "a resident key missed");
    assert_eq!(after[0].hits, warm.hits + 100 * 128);
    assert_eq!((after[0].entries, after[0].evictions), (128, 0));
}

/// A mul/div interleave wider than the capacity churns the cache without
/// ever corrupting results, and the occupancy bound holds throughout.
#[test]
fn interleaved_churn_stays_bounded_and_correct() {
    let c = Compiler::builder().cache_capacity(3).build();
    for n in 2..32u32 {
        let mul = c.mul_const(i64::from(n)).unwrap();
        assert_eq!(mul.run_i32(7).unwrap(), 7 * n as i32, "7 * {n}");
        let udiv = c.udiv_const(n).unwrap();
        assert_eq!(udiv.run_u32(1_000_000).unwrap(), 1_000_000 / n);
        let srem = c.srem_const(n as i32).unwrap();
        assert_eq!(srem.run_i32(-1_000_001).unwrap(), -1_000_001 % n as i32);
        assert!(c.cached_ops() <= 3, "capacity bound violated");
    }
}
