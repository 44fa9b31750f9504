//! Parallel-vs-serial equivalence: the worker-pool engine must be
//! indistinguishable from the serial batch methods — identical values,
//! remainders, checksums, summed simulated cycles, and telemetry strategy
//! histograms — at 1, 2, 4, and 8 worker threads, on an oracle-checked
//! fuzz corpus drawn from the PR 3 structured generator at a fixed seed.
//!
//! Also hosts the loom-free contention smoke test: eight threads hammering
//! the compile cache's one lock must never corrupt the LRU or return wrong
//! code.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use hppa_muldiv::{Compiler, Error, ParallelExecutor, Runtime, Session};
use oracle::fuzz::CaseGen;
use oracle::reference;
use oracle::Case;

const SEED: u64 = 0xA5;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runtime construction assembles and prepares five millicode routines —
/// expensive in debug builds — so every test shares one, and engines for
/// each worker count are cheap [`ParallelExecutor::with_workers`]
/// derivations sharing its routines and cache.
fn runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::new().unwrap())
}

/// Harvests the millicode-facing pairs from the structured generator:
/// signed multiplies, dispatch divides, and general unsigned divides.
/// Zero divisors (the generator's trap probes) are filtered out here —
/// batch calls stop at the first error, and error-identity has its own
/// test below.
struct Corpus {
    mul: Vec<(i32, i32)>,
    dispatch: Vec<(u32, u32)>,
    udiv: Vec<(u32, u32)>,
}

fn fuzz_corpus(cases: usize) -> Corpus {
    let mut gen = CaseGen::new(SEED);
    let mut mul = Vec::new();
    let mut dispatch = Vec::new();
    let mut udiv = Vec::new();
    for _ in 0..cases {
        match gen.next_case() {
            Case::MulVar { x, y } => mul.push((x, y)),
            Case::DivDispatch { x, y } if y != 0 => dispatch.push((x, y)),
            Case::DivVar { x, y } if y != 0 => udiv.push((x, y)),
            _ => {}
        }
    }
    assert!(mul.len() > 12, "corpus too small: {} multiplies", mul.len());
    assert!(
        dispatch.len() > 6,
        "corpus too small: {} dispatches",
        dispatch.len()
    );
    assert!(udiv.len() > 6, "corpus too small: {} divides", udiv.len());
    Corpus {
        mul,
        dispatch,
        udiv,
    }
}

fn engine_for(workers: usize) -> ParallelExecutor {
    static ENGINE: OnceLock<ParallelExecutor> = OnceLock::new();
    ENGINE
        .get_or_init(|| runtime().engine())
        .with_workers(workers)
        .unwrap()
}

#[test]
fn runtime_is_send_sync_and_session_is_send() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<Runtime>();
    assert_send_sync::<Compiler>();
    assert_send_sync::<ParallelExecutor>();
    assert_send::<Session>();
}

#[test]
fn mul_batches_are_identical_across_worker_counts() {
    let mul = fuzz_corpus(300).mul;
    let rt = runtime();
    let (serial, serial_events) = telemetry::collect(|| rt.mul_batch(&mul).unwrap());
    // Oracle check: every product agrees with the independent bit-serial
    // reference multiplier.
    for (i, &(x, y)) in mul.iter().enumerate() {
        assert_eq!(
            serial.values[i],
            reference::mul_wrapping_i32(x, y),
            "{x} * {y}"
        );
    }
    let serial_hist = telemetry::strategy_histogram(&serial_events);
    for workers in WORKER_COUNTS {
        let engine = engine_for(workers);
        let (parallel, events) = telemetry::collect(|| engine.mul_batch(&mul).unwrap());
        assert_eq!(parallel.values, serial.values, "{workers} workers: values");
        assert_eq!(parallel.rems, serial.rems, "{workers} workers: rems");
        assert_eq!(parallel.cycles, serial.cycles, "{workers} workers: cycles");
        assert_eq!(
            parallel.checksum(),
            serial.checksum(),
            "{workers} workers: checksum"
        );
        assert_eq!(
            telemetry::strategy_histogram(&events),
            serial_hist,
            "{workers} workers: strategy histogram"
        );
    }
}

#[test]
fn dispatch_batches_are_identical_across_worker_counts() {
    let dispatch = fuzz_corpus(300).dispatch;
    let rt = runtime();
    let (serial, serial_events) = telemetry::collect(|| rt.div_dispatch_batch(&dispatch).unwrap());
    for (i, &(x, y)) in dispatch.iter().enumerate() {
        assert_eq!(
            serial.values[i],
            reference::udiv(x, y).unwrap(),
            "{x} / {y}"
        );
    }
    let serial_hist = telemetry::strategy_histogram(&serial_events);
    for workers in WORKER_COUNTS {
        let engine = engine_for(workers);
        let (parallel, events) =
            telemetry::collect(|| engine.div_dispatch_batch(&dispatch).unwrap());
        assert_eq!(parallel, serial, "{workers} workers: full outcome");
        assert_eq!(parallel.checksum(), serial.checksum(), "{workers} workers");
        assert_eq!(
            telemetry::strategy_histogram(&events),
            serial_hist,
            "{workers} workers: strategy histogram"
        );
    }
}

#[test]
fn unsigned_divide_batches_are_identical_across_worker_counts() {
    let udiv = fuzz_corpus(300).udiv;
    let rt = runtime();
    let (serial, serial_events) =
        telemetry::collect(|| rt.session().div_unsigned_batch(&udiv).unwrap());
    let rems = serial.rems.as_ref().expect("udiv yields remainders");
    for (i, &(x, y)) in udiv.iter().enumerate() {
        let (q, r) = reference::div_restoring(x, y).unwrap();
        assert_eq!((serial.values[i], rems[i]), (q, r), "{x} / {y}");
    }
    let serial_hist = telemetry::strategy_histogram(&serial_events);
    for workers in WORKER_COUNTS {
        let engine = engine_for(workers);
        let (parallel, events) = telemetry::collect(|| engine.div_unsigned_batch(&udiv).unwrap());
        assert_eq!(parallel, serial, "{workers} workers: full outcome");
        assert_eq!(parallel.checksum(), serial.checksum(), "{workers} workers");
        assert_eq!(
            telemetry::strategy_histogram(&events),
            serial_hist,
            "{workers} workers: strategy histogram"
        );
    }
}

#[test]
fn error_identity_matches_serial_for_any_worker_count() {
    // Plant one zero divisor mid-corpus: every worker count must surface
    // exactly the serial error.
    let mut dispatch = fuzz_corpus(300).dispatch;
    let mid = dispatch.len() / 2;
    dispatch[mid].1 = 0;
    let rt = runtime();
    let serial = rt.div_dispatch_batch(&dispatch);
    assert_eq!(serial, Err(Error::DivideByZero));
    for workers in WORKER_COUNTS {
        let engine = engine_for(workers);
        assert_eq!(
            engine.div_dispatch_batch(&dispatch),
            serial,
            "{workers} workers"
        );
    }
}

#[test]
fn const_batches_are_identical_across_worker_counts() {
    // Constant traffic exercises the compile cache under the pool.
    let inputs: Vec<i32> = CaseGenInputs::new(SEED).take(64).collect();
    let divisors = [3u32, 7, 1000];
    let serial = Compiler::new();
    for workers in WORKER_COUNTS {
        let engine = engine_for(workers);
        for &y in &divisors {
            let op = serial.udiv_const(y).unwrap();
            let uin: Vec<u32> = inputs.iter().map(|&v| v as u32).collect();
            let direct = op.run_batch_u32(&uin).unwrap();
            let pooled = engine.udiv_const_batch(y, &uin).unwrap();
            assert_eq!(pooled, direct, "{workers} workers, /{y}");
        }
        let op = serial.mul_const(10).unwrap();
        let direct = op.run_batch_i32(&inputs).unwrap();
        let pooled = engine.mul_const_batch(10, &inputs).unwrap();
        assert_eq!(pooled, direct, "{workers} workers, *10");
    }
}

/// A tiny deterministic input stream for the const-batch test, built on
/// the oracle's splitmix generator.
struct CaseGenInputs(oracle::fuzz::Rng);

impl CaseGenInputs {
    fn new(seed: u64) -> CaseGenInputs {
        CaseGenInputs(oracle::fuzz::Rng::new(seed))
    }
}

impl Iterator for CaseGenInputs {
    type Item = i32;
    fn next(&mut self) -> Option<i32> {
        Some(self.0.next_u32() as i32)
    }
}

#[test]
fn contention_smoke_one_shard_eight_threads() {
    // Every compile takes the cache's one lock: the worst case for
    // contention. Eight threads compile a rotating set of constants far
    // beyond the capacity, forcing constant eviction churn, while checking
    // every answer. No loom here — this is a liveness/correctness smoke,
    // and the types forbid unsafe code.
    let compiler = Compiler::builder().cache_capacity(4).build();
    assert_eq!(compiler.cache_stats().len(), 1);
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let compiler = compiler.clone(); // clones share the cache
            scope.spawn(move || {
                for round in 0..20u32 {
                    let n = i64::from((t + round) % 12 + 2);
                    let op = compiler.mul_const(n).unwrap();
                    let x = i32::try_from(round).unwrap() - 30;
                    assert_eq!(op.run_i32(x).unwrap(), x * i32::try_from(n).unwrap());
                    // A second, disjoint constant family doubles the key
                    // space, so the four-entry cache churns constantly.
                    let m = i64::from((t + round) % 9 + 2) * 257;
                    let op = compiler.mul_const(m).unwrap();
                    assert_eq!(op.run_i32(11).unwrap(), 11 * i32::try_from(m).unwrap());
                }
            });
        }
    });
    let stats = compiler.cache_stats();
    assert_eq!(stats.len(), 1);
    assert!(stats[0].entries <= 4, "{stats:?}");
    let traffic = stats[0].hits + stats[0].misses;
    assert_eq!(traffic, 8 * 20 * 2, "every lookup was counted: {stats:?}");
    assert!(stats[0].evictions > 0, "churn must evict: {stats:?}");
}

#[test]
fn per_worker_cycle_attribution_sums_to_serial_total() {
    // Strategy histograms aggregate counts; this pins the *cycle* totals
    // per routine tier too, via the per-event cycle payloads.
    let mul = fuzz_corpus(200).mul;
    let rt = runtime();
    let (_, serial_events) = telemetry::collect(|| rt.mul_batch(&mul).unwrap());
    let engine = engine_for(4);
    let (_, parallel_events) = telemetry::collect(|| engine.mul_batch(&mul).unwrap());
    let cycles_by_tier = |events: &[telemetry::Event]| {
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        for e in events {
            if let telemetry::Event::MulStrategy { tier, cycles, .. } = e {
                *map.entry((*tier).to_string()).or_default() += cycles.unwrap_or(0);
            }
        }
        map
    };
    assert_eq!(
        cycles_by_tier(&serial_events),
        cycles_by_tier(&parallel_events)
    );
}
