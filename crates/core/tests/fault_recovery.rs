//! Fault-recovery drill matrix: every [`FaultPlan`] family, driven through
//! the public façade at pool widths 1/2/4/8, must end in either an
//! oracle-verified correct result or a typed [`Error`] — never a hang, a
//! torn batch, an escaped panic, or a silently wrong value.
//!
//! This is the integration layer of the robustness contract documented in
//! `docs/ROBUSTNESS.md`; the unit layers live in `pa_sim::fault` and
//! `cache::tests`, and the CLI layer in `hppa chaos`.

use hppa_muldiv::sim::fault::CHAOS_BREAK;
use hppa_muldiv::sim::TrapKind;
use hppa_muldiv::{Compiler, Error, FaultPlan, Runtime};
use pa_isa::Reg;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn pairs() -> Vec<(i32, i32)> {
    (0i32..16).map(|i| (i * 37 - 300, 23 - i * 11)).collect()
}

/// One armed runtime per plan (construction is the expensive part); the
/// width sweep reuses its pool via `with_workers`.
fn armed_runtime(plan: FaultPlan) -> Runtime {
    Runtime::builder()
        .workers(8)
        .fault_plan(plan)
        .build()
        .expect("armed runtime builds")
}

#[test]
fn worker_kill_surfaces_typed_or_completes_oracle_correct_at_every_width() {
    let pairs = pairs();
    for worker in [0usize, 2, 7] {
        let rt = armed_runtime(FaultPlan::WorkerKill { worker });
        for width in WIDTHS {
            let engine = rt.engine().with_workers(width).unwrap();
            match engine.mul_batch(&pairs) {
                // The kill target only exists when the pool is wide enough
                // to spawn that chunk; then the panic MUST surface typed.
                Err(Error::WorkerPanicked { worker: w, chunk }) => {
                    assert!(
                        worker < width,
                        "worker {w} cannot die in a {width}-wide pool"
                    );
                    assert_eq!((w, chunk), (worker, worker));
                }
                Err(other) => panic!("expected WorkerPanicked, got {other}"),
                Ok(batch) => {
                    assert!(
                        worker >= width,
                        "kill target {worker} inside a {width}-wide pool never fired"
                    );
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        assert_eq!(
                            batch.values[i],
                            oracle::reference::mul_wrapping_i32(x, y),
                            "pair {i} diverged after a dodged kill"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn forced_traps_surface_the_injected_break_at_every_width() {
    let rt = armed_runtime(FaultPlan::ForceTrap {
        step: 3,
        code: CHAOS_BREAK,
    });
    for width in WIDTHS {
        let engine = rt.engine().with_workers(width).unwrap();
        // Every item traps at step 3, so the batch must fail typed with the
        // injected break — first error in chunk order, never a torn merge.
        match engine.mul_batch(&pairs()) {
            Err(Error::Trapped(TrapKind::Break(code))) => assert_eq!(code, CHAOS_BREAK),
            other => panic!("expected the injected break at width {width}, got {other:?}"),
        }
    }
    // The serial façade agrees with the engine.
    match rt.mul(6, 7) {
        Err(Error::Trapped(TrapKind::Break(code))) => assert_eq!(code, CHAOS_BREAK),
        other => panic!("expected the injected break from rt.mul, got {other:?}"),
    }
}

#[test]
fn decode_corruption_is_typed_or_oracle_correct_at_every_width() {
    let pairs = pairs();
    // Sweep a few corrupted slots; each produces garbage instructions whose
    // effect we cannot predict — which is the point: the contract says the
    // dual-run machine check certifies completions, so Ok ⇒ oracle-equal.
    for slot in [1usize, 4, 9] {
        let rt = armed_runtime(FaultPlan::DecodeCorrupt {
            slot,
            seed: 0x5EED + slot as u64,
        });
        for width in WIDTHS {
            let engine = rt.engine().with_workers(width).unwrap();
            match engine.mul_batch(&pairs) {
                Ok(batch) => {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        assert_eq!(
                            batch.values[i],
                            oracle::reference::mul_wrapping_i32(x, y),
                            "slot {slot}: completion certified but wrong at pair {i}"
                        );
                    }
                }
                Err(
                    Error::FaultDetected
                    | Error::Trapped(_)
                    | Error::DidNotComplete
                    | Error::DivideByZero,
                ) => {}
                Err(other) => panic!("slot {slot}: untyped escape {other}"),
            }
        }
    }
}

#[test]
fn register_flips_are_typed_or_oracle_correct_at_every_width() {
    let pairs = pairs();
    for (cycle, reg, bit) in [(2u64, Reg::R26, 0u8), (7, Reg::R28, 31), (11, Reg::R1, 13)] {
        let rt = armed_runtime(FaultPlan::RegisterFlip { cycle, reg, bit });
        for width in WIDTHS {
            let engine = rt.engine().with_workers(width).unwrap();
            match engine.mul_batch(&pairs) {
                Ok(batch) => {
                    for (i, &(x, y)) in pairs.iter().enumerate() {
                        assert_eq!(
                            batch.values[i],
                            oracle::reference::mul_wrapping_i32(x, y),
                            "flip {reg:?}.{bit}@{cycle}: wrong value slipped through at pair {i}"
                        );
                    }
                }
                Err(
                    Error::FaultDetected
                    | Error::Trapped(_)
                    | Error::DidNotComplete
                    | Error::DivideByZero,
                ) => {}
                Err(other) => panic!("flip {reg:?}.{bit}@{cycle}: untyped escape {other}"),
            }
        }
    }
}

#[test]
fn poisoned_shard_recovers_and_subsequent_lookups_hit() {
    // The cache is one lock, so the shard index clamps to it.
    let compiler = Compiler::builder()
        .fault_plan(FaultPlan::ShardPoison { shard: 2 })
        .build();
    // First compile trips the armed poison (a helper thread locks the cache
    // and panics for real), the lookup path heals it, and every compiled
    // result must still be oracle-correct.
    for y in [3u32, 7, 10, 57] {
        let op = compiler.udiv_const(y).expect("compile after poison");
        for x in [0u32, 1, 999, u32::MAX] {
            assert_eq!(
                op.run_u32(x).expect("divide after poison"),
                oracle::reference::udiv(x, y).unwrap()
            );
        }
    }
    let stats = compiler.cache_stats();
    let recoveries: u64 = stats.iter().map(|s| s.recoveries).sum();
    assert!(
        recoveries >= 1,
        "the armed poison never fired or never healed"
    );
    // The healed cache serves hits again: recompiling the same constants
    // must not miss.
    let misses_before: u64 = stats.iter().map(|s| s.misses).sum();
    let hits_before: u64 = stats.iter().map(|s| s.hits).sum();
    for y in [3u32, 7, 10, 57] {
        compiler.udiv_const(y).expect("recompile");
    }
    let after = compiler.cache_stats();
    let misses_after: u64 = after.iter().map(|s| s.misses).sum();
    let hits_after: u64 = after.iter().map(|s| s.hits).sum();
    assert_eq!(misses_after, misses_before, "healed cache missed again");
    assert_eq!(hits_after, hits_before + 4, "healed cache did not hit");
}

#[test]
fn an_armed_engine_still_heals_its_poisoned_shard_mid_batch() {
    // The same poison drill through the runtime façade: the engine's
    // constant-operation batches go through its shared compile cache, and
    // `with_workers` clones share that cache (each `rt.engine()` call would
    // arm a fresh one, so the sweep keeps one engine and re-widths it).
    let rt = armed_runtime(FaultPlan::ShardPoison { shard: 0 });
    let engine = rt.engine();
    let inputs: Vec<u32> = (0u32..24).map(|i| i * 171 + 5).collect();
    for width in WIDTHS {
        let engine = engine.with_workers(width).unwrap();
        let batch = engine
            .udiv_const_batch(7, &inputs)
            .expect("poison must heal, not fail the batch");
        for (i, &x) in inputs.iter().enumerate() {
            let q = oracle::reference::udiv(x, 7).unwrap();
            assert_eq!(batch.values[i], q, "input {i} wrong after shard heal");
        }
    }
    let recoveries: u64 = engine.cache_stats().iter().map(|s| s.recoveries).sum();
    assert!(recoveries >= 1, "engine cache poison never fired or healed");
    // The healed entry keeps serving hits on the re-widthed clones.
    let hits: u64 = engine.cache_stats().iter().map(|s| s.hits).sum();
    assert!(hits >= 1, "healed engine cache never hit");
}
