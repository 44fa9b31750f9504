//! Measures the observability overhead ladder quoted in
//! `docs/OBSERVABILITY.md`: the same signed-multiply operand sweep through
//!
//! 1. the simulator's bare loop, every knob off (the production setting),
//! 2. its instrumented loop collecting stats (`RuntimeBuilder::stats(true)`
//!    — per-opcode and per-label cycle attribution),
//! 3. the same under an armed `telemetry::span::trace` scope (one `execute`
//!    span recorded per run).
//!
//! ```sh
//! cargo run --release --example observability_overhead
//! ```
//!
//! Simulated cycle totals are identical in all three configurations — the
//! ladder only changes host wall-clock cost.

use std::time::{Duration, Instant};

use hppa_muldiv::{telemetry, Runtime, Session};

const OPS: u32 = 20_000;

/// A deterministic operand sweep (Weyl-ish multiplier keeps the millicode
/// tiers varied) whose checksum pins all three configurations together.
fn mul_sweep(session: &mut Session, n: u32) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        let x = (i.wrapping_mul(2_654_435_761) | 1) as i32;
        let out = session.mul(x, 12_345).expect("multiply never faults");
        acc = acc.wrapping_add(out.value as u64).wrapping_add(out.cycles);
    }
    acc
}

fn best_of<R>(mut f: impl FnMut() -> R) -> (R, Duration) {
    let mut best: Option<(R, Duration)> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let r = f();
        let took = start.elapsed();
        if best.as_ref().is_none_or(|(_, b)| took < *b) {
            best = Some((r, took));
        }
    }
    best.unwrap()
}

fn per_op(d: Duration) -> f64 {
    d.as_nanos() as f64 / f64::from(OPS)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast_rt = Runtime::new()?;
    let stats_rt = Runtime::builder().stats(true).build()?;

    // Warm every compile cache and the allocator before timing.
    mul_sweep(&mut fast_rt.session(), OPS / 4);
    mul_sweep(&mut stats_rt.session(), OPS / 4);

    let (fast_sum, fast) = best_of(|| mul_sweep(&mut fast_rt.session(), OPS));
    let (stats_sum, stats) = best_of(|| mul_sweep(&mut stats_rt.session(), OPS));
    let ((spans_sum, span_count), spans) = best_of(|| {
        let (sum, recorded) = telemetry::span::trace(|| mul_sweep(&mut stats_rt.session(), OPS));
        (sum, recorded.len())
    });

    assert_eq!(
        fast_sum, stats_sum,
        "stats must not change results or cycles"
    );
    assert_eq!(
        fast_sum, spans_sum,
        "spans must not change results or cycles"
    );

    println!("{OPS} signed multiplies per configuration (best of 3):");
    println!(
        "  stats-off (bare loop)            {:>8.0} ns/op",
        per_op(fast)
    );
    println!(
        "  stats-on  (instrumented loop)    {:>8.0} ns/op  ({:.1}x stats-off)",
        per_op(stats),
        per_op(stats) / per_op(fast)
    );
    println!(
        "  spans-on  (stats + armed trace)  {:>8.0} ns/op  ({:.1}x stats-off, {span_count} spans)",
        per_op(spans),
        per_op(spans) / per_op(fast)
    );
    Ok(())
}
