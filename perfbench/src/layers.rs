//! Traced-mode probes: calls into each layer's public entry points, timed
//! from here, and the per-layer metrics derived from their spans.
//!
//! Every workload probes the layers on its own constants and operands, so
//! each per-layer figure describes the same inputs as that workload's
//! end-to-end figures.

use std::collections::HashMap;

use hppa_muldiv::chains::find_chain;
use hppa_muldiv::divconst::{
    compile_div_const, compile_div_const_i32, plan, DivCodegenConfig, DivStrategy, Signedness,
};
use hppa_muldiv::isa::{Program, Reg};
use hppa_muldiv::lint::{lint_program, Claim, LintSpec};
use hppa_muldiv::millicode::{divvar, mulvar};
use hppa_muldiv::mulconst::{compile_mul_const, CodegenConfig};
use hppa_muldiv::sim::{ExecConfig, PreparedProgram};
use hppa_muldiv::{
    telemetry, CacheShardStats, CompiledOp, LintLevel, OpKind, ParallelExecutor, Session,
};

use crate::metrics::Metric;
use crate::trace::{self, durations, totals, Span};
use crate::util::median;

/// Counts taken at the probed boundaries.
#[derive(Debug, Default)]
pub struct Counters {
    pub triple: u64,
    pub chain_steps: u64,
    pub chains: u64,
    pub linted: u64,
    pub proved: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl Counters {
    /// Adds a compiler's cache traffic between two snapshots.
    pub fn add_cache(&mut self, before: &[CacheShardStats], after: &[CacheShardStats]) {
        let sum = |s: &[CacheShardStats]| {
            s.iter()
                .fold((0, 0), |(h, m), shard| (h + shard.hits, m + shard.misses))
        };
        let ((h0, m0), (h1, m1)) = (sum(before), sum(after));
        self.cache_hits += h1 - h0;
        self.cache_lookups += (h1 - h0) + (m1 - m0);
    }

    fn add_chain(&mut self, n: i64) {
        let chain = {
            let _s = trace::enter("addchain.find_chain", n as u64);
            find_chain(n)
        };
        self.chain_steps += chain.len() as u64;
        self.chains += 1;
    }
}

/// `divconst::plan`, the multiplier's chain search, and the code generator
/// for one divisor (`y` signed when `signed`).
pub fn probe_divisor(counters: &mut Counters, y: i64, signed: bool) {
    let magnitude = y.unsigned_abs() as u32;
    let signedness = if signed {
        Signedness::Signed
    } else {
        Signedness::Unsigned
    };
    let planned = {
        let _s = trace::enter("divconst.plan", magnitude.into());
        plan(magnitude, signedness)
    };
    if let Ok(DivStrategy::Magic { magic, triple, .. }) = planned {
        counters.triple += u64::from(triple);
        counters.add_chain(magic.a() as i64);
    }
    let cfg = DivCodegenConfig::default();
    let _s = trace::enter("divconst.codegen", magnitude.into());
    let _ = if signed {
        compile_div_const_i32(y as i32, &cfg).ok()
    } else {
        compile_div_const(magnitude, Signedness::Unsigned, &cfg).ok()
    };
}

/// The chain search and both code-generator flavours for one multiplier.
pub fn probe_multiplier(counters: &mut Counters, n: i64) {
    counters.add_chain(n);
    for checked in [false, true] {
        let cfg = CodegenConfig {
            check_overflow: checked,
            ..CodegenConfig::default()
        };
        let _s = trace::enter("mulconst.codegen", n as u64);
        let _ = compile_mul_const(n, &cfg);
    }
}

/// pa-lint at its default level and the simulator's pre-decoder, on one
/// compiled routine.
pub fn probe_routine(counters: &mut Counters, op: &CompiledOp, id: u64) {
    let (source, dest) = (Reg::R26, Reg::R28);
    let spec = match op.kind() {
        OpKind::MulConst { n, checked } => LintSpec::mul_const(n, checked, source, dest),
        OpKind::UdivConst { y } => LintSpec::div_const(Claim::UdivConst { y }, source, dest),
        OpKind::SdivConst { y } => LintSpec::div_const(Claim::SdivConst { y }, source, dest),
        OpKind::UremConst { y } => LintSpec::div_const(Claim::UremConst { y }, source, dest),
        OpKind::SremConst { y } => LintSpec::div_const(Claim::SremConst { y }, source, dest),
    }
    .with_level(LintLevel::Default);
    let report = {
        let _s = trace::enter("pa_lint.lint", id);
        lint_program(op.program(), &spec)
    };
    counters.linted += 1;
    counters.proved += u64::from(report.proved);
    let _s = trace::enter("pa_sim.prepare", id);
    std::hint::black_box(PreparedProgram::new(op.program(), ExecConfig::default()));
}

/// Builds the runtime's millicode routines, one span each.
pub fn probe_millicode_build() {
    type Build = fn() -> Result<Program, hppa_muldiv::isa::IsaError>;
    let builds: [Build; 5] = [
        || mulvar::switched(true),
        || mulvar::switched(false),
        divvar::udiv,
        divvar::sdiv,
        || divvar::small_dispatch(hppa_muldiv::DISPATCH_LIMIT),
    ];
    for (i, build) in builds.iter().enumerate() {
        let _s = trace::enter("millicode.build", i as u64);
        std::hint::black_box(build().expect("millicode builds"));
    }
}

/// The engine at one worker against the serial call on the same multiply
/// batch, and a session batch inside and outside `telemetry::collect`.
pub fn probe_engine_and_capture(
    engine: &ParallelExecutor,
    session: &mut Session,
    batches: &[Vec<(i32, i32)>],
) {
    let one = engine.with_workers(1).expect("one worker is valid");
    for (i, pairs) in batches.iter().enumerate() {
        let i = i as u64;
        let ops = pairs.len() as u64;
        {
            let s = trace::enter("probe.serial", i);
            s.count(
                ops,
                session
                    .mul_batch(pairs)
                    .expect("multiplies never fault")
                    .cycles,
            );
        }
        {
            let s = trace::enter("probe.engine1", i);
            s.count(
                ops,
                one.mul_batch(pairs).expect("multiplies never fault").cycles,
            );
        }
        {
            let s = trace::enter("probe.collect_in", i);
            let (out, events) = telemetry::collect(|| session.mul_batch(pairs));
            s.count(ops, out.expect("multiplies never fault").cycles);
            std::hint::black_box(events);
        }
        {
            let s = trace::enter("probe.collect_out", i);
            s.count(
                ops,
                session
                    .mul_batch(pairs)
                    .expect("multiplies never fault")
                    .cycles,
            );
        }
    }
}

/// Derives the per-layer metrics from the spans and counters.
pub fn metrics(spans: &[Span], c: &Counters) -> Vec<Metric> {
    let med = |name: &str, scale: f64| median(&durations(spans, name)) / scale;
    let per_cycle = |name: &str| {
        let (ns, _, cycles) = totals(spans, name);
        ns / cycles as f64
    };
    let per_op = |name: &str| {
        let (ns, ops, _) = totals(spans, name);
        ns / ops as f64
    };
    // Serial batched time over the batches the engine pass also ran, per
    // batch id, against the engine's time on them.
    let in_pass = |s: &Span, pass: &str| s.parent.is_some_and(|p| spans[p as usize].name == pass);
    let mut serial: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| {
        matches!(s.name, "exec.const_batch" | "exec.millicode_batch") && in_pass(s, "pass.batch")
    }) {
        *serial.entry(s.op).or_default() += s.ns();
    }
    let mut engine: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "exec.engine_batch") {
        *engine.entry(s.op).or_default() += s.ns();
    }
    let engine_ns: f64 = engine.values().sum();
    let serial_ns: f64 = engine.keys().filter_map(|id| serial.get(id)).sum();
    // Mean over batches of (engine at one worker − serial), in µs.
    let mut pairs: HashMap<u64, (f64, f64)> = HashMap::new();
    for s in spans {
        match s.name {
            "probe.serial" => pairs.entry(s.op).or_default().0 += s.ns(),
            "probe.engine1" => pairs.entry(s.op).or_default().1 += s.ns(),
            _ => {}
        }
    }
    let overhead_us = pairs.values().map(|(s, e)| (e - s) / 1e3).sum::<f64>() / pairs.len() as f64;
    let miss_ns: f64 = durations(spans, "core.lookup_miss").iter().sum();
    vec![
        ("divconst.plan_ms", med("divconst.plan", 1e6), "ms"),
        ("divconst.codegen_ms", med("divconst.codegen", 1e6), "ms"),
        ("divconst.triple_count", c.triple as f64, "count"),
        (
            "addchain.find_chain_us",
            med("addchain.find_chain", 1e3),
            "us",
        ),
        (
            "addchain.chain_steps",
            c.chain_steps as f64 / c.chains as f64,
            "steps",
        ),
        ("mulconst.codegen_us", med("mulconst.codegen", 1e3), "us"),
        ("pa_lint.lint_us", med("pa_lint.lint", 1e3), "us"),
        (
            "pa_lint.proved_ratio",
            c.proved as f64 / c.linted as f64,
            "ratio",
        ),
        ("pa_sim.prepare_us", med("pa_sim.prepare", 1e3), "us"),
        (
            "millicode.build_ms",
            durations(spans, "millicode.build").iter().sum::<f64>() / 1e6,
            "ms",
        ),
        (
            "pa_sim.const_ns_per_cycle",
            per_cycle("exec.const_batch"),
            "ns/cycle",
        ),
        (
            "pa_sim.millicode_ns_per_cycle",
            per_cycle("exec.millicode_batch"),
            "ns/cycle",
        ),
        (
            "pa_sim.stats_ns_per_cycle",
            per_cycle("exec.stats_batch"),
            "ns/cycle",
        ),
        ("core.engine_overhead_us", overhead_us, "us/batch"),
        ("core.engine_speedup", serial_ns / engine_ns, "ratio"),
        (
            "telemetry.capture_ns",
            per_op("probe.collect_in") - per_op("probe.collect_out"),
            "ns/op",
        ),
        ("core.cache_hit_ns", med("core.lookup_hit", 1.0), "ns"),
        (
            "core.cache_hit_ratio",
            c.cache_hits as f64 / c.cache_lookups as f64,
            "ratio",
        ),
        ("core.cache_miss_ms", miss_ns / 1e6, "ms"),
        (
            "core.call_overhead_ns",
            per_op("probe.calls") - per_op("probe.batch"),
            "ns/op",
        ),
    ]
}
