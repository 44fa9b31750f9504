//! `replay_batch` and `replay_calls`: the paper's §8 operand mix as a trace
//! of static sites, replayed batched (grouped by site) or one operation at
//! a time.
//!
//! Multiplies and divides are mixed as in the Gibson mix (3:1). Multiplies
//! follow Figure 5, with 91 % at constant sites whose constant is the
//! smaller operand; divides follow `DivMix`, with 45 % at constant sites.
//! Site popularity is Zipf-like within each kind, and the trace holds 128
//! distinct multipliers plus `DivMix`'s eight constant divisors: 136
//! distinct constants, just over the compile cache's default capacity of
//! 128.

use std::borrow::Cow;
use std::collections::HashSet;
use std::time::{Duration, Instant};

use hppa_muldiv::operand_dist::{
    DivMix, DivOp, Figure5Mix, InstructionMix, CONSTANT_OPERAND_PERCENT,
};
use hppa_muldiv::sim::{Machine, PreparedProgram};
use hppa_muldiv::{BatchOutcome, CompiledOp, Compiler, ParallelExecutor, Runtime, Session};

use crate::check::{self, Tally};
use crate::exec::{run_prepared, to_u32, with_stats, SHARD_CAPACITY};
use crate::layers::{self, Counters};
use crate::metrics::{rate, E2e};
use crate::trace;
use crate::util::{another_round, Checksum, Rng};
use crate::Outcome;

/// Operations in the trace.
const TRACE_OPS: usize = 600_000;
/// Distinct constant multipliers.
const MUL_CONSTANTS: usize = 128;
const DIV_CONST_SITES: usize = 24;
const MUL_VAR_SITES: usize = 16;
const DIV_VAR_SITES: usize = 24;
/// Exponent of the site-popularity law: site `r` (from 0) gets a share
/// proportional to `1 / (r + 1)^ZIPF_S` of its kind's operations, which
/// puts the busiest site near 10^5 operations.
const ZIPF_S: f64 = 1.2;
/// Seed of the sites: which constants the trace holds, at which
/// popularity. Fixed, as a program's static sites are, so that the seed
/// draws operands and arrival order and runs of different seeds compile and
/// cache the same constants.
const SITE_SEED: u64 = 0x0005_17e5;
/// The secondary passes run on the first `1 / PREFIX` of the trace.
const PREFIX: usize = 8;
/// Every this many rounds, every constant is compiled again on a fresh
/// compiler, so each constant's fastest cold compile draws on samples
/// spread over the run.
const COMPILE_EVERY: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Batch,
    Calls,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Mul(i32),
    Div(u32),
}

#[derive(Debug, Clone, Copy)]
enum Site {
    Const(usize),
    MulVar,
    DivVar,
}

/// One operation: its site, operands (as words) and expected value.
#[derive(Debug, Clone, Copy)]
struct Op {
    site: u32,
    a: u32,
    b: u32,
    want: u32,
}

struct Trace {
    sites: Vec<Site>,
    keys: Vec<Key>,
    /// Arrival order.
    ops: Vec<Op>,
}

enum Inputs {
    MulConst(Vec<i32>),
    DivConst(Vec<u32>),
    MulVar(Vec<(i32, i32)>),
    DivVar(Vec<(u32, u32)>),
}

/// A slice of the trace grouped by site, in site order.
struct Group {
    site: usize,
    key: Option<usize>,
    inputs: Inputs,
    want: Vec<u32>,
}

impl Group {
    fn len(&self) -> usize {
        self.want.len()
    }
}

fn zipf_counts(total: usize, sites: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..sites)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let sum: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| ((total as f64 * w / sum).round() as usize).max(1))
        .collect()
}

fn generate(seed: u64) -> Trace {
    let mut rng = Rng::new(seed);
    let mix = InstructionMix::gibson();
    let mul_ops =
        (TRACE_OPS as f64 * mix.mul_fraction / (mix.mul_fraction + mix.div_fraction)) as usize;
    let div_ops = TRACE_OPS - mul_ops;
    let mul_const_ops = mul_ops * CONSTANT_OPERAND_PERCENT as usize / 100;
    let div_mix = DivMix::default();
    let div_const_ops = div_ops * div_mix.constant_percent as usize / 100;
    let smaller = |(x, y): (i32, i32)| {
        if x.unsigned_abs() <= y.unsigned_abs() {
            (x, y)
        } else {
            (y, x)
        }
    };

    let mut keys: Vec<Key> = Vec::new();
    let mut sites: Vec<Site> = Vec::new();
    let mut key_index = std::collections::HashMap::new();
    let mut site_for = |key: Key, keys: &mut Vec<Key>| {
        let k = *key_index.entry(key).or_insert_with(|| {
            keys.push(key);
            keys.len() - 1
        });
        Site::Const(k)
    };
    // Constant multiply sites until the trace holds MUL_CONSTANTS distinct
    // multipliers, each the smaller operand of a Figure 5 pair.
    let mut mul_sites = Vec::new();
    let mut site_pairs = Figure5Mix::new()
        .pairs(SITE_SEED, 64 * MUL_CONSTANTS)
        .into_iter();
    while keys.len() < MUL_CONSTANTS {
        let (c, _) = smaller(site_pairs.next().expect("enough Figure 5 pairs"));
        mul_sites.push(site_for(Key::Mul(c), &mut keys));
    }
    // Constant divide sites: every DivMix constant divisor once, in the
    // order the stream first draws it, then further draws.
    let draws: Vec<u32> = div_mix
        .ops(SITE_SEED, 4096)
        .into_iter()
        .filter_map(|op| match op {
            DivOp::Constant { y, .. } => Some(y),
            DivOp::Variable { .. } => None,
        })
        .collect();
    let mut seen = HashSet::new();
    let (firsts, rest): (Vec<u32>, Vec<u32>) = draws.iter().partition(|&&y| seen.insert(y));
    let div_sites: Vec<Site> = firsts
        .into_iter()
        .chain(rest)
        .take(DIV_CONST_SITES)
        .map(|y| site_for(Key::Div(y), &mut keys))
        .collect();

    // Operands, drawn from the seed; rounding the site shares can take a
    // few more than the nominal counts.
    let mut pairs = Figure5Mix::new()
        .pairs(rng.next_u64(), mul_ops + 4096)
        .into_iter();
    let (mut div_consts, mut div_vars) = (Vec::new(), Vec::new());
    for op in div_mix.ops(rng.next_u64(), 2 * div_ops + 4096) {
        match op {
            DivOp::Constant { x, .. } => div_consts.push(x),
            DivOp::Variable { x, y } => div_vars.push((x, y)),
        }
    }
    let mut div_consts = div_consts.into_iter();
    let mut div_vars = div_vars.into_iter();

    let mut ops = Vec::with_capacity(TRACE_OPS + 4096);
    let add_kind = |kind_sites: Vec<Site>, total: usize, sites: &mut Vec<Site>| {
        let base = sites.len();
        let counts = zipf_counts(total, kind_sites.len());
        sites.extend(kind_sites);
        counts
            .into_iter()
            .enumerate()
            .map(|(r, n)| ((base + r) as u32, n))
            .collect::<Vec<_>>()
    };
    let mul_const = add_kind(mul_sites, mul_const_ops, &mut sites);
    let mul_var = add_kind(
        vec![Site::MulVar; MUL_VAR_SITES],
        mul_ops - mul_const_ops,
        &mut sites,
    );
    let div_const = add_kind(div_sites, div_const_ops, &mut sites);
    let div_var = add_kind(
        vec![Site::DivVar; DIV_VAR_SITES],
        div_ops - div_const_ops,
        &mut sites,
    );

    for (site, n) in mul_const {
        let Site::Const(k) = sites[site as usize] else {
            unreachable!()
        };
        let Key::Mul(c) = keys[k] else { unreachable!() };
        for _ in 0..n {
            let (_, x) = smaller(pairs.next().expect("enough Figure 5 pairs"));
            ops.push(Op {
                site,
                a: x as u32,
                b: 0,
                want: x.wrapping_mul(c) as u32,
            });
        }
    }
    for (site, n) in mul_var {
        for _ in 0..n {
            let (x, y) = pairs.next().expect("enough Figure 5 pairs");
            ops.push(Op {
                site,
                a: x as u32,
                b: y as u32,
                want: x.wrapping_mul(y) as u32,
            });
        }
    }
    for (site, n) in div_const {
        let Site::Const(k) = sites[site as usize] else {
            unreachable!()
        };
        let Key::Div(y) = keys[k] else { unreachable!() };
        for _ in 0..n {
            let x = div_consts.next().expect("enough DivMix draws");
            ops.push(Op {
                site,
                a: x,
                b: 0,
                want: x / y,
            });
        }
    }
    for (site, n) in div_var {
        for _ in 0..n {
            let (x, y) = div_vars.next().expect("enough DivMix draws");
            ops.push(Op {
                site,
                a: x,
                b: y,
                want: x / y,
            });
        }
    }
    rng.shuffle(&mut ops);
    Trace { sites, keys, ops }
}

impl Trace {
    fn group(&self, ops: &[Op]) -> Vec<Group> {
        let mut by_site: Vec<Vec<Op>> = vec![Vec::new(); self.sites.len()];
        for op in ops {
            by_site[op.site as usize].push(*op);
        }
        by_site
            .into_iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(site, ops)| {
                let want = ops.iter().map(|o| o.want).collect();
                let (key, inputs) = match self.sites[site] {
                    Site::Const(k) => (
                        Some(k),
                        match self.keys[k] {
                            Key::Mul(_) => {
                                Inputs::MulConst(ops.iter().map(|o| o.a as i32).collect())
                            }
                            Key::Div(_) => Inputs::DivConst(ops.iter().map(|o| o.a).collect()),
                        },
                    ),
                    Site::MulVar => (
                        None,
                        Inputs::MulVar(ops.iter().map(|o| (o.a as i32, o.b as i32)).collect()),
                    ),
                    Site::DivVar => (
                        None,
                        Inputs::DivVar(ops.iter().map(|o| (o.a, o.b)).collect()),
                    ),
                };
                Group {
                    site,
                    key,
                    inputs,
                    want,
                }
            })
            .collect()
    }

    fn is_mul(&self, site: usize) -> bool {
        match self.sites[site] {
            Site::Const(k) => matches!(self.keys[k], Key::Mul(_)),
            Site::MulVar => true,
            Site::DivVar => false,
        }
    }
}

/// What the benchmark holds after set-up: the runtimes, one compiled
/// routine per constant with its stats-on twin, and the engines.
struct Held {
    rt: Runtime,
    stats_rt: Runtime,
    keys: Vec<Key>,
    ops: Vec<CompiledOp>,
    stats_ops: Vec<PreparedProgram>,
    engines: Vec<ParallelExecutor>,
}

type Batch = hppa_muldiv::Result<BatchOutcome<u32>>;

/// Time, operations and per-group outcomes of one batched pass.
struct PassOut {
    took: Duration,
    ops: u64,
    results: Vec<Batch>,
}

/// Runs every group through `call`, one span per group.
fn batched(
    pass: &'static str,
    groups: &[Group],
    mut call: impl FnMut(&Group) -> (&'static str, Batch),
) -> PassOut {
    let _p = trace::enter(pass, 0);
    let t = Instant::now();
    let results = groups
        .iter()
        .map(|g| {
            let s = trace::enter("exec.batch", g.site as u64);
            let (name, out) = call(g);
            s.rename(name);
            s.count(g.len() as u64, out.as_ref().map_or(0, |o| o.cycles));
            out
        })
        .collect();
    PassOut {
        took: t.elapsed(),
        ops: groups.iter().map(|g| g.len() as u64).sum(),
        results,
    }
}

fn pass_batch(held: &Held, groups: &[Group], session: &mut Session) -> PassOut {
    batched("pass.batch", groups, |g| match (&g.inputs, g.key) {
        (Inputs::MulConst(xs), Some(k)) => (
            "exec.const_batch",
            held.ops[k].run_batch_i32(xs).map(to_u32),
        ),
        (Inputs::DivConst(xs), Some(k)) => ("exec.const_batch", held.ops[k].run_batch_u32(xs)),
        (Inputs::MulVar(pairs), _) => {
            ("exec.millicode_batch", session.mul_batch(pairs).map(to_u32))
        }
        (Inputs::DivVar(pairs), _) => ("exec.millicode_batch", session.div_dispatch_batch(pairs)),
        _ => unreachable!("constant groups carry a key"),
    })
}

fn pass_engine(held: &Held, groups: &[Group]) -> PassOut {
    batched("pass.engine", groups, |g| {
        let out = match (&g.inputs, g.key.map(|k| (k, held.keys[k]))) {
            (Inputs::MulConst(xs), Some((k, Key::Mul(c)))) => held.engines[k / SHARD_CAPACITY]
                .mul_const_batch(c.into(), xs)
                .map(to_u32),
            (Inputs::DivConst(xs), Some((k, Key::Div(y)))) => {
                held.engines[k / SHARD_CAPACITY].udiv_const_batch(y, xs)
            }
            (Inputs::MulVar(pairs), _) => held.engines[0].mul_batch(pairs).map(to_u32),
            (Inputs::DivVar(pairs), _) => held.engines[0].div_dispatch_batch(pairs),
            _ => unreachable!("constant groups carry their own kind of key"),
        };
        ("exec.engine_batch", out)
    })
}

fn pass_stats(held: &Held, groups: &[Group], session: &mut Session) -> PassOut {
    let mut machine = Machine::new();
    batched("pass.stats", groups, |g| {
        let out = match (&g.inputs, g.key) {
            (Inputs::MulConst(xs), Some(k)) => run_prepared(
                &held.stats_ops[k],
                &mut machine,
                xs.iter().map(|&x| x as u32),
            ),
            (Inputs::DivConst(xs), Some(k)) => {
                run_prepared(&held.stats_ops[k], &mut machine, xs.iter().copied())
            }
            (Inputs::MulVar(pairs), _) => session.mul_batch(pairs).map(to_u32),
            (Inputs::DivVar(pairs), _) => session.div_dispatch_batch(pairs),
            _ => unreachable!("constant groups carry a key"),
        };
        ("exec.stats_batch", out)
    })
}

/// Where a per-call replay gets its constant routines.
enum Via<'a> {
    /// The routines held since set-up: no cache on the path.
    Held,
    /// A lookup in the shared compiler per call. `last` holds the routine
    /// each key's previous lookup returned: a lookup that returns another
    /// program was a miss that recompiled (the held routine keeps the old
    /// program alive, so its address cannot be reused).
    Compiler(&'a Compiler, &'a mut Vec<Option<CompiledOp>>),
}

/// Per-call results in arrival order, and simulated cycles split by
/// multiply and divide.
struct CallsOut {
    took: Duration,
    results: Vec<hppa_muldiv::Result<(u32, u64)>>,
}

fn pass_calls(trace_: &Trace, held: &Held, ops: &[Op], mut via: Via<'_>) -> CallsOut {
    let _p = trace::enter("pass.calls", 0);
    let t = Instant::now();
    let mut lookup = |k: usize, i: usize| -> hppa_muldiv::Result<Cow<'_, CompiledOp>> {
        match &mut via {
            Via::Held => Ok(Cow::Borrowed(&held.ops[k])),
            Via::Compiler(compiler, last) => {
                let s = trace::enter_detail("core.lookup_hit", i as u64);
                let op = match held.keys[k] {
                    Key::Mul(c) => compiler.mul_const(c.into()),
                    Key::Div(y) => compiler.udiv_const(y),
                }?;
                if trace::on() {
                    let previous = last[k].replace(op.clone());
                    if previous.is_none_or(|p| !std::ptr::eq(p.program(), op.program())) {
                        s.rename("core.lookup_miss");
                    }
                }
                Ok(Cow::Owned(op))
            }
        }
    };
    let results = ops
        .iter()
        .enumerate()
        .map(|(i, o)| match trace_.sites[o.site as usize] {
            Site::Const(k) => match held.keys[k] {
                Key::Mul(_) => {
                    let op = lookup(k, i)?;
                    Ok((op.run_i32(o.a as i32)? as u32, op.len() as u64))
                }
                Key::Div(_) => {
                    let op = lookup(k, i)?;
                    Ok((op.run_u32(o.a)?, op.len() as u64))
                }
            },
            Site::MulVar => held
                .rt
                .mul(o.a as i32, o.b as i32)
                .map(|r| (r.value as u32, r.cycles)),
            Site::DivVar => held.rt.div_dispatch(o.a, o.b).map(|r| (r.value, r.cycles)),
        })
        .collect();
    CallsOut {
        took: t.elapsed(),
        results,
    }
}

/// Builds one compiled routine per constant through `compiler`.
fn compile(compiler: &Compiler, key: Key) -> hppa_muldiv::Result<CompiledOp> {
    match key {
        Key::Mul(c) => compiler.mul_const(c.into()),
        Key::Div(y) => compiler.udiv_const(y),
    }
}

/// Compiles every constant once through `via(k)`, timing each compile;
/// returns the routines.
fn compile_pass<'a>(
    keys: &[Key],
    e2e: &mut E2e,
    span: &'static str,
    via: impl Fn(usize) -> &'a Compiler,
) -> Vec<CompiledOp> {
    keys.iter()
        .enumerate()
        .map(|(k, &key)| {
            let s = trace::enter(span, k as u64);
            let t = Instant::now();
            let op = compile(via(k), key).expect("trace constants compile");
            let took = t.elapsed();
            drop(s);
            e2e.add_compile(k as u64, matches!(key, Key::Div(_)), took);
            op
        })
        .collect()
}

/// Everything one replay process drives.
struct Replay<'a> {
    mode: Mode,
    trace: &'a Trace,
    held: &'a Held,
    full: &'a [Group],
    prefix: &'a [Group],
    prefix_ops: &'a [Op],
    compiler: &'a Compiler,
    last: Vec<Option<CompiledOp>>,
    session: Session,
    stats_session: Session,
    /// Draws each round's per-call order.
    rng: Rng,
    /// `[divide, multiply]` cycles of the first whole-trace pass.
    whole_cycles: Option<[u64; 2]>,
}

impl Replay<'_> {
    fn calls(&mut self, ops: &[Op]) -> CallsOut {
        let via = match self.mode {
            Mode::Batch => Via::Held,
            Mode::Calls => Via::Compiler(self.compiler, &mut self.last),
        };
        pass_calls(self.trace, self.held, ops, via)
    }

    /// One round of passes. `e2e` is `None` for the warm-up round.
    fn round(&mut self, tally: &mut Tally, e2e: Option<&mut E2e>) {
        let held = self.held;
        let batch_groups = match self.mode {
            Mode::Batch => self.full,
            Mode::Calls => self.prefix,
        };
        let batch = pass_batch(held, batch_groups, &mut self.session);
        let engine = pass_engine(held, batch_groups);
        let stats = pass_stats(held, self.prefix, &mut self.stats_session);
        // A per-call replay takes the whole trace in a new seeded order each
        // round, so that which constants the cache evicts averages over
        // arrival orders; a batched replay's per-call pass takes the prefix.
        let order = match self.mode {
            Mode::Batch => self.prefix_ops.to_vec(),
            Mode::Calls => {
                let mut order = self.trace.ops.clone();
                self.rng.shuffle(&mut order);
                order
            }
        };
        let calls = self.calls(&order);

        // Serial batched: every value, and straight-line cycles.
        let batch_cycles = self.check_groups(tally, batch_groups, &batch, "batch");
        for (g, out) in batch_groups.iter().zip(&batch.results) {
            if let (Some(k), Ok(out)) = (g.key, out) {
                let want = held.ops[k].len() as u64 * g.len() as u64;
                if out.cycles != want {
                    tally.wrong(format!(
                        "site {}: {} cycles, want {want}",
                        g.site, out.cycles
                    ));
                }
            }
        }
        // Engine: every value, and the same checksum and cycles as serial.
        let engine_cycles = self.check_groups(tally, batch_groups, &engine, "engine");
        let checksum = |out: &PassOut| {
            let mut sum = Checksum::default();
            for values in out.results.iter().flatten() {
                values.values.iter().for_each(|&v| sum.add(v));
            }
            sum
        };
        if checksum(&batch) != checksum(&engine) || batch_cycles != engine_cycles {
            tally.wrong(format!(
                "engine pass differs from serial: cycles {engine_cycles:?} vs {batch_cycles:?}"
            ));
        }
        // Per call: every value; cycles by kind.
        let mut call_cycles = [0u64; 2];
        tally.attempt(calls.results.len() as u64);
        for (i, (op, got)) in order.iter().zip(&calls.results).enumerate() {
            match got {
                Ok((v, c)) if *v == op.want => {
                    call_cycles[usize::from(self.trace.is_mul(op.site as usize))] += c;
                }
                _ => tally.wrong(format!(
                    "call {i} (site {}): got {got:?}, want {}",
                    op.site, op.want
                )),
            }
        }
        // Stats on: every value, and the same cycles as the other pass over
        // the prefix.
        let stats_cycles = self.check_groups(tally, self.prefix, &stats, "stats");
        let prefix_cycles = match self.mode {
            Mode::Batch => call_cycles,
            Mode::Calls => batch_cycles,
        };
        if stats_cycles != prefix_cycles {
            tally.wrong(format!(
                "stats pass: {stats_cycles:?} cycles, want {prefix_cycles:?}"
            ));
        }
        // The pass over the whole trace: the same cycles every round.
        let whole = match self.mode {
            Mode::Batch => batch_cycles,
            Mode::Calls => call_cycles,
        };
        if *self.whole_cycles.get_or_insert(whole) != whole {
            tally.wrong(format!(
                "whole-trace cycles {whole:?} differ from the first round's"
            ));
        }

        let Some(e2e) = e2e else {
            return;
        };
        let [div, mul] = whole;
        let ops = &self.trace.ops;
        let mul_ops = ops
            .iter()
            .filter(|o| self.trace.is_mul(o.site as usize))
            .count() as u64;
        e2e.mul.0 += mul;
        e2e.mul.1 += mul_ops;
        e2e.div.0 += div;
        e2e.div.1 += ops.len() as u64 - mul_ops;
        e2e.batch.push(rate(batch.ops, batch.took));
        e2e.engine.push(rate(engine.ops, engine.took));
        e2e.stats.push(rate(stats.ops, stats.took));
        e2e.call.push(rate(order.len() as u64, calls.took));
    }

    /// Checks every group's values; returns the pass's simulated cycles as
    /// `[divide, multiply]`.
    fn check_groups(
        &self,
        tally: &mut Tally,
        groups: &[Group],
        out: &PassOut,
        what: &str,
    ) -> [u64; 2] {
        let mut cycles = [0u64; 2];
        tally.attempt(out.ops);
        for (g, got) in groups.iter().zip(&out.results) {
            match got {
                Ok(got) => {
                    tally.check_values(&got.values, &g.want, || format!("{what} site {}", g.site));
                    cycles[usize::from(self.trace.is_mul(g.site))] += got.cycles;
                }
                Err(e) => tally.wrong(format!("{what} site {}: {e}", g.site)),
            }
        }
        cycles
    }
}

pub fn run(mode: Mode, seed: u64, seconds: u64, t0: Instant) -> Outcome {
    let mut tally = Tally::default();
    let mut e2e = E2e::default();
    let mut counters = Counters::default();
    let tr = generate(seed);
    let full = tr.group(&tr.ops);
    let prefix_ops = &tr.ops[..tr.ops.len() / PREFIX];
    let prefix = tr.group(prefix_ops);
    describe(&tr, &full);

    let rt = {
        let _s = trace::enter("setup.runtime", 0);
        Runtime::new().expect("the runtime builds")
    };
    let stats_rt = {
        let _s = trace::enter("setup.stats_runtime", 0);
        Runtime::builder()
            .stats(true)
            .build()
            .expect("the runtime builds")
    };
    let real = rt.mul(6, 7).expect("6 * 7 runs").value;
    if !check::self_test(real as u32) {
        tally.wrong("self-test: a deliberately wrong result was not flagged".into());
    }
    let engines: Vec<ParallelExecutor> = (0..tr.keys.len().div_ceil(SHARD_CAPACITY))
        .map(|_| rt.engine())
        .collect();
    let compiler = Compiler::new();
    // Cold compiles of every constant: through the engines that will hold
    // them for a batched replay, or through the shared compiler that a
    // per-call replay looks them up in.
    let ops = compile_pass(&tr.keys, &mut e2e, "core.lookup_miss", |k| match mode {
        Mode::Batch => engines[k / SHARD_CAPACITY].compiler(),
        Mode::Calls => &compiler,
    });
    if mode == Mode::Calls {
        let _s = trace::enter("setup.engine_warm", 0);
        for (k, &key) in tr.keys.iter().enumerate() {
            compile(engines[k / SHARD_CAPACITY].compiler(), key).expect("trace constants compile");
        }
    }
    let stats_ops = ops.iter().map(with_stats).collect();
    let held = Held {
        rt,
        stats_rt,
        keys: tr.keys.clone(),
        ops,
        stats_ops,
        engines,
    };
    let mut replay = Replay {
        mode,
        trace: &tr,
        held: &held,
        full: &full,
        prefix: &prefix,
        prefix_ops,
        compiler: &compiler,
        last: vec![None; tr.keys.len()],
        session: held.rt.session(),
        stats_session: held.stats_rt.session(),
        rng: Rng::new(seed ^ 0x0bde_5eed),
        whole_cycles: None,
    };
    {
        let _w = trace::enter("setup.warm_up", 0);
        trace::set_detail(false);
        replay.round(&mut tally, None);
        trace::set_detail(true);
    }
    e2e.setup_s = t0.elapsed().as_secs_f64();

    let cache_stats = || match mode {
        Mode::Calls => compiler.cache_stats(),
        Mode::Batch => held.engines.iter().flat_map(|e| e.cache_stats()).collect(),
    };
    let before = cache_stats();
    let timed = Instant::now();
    let mut rounds = 0u64;
    while another_round(timed, rounds, seconds) {
        let _r = trace::enter("round", rounds);
        replay.round(&mut tally, Some(&mut e2e));
        trace::set_detail(false);
        rounds += 1;
        if rounds.is_multiple_of(COMPILE_EVERY) {
            let fresh = Compiler::new();
            compile_pass(&tr.keys, &mut e2e, "core.compile", |_| &fresh);
        }
    }
    counters.add_cache(&before, &cache_stats());
    eprintln!(
        "{mode:?}: {rounds} rounds; cache hits {} of {} lookups",
        counters.cache_hits, counters.cache_lookups
    );
    if trace::on() {
        replay.probe(&mut counters);
    }
    Outcome {
        tally,
        e2e,
        counters,
    }
}

impl Replay<'_> {
    /// Layer probes on the trace's constants and operands (traced mode).
    fn probe(&mut self, counters: &mut Counters) {
        let _p = trace::enter("probe.layers", 0);
        let held = self.held;
        for &key in &held.keys {
            match key {
                Key::Mul(c) => layers::probe_multiplier(counters, c.into()),
                Key::Div(y) => layers::probe_divisor(counters, y.into(), false),
            }
        }
        for (k, op) in held.ops.iter().enumerate() {
            layers::probe_routine(counters, op, k as u64);
        }
        layers::probe_millicode_build();
        let mul_batches: Vec<Vec<(i32, i32)>> = self
            .full
            .iter()
            .filter_map(|g| match &g.inputs {
                Inputs::MulVar(pairs) => Some(pairs.clone()),
                _ => None,
            })
            .collect();
        layers::probe_engine_and_capture(&held.engines[0], &mut self.session, &mul_batches);
        if self.mode == Mode::Batch {
            for (k, &key) in held.keys.iter().enumerate() {
                let _s = trace::enter("core.lookup_hit", k as u64);
                std::hint::black_box(
                    compile(held.engines[k / SHARD_CAPACITY].compiler(), key).ok(),
                );
            }
        }
        // Per call against batched, over the same operations.
        let prefix_ops = self.prefix_ops;
        let n = prefix_ops.len() as u64;
        {
            let s = trace::enter("probe.calls", 0);
            let was = trace::suspend();
            std::hint::black_box(self.calls(prefix_ops));
            trace::resume(was);
            s.count(n, 0);
        }
        let s = trace::enter("probe.batch", 0);
        let was = trace::suspend();
        std::hint::black_box(pass_batch(held, self.prefix, &mut self.session));
        trace::resume(was);
        s.count(n, 0);
    }
}

/// Prints the trace's make-up to stderr.
fn describe(tr: &Trace, full: &[Group]) {
    let sizes = |pick: fn(&Inputs) -> bool| {
        let mut n: Vec<usize> = full
            .iter()
            .filter(|g| pick(&g.inputs))
            .map(Group::len)
            .collect();
        n.sort_unstable();
        format!(
            "{} sites, {} ops, batches {}..={}",
            n.len(),
            n.iter().sum::<usize>(),
            n.first().copied().unwrap_or(0),
            n.last().copied().unwrap_or(0)
        )
    };
    eprintln!(
        "trace: {} ops, {} distinct constants ({} multipliers)",
        tr.ops.len(),
        tr.keys.len(),
        tr.keys.iter().filter(|k| matches!(k, Key::Mul(_))).count()
    );
    eprintln!(
        "  constant multiplies: {}",
        sizes(|i| matches!(i, Inputs::MulConst(_)))
    );
    eprintln!(
        "  variable multiplies: {}",
        sizes(|i| matches!(i, Inputs::MulVar(_)))
    );
    eprintln!(
        "  constant divides:    {}",
        sizes(|i| matches!(i, Inputs::DivConst(_)))
    );
    eprintln!(
        "  variable divides:    {}",
        sizes(|i| matches!(i, Inputs::DivVar(_)))
    );
}
