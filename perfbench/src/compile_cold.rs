//! `compile_cold`: one fresh default compiler per round compiles a fixed,
//! seeded corpus, each constant once, so every compile misses the cache;
//! each routine then runs on boundary and seeded inputs through every
//! execution path.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use hppa_muldiv::mulconst::CodegenError;
use hppa_muldiv::sim::Machine;
use hppa_muldiv::{BatchOutcome, CompiledOp, Compiler, Error, ParallelExecutor, Runtime};
use oracle::reference::mul_checked_chain;

use crate::check::{self, Expect, Known, Tally};
use crate::exec::{run_prepared, to_u32, with_stats, SHARD_CAPACITY};
use crate::layers::{self, Counters};
use crate::metrics::{rate, E2e};
use crate::trace;
use crate::util::{another_round, Rng};
use crate::Outcome;

/// Seeded divisor draws; each gives five divide or remainder compiles.
const DIV_DRAWS: usize = 18;
/// Seeded multiplier magnitudes beyond the fixed −100..=100.
const MUL_DRAWS: usize = 200;
/// Seeded inputs per routine, after the boundary inputs.
const SEEDED_INPUTS: usize = 16;
/// Seed of the constants. Fixed, so that every run compiles the same
/// corpus and the spread between runs is timing, not corpus make-up; the
/// run's seed draws the inputs each routine runs on.
const CORPUS_SEED: u64 = 0xc0_1d;
/// Times each routine runs its inputs on each execution path; the fastest
/// counts. The routines are short, so one run is too brief to time.
const REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Udiv(u32),
    Urem(u32),
    Sdiv(i32),
    Srem(i32),
    Mul(i64),
    MulChecked(i64),
}

impl Kind {
    fn compile(self, c: &Compiler) -> hppa_muldiv::Result<CompiledOp> {
        match self {
            Kind::Udiv(y) => c.udiv_const(y),
            Kind::Urem(y) => c.urem_const(y),
            Kind::Sdiv(y) => c.sdiv_const(y),
            Kind::Srem(y) => c.srem_const(y),
            Kind::Mul(n) => c.mul_const(n),
            Kind::MulChecked(n) => c.mul_const_checked(n),
        }
    }

    fn is_div(self) -> bool {
        !matches!(self, Kind::Mul(_) | Kind::MulChecked(_))
    }

    /// Whether the routine reads and writes `i32`.
    fn signed(self) -> bool {
        !matches!(self, Kind::Udiv(_) | Kind::Urem(_))
    }

    /// Multiplies and unsigned divides are branch-free, so every completed
    /// run takes exactly `len()` cycles.
    fn straight_line(self) -> bool {
        !matches!(self, Kind::Sdiv(_) | Kind::Srem(_))
    }

    fn expect(self, x: u32) -> Expect {
        let xi = x as i32;
        match self {
            Kind::Udiv(y) => Expect::Value(x / y),
            Kind::Urem(y) => Expect::Value(x % y),
            Kind::Sdiv(y) => Expect::Value(xi.wrapping_div(y) as u32),
            Kind::Srem(y) => Expect::Value(xi.wrapping_rem(y) as u32),
            Kind::Mul(n) => Expect::Value(xi.wrapping_mul(n as i32) as u32),
            Kind::MulChecked(n) => {
                mul_checked_chain(xi, n as i32).map_or(Expect::Trap, |v| Expect::Value(v as u32))
            }
        }
    }

    /// The known fault a mismatch on input `x` is.
    fn known(self, x: u32) -> Option<Known> {
        (self == Kind::MulChecked(-1) && x == i32::MIN as u32).then_some(Known::F1)
    }

    /// Boundary inputs (0, ±1, 2, `i32::MIN`, `i32::MAX`, `u32::MAX`, and
    /// `k·y±1` around the divisor's first and last multiples, or around
    /// the multiplier's overflow threshold), then seeded ones.
    fn inputs(self, rng: &mut Rng) -> Vec<u32> {
        let mut xs = vec![
            0,
            1,
            2,
            u32::MAX,
            u32::MAX - 1,
            0x8000_0000,
            0x8000_0001,
            0x7FFF_FFFF,
        ];
        let around = |base: i64| [base - 1, base, base + 1];
        match self {
            Kind::Udiv(y) | Kind::Urem(y) => {
                let m = i64::from(y);
                let last = i64::from(u32::MAX) / m * m;
                xs.extend(around(m).into_iter().chain(around(last)).map(|v| v as u32));
            }
            Kind::Sdiv(y) | Kind::Srem(y) => {
                let m = i64::from(y.unsigned_abs());
                let last = i64::from(i32::MAX) / m * m;
                xs.extend(around(m).into_iter().chain(around(-last)).map(|v| v as u32));
            }
            Kind::Mul(n) | Kind::MulChecked(n) => {
                let k = i64::from(i32::MAX) / n.abs().max(1);
                xs.extend(around(k).into_iter().chain(around(-k)).map(|v| v as u32));
            }
        }
        for i in 0..SEEDED_INPUTS {
            xs.push(if i % 2 == 0 {
                // i32::MIN stays a boundary input only, so that the known
                // fault F1 shows on the same inputs whatever the seed.
                loop {
                    let x = rng.next_u32();
                    if x != i32::MIN as u32 {
                        break x;
                    }
                }
            } else {
                let m = rng.log_uniform(1, 31) as i64;
                rng.signed(m) as u32
            });
        }
        xs
    }

    fn call(self, op: &CompiledOp, x: u32) -> Result<u32, Error> {
        if self.signed() {
            op.run_i32(x as i32).map(|v| v as u32)
        } else {
            op.run_u32(x)
        }
    }

    fn batch(self, op: &CompiledOp, xs: &[u32]) -> hppa_muldiv::Result<BatchOutcome<u32>> {
        if self.signed() {
            let xs: Vec<i32> = xs.iter().map(|&x| x as i32).collect();
            op.run_batch_i32(&xs).map(to_u32)
        } else {
            op.run_batch_u32(xs)
        }
    }

    /// Runs the inputs through the engine, for the kinds it has a batch
    /// entry point for.
    fn engine(
        self,
        engine: &ParallelExecutor,
        xs: &[u32],
    ) -> Option<hppa_muldiv::Result<BatchOutcome<u32>>> {
        match self {
            Kind::Mul(n) => {
                let xs: Vec<i32> = xs.iter().map(|&x| x as i32).collect();
                Some(engine.mul_const_batch(n, &xs).map(to_u32))
            }
            Kind::Udiv(y) => Some(engine.udiv_const_batch(y, xs)),
            _ => None,
        }
    }
}

struct Item {
    kind: Kind,
    inputs: Vec<u32>,
    expect: Vec<Expect>,
    /// The inputs that complete, and their values: what a batch can run.
    ok_inputs: Vec<u32>,
    ok_values: Vec<u32>,
}

fn corpus(seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(CORPUS_SEED);
    let mut kinds: Vec<Kind> = (2..=20).map(Kind::Udiv).collect();
    let mut seen_u: HashSet<u32> = (2..=20).collect();
    let mut seen_s: HashSet<i32> = HashSet::new();
    for i in 0..DIV_DRAWS {
        let y = loop {
            let y = rng.log_uniform(21, 32) as u32;
            if seen_u.insert(y) {
                break y;
            }
        };
        let m = loop {
            let m = rng.log_uniform(2, 31) as i32;
            if seen_s.insert(m) {
                break m;
            }
        };
        let srem = if i % 2 == 0 { m } else { -m };
        kinds.extend([
            Kind::Udiv(y),
            Kind::Urem(y),
            Kind::Sdiv(m),
            Kind::Sdiv(-m),
            Kind::Srem(srem),
        ]);
    }
    let mut muls: Vec<i64> = (-100..=100).collect();
    let mut seen_m: HashSet<i64> = muls.iter().copied().collect();
    while muls.len() < 201 + MUL_DRAWS {
        let m = rng.log_uniform(101, 31) as i64;
        let n = rng.signed(m);
        if seen_m.insert(n) {
            muls.push(n);
        }
    }
    kinds.extend(
        muls.iter()
            .flat_map(|&n| [Kind::Mul(n), Kind::MulChecked(n)]),
    );
    let mut rng = Rng::new(seed);
    kinds
        .into_iter()
        .map(|kind| {
            let inputs = kind.inputs(&mut rng);
            let expect: Vec<Expect> = inputs.iter().map(|&x| kind.expect(x)).collect();
            let (ok_inputs, ok_values) = inputs
                .iter()
                .zip(&expect)
                .filter_map(|(&x, e)| match e {
                    Expect::Value(v) => Some((x, *v)),
                    Expect::Trap => None,
                })
                .unzip();
            Item {
                kind,
                inputs,
                expect,
                ok_inputs,
                ok_values,
            }
        })
        .collect()
}

/// Runs `f` `REPEATS` times, each inside a span for item `id` that counts
/// `ops` and the simulated cycles `cycles` reads off the output, and
/// returns the fastest time and the first output; every repeat must return
/// the same output.
fn repeat<T: PartialEq>(
    tally: &mut Tally,
    span: &'static str,
    id: usize,
    ops: usize,
    mut f: impl FnMut() -> T,
    cycles: impl Fn(&T) -> u64,
) -> (Duration, T) {
    let mut times = Vec::with_capacity(REPEATS);
    let mut first = None;
    for _ in 0..REPEATS {
        let s = trace::enter(span, id as u64);
        let t = Instant::now();
        let out = f();
        times.push(t.elapsed());
        s.count(ops as u64, cycles(&out));
        match &first {
            None => first = Some(out),
            Some(first) if *first != out => tally.wrong(format!("{span} {id}: repeats differ")),
            Some(_) => {}
        }
    }
    let fastest = times.into_iter().min().expect("at least one repeat");
    (fastest, first.expect("at least one repeat"))
}

/// Each routine's fastest time on one execution path over the run, with
/// its operation count. Rounds run seconds apart, so the fastest of them
/// sees the host at its quietest.
#[derive(Default)]
struct Fastest(BTreeMap<usize, (Duration, usize)>);

impl Fastest {
    fn add(&mut self, item: usize, took: Duration, ops: usize) {
        let fastest = self.0.entry(item).or_insert((took, ops));
        fastest.0 = fastest.0.min(took);
    }

    fn rate(&self) -> f64 {
        let (took, ops) = self
            .0
            .values()
            .fold((Duration::ZERO, 0), |(t, o), &(d, n)| (t + d, o + n as u64));
        rate(ops, took)
    }
}

pub fn run(seed: u64, seconds: u64, t0: Instant) -> Outcome {
    let mut tally = Tally::default();
    let mut e2e = E2e::default();
    let mut counters = Counters::default();
    let items = corpus(seed);
    let rt = {
        let _s = trace::enter("setup.runtime", 0);
        Runtime::new().expect("the runtime builds")
    };
    let real = Compiler::new()
        .mul_const(10)
        .and_then(|op| op.run_i32(7))
        .expect("x * 10 compiles and runs");
    if !check::self_test(real as u32) {
        tally.wrong("self-test: a deliberately wrong result was not flagged".into());
    }
    e2e.setup_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "compile_cold: {} routines ({} divides), {} inputs each",
        items.len(),
        items.iter().filter(|i| i.kind.is_div()).count(),
        items[0].inputs.len()
    );

    let timed = Instant::now();
    let mut round = 0u64;
    let mut last: Vec<Option<CompiledOp>> = Vec::new();
    let mut paths: [Fastest; 4] = Default::default();
    while another_round(timed, round, seconds) {
        let _r = trace::enter("round", round);
        let engine = rt.engine();
        let before = engine.compiler().cache_stats();
        last = run_round(&items, &engine, &mut tally, &mut e2e, &mut paths);
        counters.add_cache(&before, &engine.compiler().cache_stats());
        round += 1;
    }
    let [calls, batch, parallel, stats] = &paths;
    e2e.call.push(calls.rate());
    e2e.batch.push(batch.rate());
    e2e.engine.push(parallel.rate());
    e2e.stats.push(stats.rate());
    eprintln!("compile_cold: {round} rounds");

    if trace::on() {
        probe(&items, &last, &rt, &mut counters);
    }
    Outcome {
        tally,
        e2e,
        counters,
    }
}

/// Compiles the items in chunks, running each chunk's routines through
/// every execution path right after: the engine finds a constant in the
/// compiler's cache only while it is resident, which a chunk no larger
/// than a cache shard guarantees, and the short timings of each routine
/// spread over the whole round instead of one burst.
fn run_round(
    items: &[Item],
    engine: &ParallelExecutor,
    tally: &mut Tally,
    e2e: &mut E2e,
    paths: &mut [Fastest; 4],
) -> Vec<Option<CompiledOp>> {
    let compiler = engine.compiler();
    let mut ops: Vec<Option<CompiledOp>> = Vec::with_capacity(items.len());
    let _p = trace::enter("pass.compile", 0);
    for (c, chunk) in items.chunks(SHARD_CAPACITY).enumerate() {
        let base = c * SHARD_CAPACITY;
        for (i, item) in chunk.iter().enumerate().map(|(j, item)| (base + j, item)) {
            let s = trace::enter("core.lookup_miss", i as u64);
            let t = Instant::now();
            let compiled = item.kind.compile(compiler);
            let took = t.elapsed();
            drop(s);
            e2e.add_compile(i as u64, item.kind.is_div(), took);
            tally.attempt(1);
            ops.push(match compiled {
                Ok(op) => Some(op),
                Err(e) => {
                    let known = (item.kind == Kind::MulChecked(0)
                        && e == Error::MulCodegen(CodegenError::NotOverflowSafe))
                    .then_some(Known::F2);
                    tally.mismatch(known, || format!("compile {:?}: {e}", item.kind));
                    None
                }
            });
        }
        for (i, item) in chunk.iter().enumerate().map(|(j, item)| (base + j, item)) {
            let Some(op) = &ops[i] else { continue };
            if trace::on() {
                // A lookup of a constant compiled in this chunk is a hit.
                let _h = trace::enter("core.lookup_hit", i as u64);
                std::hint::black_box(item.kind.compile(compiler).ok());
            }
            run_item(i, item, op, engine, tally, e2e, paths);
        }
    }
    ops
}

/// Runs one routine per call on every input, then batched, through the
/// engine and with simulator statistics on the inputs that complete, and
/// checks every output.
fn run_item(
    i: usize,
    item: &Item,
    op: &CompiledOp,
    engine: &ParallelExecutor,
    tally: &mut Tally,
    e2e: &mut E2e,
    [calls, batch, parallel, stats]: &mut [Fastest; 4],
) {
    let kind = item.kind;
    let (took, got) = repeat(
        tally,
        "exec.calls",
        i,
        item.inputs.len(),
        || {
            item.inputs
                .iter()
                .map(|&x| kind.call(op, x))
                .collect::<Vec<_>>()
        },
        |_| 0,
    );
    calls.add(i, took, item.inputs.len());
    tally.attempt(item.inputs.len() as u64);
    let mut ok_cycles = 0u64;
    for ((&x, want), got) in item.inputs.iter().zip(&item.expect).zip(&got) {
        tally.check(got, *want, kind.known(x), || format!("{kind:?} on {x:#x}"));
        if got.is_err() {
            continue;
        }
        let cycles = op.cycles_for(x);
        if kind.straight_line() && cycles != op.len() as u64 {
            tally.wrong(format!(
                "{kind:?} on {x:#x}: {cycles} cycles, but {} instructions",
                op.len()
            ));
        }
        let acc = if kind.is_div() {
            &mut e2e.div
        } else {
            &mut e2e.mul
        };
        acc.0 += cycles;
        acc.1 += 1;
        if matches!(want, Expect::Value(_)) {
            ok_cycles += cycles;
        }
    }

    let serial = {
        let _b = trace::enter("pass.batch", i as u64);
        let (took, out) = repeat(
            tally,
            "exec.const_batch",
            i,
            item.ok_inputs.len(),
            || kind.batch(op, &item.ok_inputs),
            |out| out.as_ref().map_or(0, |o| o.cycles),
        );
        batch.add(i, took, item.ok_inputs.len());
        out
    };
    match &serial {
        Ok(out) => {
            tally.check_values(&out.values, &item.ok_values, || format!("{kind:?} batch"));
            if out.cycles != ok_cycles {
                tally.wrong(format!(
                    "{kind:?} batch: {} cycles, per call {ok_cycles}",
                    out.cycles
                ));
            }
        }
        Err(e) => tally.wrong(format!("{kind:?} batch: {e}")),
    }

    if matches!(kind, Kind::Mul(_) | Kind::Udiv(_)) {
        let (took, out) = repeat(
            tally,
            "exec.engine_batch",
            i,
            item.inputs.len(),
            || kind.engine(engine, &item.inputs),
            |out| {
                out.as_ref()
                    .map_or(0, |o| o.as_ref().map_or(0, |o| o.cycles))
            },
        );
        parallel.add(i, took, item.inputs.len());
        // Every input completes for these kinds, so the serial batch ran
        // them all: values and cycles must agree.
        match (out, &serial) {
            (Some(Ok(out)), Ok(serial))
                if out.values == serial.values && out.cycles == serial.cycles => {}
            (out, _) => tally.wrong(format!("{kind:?} engine differs from serial: {out:?}")),
        }
    }

    let prepared = with_stats(op);
    let mut machine = Machine::new();
    let (took, out) = repeat(
        tally,
        "exec.stats_batch",
        i,
        item.ok_inputs.len(),
        || run_prepared(&prepared, &mut machine, item.ok_inputs.iter().copied()),
        |out| out.as_ref().map_or(0, |o| o.cycles),
    );
    stats.add(i, took, item.ok_inputs.len());
    match out {
        Ok(out) if out.cycles == ok_cycles => {
            tally.check_values(&out.values, &item.ok_values, || {
                format!("{kind:?} with stats")
            });
        }
        out => tally.wrong(format!(
            "{kind:?} with stats: {out:?}, want {ok_cycles} cycles"
        )),
    }
}

/// Layer probes on the corpus (traced mode only).
fn probe(items: &[Item], ops: &[Option<CompiledOp>], rt: &Runtime, counters: &mut Counters) {
    let _p = trace::enter("probe.layers", 0);
    let mut muls = HashSet::new();
    for item in items {
        match item.kind {
            Kind::Udiv(y) => layers::probe_divisor(counters, y.into(), false),
            Kind::Sdiv(y) => layers::probe_divisor(counters, y.into(), true),
            Kind::Mul(n) if muls.insert(n) => layers::probe_multiplier(counters, n),
            _ => {}
        }
    }
    for (i, op) in ops.iter().enumerate() {
        if let Some(op) = op {
            layers::probe_routine(counters, op, i as u64);
        }
    }
    layers::probe_millicode_build();

    let mut session = rt.session();
    let mul_pairs: Vec<Vec<(i32, i32)>> = items
        .iter()
        .filter_map(|item| match item.kind {
            Kind::Mul(n) => Some(item.inputs.iter().map(|&x| (n as i32, x as i32)).collect()),
            _ => None,
        })
        .collect();
    {
        let _m = trace::enter("pass.millicode", 0);
        for (i, pairs) in mul_pairs.iter().enumerate() {
            let s = trace::enter("exec.millicode_batch", i as u64);
            let out = session.mul_batch(pairs).expect("multiplies never fault");
            s.count(pairs.len() as u64, out.cycles);
        }
        for (i, item) in items.iter().enumerate() {
            if let Kind::Udiv(y) = item.kind {
                let pairs: Vec<(u32, u32)> = item.inputs.iter().map(|&x| (x, y)).collect();
                let s = trace::enter("exec.millicode_batch", i as u64);
                let out = session
                    .div_dispatch_batch(&pairs)
                    .expect("non-zero divisors");
                s.count(pairs.len() as u64, out.cycles);
            }
        }
    }
    layers::probe_engine_and_capture(&rt.engine(), &mut session, &mul_pairs);

    // Per call against batched, on routines whose every input completes.
    for (i, (item, op)) in items.iter().zip(ops).enumerate() {
        let Some(op) = op
            .as_ref()
            .filter(|_| item.ok_inputs.len() == item.inputs.len())
        else {
            continue;
        };
        let n = item.inputs.len() as u64;
        {
            let s = trace::enter("probe.calls", i as u64);
            for &x in &item.inputs {
                std::hint::black_box(item.kind.call(op, x).ok());
            }
            s.count(n, 0);
        }
        let s = trace::enter("probe.batch", i as u64);
        std::hint::black_box(item.kind.batch(op, &item.inputs).ok());
        s.count(n, 0);
    }
}
