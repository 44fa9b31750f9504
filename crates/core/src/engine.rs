//! The parallel execution service: a worker pool over the millicode
//! routines and the compile cache.
//!
//! [`ParallelExecutor`] partitions a batch into contiguous chunks, one per
//! logical worker, and runs those chunks on only as many threads as the
//! batch repays: one per `MIN_OPS_PER_THREAD` items, at most one per chunk.
//! The calling thread runs the first group of chunks itself, so a small
//! batch spawns nothing. Each chunk runs on its own [`pa_sim::Machine`]
//! (via a private [`Session`]) and shares the runtime's prepared routines
//! and the compiler's cache by `Arc`, so the expensive work — chain
//! search, magic derivation, preparation — is paid once process-wide no
//! matter how many threads run.
//!
//! # Determinism
//!
//! Results are **bit-identical to the serial batch methods for any worker
//! count**:
//!
//! * chunks are contiguous and merged back in chunk order, so `values`,
//!   `rems` and the summed `cycles` equal a serial run exactly;
//! * when the caller collects telemetry, every chunk's events are captured
//!   and re-emitted on the calling thread in chunk order, so strategy
//!   histograms are identical to serial no matter which thread ran which
//!   chunk or how the OS scheduled them;
//! * on failure, the error reported is the one the serial run would have
//!   hit first: chunks partition the input in order, so the lowest-index
//!   failing chunk contains the globally first failing pair, and within a
//!   chunk the session stops at its first failure.
//!
//! Each simulated machine is reset before every call, so per-pair cycle
//! counts cannot depend on which worker ran the pair.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::cache::CacheShardStats;
use crate::compiler::Compiler;
use crate::runtime::Routines;
use crate::session::{BatchOutcome, Session};
use crate::{Error, Result};

/// The fewest items a spawned thread must take to repay its spawn and
/// join: 28–43 µs for one scoped thread on a two-vCPU x86-64 host, against
/// 34–46 ns per compiled constant multiply (the cheapest operation), so a
/// thread breaks even near 600–1,300 items when the second vCPU is free.
/// 4,096 leaves margin for when it is not; docs/PARALLEL.md has the numbers.
const MIN_OPS_PER_THREAD: usize = 4096;

/// A worker-pool batch executor sharing one runtime's routines and one
/// compile cache across `workers` logical workers.
///
/// Obtain one from [`Runtime::engine`](crate::Runtime::engine); configure
/// the pool with [`RuntimeBuilder::workers`](crate::RuntimeBuilder::workers).
/// Constant operations compile on the calling thread, so workers never
/// take the cache's lock.
///
/// # Example
///
/// ```
/// use hppa_muldiv::Runtime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rt = Runtime::builder().workers(4).build()?;
/// let engine = rt.engine();
/// let pairs: Vec<(i32, i32)> = (1..100).map(|i| (i, i + 7)).collect();
/// let parallel = engine.mul_batch(&pairs)?;
/// let serial = rt.mul_batch(&pairs)?;
/// assert_eq!(parallel, serial); // values, rems, and cycles all match
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParallelExecutor {
    routines: Arc<Routines>,
    workers: NonZeroUsize,
    compiler: Compiler,
}

impl ParallelExecutor {
    pub(crate) fn new(routines: Arc<Routines>, workers: NonZeroUsize) -> ParallelExecutor {
        let mut builder = Compiler::builder()
            .overflow(routines.exec.overflow)
            .max_cycles(routines.exec.max_cycles)
            .stats(routines.exec.stats);
        if let Some(plan) = &routines.exec.fault_plan {
            // Chaos drills flow through: compiled-op batches execute under
            // the plan, and a shard-poison plan arms the shared cache.
            builder = builder.fault_plan(plan.clone());
        }
        let compiler = builder.build();
        ParallelExecutor {
            routines,
            workers,
            compiler,
        }
    }

    /// Logical workers batches are partitioned across, one contiguous
    /// chunk each. A batch runs on at most this many threads, and on fewer
    /// when it is too small to repay a thread's spawn.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// A new executor over the **same** routines and the **same** compile
    /// cache, but a different pool width. Cheap — nothing is
    /// recompiled or re-prepared — so it is the natural way to measure
    /// scaling across thread counts.
    ///
    /// # Errors
    ///
    /// [`crate::Error::InvalidConfig`] when `workers` is zero.
    pub fn with_workers(&self, workers: usize) -> Result<ParallelExecutor> {
        let workers = NonZeroUsize::new(workers)
            .ok_or(crate::Error::InvalidConfig("workers must be non-zero"))?;
        Ok(ParallelExecutor {
            routines: Arc::clone(&self.routines),
            workers,
            compiler: self.compiler.clone(),
        })
    }

    /// The compiler whose cache this engine's constant-operation
    /// batches go through. Clones of it share the same cache.
    #[must_use]
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Hit/miss/eviction statistics of the shared compile cache, as exactly
    /// one entry (see [`Compiler::cache_stats`]).
    #[must_use]
    pub fn cache_stats(&self) -> Vec<CacheShardStats> {
        self.compiler.cache_stats()
    }

    /// Multiplies every pair via the §6 switched routine, partitioned
    /// across the worker pool.
    ///
    /// # Errors
    ///
    /// Fails like the serial batch: on the first pair that faults.
    pub fn mul_batch(&self, pairs: &[(i32, i32)]) -> Result<BatchOutcome<i32>> {
        self.fan_out("parallel_mul_batch", pairs, |routines, chunk| {
            Session::new(routines).mul_batch(chunk)
        })
    }

    /// Divides every pair through the §7 small-divisor dispatch,
    /// partitioned across the worker pool.
    ///
    /// # Errors
    ///
    /// Fails on the first zero divisor (the one a serial run hits first).
    pub fn div_dispatch_batch(&self, pairs: &[(u32, u32)]) -> Result<BatchOutcome<u32>> {
        self.fan_out("parallel_div_dispatch_batch", pairs, |routines, chunk| {
            Session::new(routines).div_dispatch_batch(chunk)
        })
    }

    /// Divides every pair through the general `DS`/`ADDC` routine,
    /// collecting remainders, partitioned across the worker pool.
    ///
    /// # Errors
    ///
    /// Fails on the first zero divisor (the one a serial run hits first).
    pub fn div_unsigned_batch(&self, pairs: &[(u32, u32)]) -> Result<BatchOutcome<u32>> {
        self.fan_out("parallel_div_unsigned_batch", pairs, |routines, chunk| {
            Session::new(routines).div_unsigned_batch(chunk)
        })
    }

    /// Compiles `x * n` once (through the shared compile cache) and runs
    /// the inputs through it, partitioned across the worker pool.
    ///
    /// # Errors
    ///
    /// Compile errors, or the first input that traps.
    pub fn mul_const_batch(&self, n: i64, inputs: &[i32]) -> Result<BatchOutcome<i32>> {
        // Compile on the calling thread so cache hit/miss telemetry does
        // not depend on which worker wins the race.
        let op = self.compiler.mul_const(n)?;
        self.fan_out("parallel_mul_const_batch", inputs, move |_, chunk| {
            op.run_batch_i32(chunk)
        })
    }

    /// Compiles unsigned `x / y` once (through the shared compile cache)
    /// and runs the inputs through it, partitioned across the worker pool.
    ///
    /// # Errors
    ///
    /// Compile errors ([`crate::Error::DivideByZero`] for `y = 0`), or the
    /// first input that traps.
    pub fn udiv_const_batch(&self, y: u32, inputs: &[u32]) -> Result<BatchOutcome<u32>> {
        let op = self.compiler.udiv_const(y)?;
        self.fan_out("parallel_udiv_const_batch", inputs, move |_, chunk| {
            op.run_batch_u32(chunk)
        })
    }

    /// Runs chunk `index`, which is logical worker `index`, with panic
    /// isolation, on whichever thread the placement gave it. The chunk —
    /// including the armed worker-kill check — executes inside
    /// `catch_unwind`, so a panicking worker surfaces as
    /// [`Error::WorkerPanicked`] and nothing unwinds across the pool. When
    /// the caller is `collecting`, it also runs inside `telemetry::collect`,
    /// and every event it emitted before finishing or dying comes back for
    /// the caller to re-emit in chunk order; otherwise nothing is captured.
    fn run_chunk<P, T, F>(
        &self,
        run: &F,
        chunk: &[P],
        index: usize,
        collecting: bool,
    ) -> (Vec<telemetry::Event>, Result<BatchOutcome<T>>)
    where
        F: Fn(Arc<Routines>, &[P]) -> Result<BatchOutcome<T>>,
    {
        let kill = self
            .routines
            .exec
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.kills_worker(index));
        let isolated = || {
            catch_unwind(AssertUnwindSafe(|| {
                if kill {
                    telemetry::emit(|| telemetry::Event::FaultInjected {
                        kind: "worker-kill",
                        target: format!("worker {index}"),
                        at: index as u64,
                    });
                    panic!("chaos: injected worker kill (worker {index})");
                }
                run(Arc::clone(&self.routines), chunk)
            }))
            .unwrap_or(Err(Error::WorkerPanicked {
                worker: index,
                chunk: index,
            }))
        };
        if collecting {
            let (result, events) = telemetry::collect(isolated);
            (events, result)
        } else {
            (Vec::new(), isolated())
        }
    }

    /// The partition/place/execute/merge core. `run` executes one
    /// contiguous chunk and must be pure per chunk (every closure we pass
    /// resets its machine per call), which is what makes the merge
    /// deterministic whichever thread runs a chunk.
    fn fan_out<P, T, F>(&self, label: &'static str, items: &[P], run: F) -> Result<BatchOutcome<T>>
    where
        P: Sync,
        T: Send,
        F: Fn(Arc<Routines>, &[P]) -> Result<BatchOutcome<T>> + Sync,
    {
        let mut span = telemetry::span::enter_with(label, || {
            format!("{} ops / {} workers", items.len(), self.workers)
        });
        // The logical partition fixes every result, the event order and
        // the worker-kill targets. An empty batch is one empty chunk, so a
        // kill aimed at worker 0 fires at every width.
        let chunks: Vec<&[P]> = match items.len().div_ceil(self.workers.get()) {
            0 => vec![items],
            chunk_len => items.chunks(chunk_len).collect(),
        };
        // The placement: each thread runs a contiguous group of chunks, and
        // a thread exists only where it has MIN_OPS_PER_THREAD items to
        // repay its spawn. The calling thread runs the first group.
        let threads = (items.len() / MIN_OPS_PER_THREAD).clamp(1, chunks.len());
        let group = |g: usize| g * chunks.len() / threads..(g + 1) * chunks.len() / threads;
        let collecting = telemetry::is_collecting();
        let run_group = |g: usize| -> Vec<_> {
            group(g)
                .map(|index| self.run_chunk(&run, chunks[index], index, collecting))
                .collect()
        };
        let runs = std::thread::scope(|scope| {
            let run_group = &run_group;
            let spawned: Vec<_> = (1..threads)
                .map(|g| (g, scope.spawn(move || run_group(g))))
                .collect();
            let mut runs = run_group(0);
            for (g, handle) in spawned {
                // Belt and braces: `run_chunk` already contains panics, so
                // a failed join can only mean a panic outside it. Surface
                // that as the same typed error on the group's first chunk,
                // never a torn batch.
                runs.extend(handle.join().unwrap_or_else(|_| {
                    let index = group(g).start;
                    vec![(
                        Vec::new(),
                        Err(Error::WorkerPanicked {
                            worker: index,
                            chunk: index,
                        }),
                    )]
                }));
            }
            runs
        });

        let mut values = Vec::with_capacity(items.len());
        let mut rems: Option<Vec<T>> = None;
        let mut cycles = 0u64;
        for (events, result) in runs {
            // Re-emit this chunk's events on the calling thread before
            // surfacing its error, mirroring a serial run that emits for
            // every pair up to the first failure.
            for event in events {
                telemetry::emit(move || event);
            }
            let out = result?;
            values.extend(out.values);
            if let Some(r) = out.rems {
                rems.get_or_insert_with(Vec::new).extend(r);
            }
            cycles += out.cycles;
        }
        span.add_cycles(cycles);
        Ok(BatchOutcome {
            values,
            rems,
            cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::{Error, Runtime};

    /// Runtime construction assembles and prepares five millicode
    /// routines — expensive in debug builds — so every test shares one.
    fn runtime() -> &'static Runtime {
        static RT: OnceLock<Runtime> = OnceLock::new();
        RT.get_or_init(|| Runtime::new().unwrap())
    }

    fn engine_with(workers: usize) -> ParallelExecutor {
        static ENGINE: OnceLock<ParallelExecutor> = OnceLock::new();
        ENGINE
            .get_or_init(|| runtime().engine())
            .with_workers(workers)
            .unwrap()
    }

    #[test]
    fn executor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParallelExecutor>();
    }

    /// Batch lengths covering both placements: one that every width runs
    /// on the calling thread, and one long enough that two or more workers
    /// split it across threads.
    const LENGTHS: [u32; 2] = [53, 2 * MIN_OPS_PER_THREAD as u32 + 53];

    #[test]
    fn parallel_batches_match_serial_for_every_worker_count() {
        for len in LENGTHS {
            let pairs: Vec<(i32, i32)> = (0..len as i32)
                .map(|i| (i * 7919 - 1000, 3 - i * 101))
                .collect();
            let div_pairs: Vec<(u32, u32)> = (0..len)
                .map(|i| (u32::MAX.wrapping_sub(i.wrapping_mul(1_000_003)), 1 + i % 25))
                .collect();
            let serial_rt = runtime();
            let mul_serial = serial_rt.mul_batch(&pairs).unwrap();
            let dispatch_serial = serial_rt.div_dispatch_batch(&div_pairs).unwrap();
            let udiv_serial = serial_rt.session().div_unsigned_batch(&div_pairs).unwrap();
            for workers in [1, 2, 4, 8] {
                let engine = engine_with(workers);
                assert_eq!(
                    engine.mul_batch(&pairs).unwrap(),
                    mul_serial,
                    "{len} pairs, {workers} workers"
                );
                assert_eq!(
                    engine.div_dispatch_batch(&div_pairs).unwrap(),
                    dispatch_serial,
                    "{len} pairs, {workers} workers"
                );
                assert_eq!(
                    engine.div_unsigned_batch(&div_pairs).unwrap(),
                    udiv_serial,
                    "{len} pairs, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn empty_batches_work() {
        let engine = engine_with(4);
        let out = engine.mul_batch(&[]).unwrap();
        assert_eq!(out.ops(), 0);
        assert_eq!(out.cycles, 0);
    }

    #[test]
    fn const_batches_share_the_cache_and_match_direct_runs() {
        let engine = engine_with(4);
        let inputs: Vec<i32> = (-500..500).collect();
        let out = engine.mul_const_batch(129, &inputs).unwrap();
        for (i, &x) in inputs.iter().enumerate() {
            assert_eq!(out.values[i], x * 129);
        }
        // Second run of the same constant is a cache hit.
        engine.mul_const_batch(129, &inputs).unwrap();
        let stats = engine.cache_stats();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        assert!(hits >= 1, "{stats:?}");
        let uin: Vec<u32> = (0..1000).collect();
        let udiv = engine.udiv_const_batch(7, &uin).unwrap();
        for (i, &x) in uin.iter().enumerate() {
            assert_eq!(udiv.values[i], x / 7);
        }
        assert_eq!(engine.udiv_const_batch(0, &uin), Err(Error::DivideByZero));
    }

    #[test]
    fn first_error_matches_serial_semantics() {
        // Zero divisor in the middle: every worker count must report the
        // same error a serial run hits, and nothing else.
        let mut pairs: Vec<(u32, u32)> = (0..40).map(|i| (1000 + i, 1 + i % 9)).collect();
        pairs[17].1 = 0;
        for workers in [1, 2, 4, 8] {
            let engine = engine_with(workers);
            assert_eq!(
                engine.div_dispatch_batch(&pairs),
                Err(Error::DivideByZero),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn parallel_events_equal_serial_events_in_order() {
        for len in LENGTHS {
            let pairs: Vec<(i32, i32)> = (0..len as i32).map(|i| (i * 31, 5 - i)).collect();
            let (_, serial_events) = telemetry::collect(|| runtime().mul_batch(&pairs).unwrap());
            for workers in [1, 2, 4, 8] {
                let engine = engine_with(workers);
                let (_, parallel_events) = telemetry::collect(|| engine.mul_batch(&pairs).unwrap());
                assert_eq!(
                    format!("{serial_events:?}"),
                    format!("{parallel_events:?}"),
                    "{len} pairs, {workers} workers: event streams must be identical, \
                     not just histogram-equal"
                );
            }
        }
    }

    #[test]
    fn threads_are_spawned_only_for_batches_that_repay_them() {
        // Session batches open a `mul_batch` span per chunk, and only the
        // calling thread has a trace scope, so the spans show which chunks
        // ran there. At two workers a 30-pair batch is two chunks of 15,
        // too small to repay a thread: the caller runs both. A batch of
        // 2 × MIN_OPS_PER_THREAD pairs splits, and the caller runs its half.
        let engine = engine_with(2);
        let caller_chunks = |len: usize| -> Vec<String> {
            let pairs: Vec<(i32, i32)> = (0..len as i32).map(|i| (i, 3 - i)).collect();
            let (_, spans) = telemetry::span::trace(|| engine.mul_batch(&pairs).unwrap());
            spans
                .into_iter()
                .filter(|s| s.name == "mul_batch")
                .map(|s| s.label)
                .collect()
        };
        assert_eq!(caller_chunks(30), ["15 pairs", "15 pairs"]);
        assert_eq!(
            caller_chunks(2 * MIN_OPS_PER_THREAD),
            [format!("{MIN_OPS_PER_THREAD} pairs")]
        );
    }
}
