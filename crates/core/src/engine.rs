//! The parallel execution service: a worker pool over the millicode
//! routines and the sharded compile cache.
//!
//! [`ParallelExecutor`] partitions a batch into contiguous chunks, one per
//! worker thread. Each worker owns its own [`pa_sim::Machine`] (via a
//! private [`Session`]) and shares the runtime's prepared routines and the
//! compiler's sharded cache by `Arc`, so the expensive work — chain search,
//! magic derivation, preparation — is paid once process-wide no matter
//! how many threads run.
//!
//! # Determinism
//!
//! Results are **bit-identical to the serial batch methods for any worker
//! count**:
//!
//! * chunks are contiguous and merged back in chunk order, so `values`,
//!   `rems` and the summed `cycles` equal a serial run exactly;
//! * every worker's telemetry events are captured and re-emitted on the
//!   calling thread in chunk order, so strategy histograms are identical
//!   to serial no matter how the OS schedules the workers;
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

/// A worker-pool batch executor sharing one runtime's routines and one
/// sharded compile cache across `workers` threads.
///
/// Obtain one from [`Runtime::engine`](crate::Runtime::engine); configure
/// the pool with [`RuntimeBuilder::workers`](crate::RuntimeBuilder::workers)
/// and [`RuntimeBuilder::cache_shards`](crate::RuntimeBuilder::cache_shards).
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
    pub(crate) fn new(
        routines: Arc<Routines>,
        workers: NonZeroUsize,
        cache_shards: NonZeroUsize,
    ) -> ParallelExecutor {
        let mut builder = Compiler::builder()
            .overflow(routines.exec.overflow)
            .max_cycles(routines.exec.max_cycles)
            .stats(routines.exec.stats)
            .cache_shards(cache_shards.get());
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

    /// Worker threads batches are partitioned across.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// A new executor over the **same** routines and the **same** sharded
    /// compile cache, but a different pool width. Cheap — nothing is
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

    /// The compiler whose sharded cache this engine's constant-operation
    /// batches go through. Clones of it share the same cache.
    #[must_use]
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Per-shard hit/miss/eviction statistics of the shared compile cache.
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

    /// Compiles `x * n` once (through the shared sharded cache) and runs
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

    /// Compiles unsigned `x / y` once (through the shared sharded cache)
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

    /// Runs one contiguous chunk with panic isolation. The whole chunk —
    /// including the armed worker-kill check — executes inside
    /// `catch_unwind` inside `telemetry::collect`, so a panicking worker
    /// surfaces as [`Error::WorkerPanicked`] with every event it emitted
    /// before dying preserved; nothing unwinds across the pool. In this
    /// engine chunks are assigned one per worker in order, so the worker
    /// index and the chunk index are the same number.
    fn run_chunk<P, T, F>(
        run: &F,
        routines: Arc<Routines>,
        chunk: &[P],
        index: usize,
    ) -> (Vec<telemetry::Event>, Result<BatchOutcome<T>>)
    where
        P: Sync,
        T: Send,
        F: Fn(Arc<Routines>, &[P]) -> Result<BatchOutcome<T>> + Sync,
    {
        let plan = routines.exec.fault_plan.clone();
        let (caught, events) = telemetry::collect(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &plan {
                    if plan.kills_worker(index) {
                        telemetry::emit(|| telemetry::Event::FaultInjected {
                            kind: "worker-kill",
                            target: format!("worker {index}"),
                            at: index as u64,
                        });
                        panic!("chaos: injected worker kill (worker {index})");
                    }
                }
                run(routines, chunk)
            }))
        });
        let result = caught.unwrap_or(Err(Error::WorkerPanicked {
            worker: index,
            chunk: index,
        }));
        (events, result)
    }

    /// The partition/execute/merge core. `run` executes one contiguous
    /// chunk and must be pure per chunk (every closure we pass resets its
    /// machine per call), which is what makes the merge deterministic.
    fn fan_out<P, T, F>(&self, label: &'static str, items: &[P], run: F) -> Result<BatchOutcome<T>>
    where
        P: Sync,
        T: Send,
        F: Fn(Arc<Routines>, &[P]) -> Result<BatchOutcome<T>> + Sync,
    {
        let mut span = telemetry::span::enter_with(label, || {
            format!("{} ops / {} workers", items.len(), self.workers)
        });
        if items.is_empty() || self.workers.get() == 1 {
            // Inline, but through the same isolation as the pooled path: a
            // worker-kill drill aimed at worker 0 — and any other panic —
            // must surface as a typed error even when the pool is one
            // thread wide. Events are collected and re-emitted in order,
            // which is exactly the stream a serial batch produces.
            let (events, result) =
                ParallelExecutor::run_chunk(&run, Arc::clone(&self.routines), items, 0);
            for event in events {
                telemetry::emit(move || event);
            }
            let out = result?;
            span.add_cycles(out.cycles);
            return Ok(out);
        }

        let chunk_len = items.len().div_ceil(self.workers.get());
        let chunks: Vec<(Vec<telemetry::Event>, Result<BatchOutcome<T>>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = items
                    .chunks(chunk_len)
                    .enumerate()
                    .map(|(index, chunk)| {
                        let run = &run;
                        let routines = Arc::clone(&self.routines);
                        scope.spawn(move || {
                            let mut worker_span =
                                telemetry::span::enter_with("engine_worker", || {
                                    format!("worker {index}: {} ops", chunk.len())
                                });
                            let (events, result) =
                                ParallelExecutor::run_chunk(run, routines, chunk, index);
                            if let Ok(out) = &result {
                                worker_span.add_cycles(out.cycles);
                            }
                            (events, result)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(index, h)| {
                        // Belt and braces: `run_chunk` already contains
                        // panics, so a failed join can only mean a panic
                        // outside it (say, in span bookkeeping). Surface
                        // that as the same typed error, never a torn batch.
                        h.join().unwrap_or_else(|_| {
                            (
                                Vec::new(),
                                Err(Error::WorkerPanicked {
                                    worker: index,
                                    chunk: index,
                                }),
                            )
                        })
                    })
                    .collect()
            });

        let mut values = Vec::with_capacity(items.len());
        let mut rems: Option<Vec<T>> = None;
        let mut cycles = 0u64;
        for (events, result) in chunks {
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

    #[test]
    fn parallel_batches_match_serial_for_every_worker_count() {
        let pairs: Vec<(i32, i32)> = (0..53).map(|i| (i * 7919 - 1000, 3 - i * 101)).collect();
        let div_pairs: Vec<(u32, u32)> = (0..53)
            .map(|i| (u32::MAX - i * 1_000_003, 1 + i % 25))
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
                "{workers} workers"
            );
            assert_eq!(
                engine.div_dispatch_batch(&div_pairs).unwrap(),
                dispatch_serial,
                "{workers} workers"
            );
            assert_eq!(
                engine.div_unsigned_batch(&div_pairs).unwrap(),
                udiv_serial,
                "{workers} workers"
            );
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
        let pairs: Vec<(i32, i32)> = (0..37).map(|i| (i * 31, 5 - i)).collect();
        let serial_rt = runtime();
        let (_, serial_events) = telemetry::collect(|| serial_rt.mul_batch(&pairs).unwrap());
        let engine = engine_with(4);
        let (_, parallel_events) = telemetry::collect(|| engine.mul_batch(&pairs).unwrap());
        assert_eq!(
            format!("{serial_events:?}"),
            format!("{parallel_events:?}"),
            "event streams must be identical, not just histogram-equal"
        );
    }
}
