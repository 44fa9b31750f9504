//! The `hppa metrics` / `pa-run --metrics` builder: fold workload reports,
//! span traces and simulator statistics into a
//! [`telemetry::metrics::Registry`] ready for export.
//!
//! `telemetry` cannot depend on `pa-sim` (the simulator depends on it for
//! spans), so the SimStats → registry feeding lives here in the tools layer.

use hppa_muldiv::CacheShardStats;
use telemetry::metrics::Registry;

use crate::report::{self, WorkloadReport};

/// Replays the paper workloads under a span trace and folds everything —
/// workload counters, per-opcode counts, region attribution, strategy
/// histograms, and the span stream itself — into one registry.
#[must_use]
pub fn paper_metrics() -> Registry {
    let (workloads, spans) = telemetry::span::trace(report::paper_workloads);
    let mut registry = registry_from_workloads(&workloads);
    registry.record_spans(&spans);
    // Drive the §5 constant range through the compile cache twice — a miss
    // pass and a hit pass — so the cache series export live values rather
    // than zeros.
    let compiler = hppa_muldiv::Compiler::new();
    for _ in 0..2 {
        for n in 2..=33i64 {
            let _ = compiler.mul_const(n);
        }
    }
    record_cache(&mut registry, &compiler.cache_stats());
    registry
}

/// Folds compile-cache statistics into the registry: the
/// `hppa_cache_{hits,misses,evictions,recoveries}_total` counters and the
/// `hppa_cache_entries` gauge, unlabelled. `stats` is what
/// [`Compiler::cache_stats`](hppa_muldiv::Compiler::cache_stats) returns
/// (one entry); several caches' snapshots are summed.
pub fn record_cache(reg: &mut Registry, stats: &[CacheShardStats]) {
    for s in stats {
        reg.inc_counter("hppa_cache_hits_total", &[], s.hits);
        reg.inc_counter("hppa_cache_misses_total", &[], s.misses);
        reg.inc_counter("hppa_cache_evictions_total", &[], s.evictions);
        reg.inc_counter("hppa_cache_recoveries_total", &[], s.recoveries);
    }
    let entries: usize = stats.iter().map(|s| s.entries).sum();
    reg.set_gauge("hppa_cache_entries", &[], entries as f64);
}

/// Folds finished workload reports into a registry (no spans).
#[must_use]
pub fn registry_from_workloads(workloads: &[WorkloadReport]) -> Registry {
    let mut reg = Registry::new();
    for w in workloads {
        let labels = [("workload", w.workload)];
        reg.inc_counter("hppa_workload_cycles_total", &labels, w.cycles);
        reg.inc_counter("hppa_workload_executed_total", &labels, w.executed);
        reg.inc_counter("hppa_workload_nullified_total", &labels, w.nullified);
        reg.observe("hppa_workload_cycles", &[], w.cycles);
        for (opcode, count) in &w.per_opcode {
            reg.inc_counter("hppa_opcode_executed_total", &[("opcode", opcode)], *count);
        }
        for (strategy, count) in &w.strategy_histogram {
            reg.inc_counter("hppa_strategy_total", &[("strategy", strategy)], *count);
        }
        for region in &w.regions {
            let region_labels = [("workload", w.workload), ("label", &*region.label)];
            reg.inc_counter("hppa_region_cycles_total", &region_labels, region.cycles);
            reg.inc_counter(
                "hppa_region_taken_branches_total",
                &region_labels,
                region.taken_branches,
            );
        }
    }
    reg
}

/// Folds one `pa-run` execution (its [`pa_sim::RunResult`], with stats
/// enabled) into a registry for the `--metrics` flag.
#[must_use]
pub fn registry_for_run(result: &pa_sim::RunResult) -> Registry {
    let mut reg = Registry::new();
    reg.inc_counter("pa_run_cycles_total", &[], result.cycles);
    reg.inc_counter("pa_run_executed_total", &[], result.executed);
    reg.inc_counter("pa_run_nullified_total", &[], result.nullified);
    reg.inc_counter("pa_run_taken_branches_total", &[], result.taken_branches);
    if let Some(stats) = result.stats.as_deref() {
        reg.inc_counter("pa_run_traps_total", &[], stats.traps);
        reg.inc_counter("pa_run_faults_total", &[], stats.faults);
        for (opcode, count) in stats.per_opcode() {
            reg.inc_counter("pa_run_opcode_executed_total", &[("opcode", opcode)], count);
        }
        for region in &stats.regions {
            reg.inc_counter(
                "pa_run_region_cycles_total",
                &[("label", &*region.label)],
                region.cycles,
            );
        }
    }
    reg
}

/// Renders a registry in the requested format (`"prometheus"` or
/// `"json"`).
///
/// # Errors
///
/// Names the unknown format.
pub fn render(registry: &Registry, format: &str) -> Result<String, String> {
    match format {
        "prometheus" => Ok(registry.to_prometheus()),
        "json" => Ok(registry.to_json().to_pretty_string()),
        other => Err(format!(
            "unknown metrics format `{other}` (expected `prometheus` or `json`)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::Json;

    #[test]
    fn paper_metrics_cover_workloads_strategies_and_spans() {
        let reg = paper_metrics();
        let cycles = reg
            .counter(
                "hppa_workload_cycles_total",
                &[("workload", "figure5_switched_multiply")],
            )
            .expect("figure5 counter present");
        assert!(cycles > 0);
        // The interpreter's execute span fires for every workload run.
        let executes = reg
            .counter("hppa_span_total", &[("name", "execute")])
            .expect("execute spans recorded");
        assert!(executes > 0);
        // Region counters partition each workload's cycle counter.
        let divide = reg
            .counter(
                "hppa_workload_cycles_total",
                &[("workload", "general_divide")],
            )
            .unwrap();
        assert!(divide > 0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE hppa_workload_cycles_total counter"));
        assert!(text.contains("hppa_strategy_total{strategy="));
        assert!(text.contains("hppa_region_cycles_total{"));
    }

    #[test]
    fn run_registry_reports_traps_and_regions() {
        let mut b = pa_isa::ProgramBuilder::new();
        b.ldi(3, pa_isa::Reg::R1);
        let top = b.here("loop");
        b.addib(-1, pa_isa::Reg::R1, pa_isa::Cond::Ne, top);
        let p = b.build().unwrap();
        let (_, result) = pa_sim::run_fn(&p, &[], &pa_sim::ExecConfig::default().with_stats());
        let reg = registry_for_run(&result);
        assert_eq!(reg.counter("pa_run_cycles_total", &[]), Some(result.cycles));
        assert_eq!(reg.counter("pa_run_traps_total", &[]), Some(0));
        assert_eq!(
            reg.counter("pa_run_region_cycles_total", &[("label", "loop")]),
            Some(3)
        );
        assert_eq!(
            reg.counter("pa_run_taken_branches_total", &[]),
            Some(result.taken_branches)
        );
    }

    #[test]
    fn cache_series_fold_hits_misses_evictions_and_residency() {
        let compiler = hppa_muldiv::Compiler::builder().cache_capacity(3).build();
        for _ in 0..2 {
            for n in [3i64, 5, 7, 9] {
                let _ = compiler.mul_const(n);
            }
        }
        let stats = compiler.cache_stats();
        assert_eq!(stats.len(), 1);
        let mut reg = Registry::new();
        record_cache(&mut reg, &stats);
        // Four distinct constants cycled twice through three slots: the
        // exact LRU always evicts the next key wanted, so every lookup
        // misses and every insert past the third evicts.
        assert_eq!(reg.counter("hppa_cache_misses_total", &[]), Some(8));
        assert_eq!(reg.counter("hppa_cache_hits_total", &[]), Some(0));
        assert_eq!(reg.counter("hppa_cache_evictions_total", &[]), Some(5));
        assert_eq!(reg.counter("hppa_cache_recoveries_total", &[]), Some(0));
        assert_eq!(reg.gauge("hppa_cache_entries", &[]), Some(3.0));
        // And the hppa metrics entry point exports the same series, with no
        // shard label.
        let text = paper_metrics().to_prometheus();
        assert!(text.contains("\nhppa_cache_hits_total 32\n"), "{text}");
        assert!(text.contains("\nhppa_cache_entries 32\n"), "{text}");
        assert!(!text.contains("shard"), "{text}");
    }

    #[test]
    fn render_supports_both_formats_and_rejects_others() {
        let mut reg = Registry::new();
        reg.inc_counter("x_total", &[], 1);
        assert!(render(&reg, "prometheus").unwrap().contains("x_total 1"));
        let json = render(&reg, "json").unwrap();
        let doc = telemetry::json::parse(&json).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("x_total"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(render(&reg, "yaml").is_err());
    }
}
