//! The perf-regression sentinel behind `hppa bench --compare` (and `hppa
//! report --compare`): diff a freshly generated benchmark document against a
//! committed `BENCH_prN.json` baseline, per workload, against configurable
//! thresholds, and report regressions for CI to fail on. Where the
//! baseline's workload records carry `regions`, each labelled region's
//! cycles are gated too, so cycles moved from one region to another fail
//! even when the workload total holds.
//!
//! The paper workloads are fully deterministic — their cycle counts are a
//! property of the generated code, not of the host — so the default cycle
//! threshold is **zero percent**: any cycle growth is a real codegen or
//! simulator change and deserves a failing check. Thresholds live in
//! `bench/thresholds.toml` (a small hand-rolled parser; this workspace takes
//! no external dependencies), where individual workloads can be granted
//! slack and the host-noisy throughput comparison can be opted into.
//!
//! Baselines from the PR 1–2 era carry no `schema_version` field and are
//! read as version 1; documents claiming a version newer than
//! [`telemetry::SCHEMA_VERSION`] are refused with a clear error rather than
//! mis-read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::json::Json;

/// Thresholds for the comparison, normally loaded from
/// `bench/thresholds.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Allowed cycle growth in percent before a workload regresses.
    pub cycles_default_pct: f64,
    /// Per-workload overrides of the cycle threshold.
    pub cycles_overrides: BTreeMap<String, f64>,
    /// Whether to also gate on wall-clock throughput (off by default:
    /// ops/sec is host-noisy and belongs in CI only with generous slack).
    pub throughput_enabled: bool,
    /// Allowed `prepared_ops_per_sec` drop in percent.
    pub throughput_default_pct: f64,
    /// Whether to gate on the parallel scaling section (off by default:
    /// multi-thread wall-clock speedup depends entirely on how many host
    /// cores the runner actually has).
    pub parallel_enabled: bool,
    /// Minimum acceptable `speedup_vs_1` at [`Thresholds::parallel_at_threads`].
    pub parallel_min_speedup: f64,
    /// The thread count the speedup gate inspects.
    pub parallel_at_threads: u64,
    /// Whether to gate on the `lint` section (the `hppa lint` corpus
    /// wall-clock spliced into the document via `hppa bench
    /// --lint-report`). Off by default: wall-clock is host-dependent.
    pub lint_enabled: bool,
    /// Allowed lint corpus `wall_ms` growth in percent. Generous by
    /// default — the gate exists to catch analyzer blow-ups (an accidental
    /// exponential path explosion), not single-digit noise.
    pub lint_max_growth_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            cycles_default_pct: 0.0,
            cycles_overrides: BTreeMap::new(),
            throughput_enabled: false,
            throughput_default_pct: 10.0,
            parallel_enabled: false,
            parallel_min_speedup: 2.0,
            parallel_at_threads: 4,
            lint_enabled: false,
            lint_max_growth_pct: 100.0,
        }
    }
}

impl Thresholds {
    /// Parses the `bench/thresholds.toml` dialect: `[section]` headers,
    /// `key = value` pairs (floats, integers, booleans), `#` comments.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending line.
    pub fn from_toml(text: &str) -> Result<Thresholds, String> {
        let mut t = Thresholds::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: &str| format!("thresholds line {}: {msg}", idx + 1);
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| at("unterminated section header"))?;
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`"))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            let as_pct = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| at(&format!("`{key}` must be a number, got `{value}`")))
            };
            match (section.as_str(), key) {
                ("cycles", "default") => t.cycles_default_pct = as_pct()?,
                ("cycles.workloads", workload) => {
                    t.cycles_overrides.insert(workload.to_string(), as_pct()?);
                }
                ("throughput", "enabled") => {
                    t.throughput_enabled = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(at("`enabled` must be true or false")),
                    }
                }
                ("throughput", "default") => t.throughput_default_pct = as_pct()?,
                ("parallel", "enabled") => {
                    t.parallel_enabled = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(at("`enabled` must be true or false")),
                    }
                }
                ("lint", "enabled") => {
                    t.lint_enabled = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(at("`enabled` must be true or false")),
                    }
                }
                ("lint", "max_growth_pct") => t.lint_max_growth_pct = as_pct()?,
                ("parallel", "min_speedup") => t.parallel_min_speedup = as_pct()?,
                ("parallel", "at_threads") => {
                    t.parallel_at_threads = value.parse::<u64>().map_err(|_| {
                        at(&format!("`at_threads` must be an integer, got `{value}`"))
                    })?;
                }
                _ => return Err(at(&format!("unknown key `{key}` in section `[{section}]`"))),
            }
        }
        Ok(t)
    }

    /// Loads thresholds from a file, or the defaults when `path` is `None`.
    ///
    /// # Errors
    ///
    /// I/O or parse failures as a human-readable message.
    pub fn load(path: Option<&str>) -> Result<Thresholds, String> {
        match path {
            None => Ok(Thresholds::default()),
            Some(p) => {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read thresholds {p}: {e}"))?;
                Thresholds::from_toml(&text)
            }
        }
    }

    fn cycles_pct_for(&self, workload: &str) -> f64 {
        self.cycles_overrides
            .get(workload)
            .copied()
            .unwrap_or(self.cycles_default_pct)
    }
}

/// The schema version a benchmark document declares (documents predating
/// the field are version 1).
///
/// # Errors
///
/// A clear message when the field is malformed or newer than this binary
/// supports.
pub fn schema_version(doc: &Json) -> Result<u64, String> {
    let version = match doc.get("schema_version") {
        None => 1,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "schema_version must be a non-negative integer".to_string())?,
    };
    if version == 0 || version > telemetry::SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version}: this build reads versions 1..={} — \
             regenerate the file or update the toolchain",
            telemetry::SCHEMA_VERSION
        ));
    }
    Ok(version)
}

/// One workload's cycle diff.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDelta {
    /// Workload name.
    pub workload: String,
    /// Cycles recorded by the baseline document.
    pub baseline_cycles: u64,
    /// Cycles measured now.
    pub current_cycles: u64,
    /// Growth in percent (positive = slower now).
    pub delta_pct: f64,
    /// The threshold applied.
    pub threshold_pct: f64,
    /// Whether the growth exceeds the threshold.
    pub regressed: bool,
}

/// One labelled region's cycle diff inside a workload, for baselines whose
/// workload records carry `regions`. Regions are matched by label; one the
/// baseline lacks compares against 0 cycles, so a new region regresses like
/// growth does.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDelta {
    /// Workload name.
    pub workload: String,
    /// Region label.
    pub label: String,
    /// Cycles the baseline attributed to the region (0 when it is new).
    pub baseline_cycles: u64,
    /// Cycles attributed to it now.
    pub current_cycles: u64,
    /// Growth in percent (positive = more cycles now).
    pub delta_pct: f64,
    /// The workload's cycle threshold.
    pub threshold_pct: f64,
    /// Whether the growth exceeds the threshold.
    pub regressed: bool,
}

/// One throughput record's ops/sec diff (only populated when enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputDelta {
    /// Workload name.
    pub workload: String,
    /// Baseline `prepared_ops_per_sec`.
    pub baseline_ops_per_sec: f64,
    /// Current `prepared_ops_per_sec`.
    pub current_ops_per_sec: f64,
    /// Drop in percent (positive = slower now).
    pub drop_pct: f64,
    /// The threshold applied.
    pub threshold_pct: f64,
    /// Whether the drop exceeds the threshold.
    pub regressed: bool,
}

/// The opt-in absolute gate on the current document's parallel scaling
/// section: `speedup_vs_1` at the configured thread count must reach the
/// configured minimum. Unlike the cycle and throughput gates this does not
/// diff against the baseline — scaling is a property of the current build
/// on the current host.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelCheck {
    /// The thread count inspected.
    pub threads: u64,
    /// `speedup_vs_1` the current document reports at that thread count
    /// (0.0 when the record is missing — which also regresses).
    pub speedup_vs_1: f64,
    /// The minimum the thresholds demand.
    pub min_speedup: f64,
    /// Whether the gate failed.
    pub regressed: bool,
}

/// The opt-in gate on the `hppa lint` corpus wall-clock: the current
/// document's `lint.wall_ms` may not grow past the configured percentage
/// over the baseline's, and the corpus may not shrink (`lint.routines`
/// below the baseline count would mean verification coverage silently
/// narrowed). Only checked when the *baseline* carries a `lint` section —
/// pre-PR-10 baselines simply have nothing to compare.
#[derive(Debug, Clone, PartialEq)]
pub struct LintCheck {
    /// Corpus wall-clock the baseline recorded, in milliseconds.
    pub baseline_wall_ms: u64,
    /// Corpus wall-clock measured now (0 when the current document lost
    /// the section — which also regresses).
    pub current_wall_ms: u64,
    /// Growth in percent (positive = slower now).
    pub growth_pct: f64,
    /// The allowed growth.
    pub max_growth_pct: f64,
    /// Routines the baseline corpus covered.
    pub baseline_routines: u64,
    /// Routines the current corpus covered.
    pub current_routines: u64,
    /// Whether the gate failed.
    pub regressed: bool,
}

/// The full comparison of a current document against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Schema version of the baseline document.
    pub baseline_version: u64,
    /// Schema version of the current document.
    pub current_version: u64,
    /// Per-workload cycle diffs, in current-document order.
    pub deltas: Vec<WorkloadDelta>,
    /// Per-region cycle diffs of the current document's regions, for
    /// workloads whose baseline record carries `regions` (empty for older
    /// baselines).
    pub regions: Vec<RegionDelta>,
    /// Throughput diffs (empty unless enabled in the thresholds).
    pub throughput: Vec<ThroughputDelta>,
    /// The parallel scaling gate (`None` unless enabled in the thresholds).
    pub parallel: Option<ParallelCheck>,
    /// The lint corpus wall-clock gate (`None` unless enabled in the
    /// thresholds *and* the baseline carries a `lint` section).
    pub lint: Option<LintCheck>,
    /// Workloads the baseline had but the current run lost — counted as a
    /// regression (coverage must not silently shrink).
    pub missing_in_current: Vec<String>,
    /// Workloads new since the baseline (informational).
    pub new_in_current: Vec<String>,
}

impl Comparison {
    /// Whether anything regressed (the CI gate).
    #[must_use]
    pub fn regressed(&self) -> bool {
        !self.missing_in_current.is_empty()
            || self.deltas.iter().any(|d| d.regressed)
            || self.regions.iter().any(|r| r.regressed)
            || self.throughput.iter().any(|t| t.regressed)
            || self.parallel.as_ref().is_some_and(|p| p.regressed)
            || self.lint.as_ref().is_some_and(|l| l.regressed)
    }

    /// A human-readable table of the comparison.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf sentinel: baseline schema v{}, current schema v{}",
            self.baseline_version, self.current_version
        );
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>9}  verdict",
            "workload", "baseline", "current", "delta"
        );
        for d in &self.deltas {
            let verdict = if d.regressed {
                "REGRESSED"
            } else if d.current_cycles < d.baseline_cycles {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>12} {:>+8.2}%  {verdict} (threshold {:+.2}%)",
                d.workload, d.baseline_cycles, d.current_cycles, d.delta_pct, d.threshold_pct
            );
        }
        if !self.regions.is_empty() {
            let changed: Vec<&RegionDelta> = self
                .regions
                .iter()
                .filter(|r| r.current_cycles != r.baseline_cycles)
                .collect();
            let _ = writeln!(
                out,
                "regions: {} compared, {} changed",
                self.regions.len(),
                changed.len()
            );
            for r in changed {
                let verdict = if r.regressed { "REGRESSED" } else { "improved" };
                let _ = writeln!(
                    out,
                    "  {:<26} {:>12} {:>12} {:>+8.2}%  {verdict} (region, threshold {:+.2}%)",
                    format!("{}/{}", r.workload, r.label),
                    r.baseline_cycles,
                    r.current_cycles,
                    r.delta_pct,
                    r.threshold_pct
                );
            }
        }
        for t in &self.throughput {
            let verdict = if t.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<28} {:>10.0}/s {:>10.0}/s {:>+8.2}%  {verdict} (throughput, threshold {:+.2}%)",
                t.workload,
                t.baseline_ops_per_sec,
                t.current_ops_per_sec,
                -t.drop_pct,
                t.threshold_pct
            );
        }
        if let Some(p) = &self.parallel {
            let verdict = if p.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<28} {:>10.2}x @ {} threads  {verdict} (parallel, minimum {:.2}x)",
                "e13_parallel_mix", p.speedup_vs_1, p.threads, p.min_speedup
            );
        }
        if let Some(l) = &self.lint {
            let verdict = if l.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<28} {:>10}ms {:>10}ms {:>+8.2}%  {verdict} (lint corpus, {} -> {} routines, \
                 threshold {:+.2}%)",
                "lint_corpus_wall",
                l.baseline_wall_ms,
                l.current_wall_ms,
                l.growth_pct,
                l.baseline_routines,
                l.current_routines,
                l.max_growth_pct
            );
        }
        for name in &self.missing_in_current {
            let _ = writeln!(out, "{name:<28} missing from current run  REGRESSED");
        }
        for name in &self.new_in_current {
            let _ = writeln!(out, "{name:<28} new since baseline (no comparison)");
        }
        out
    }
}

fn workload_cycles(doc: &Json, section_missing: &str) -> Result<Vec<(String, u64)>, String> {
    let records = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{section_missing}: no `workloads` array"))?;
    records
        .iter()
        .map(|r| {
            let name = r
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{section_missing}: workload record without a name"))?;
            let cycles = r
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{section_missing}: `{name}` has no cycles"))?;
            Ok((name.to_string(), cycles))
        })
        .collect()
}

/// One workload's `(label, cycles)` regions, in document order.
type Regions = Vec<(String, u64)>;

/// Each workload's regions, in document order, for the workload records
/// that carry a `regions` array.
fn workload_regions(doc: &Json, section_missing: &str) -> Result<Vec<(String, Regions)>, String> {
    let records = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{section_missing}: no `workloads` array"))?;
    let mut out = Vec::new();
    for r in records {
        let (Some(name), Some(regions)) = (
            r.get("workload").and_then(Json::as_str),
            r.get("regions").and_then(Json::as_array),
        ) else {
            continue;
        };
        let regions = regions
            .iter()
            .map(|region| {
                let label = region.get("label").and_then(Json::as_str);
                let cycles = region.get("cycles").and_then(Json::as_u64);
                match (label, cycles) {
                    (Some(label), Some(cycles)) => Ok((label.to_string(), cycles)),
                    _ => Err(format!(
                        "{section_missing}: `{name}` has a region without a label and cycles"
                    )),
                }
            })
            .collect::<Result<_, _>>()?;
        out.push((name.to_string(), regions));
    }
    Ok(out)
}

fn pct_change(baseline: u64, current: u64) -> f64 {
    if baseline == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current as f64 - baseline as f64) * 100.0 / baseline as f64
    }
}

/// Compares a freshly generated document against a baseline.
///
/// # Errors
///
/// A human-readable message on schema refusal or malformed documents.
pub fn compare(
    current: &Json,
    baseline: &Json,
    thresholds: &Thresholds,
) -> Result<Comparison, String> {
    let baseline_version =
        schema_version(baseline).map_err(|e| format!("baseline refused: {e}"))?;
    let current_version = schema_version(current).map_err(|e| format!("current refused: {e}"))?;

    let base_cycles: BTreeMap<String, u64> =
        workload_cycles(baseline, "baseline")?.into_iter().collect();
    let current_list = workload_cycles(current, "current")?;

    let mut deltas = Vec::new();
    let mut new_in_current = Vec::new();
    for (name, cycles) in &current_list {
        match base_cycles.get(name) {
            Some(&base) => {
                let delta_pct = pct_change(base, *cycles);
                let threshold_pct = thresholds.cycles_pct_for(name);
                deltas.push(WorkloadDelta {
                    workload: name.clone(),
                    baseline_cycles: base,
                    current_cycles: *cycles,
                    delta_pct,
                    threshold_pct,
                    regressed: delta_pct > threshold_pct,
                });
            }
            None => new_in_current.push(name.clone()),
        }
    }
    let current_names: BTreeMap<&str, ()> =
        current_list.iter().map(|(n, _)| (n.as_str(), ())).collect();
    let missing_in_current: Vec<String> = base_cycles
        .keys()
        .filter(|n| !current_names.contains_key(n.as_str()))
        .cloned()
        .collect();

    let base_regions: BTreeMap<String, Regions> = workload_regions(baseline, "baseline")?
        .into_iter()
        .collect();
    let mut regions = Vec::new();
    for (name, current_regions) in workload_regions(current, "current")? {
        let Some(base) = base_regions.get(&name) else {
            continue;
        };
        let threshold_pct = thresholds.cycles_pct_for(&name);
        for (label, current_cycles) in current_regions {
            let baseline_cycles = base
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0, |&(_, c)| c);
            let delta_pct = pct_change(baseline_cycles, current_cycles);
            regions.push(RegionDelta {
                workload: name.clone(),
                label,
                baseline_cycles,
                current_cycles,
                delta_pct,
                threshold_pct,
                regressed: delta_pct > threshold_pct,
            });
        }
    }

    let mut throughput = Vec::new();
    if thresholds.throughput_enabled {
        let records = |doc: &Json| -> BTreeMap<String, f64> {
            doc.get("throughput")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|r| {
                    let name = r.get("workload").and_then(Json::as_str)?;
                    let ops = r.get("prepared_ops_per_sec").and_then(Json::as_f64)?;
                    Some((name.to_string(), ops))
                })
                .collect()
        };
        let base_tp = records(baseline);
        for (name, current_ops) in records(current) {
            if let Some(&base_ops) = base_tp.get(&name) {
                let drop_pct = if base_ops > 0.0 {
                    (base_ops - current_ops) * 100.0 / base_ops
                } else {
                    0.0
                };
                throughput.push(ThroughputDelta {
                    workload: name,
                    baseline_ops_per_sec: base_ops,
                    current_ops_per_sec: current_ops,
                    drop_pct,
                    threshold_pct: thresholds.throughput_default_pct,
                    regressed: drop_pct > thresholds.throughput_default_pct,
                });
            }
        }
    }

    let parallel = thresholds.parallel_enabled.then(|| {
        let speedup = current
            .get("parallel")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .find(|r| {
                r.get("threads").and_then(Json::as_u64) == Some(thresholds.parallel_at_threads)
            })
            .and_then(|r| r.get("speedup_vs_1").and_then(Json::as_f64))
            .unwrap_or(0.0);
        ParallelCheck {
            threads: thresholds.parallel_at_threads,
            speedup_vs_1: speedup,
            min_speedup: thresholds.parallel_min_speedup,
            regressed: speedup < thresholds.parallel_min_speedup,
        }
    });

    let lint = if thresholds.lint_enabled {
        baseline.get("lint").map(|base_lint| {
            let field = |doc: Option<&Json>, key: &str| {
                doc.and_then(|l| l.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let cur_lint = current.get("lint");
            let baseline_wall_ms = field(Some(base_lint), "wall_ms");
            let current_wall_ms = field(cur_lint, "wall_ms");
            let baseline_routines = field(Some(base_lint), "routines");
            let current_routines = field(cur_lint, "routines");
            let growth_pct = pct_change(baseline_wall_ms, current_wall_ms);
            LintCheck {
                baseline_wall_ms,
                current_wall_ms,
                growth_pct,
                max_growth_pct: thresholds.lint_max_growth_pct,
                baseline_routines,
                current_routines,
                // A lost section reads as wall 0 / routines 0: the coverage
                // clause regresses it — the lint corpus must not silently
                // disappear while CI claims the analyzer still passes.
                regressed: cur_lint.is_none()
                    || growth_pct > thresholds.lint_max_growth_pct
                    || current_routines < baseline_routines,
            }
        })
    } else {
        None
    };

    Ok(Comparison {
        baseline_version,
        current_version,
        deltas,
        regions,
        throughput,
        parallel,
        lint,
        missing_in_current,
        new_in_current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::parse;

    fn doc(version: Option<u64>, workloads: &[(&str, u64)]) -> Json {
        let mut pairs = Vec::new();
        if let Some(v) = version {
            pairs.push(("schema_version".to_string(), Json::uint(v)));
        }
        pairs.push((
            "workloads".to_string(),
            Json::Array(
                workloads
                    .iter()
                    .map(|(name, cycles)| {
                        Json::object(vec![
                            ("workload".to_string(), Json::str(*name)),
                            ("cycles".to_string(), Json::uint(*cycles)),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.push(("throughput".to_string(), Json::Array(Vec::new())));
        Json::object(pairs)
    }

    #[test]
    fn missing_schema_version_reads_as_v1() {
        assert_eq!(schema_version(&doc(None, &[])), Ok(1));
        assert_eq!(
            schema_version(&doc(Some(telemetry::SCHEMA_VERSION), &[])),
            Ok(telemetry::SCHEMA_VERSION)
        );
    }

    #[test]
    fn newer_schema_versions_are_refused_clearly() {
        let err = schema_version(&doc(Some(99), &[])).unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
        assert!(err.contains("1..="), "{err}");
        let err =
            compare(&doc(None, &[]), &doc(Some(99), &[]), &Thresholds::default()).unwrap_err();
        assert!(err.contains("baseline refused"), "{err}");
    }

    #[test]
    fn equal_cycles_pass_at_zero_threshold() {
        let base = doc(None, &[("a", 100), ("b", 250)]);
        let cur = doc(Some(2), &[("a", 100), ("b", 250)]);
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(!cmp.regressed(), "{}", cmp.render());
        assert_eq!(cmp.baseline_version, 1);
        assert_eq!(cmp.current_version, 2);
    }

    #[test]
    fn cycle_growth_beyond_threshold_regresses() {
        let base = doc(None, &[("a", 100)]);
        let cur = doc(Some(2), &[("a", 110)]);
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(cmp.regressed());
        assert!((cmp.deltas[0].delta_pct - 10.0).abs() < 1e-9);
        assert!(cmp.render().contains("REGRESSED"), "{}", cmp.render());

        // The same growth passes when the workload is granted slack.
        let mut relaxed = Thresholds::default();
        relaxed.cycles_overrides.insert("a".to_string(), 15.0);
        assert!(!compare(&cur, &base, &relaxed).unwrap().regressed());
    }

    #[test]
    fn improvements_and_new_workloads_do_not_regress() {
        let base = doc(None, &[("a", 100)]);
        let cur = doc(Some(2), &[("a", 90), ("brand_new", 7)]);
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(!cmp.regressed(), "{}", cmp.render());
        assert_eq!(cmp.new_in_current, vec!["brand_new".to_string()]);
        assert!(cmp.render().contains("improved"));
    }

    #[test]
    fn lost_workloads_regress() {
        let base = doc(None, &[("a", 100), ("gone", 5)]);
        let cur = doc(Some(2), &[("a", 100)]);
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(cmp.regressed());
        assert_eq!(cmp.missing_in_current, vec!["gone".to_string()]);
    }

    /// A document of one workload, `name`, whose cycles are its regions'
    /// sum; `regions: None` leaves the record without a `regions` array.
    fn regioned(name: &str, regions: Option<&[(&str, u64)]>) -> Json {
        let total = regions.map_or(100, |rs| rs.iter().map(|&(_, c)| c).sum());
        let mut record = vec![
            ("workload".to_string(), Json::str(name)),
            ("cycles".to_string(), Json::uint(total)),
        ];
        if let Some(rs) = regions {
            let rs = rs
                .iter()
                .map(|&(label, cycles)| {
                    Json::object(vec![
                        ("label".to_string(), Json::str(label)),
                        ("cycles".to_string(), Json::uint(cycles)),
                    ])
                })
                .collect();
            record.push(("regions".to_string(), Json::Array(rs)));
        }
        Json::object(vec![(
            "workloads".to_string(),
            Json::Array(vec![Json::object(record)]),
        )])
    }

    #[test]
    fn identical_regions_pass() {
        let rs: &[(&str, u64)] = &[("<entry>", 10), ("loop", 80), ("done", 10)];
        let cmp = compare(
            &regioned("w", Some(rs)),
            &regioned("w", Some(rs)),
            &Thresholds::default(),
        )
        .unwrap();
        assert!(!cmp.regressed(), "{}", cmp.render());
        assert_eq!(cmp.regions.len(), 3);
        assert!(
            cmp.render().contains("regions: 3 compared, 0 changed"),
            "{}",
            cmp.render()
        );
    }

    #[test]
    fn cycles_moved_between_regions_regress() {
        let base = regioned("w", Some(&[("<entry>", 10), ("loop", 80), ("done", 10)]));
        // The same total, with two cycles moved from the loop to the tail.
        let cur = regioned("w", Some(&[("<entry>", 10), ("loop", 78), ("done", 12)]));
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(!cmp.deltas[0].regressed, "the total holds");
        assert!(cmp.regressed(), "{}", cmp.render());
        let grown: Vec<&str> = cmp
            .regions
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(grown, ["done"]);
        let text = cmp.render();
        assert!(text.contains("w/done"), "{text}");
        assert!(text.contains("w/loop"), "{text}");

        // A region the baseline never had regresses like growth from zero.
        let cur = regioned("w", Some(&[("<entry>", 10), ("loop", 80), ("tail", 10)]));
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(cmp.regressed(), "{}", cmp.render());
        assert_eq!(cmp.regions[2].baseline_cycles, 0);

        // The workload's cycle threshold applies to its regions.
        let cur = regioned("w", Some(&[("<entry>", 10), ("loop", 78), ("done", 12)]));
        let mut relaxed = Thresholds::default();
        relaxed.cycles_overrides.insert("w".to_string(), 25.0);
        assert!(!compare(&cur, &base, &relaxed).unwrap().regressed());
    }

    #[test]
    fn region_less_baselines_skip_the_region_gate() {
        let cur = regioned("w", Some(&[("<entry>", 10), ("loop", 90)]));
        let cmp = compare(&cur, &regioned("w", None), &Thresholds::default()).unwrap();
        assert!(cmp.regions.is_empty());
        assert!(!cmp.regressed(), "{}", cmp.render());
        assert!(!cmp.render().contains("regions:"), "{}", cmp.render());
    }

    #[test]
    fn toml_parsing_covers_the_dialect() {
        let t = Thresholds::from_toml(
            "# comment\n\
             [cycles]\n\
             default = 0.5 # inline comment\n\
             [cycles.workloads]\n\
             figure5_switched_multiply = 2.0\n\
             [throughput]\n\
             enabled = true\n\
             default = 25\n",
        )
        .unwrap();
        assert!((t.cycles_default_pct - 0.5).abs() < 1e-12);
        assert_eq!(
            t.cycles_overrides.get("figure5_switched_multiply"),
            Some(&2.0)
        );
        assert!(t.throughput_enabled);
        assert!((t.throughput_default_pct - 25.0).abs() < 1e-12);
        assert_eq!(t.cycles_pct_for("figure5_switched_multiply"), 2.0);
        assert_eq!(t.cycles_pct_for("other"), 0.5);
    }

    #[test]
    fn toml_errors_name_the_line() {
        let err = Thresholds::from_toml("[cycles]\nnonsense\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = Thresholds::from_toml("[cycles]\ndefault = fast\n").unwrap_err();
        assert!(err.contains("must be a number"), "{err}");
        let err = Thresholds::from_toml("[mystery]\nx = 1\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn throughput_gate_is_opt_in() {
        let with_tp = |ops: f64| {
            parse(&format!(
                "{{\"workloads\": [], \"throughput\": [{{\"workload\": \"mix\", \
                 \"prepared_ops_per_sec\": {ops}}}]}}"
            ))
            .unwrap()
        };
        let base = with_tp(1000.0);
        let cur = with_tp(500.0);
        // Disabled (the default): a 50% drop is ignored.
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(cmp.throughput.is_empty());
        assert!(!cmp.regressed());
        // Enabled: the same drop trips the gate.
        let enabled = Thresholds {
            throughput_enabled: true,
            ..Thresholds::default()
        };
        let cmp = compare(&cur, &base, &enabled).unwrap();
        assert_eq!(cmp.throughput.len(), 1);
        assert!(cmp.regressed());
    }

    #[test]
    fn parallel_toml_keys_parse() {
        let t = Thresholds::from_toml(
            "[parallel]\n\
             enabled = true\n\
             min_speedup = 1.5\n\
             at_threads = 8\n",
        )
        .unwrap();
        assert!(t.parallel_enabled);
        assert!((t.parallel_min_speedup - 1.5).abs() < 1e-12);
        assert_eq!(t.parallel_at_threads, 8);
        let err = Thresholds::from_toml("[parallel]\nat_threads = many\n").unwrap_err();
        assert!(err.contains("must be an integer"), "{err}");
    }

    #[test]
    fn lint_toml_keys_parse() {
        let t = Thresholds::from_toml(
            "[lint]\n\
             enabled = true\n\
             max_growth_pct = 50\n",
        )
        .unwrap();
        assert!(t.lint_enabled);
        assert!((t.lint_max_growth_pct - 50.0).abs() < 1e-12);
        let err = Thresholds::from_toml("[lint]\nenabled = maybe\n").unwrap_err();
        assert!(err.contains("must be true or false"), "{err}");
    }

    #[test]
    fn lint_gate_diffs_wall_clock_and_coverage() {
        let with_lint = |wall_ms: u64, routines: u64| {
            parse(&format!(
                "{{\"workloads\": [], \"throughput\": [], \
                 \"lint\": {{\"wall_ms\": {wall_ms}, \"routines\": {routines}}}}}"
            ))
            .unwrap()
        };
        let base = with_lint(100_000, 21_000);
        let enabled = Thresholds {
            lint_enabled: true,
            ..Thresholds::default()
        };
        // Disabled (the default): a blow-up is ignored.
        let cmp = compare(&with_lint(900_000, 21_000), &base, &Thresholds::default()).unwrap();
        assert!(cmp.lint.is_none());
        assert!(!cmp.regressed());
        // Within the default 100% slack: ok.
        let cmp = compare(&with_lint(150_000, 21_500), &base, &enabled).unwrap();
        let l = cmp.lint.clone().unwrap();
        assert!(!l.regressed, "{}", cmp.render());
        assert!((l.growth_pct - 50.0).abs() < 1e-9);
        // A 9x analyzer blow-up trips the gate.
        let cmp = compare(&with_lint(900_000, 21_000), &base, &enabled).unwrap();
        assert!(cmp.lint.as_ref().unwrap().regressed);
        assert!(cmp.regressed());
        assert!(cmp.render().contains("lint corpus"), "{}", cmp.render());
        // Shrinking coverage regresses even when wall-clock improves.
        let cmp = compare(&with_lint(50_000, 10_000), &base, &enabled).unwrap();
        assert!(cmp.regressed());
        // Losing the section entirely regresses.
        let bare = parse("{\"workloads\": [], \"throughput\": []}").unwrap();
        let cmp = compare(&bare, &base, &enabled).unwrap();
        assert!(cmp.lint.as_ref().unwrap().regressed);
        // A baseline without a lint section has nothing to gate on.
        let cmp = compare(&with_lint(100, 10), &bare, &enabled).unwrap();
        assert!(cmp.lint.is_none());
        assert!(!cmp.regressed());
    }

    #[test]
    fn parallel_gate_is_opt_in_and_absolute() {
        let cur = parse(
            "{\"workloads\": [], \"throughput\": [], \"parallel\": [\
             {\"workload\": \"e13_parallel_mix\", \"threads\": 1, \"speedup_vs_1\": 1.0},\
             {\"workload\": \"e13_parallel_mix\", \"threads\": 4, \"speedup_vs_1\": 1.3}]}",
        )
        .unwrap();
        let base = parse("{\"workloads\": [], \"throughput\": []}").unwrap();
        // Disabled (the default): sub-minimum scaling is ignored entirely.
        let cmp = compare(&cur, &base, &Thresholds::default()).unwrap();
        assert!(cmp.parallel.is_none());
        assert!(!cmp.regressed());
        // Enabled: 1.3x at 4 threads misses the default 2x floor.
        let enabled = Thresholds {
            parallel_enabled: true,
            ..Thresholds::default()
        };
        let cmp = compare(&cur, &base, &enabled).unwrap();
        let p = cmp.parallel.clone().unwrap();
        assert_eq!(p.threads, 4);
        assert!((p.speedup_vs_1 - 1.3).abs() < 1e-12);
        assert!(p.regressed);
        assert!(cmp.regressed());
        assert!(cmp.render().contains("parallel"), "{}", cmp.render());
        // A relaxed floor passes the same document.
        let relaxed = Thresholds {
            parallel_enabled: true,
            parallel_min_speedup: 1.25,
            ..Thresholds::default()
        };
        assert!(!compare(&cur, &base, &relaxed).unwrap().regressed());
        // A missing record regresses when the gate is on: the section must
        // not silently disappear while CI claims scaling holds.
        let cmp = compare(&base, &base, &enabled).unwrap();
        assert!(cmp.parallel.unwrap().regressed);
    }
}
