//! End-to-end tests for the observability surface: the cycle-exact folded
//! profiler and the perf-regression sentinel, run against the built `hppa`
//! binary and the repository's committed baseline + thresholds files.

use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::json::{parse, Json};

fn hppa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hppa"))
}

/// A file at the repository root (the workspace is `crates/tools/../..`).
fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn temp_json(name: &str, doc: &Json) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hppa_obs_{name}_{}.json", std::process::id()));
    std::fs::write(&path, doc.to_pretty_string()).unwrap();
    path
}

#[test]
fn folded_profile_sums_to_the_simulated_cycle_totals_exactly() {
    let out = hppa().args(["profile", "--folded"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let folded = String::from_utf8(out.stdout).unwrap();

    // Every line is `frame;frame;... count`.
    for line in folded.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line}"));
        assert!(stack.contains(';'), "{line}");
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad count in {line}"));
    }

    // The acceptance identity: per workload, the folded counts sum to the
    // simulator's cycle total exactly — the profile is cycle-exact.
    let workloads = tools::report::paper_workloads();
    for name in ["figure5_switched_multiply", "general_divide"] {
        let expected = workloads
            .iter()
            .find(|w| w.workload == name)
            .unwrap_or_else(|| panic!("missing workload {name}"))
            .cycles;
        let prefix = format!("{name};");
        let sum: u64 = folded
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, expected, "{name}: folded stacks must sum to cycles");
    }
}

#[test]
fn profile_can_narrow_to_one_workload_and_write_a_file() {
    let path = std::env::temp_dir().join(format!("hppa_obs_folded_{}.txt", std::process::id()));
    let out = hppa()
        .args([
            "profile",
            "--folded",
            "--workload",
            "general_divide",
            "-o",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!text.is_empty());
    assert!(
        text.lines().all(|l| l.starts_with("general_divide;")),
        "{text}"
    );
}

#[test]
fn bench_passes_clean_against_the_committed_baseline() {
    let baseline = repo_file("BENCH_pr2.json");
    let thresholds = repo_file("bench/thresholds.toml");
    let out = hppa()
        .args([
            "bench",
            "--compare",
            baseline.to_str().unwrap(),
            "--thresholds",
            thresholds.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("perf sentinel"), "{stdout}");
    assert!(!stdout.contains("REGRESSED"), "{stdout}");
}

#[test]
fn bench_catches_an_injected_ten_percent_cycle_regression() {
    // Doctor the committed baseline: shrink every workload's cycle count by
    // 10%, which makes the (unchanged) current run look ~11% slower — well
    // past the zero-growth threshold.
    let text = std::fs::read_to_string(repo_file("BENCH_pr2.json")).unwrap();
    let mut doc = parse(&text).unwrap();
    if let Json::Object(pairs) = &mut doc {
        for (key, value) in pairs.iter_mut() {
            if key != "workloads" {
                continue;
            }
            let Json::Array(records) = value else {
                panic!("workloads must be an array")
            };
            for record in records {
                let Json::Object(fields) = record else {
                    panic!("record must be an object")
                };
                for (name, field) in fields.iter_mut() {
                    if name == "cycles" {
                        let cycles = field.as_u64().unwrap();
                        *field = Json::uint(cycles * 9 / 10);
                    }
                }
            }
        }
    }
    let path = temp_json("regressed", &doc);
    let out = hppa()
        .args(["bench", "--compare", path.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "doctored baseline must regress");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
}

#[test]
fn bench_catches_cycles_moved_between_regions() {
    // Doctor a baseline that carries regions: move two cycles from the
    // first region of `general_divide` to its second. The workload total is
    // unchanged, so only the per-region gate can see it.
    let text = std::fs::read_to_string(repo_file("BENCH_pr10.json")).unwrap();
    let mut doc = parse(&text).unwrap();
    let Json::Object(pairs) = &mut doc else {
        panic!("document must be an object")
    };
    let (_, Json::Array(records)) = pairs.iter_mut().find(|(k, _)| k == "workloads").unwrap()
    else {
        panic!("workloads must be an array")
    };
    let record = records
        .iter_mut()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some("general_divide"))
        .unwrap();
    let Json::Object(fields) = record else {
        panic!("record must be an object")
    };
    let (_, Json::Array(regions)) = fields.iter_mut().find(|(k, _)| k == "regions").unwrap() else {
        panic!("regions must be an array")
    };
    for (region, moved) in regions.iter_mut().zip([2i64, -2]) {
        let Json::Object(fields) = region else {
            panic!("region must be an object")
        };
        let (_, cycles) = fields.iter_mut().find(|(k, _)| k == "cycles").unwrap();
        *cycles = Json::uint((cycles.as_u64().unwrap() as i64 + moved) as u64);
    }
    let path = temp_json("moved_regions", &doc);
    let out = hppa()
        .args(["bench", "--compare", path.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "moved cycles must regress:\n{stdout}"
    );
    assert!(stdout.contains("general_divide/"), "{stdout}");
    assert!(stdout.contains("REGRESSED (region"), "{stdout}");
}

#[test]
fn bench_refuses_a_future_schema_version() {
    let doc = Json::object(vec![
        ("schema_version".to_string(), Json::uint(99)),
        ("workloads".to_string(), Json::Array(Vec::new())),
        ("throughput".to_string(), Json::Array(Vec::new())),
    ]);
    let path = temp_json("future", &doc);
    let out = hppa()
        .args(["bench", "--compare", path.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unsupported schema_version 99"), "{stderr}");
}

#[test]
fn report_compare_applies_the_same_sentinel() {
    // `hppa report --compare` shares the sentinel: a clean run against the
    // committed baseline writes the new document AND exits zero.
    let out_path =
        std::env::temp_dir().join(format!("hppa_obs_report_{}.json", std::process::id()));
    let out = hppa()
        .args([
            "report",
            "--ops",
            "200",
            "-o",
            out_path.to_str().unwrap(),
            "--compare",
            repo_file("BENCH_pr2.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("perf sentinel"), "{stdout}");
    let written = std::fs::read_to_string(&out_path).unwrap();
    std::fs::remove_file(&out_path).ok();
    let doc = parse(&written).unwrap();
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(telemetry::SCHEMA_VERSION)
    );
}

#[test]
fn metrics_exports_prometheus_and_json() {
    let out = hppa().args(["metrics"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("# TYPE hppa_workload_cycles_total counter"),
        "{text}"
    );
    assert!(text.contains("hppa_span_total{name=\"execute\"}"), "{text}");

    let out = hppa()
        .args(["metrics", "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let doc = parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters section");
    assert!(counters
        .keys()
        .iter()
        .any(|k| k.starts_with("hppa_workload_cycles_total")));

    let out = hppa()
        .args(["metrics", "--format", "yaml"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown formats must fail");
}
