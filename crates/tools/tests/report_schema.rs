//! Golden-schema test for `hppa report`: the written `BENCH_*.json` must
//! parse and carry exactly the documented shape. Numbers are workload and
//! wall-clock dependent, so the test pins names, key sets, and invariants —
//! not exact counts, and never the nanosecond timings.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use telemetry::json::{parse, Json};

const EXPECTED_WORKLOADS: [&str; 5] = [
    "figure5_switched_multiply",
    "general_divide",
    "small_divisor_dispatch",
    "constant_multiply_chains",
    "constant_divide",
];

const RECORD_KEYS: [&str; 7] = [
    "workload",
    "cycles",
    "executed",
    "nullified",
    "per_opcode",
    "strategy_histogram",
    "regions",
];

const EXPECTED_THROUGHPUT: [&str; 2] = ["e13_multiply_mix", "e13_divide_mix"];

const PARALLEL_KEYS: [&str; 8] = [
    "workload",
    "threads",
    "ops",
    "wall_ns",
    "ops_per_sec",
    "simulated_cycles",
    "checksum",
    "speedup_vs_1",
];

const THROUGHPUT_KEYS: [&str; 8] = [
    "workload",
    "ops",
    "simulated_cycles",
    "unprepared_ns",
    "prepared_ns",
    "unprepared_ops_per_sec",
    "prepared_ops_per_sec",
    "speedup",
];

/// Keep the throughput batches small: the schema does not depend on the
/// batch size, and the cold pass compiles every operation.
const OPS: &str = "200";

fn written_report() -> Json {
    // Tests in this binary run in parallel, so each call writes its own file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "hppa_report_schema_{}_{call}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_hppa"))
        .args(["report", "--ops", OPS, "-o", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    parse(&text).expect("BENCH_*.json must be valid JSON")
}

#[test]
fn bench_json_matches_the_documented_schema() {
    let doc = written_report();
    assert_eq!(
        doc.keys(),
        vec!["schema_version", "workloads", "throughput", "parallel"]
    );
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(telemetry::SCHEMA_VERSION),
        "documents must declare the schema version they were written with"
    );

    let records = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads is an array");
    let names: Vec<&str> = records
        .iter()
        .map(|r| {
            r.get("workload")
                .and_then(Json::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, EXPECTED_WORKLOADS);

    for record in records {
        let name = record.get("workload").and_then(Json::as_str).unwrap();
        assert_eq!(record.keys(), RECORD_KEYS, "{name}: unexpected key set");

        let field = |key: &str| {
            record
                .get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{name}: {key} must be a u64"))
        };
        let (cycles, executed, nullified) =
            (field("cycles"), field("executed"), field("nullified"));
        assert_eq!(cycles, executed + nullified, "{name}: cycle identity");
        assert!(executed > 0, "{name}: ran nothing");

        let per_opcode = record.get("per_opcode").unwrap();
        let opcode_sum: u64 = per_opcode
            .keys()
            .iter()
            .map(|op| per_opcode.get(op).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(opcode_sum, executed, "{name}: per-opcode sum");

        let hist = record.get("strategy_histogram").unwrap();
        assert!(!hist.keys().is_empty(), "{name}: empty strategy histogram");
        for key in hist.keys() {
            assert!(
                key.contains('/'),
                "{name}: strategy key `{key}` must be family/detail"
            );
            assert!(hist.get(key).and_then(Json::as_u64).unwrap() > 0);
        }

        let regions = record
            .get("regions")
            .and_then(Json::as_array)
            .expect("regions is an array");
        assert!(!regions.is_empty(), "{name}: no region attribution");
        let region_sum: u64 = regions
            .iter()
            .map(|r| r.get("cycles").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(region_sum, cycles, "{name}: regions partition the cycles");
    }

    let throughput = doc
        .get("throughput")
        .and_then(Json::as_array)
        .expect("throughput is an array");
    let names: Vec<&str> = throughput
        .iter()
        .map(|r| r.get("workload").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, EXPECTED_THROUGHPUT);
    for record in throughput {
        let name = record.get("workload").and_then(Json::as_str).unwrap();
        assert_eq!(record.keys(), THROUGHPUT_KEYS, "{name}: unexpected key set");
        assert_eq!(record.get("ops").and_then(Json::as_u64), Some(200));
        assert!(
            record
                .get("simulated_cycles")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        for key in ["unprepared_ns", "prepared_ns"] {
            assert!(
                record.get(key).and_then(Json::as_u64).unwrap() > 0,
                "{name}: {key} must be positive"
            );
        }
        for key in ["unprepared_ops_per_sec", "prepared_ops_per_sec", "speedup"] {
            let v = record
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: {key} must be a number"));
            assert!(v > 0.0, "{name}: {key} must be positive");
        }
    }

    let parallel = doc
        .get("parallel")
        .and_then(Json::as_array)
        .expect("parallel is an array");
    let threads: Vec<u64> = parallel
        .iter()
        .map(|r| r.get("threads").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(threads, vec![1, 2, 4, 8]);
    let base = &parallel[0];
    for record in parallel {
        let t = record.get("threads").and_then(Json::as_u64).unwrap();
        assert_eq!(
            record.keys(),
            PARALLEL_KEYS,
            "{t} threads: unexpected key set"
        );
        assert_eq!(
            record.get("workload").and_then(Json::as_str),
            Some("e13_parallel_mix")
        );
        assert!(record.get("wall_ns").and_then(Json::as_u64).unwrap() > 0);
        assert!(record.get("ops_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(record.get("speedup_vs_1").and_then(Json::as_f64).unwrap() > 0.0);
        // The determinism contract: every thread count reports the same
        // results and the same simulated cost.
        for key in ["ops", "simulated_cycles", "checksum"] {
            assert_eq!(
                record.get(key).and_then(Json::as_u64),
                base.get(key).and_then(Json::as_u64),
                "{t} threads: {key} must not depend on the thread count"
            );
        }
    }
}

#[test]
fn workload_section_is_deterministic_across_runs() {
    // Wall-clock timings vary run to run; the simulated section must not.
    let a = written_report();
    let b = written_report();
    assert_eq!(
        a.get("workloads").unwrap().to_compact_string(),
        b.get("workloads").unwrap().to_compact_string(),
        "workload records must be reproducible byte for byte"
    );
}

#[test]
fn report_stdout_mode_prints_the_same_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_hppa"))
        .args(["report", "--ops", OPS, "--stdout"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let printed = parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        printed.keys(),
        vec!["schema_version", "workloads", "throughput", "parallel"]
    );
    assert_eq!(
        printed.get("workloads").unwrap().to_compact_string(),
        written_report()
            .get("workloads")
            .unwrap()
            .to_compact_string(),
        "stdout and file modes must agree on the simulated section"
    );
}

#[test]
fn unknown_subcommands_fail() {
    let out = Command::new(env!("CARGO_BIN_EXE_hppa"))
        .arg("frobnicate")
        .output()
        .unwrap();
    assert!(!out.status.success());
}
