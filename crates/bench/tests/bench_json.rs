//! The BENCH JSON layer: round-trip of emitted `BENCH_*.json` records
//! and the `--compare` regression math.

use molcache_bench::machine::MachineInfo;
use molcache_bench::report::{
    compare, floor_check, regressions, render_comparison, scale_fairness_warning, write_new_record,
    BenchDoc, StageProfileRecord, WorkloadResult, BENCH_SCHEMA, REGRESSION_TOLERANCE,
};
use molcache_bench::stopwatch::Timing;

fn machine() -> MachineInfo {
    MachineInfo {
        cpu_model: "Example CPU @ 2.0GHz".into(),
        cores: 8,
        rustc: "rustc 1.89.0".into(),
        git_sha: "abc123def456".into(),
        os: "linux".into(),
    }
}

fn doc_with(workloads: Vec<WorkloadResult>) -> BenchDoc {
    BenchDoc {
        date: "2026-08-08".into(),
        smoke: false,
        memo: None,
        machine: machine(),
        workloads,
        stage_profile: None,
    }
}

fn workload(name: &str, accesses_per_sec: f64) -> WorkloadResult {
    WorkloadResult {
        name: name.into(),
        accesses_per_iter: 100_000,
        samples: 15,
        min_ns_per_access: 90.0,
        median_ns_per_access: if accesses_per_sec > 0.0 {
            1e9 / accesses_per_sec
        } else {
            0.0
        },
        mean_ns_per_access: 110.0,
        accesses_per_sec,
    }
}

#[test]
fn emitted_record_round_trips() {
    // Build the record the way molbench does: from real Timing samples.
    let t = Timing::from_samples(vec![2_000_000, 1_500_000, 2_500_000, 1_750_000]);
    let doc = BenchDoc {
        date: "2026-08-08".into(),
        smoke: true,
        memo: Some(true),
        machine: machine(),
        workloads: vec![
            WorkloadResult::from_timing("mixed12", 20_000, &t),
            WorkloadResult::from_timing("access_batch", 20_000, &t),
        ],
        stage_profile: Some(StageProfileRecord {
            sample_every: 64,
            sampled_accesses: 313,
            stages: vec![
                ("asid-gate".into(), 63_533),
                ("home-lookup".into(), 54_615),
                ("ulmo-search".into(), 12_641),
                ("victim".into(), 7_951),
                ("fill".into(), 58_441),
            ],
        }),
    };
    let json = doc.to_json().expect("finite record serializes");
    assert!(json.contains(&format!("\"schema\": \"{BENCH_SCHEMA}\"")));
    let parsed = BenchDoc::from_json(&json).expect("emitted record parses");
    assert_eq!(parsed, doc, "round-trip must be exact");
    assert_eq!(parsed.file_name(), "BENCH_2026-08-08.json");
    assert_eq!(
        parsed.workload("mixed12").unwrap().accesses_per_iter,
        20_000
    );
}

#[test]
fn record_without_profile_round_trips() {
    let doc = doc_with(vec![workload("mixed12", 2_500_000.0)]);
    let parsed = BenchDoc::from_json(&doc.to_json().unwrap()).unwrap();
    assert_eq!(parsed, doc);
    assert_eq!(parsed.stage_profile, None);
}

#[test]
fn from_json_rejects_wrong_schema_and_garbage() {
    assert!(BenchDoc::from_json("{not json").is_err());
    assert!(BenchDoc::from_json("{}").is_err());
    let wrong = doc_with(vec![])
        .to_json()
        .unwrap()
        .replace(BENCH_SCHEMA, "molcache-bench-v999");
    let err = BenchDoc::from_json(&wrong).unwrap_err();
    assert!(err.contains("molcache-bench-v999"), "{err}");
}

#[test]
fn exact_tolerance_boundary_is_not_a_regression() {
    // 100 -> 80 accesses/sec is exactly -20%: the gate must pass.
    let baseline = doc_with(vec![workload("mixed12", 100.0)]);
    let current = doc_with(vec![workload("mixed12", 80.0)]);
    let deltas = compare(&baseline, &current, REGRESSION_TOLERANCE);
    assert_eq!(deltas.len(), 1);
    assert!(!deltas[0].regressed, "exact boundary passes: {deltas:?}");
    assert_eq!(deltas[0].ratio, Some(0.8));
    assert!(regressions(&deltas).is_empty());

    // The tiniest step below the boundary fails.
    let worse = doc_with(vec![workload("mixed12", 79.999)]);
    let deltas = compare(&baseline, &worse, REGRESSION_TOLERANCE);
    assert!(deltas[0].regressed, "below boundary regresses: {deltas:?}");
    assert_eq!(regressions(&deltas).len(), 1);
}

#[test]
fn improvement_is_not_a_regression() {
    let baseline = doc_with(vec![workload("mixed12", 100.0), workload("batch", 50.0)]);
    let current = doc_with(vec![workload("mixed12", 250.0), workload("batch", 50.0)]);
    let deltas = compare(&baseline, &current, REGRESSION_TOLERANCE);
    assert!(deltas.iter().all(|d| !d.regressed), "{deltas:?}");
    assert_eq!(deltas[0].ratio, Some(2.5));
    assert_eq!(deltas[1].ratio, Some(1.0));
}

#[test]
fn missing_workload_fails_the_gate() {
    let baseline = doc_with(vec![workload("mixed12", 100.0), workload("batch", 50.0)]);
    let current = doc_with(vec![workload("mixed12", 100.0)]);
    let deltas = compare(&baseline, &current, REGRESSION_TOLERANCE);
    let missing: Vec<_> = deltas.iter().filter(|d| d.current_aps.is_none()).collect();
    assert_eq!(missing.len(), 1);
    assert_eq!(missing[0].name, "batch");
    assert!(missing[0].regressed, "a vanished workload must fail");
    assert_eq!(missing[0].ratio, None);
}

#[test]
fn new_workload_in_current_run_is_ignored() {
    let baseline = doc_with(vec![workload("mixed12", 100.0)]);
    let current = doc_with(vec![workload("mixed12", 100.0), workload("brand-new", 1.0)]);
    let deltas = compare(&baseline, &current, REGRESSION_TOLERANCE);
    assert_eq!(deltas.len(), 1, "only baseline workloads produce deltas");
    assert!(!deltas[0].regressed);
}

#[test]
fn zero_throughput_baseline_cannot_divide_or_regress() {
    let baseline = doc_with(vec![workload("degenerate", 0.0)]);
    let current = doc_with(vec![workload("degenerate", 0.0)]);
    let deltas = compare(&baseline, &current, REGRESSION_TOLERANCE);
    assert_eq!(deltas[0].ratio, None, "no ratio against a zero baseline");
    assert!(!deltas[0].regressed);
    // A zero *current* against a live baseline is a total regression.
    let live = doc_with(vec![workload("degenerate", 100.0)]);
    let dead = doc_with(vec![workload("degenerate", 0.0)]);
    let deltas = compare(&live, &dead, REGRESSION_TOLERANCE);
    assert_eq!(deltas[0].ratio, Some(0.0));
    assert!(deltas[0].regressed);
}

#[test]
fn comparison_renders_every_verdict() {
    let baseline = doc_with(vec![
        workload("ok-wl", 100.0),
        workload("slow-wl", 100.0),
        workload("gone-wl", 100.0),
    ]);
    let current = doc_with(vec![workload("ok-wl", 101.0), workload("slow-wl", 10.0)]);
    let deltas = compare(&baseline, &current, REGRESSION_TOLERANCE);
    let table = render_comparison(&deltas, REGRESSION_TOLERANCE);
    assert!(table.contains("ok-wl"), "{table}");
    assert!(table.contains("REGRESSED"), "{table}");
    assert!(table.contains("missing"), "{table}");
    assert!(table.contains("+1.0%"), "{table}");
    assert_eq!(regressions(&deltas).len(), 2);
}

#[test]
fn memo_marker_round_trips_and_stays_optional() {
    // Records predating the marker (memo: None) serialize without the
    // field and parse back as None — old baselines stay byte-stable.
    let legacy = doc_with(vec![workload("mixed12", 100.0)]);
    let json = legacy.to_json().unwrap();
    assert!(!json.contains("\"memo\""), "{json}");
    assert_eq!(BenchDoc::from_json(&json).unwrap().memo, None);

    for memo in [true, false] {
        let mut doc = doc_with(vec![workload("mixed12", 100.0)]);
        doc.memo = Some(memo);
        let parsed = BenchDoc::from_json(&doc.to_json().unwrap()).unwrap();
        assert_eq!(parsed.memo, Some(memo));
        assert_eq!(parsed, doc);
    }
}

#[test]
fn scale_fairness_warning_fires_only_across_scales() {
    let full = doc_with(vec![]);
    let mut smoke = doc_with(vec![]);
    smoke.smoke = true;

    assert_eq!(scale_fairness_warning(&full, &full), None);
    assert_eq!(scale_fairness_warning(&smoke, &smoke), None);

    let w = scale_fairness_warning(&full, &smoke).expect("cross-scale compare warns");
    assert!(w.contains("smoke run"), "{w}");
    assert!(w.contains("full baseline"), "{w}");
    assert!(w.contains("not scale-fair"), "{w}");
    let w = scale_fairness_warning(&smoke, &full).expect("either direction warns");
    assert!(w.contains("full run"), "{w}");
    assert!(w.contains("smoke baseline"), "{w}");
}

/// A record is written once: a second write to the same path fails with
/// `AlreadyExists` and leaves the first record byte-identical.
#[test]
fn records_are_never_overwritten() {
    let dir = std::env::temp_dir().join(format!("molbench-once-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_2026-08-08.json");
    std::fs::remove_file(&path).ok();

    let first = doc_with(vec![]).to_json().unwrap();
    write_new_record(&path, &first).unwrap();
    let mut second = doc_with(vec![]);
    second.smoke = true;
    let err = write_new_record(&path, &second.to_json().unwrap()).unwrap_err();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert_eq!(on_disk, first, "the first record must survive untouched");
}

/// End-to-end routing check for the scale-fairness warning: it must land
/// on stderr, never in stdout (which piped-JSON workflows consume).
#[test]
fn molbench_routes_scale_warning_to_stderr() {
    let dir = std::env::temp_dir().join(format!("molbench-warn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A full-scale (smoke: false) baseline for a --smoke run to hit.
    let baseline = doc_with(vec![]);
    let path = dir.join("BENCH_full.json");
    std::fs::write(&path, baseline.to_json().unwrap()).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_molbench"))
        .args([
            "--smoke",
            "--refs",
            "200",
            "--samples",
            "1",
            "--budget-ms",
            "1",
            "--no-write",
            "--compare",
        ])
        .arg(&path)
        .output()
        .expect("molbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        stderr.contains("not scale-fair"),
        "warning missing from stderr:\n{stderr}"
    );
    assert!(
        !stdout.contains("not scale-fair"),
        "warning leaked into stdout:\n{stdout}"
    );
}

#[test]
fn floor_check_gates_prefixed_workloads_only() {
    const PREFIXES: &[&str] = &["single:", "miss_storm"];
    let floor = doc_with(vec![
        workload("single:ammp", 100.0),
        workload("single:mcf", 200.0),
        workload("miss_storm", 500.0),
        workload("mixed12", 1000.0),
    ]);

    // Faster or equal on every gated workload: clean, even though the
    // non-prefixed mixed12 got slower.
    let good = doc_with(vec![
        workload("single:ammp", 100.0),
        workload("single:mcf", 250.0),
        workload("miss_storm", 500.0),
        workload("mixed12", 1.0),
    ]);
    assert!(floor_check(&floor, &good, PREFIXES, 0.0).is_empty());

    // Slower on one gated workload of each family: both are reported
    // under a zero-tolerance gate.
    let slow = doc_with(vec![
        workload("single:ammp", 99.9),
        workload("single:mcf", 250.0),
        workload("miss_storm", 499.0),
        workload("mixed12", 1000.0),
    ]);
    let violations = floor_check(&floor, &slow, PREFIXES, 0.0);
    assert_eq!(violations.len(), 2);
    assert_eq!(violations[0].name, "single:ammp");
    assert_eq!(violations[0].floor_aps, 100.0);
    assert_eq!(violations[0].current_aps, Some(99.9));
    assert_eq!(violations[1].name, "miss_storm");
    assert_eq!(violations[1].current_aps, Some(499.0));

    // A gated workload missing from the current run is a violation.
    let missing = doc_with(vec![
        workload("single:ammp", 100.0),
        workload("miss_storm", 500.0),
    ]);
    let violations = floor_check(&floor, &missing, PREFIXES, 0.0);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].name, "single:mcf");
    assert_eq!(violations[0].current_aps, None);

    // A single-family prefix list leaves the other family ungated.
    let violations = floor_check(&floor, &slow, &["miss_storm"], 0.0);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].name, "miss_storm");
}

#[test]
fn floor_check_tolerance_absorbs_noise_but_not_regressions() {
    const PREFIXES: &[&str] = &["single:", "miss_storm"];
    let floor = doc_with(vec![
        workload("single:crc", 1000.0),
        workload("miss_storm", 500.0),
    ]);

    // Shortfalls inside the allowance are ties, not violations — the
    // exact boundary (floor * (1 - tol)) still passes.
    let tied = doc_with(vec![
        workload("single:crc", 901.0),
        workload("miss_storm", 450.0),
    ]);
    assert!(floor_check(&floor, &tied, PREFIXES, 0.10).is_empty());

    // Past the allowance, the violation reports the raw throughputs
    // (not tolerance-adjusted ones).
    let slow = doc_with(vec![
        workload("single:crc", 899.9),
        workload("miss_storm", 450.0),
    ]);
    let violations = floor_check(&floor, &slow, PREFIXES, 0.10);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].name, "single:crc");
    assert_eq!(violations[0].floor_aps, 1000.0);
    assert_eq!(violations[0].current_aps, Some(899.9));

    // A missing workload is a violation at any tolerance.
    let missing = doc_with(vec![workload("single:crc", 1000.0)]);
    let violations = floor_check(&floor, &missing, PREFIXES, 0.10);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].name, "miss_storm");
    assert_eq!(violations[0].current_aps, None);
}

#[test]
fn checked_in_baseline_parses_against_current_schema() {
    // Guards the trajectory: if the schema drifts, the baseline must be
    // regenerated in the same PR, or CI's --compare would break.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_baseline.json"
    );
    let text = std::fs::read_to_string(path).expect("results/BENCH_baseline.json is checked in");
    let doc = BenchDoc::from_json(&text).expect("baseline parses as molcache-bench-v1");
    for name in [
        "single:ammp",
        "single:mcf",
        "single:crc",
        "single:parser",
        "miss_storm",
        "mixed12",
        "access_batch",
        "engine_sweep_x4",
    ] {
        let w = doc
            .workload(name)
            .unwrap_or_else(|| panic!("baseline misses suite workload {name}"));
        assert!(w.accesses_per_sec > 0.0, "{name} has live throughput");
        assert!(w.median_ns_per_access > 0.0, "{name} has a median");
    }
}
