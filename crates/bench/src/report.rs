//! `BENCH_*.json` — the `molcache-bench-v1` performance-trajectory
//! record, and the `--compare` regression math.
//!
//! A bench record is one dated snapshot of the simulator's wall-clock
//! performance: per-workload ns/access statistics (min/median/mean over
//! the individually-timed samples of [`crate::stopwatch::measure`]),
//! throughput in accesses/sec derived from the median sample, the
//! [`MachineInfo`] that produced the numbers, and — when the
//! `stage-profiler` feature ran — the sampled host-time split across the
//! pipeline stages. Records serialize through the workspace's hand-rolled
//! JSON ([`molcache_metrics::json`]) and round-trip exactly.
//!
//! [`compare`] turns two records into per-workload deltas;
//! `molbench --compare` exits non-zero when any workload regresses more
//! than [`REGRESSION_TOLERANCE`] or disappears from the suite, which is
//! what makes the checked-in `results/BENCH_baseline.json` a CI gate
//! rather than documentation.

use crate::machine::MachineInfo;
use crate::stopwatch::Timing;
use molcache_metrics::json::{parse, JsonError, Value};

/// Schema tag every bench record carries.
pub const BENCH_SCHEMA: &str = "molcache-bench-v1";

/// Default throughput-regression tolerance of the `--compare` gate: a
/// workload fails when its accesses/sec falls *strictly more* than 20 %
/// below the baseline.
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// Measured performance of one suite workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Stable workload name (`single:ammp`, `mixed12`, ...). Names key
    /// the `--compare` match, so they must not encode machine facts.
    pub name: String,
    /// Accesses driven per timed iteration.
    pub accesses_per_iter: u64,
    /// Timed iterations collected.
    pub samples: usize,
    /// Fastest iteration, normalized per access.
    pub min_ns_per_access: f64,
    /// Median iteration, normalized per access.
    pub median_ns_per_access: f64,
    /// Mean iteration, normalized per access.
    pub mean_ns_per_access: f64,
    /// Best-sample throughput, derived from the fastest iteration.
    /// The regression gate compares this statistic: host noise (noisy
    /// neighbors, CPU steal, frequency scaling) only ever *adds* time,
    /// so the fastest of N samples is far more stable across runs than
    /// the median — a real code regression still slows every sample,
    /// including the best one.
    pub accesses_per_sec: f64,
}

impl WorkloadResult {
    /// Normalizes a [`Timing`] into per-access statistics.
    pub fn from_timing(name: &str, accesses_per_iter: u64, t: &Timing) -> WorkloadResult {
        let per = |ns: f64| {
            if accesses_per_iter == 0 {
                0.0
            } else {
                ns / accesses_per_iter as f64
            }
        };
        let min = per(t.min_ns() as f64);
        WorkloadResult {
            name: name.to_string(),
            accesses_per_iter,
            samples: t.count(),
            min_ns_per_access: min,
            median_ns_per_access: per(t.median_ns()),
            mean_ns_per_access: per(t.mean_ns()),
            accesses_per_sec: if min > 0.0 { 1e9 / min } else { 0.0 },
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            (
                "accesses_per_iter".into(),
                Value::Number(self.accesses_per_iter as f64),
            ),
            ("samples".into(), Value::Number(self.samples as f64)),
            (
                "ns_per_access".into(),
                Value::Object(vec![
                    ("min".into(), Value::Number(self.min_ns_per_access)),
                    ("median".into(), Value::Number(self.median_ns_per_access)),
                    ("mean".into(), Value::Number(self.mean_ns_per_access)),
                ]),
            ),
            (
                "accesses_per_sec".into(),
                Value::Number(self.accesses_per_sec),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<WorkloadResult> {
        let ns = v.get("ns_per_access")?;
        Some(WorkloadResult {
            name: v.get("name")?.as_str()?.to_string(),
            accesses_per_iter: v.get("accesses_per_iter")?.as_f64()? as u64,
            samples: v.get("samples")?.as_f64()? as usize,
            min_ns_per_access: ns.get("min")?.as_f64()?,
            median_ns_per_access: ns.get("median")?.as_f64()?,
            mean_ns_per_access: ns.get("mean")?.as_f64()?,
            accesses_per_sec: v.get("accesses_per_sec")?.as_f64()?,
        })
    }
}

/// Sampled host-time stage split stored in a bench record when the
/// `stage-profiler` feature ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProfileRecord {
    /// Sampling stride the profiler ran with.
    pub sample_every: u64,
    /// Accesses actually timed.
    pub sampled_accesses: u64,
    /// `(stage name, wall nanoseconds)` in pipeline order.
    pub stages: Vec<(String, u64)>,
}

impl StageProfileRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "sample_every".into(),
                Value::Number(self.sample_every as f64),
            ),
            (
                "sampled_accesses".into(),
                Value::Number(self.sampled_accesses as f64),
            ),
            (
                "stages".into(),
                Value::Array(
                    self.stages
                        .iter()
                        .map(|(name, ns)| {
                            Value::Object(vec![
                                ("stage".into(), Value::String(name.clone())),
                                ("wall_ns".into(), Value::Number(*ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<StageProfileRecord> {
        let stages = v
            .get("stages")?
            .as_array()?
            .iter()
            .map(|s| {
                Some((
                    s.get("stage")?.as_str()?.to_string(),
                    s.get("wall_ns")?.as_f64()? as u64,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(StageProfileRecord {
            sample_every: v.get("sample_every")?.as_f64()? as u64,
            sampled_accesses: v.get("sampled_accesses")?.as_f64()? as u64,
            stages,
        })
    }
}

/// One dated `molcache-bench-v1` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// UTC date the record was taken (`YYYY-MM-DD`).
    pub date: String,
    /// Whether this was a `--smoke` (reduced-scale) run.
    pub smoke: bool,
    /// Whether the memoization front-end was active for the run. `None`
    /// on records predating the flag (readers treat unknown as "the
    /// build default"); serialized only when known, so old baselines
    /// keep round-tripping byte-exactly.
    pub memo: Option<bool>,
    /// Host that produced the numbers.
    pub machine: MachineInfo,
    /// One entry per suite workload, in suite order.
    pub workloads: Vec<WorkloadResult>,
    /// Host-time stage split, when the profiler feature ran.
    pub stage_profile: Option<StageProfileRecord>,
}

impl BenchDoc {
    /// The file name a record is stored under (`BENCH_<date>.json`).
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// The workload named `name`, if the record holds it.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// The record as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema".into(), Value::String(BENCH_SCHEMA.into())),
            ("date".into(), Value::String(self.date.clone())),
            ("smoke".into(), Value::Bool(self.smoke)),
        ];
        if let Some(memo) = self.memo {
            fields.push(("memo".into(), Value::Bool(memo)));
        }
        fields.extend([
            ("machine".into(), self.machine.to_value()),
            (
                "workloads".into(),
                Value::Array(
                    self.workloads
                        .iter()
                        .map(WorkloadResult::to_value)
                        .collect(),
                ),
            ),
        ]);
        if let Some(profile) = &self.stage_profile {
            fields.push(("stage_profile".into(), profile.to_value()));
        }
        Value::Object(fields)
    }

    /// Pretty-printed JSON of the record.
    pub fn to_json(&self) -> Result<String, JsonError> {
        self.to_value().to_json()
    }

    /// Parses a record, rejecting unknown schemas and malformed shapes.
    pub fn from_json(text: &str) -> Result<BenchDoc, String> {
        let v = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema field")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (want {BENCH_SCHEMA})"
            ));
        }
        let machine = v
            .get("machine")
            .and_then(MachineInfo::from_value)
            .ok_or("missing or malformed machine object")?;
        let workloads = v
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("missing workloads array")?
            .iter()
            .map(WorkloadResult::from_value)
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed workload entry")?;
        let stage_profile = match v.get("stage_profile") {
            Some(p) => Some(StageProfileRecord::from_value(p).ok_or("malformed stage_profile")?),
            None => None,
        };
        Ok(BenchDoc {
            date: v
                .get("date")
                .and_then(Value::as_str)
                .ok_or("missing date field")?
                .to_string(),
            smoke: matches!(v.get("smoke"), Some(Value::Bool(true))),
            memo: match v.get("memo") {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            },
            machine,
            workloads,
            stage_profile,
        })
    }
}

/// Outcome of comparing one workload of a fresh run against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDelta {
    /// Workload name (from the baseline record).
    pub name: String,
    /// Baseline throughput in accesses/sec.
    pub baseline_aps: f64,
    /// Current throughput, `None` when the workload vanished from the
    /// fresh run.
    pub current_aps: Option<f64>,
    /// `current / baseline`, `None` when the workload is missing or the
    /// baseline throughput is zero (no meaningful ratio exists).
    pub ratio: Option<f64>,
    /// Whether this workload fails the gate.
    pub regressed: bool,
}

/// Per-workload throughput deltas of `current` against `baseline`.
///
/// A workload **regresses** when its accesses/sec falls strictly more
/// than `tolerance` below the baseline — a drop of exactly `tolerance`
/// still passes — or when it is missing from the current run (a
/// silently-shrinking suite must not read as "no regressions"). A
/// zero-throughput baseline cannot regress: there is no ratio to fall
/// below, so the delta carries `ratio: None` and passes. Workloads that
/// exist only in the current run are new coverage and produce no delta.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc, tolerance: f64) -> Vec<WorkloadDelta> {
    baseline
        .workloads
        .iter()
        .map(|base| {
            let cur = current.workload(&base.name);
            match cur {
                None => WorkloadDelta {
                    name: base.name.clone(),
                    baseline_aps: base.accesses_per_sec,
                    current_aps: None,
                    ratio: None,
                    regressed: true,
                },
                Some(cur) => {
                    let (ratio, regressed) = if base.accesses_per_sec > 0.0 {
                        let ratio = cur.accesses_per_sec / base.accesses_per_sec;
                        (Some(ratio), ratio < 1.0 - tolerance)
                    } else {
                        (None, false)
                    };
                    WorkloadDelta {
                        name: base.name.clone(),
                        baseline_aps: base.accesses_per_sec,
                        current_aps: Some(cur.accesses_per_sec),
                        ratio,
                        regressed,
                    }
                }
            }
        })
        .collect()
}

/// The deltas that fail the gate.
pub fn regressions(deltas: &[WorkloadDelta]) -> Vec<&WorkloadDelta> {
    deltas.iter().filter(|d| d.regressed).collect()
}

/// The warning `--compare` emits when a smoke run is diffed against a
/// full-scale baseline (or vice versa): workloads with fixed
/// per-iteration setup (engine_sweep) amortize differently across
/// scales, so deltas are only fair scale-against-scale. Returns `None`
/// when the scales match. Centralized here so the routing is testable —
/// `molbench` must print it to **stderr**, never into the stdout JSON
/// pipelines consume.
pub fn scale_fairness_warning(baseline: &BenchDoc, current: &BenchDoc) -> Option<String> {
    if baseline.smoke == current.smoke {
        return None;
    }
    let label = |smoke: bool| if smoke { "smoke" } else { "full" };
    Some(format!(
        "molbench: warning: comparing a {} run against a {} baseline — \
         deltas are not scale-fair",
        label(current.smoke),
        label(baseline.smoke),
    ))
}

/// One workload that fell below its floor record (see [`floor_check`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FloorViolation {
    /// Workload name.
    pub name: String,
    /// Throughput of the floor record, in accesses/sec.
    pub floor_aps: f64,
    /// Throughput of the current run; `None` when the workload vanished.
    pub current_aps: Option<f64>,
}

/// The strict-win CI gate: every workload of `floor` whose name starts
/// with any of `prefixes` must be at least as fast in `current`, up to
/// a small `tolerance` (fraction of the floor throughput) absorbing
/// shared-host measurement noise. Used with `floor` = the
/// previous-build record and `current` = the optimized one — memo-on
/// vs memo-off since PR 7, and since the miss-path overhaul also the
/// miss-heavy workloads (`single:*` plus `miss_storm`), so neither the
/// memoization front-end nor the cached search lists can silently
/// become a pessimization on the paths they exist to accelerate.
///
/// The tolerance exists because the miss-path overhaul itself shrank
/// the margins it gates: with the miss pipeline ~5× faster, memo-on vs
/// memo-off is a tie in expectation on miss-dominated workloads
/// (`single:crc`, `miss_storm`), and same-job run-to-run noise on the
/// shared bimodally-throttled hosts swings best-of-N by ±5–10 %. A
/// literally strict floor would fail at random on a tie; the allowance
/// keeps the gate deterministic while still catching any structural
/// pessimization (pre-overhaul, breaking these paths cost 5×, not
/// 10 %). A workload missing from `current` is a violation;
/// zero-throughput floor entries cannot be fallen below.
pub fn floor_check(
    floor: &BenchDoc,
    current: &BenchDoc,
    prefixes: &[&str],
    tolerance: f64,
) -> Vec<FloorViolation> {
    floor
        .workloads
        .iter()
        .filter(|w| prefixes.iter().any(|p| w.name.starts_with(p)))
        .filter_map(|base| match current.workload(&base.name) {
            None => Some(FloorViolation {
                name: base.name.clone(),
                floor_aps: base.accesses_per_sec,
                current_aps: None,
            }),
            Some(cur) if cur.accesses_per_sec < base.accesses_per_sec * (1.0 - tolerance) => {
                Some(FloorViolation {
                    name: base.name.clone(),
                    floor_aps: base.accesses_per_sec,
                    current_aps: Some(cur.accesses_per_sec),
                })
            }
            Some(_) => None,
        })
        .collect()
}

/// Renders the comparison as the table `molbench --compare` prints.
pub fn render_comparison(deltas: &[WorkloadDelta], tolerance: f64) -> String {
    let mut out = format!(
        "{:<24} {:>14} {:>14} {:>8}  verdict (tolerance -{:.0}%)\n",
        "workload",
        "baseline acc/s",
        "current acc/s",
        "delta",
        tolerance * 100.0
    );
    for d in deltas {
        let current = match d.current_aps {
            Some(aps) => format!("{aps:.0}"),
            None => "missing".to_string(),
        };
        let delta = match d.ratio {
            Some(r) => format!("{:+.1}%", (r - 1.0) * 100.0),
            None => "-".to_string(),
        };
        let verdict = if d.regressed { "REGRESSED" } else { "ok" };
        out.push_str(&format!(
            "{:<24} {:>14.0} {:>14} {:>8}  {}\n",
            d.name, d.baseline_aps, current, delta, verdict
        ));
    }
    out
}

/// Writes a record to `path`, refusing to replace an existing file: a
/// checked-in record is evidence, and a second run on the same day must
/// pick another name rather than silently overwrite the first. Fails
/// with [`std::io::ErrorKind::AlreadyExists`] when `path` exists.
pub fn write_new_record(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)?
        .write_all(text.as_bytes())
}

/// Today's UTC date as `YYYY-MM-DD` (the workspace builds without
/// chrono, so the civil-date conversion is hand-rolled).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    date_from_unix(secs)
}

/// `YYYY-MM-DD` (UTC) of a Unix timestamp in seconds.
pub fn date_from_unix(secs: u64) -> String {
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to (year, month, day), via Howard Hinnant's
/// `civil_from_days` algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_from_unix_seconds() {
        assert_eq!(date_from_unix(0), "1970-01-01");
        assert_eq!(date_from_unix(86_399), "1970-01-01");
        assert_eq!(date_from_unix(86_400), "1970-01-02");
        assert_eq!(date_from_unix(1_704_067_200), "2024-01-01");
        // Leap day: 2024-02-29 00:00:00 UTC.
        assert_eq!(date_from_unix(1_709_164_800), "2024-02-29");
    }

    #[test]
    fn workload_from_timing_normalizes_per_access() {
        let t = Timing::from_samples(vec![2_000_000, 1_000_000, 3_000_000]);
        let w = WorkloadResult::from_timing("mixed12", 1_000, &t);
        assert_eq!(w.samples, 3);
        assert_eq!(w.min_ns_per_access, 1_000.0);
        assert_eq!(w.median_ns_per_access, 2_000.0);
        assert_eq!(w.mean_ns_per_access, 2_000.0);
        // Gate throughput comes from the best sample, not the median.
        assert_eq!(w.accesses_per_sec, 1e9 / 1_000.0);
    }

    #[test]
    fn zero_work_produces_zero_throughput_not_infinity() {
        let w = WorkloadResult::from_timing("empty", 0, &Timing::default());
        assert_eq!(w.accesses_per_sec, 0.0);
        assert_eq!(w.median_ns_per_access, 0.0);
    }
}
