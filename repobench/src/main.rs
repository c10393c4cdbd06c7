//! The repository benchmark: mixed12, miss_storm and serve_churn run
//! through the public APIs of `molcache-core` and `molcache-serve`.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <mixed12|miss_storm|serve_churn|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run repeats *passes* until `--seconds` have elapsed and at least
//! [`MIN_PASSES`] untraced passes ran. Each pass sets the workload up from
//! scratch (trace synthesis, construction, admission, warm-up), then
//! replays a fixed timed stream. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` interleaves untraced passes with traced ones and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; see README.md for every metric.

mod core_passes;
mod ledger;
mod serve_pass;
mod sim;
mod stats;

use ledger::{Ledger, Spans};
use molcache_sim::{AppStats, Stage};
use sim::{per, SimDigest, Window};
use stats::Samples;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest passes per run: the fast decile of per-pass figures needs ten
/// passes beyond it.
pub const MIN_PASSES: usize = 100;

/// Every request whose index is a multiple of this is timed in untraced
/// passes. 31 is coprime with the 12-app round-robin of mixed12 and the
/// 256-request turns of serve_churn, so every app is sampled.
pub const SAMPLE_EVERY: usize = 31;

/// Traced passes record a request span for one request in this many.
pub const SPAN_EVERY: usize = 997;

const USAGE: &str = "usage: repobench --workload <mixed12|miss_storm|serve_churn|all> \
                     --seed N --seconds S --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mixed12,
    MissStorm,
    ServeChurn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Mixed12, Workload::MissStorm, Workload::ServeChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed12 => "mixed12",
            Workload::MissStorm => "miss_storm",
            Workload::ServeChurn => "serve_churn",
        }
    }
}

/// What a pass does during its timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Untraced: only every [`SAMPLE_EVERY`]-th request is timed.
    Plain,
    /// Every call timed and classified; spans recorded.
    Traced,
    /// serve_churn only: the same serialized requests and lifecycle calls
    /// replayed on bare `MolecularCache`s, every call timed.
    Bare,
}

/// Lifecycle call kinds, in the order their samples are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    Admit,
    Resize,
    Evict,
    Revoke,
}

impl Lifecycle {
    const ALL: [Lifecycle; 4] = [
        Lifecycle::Admit,
        Lifecycle::Resize,
        Lifecycle::Evict,
        Lifecycle::Revoke,
    ];

    fn name(self) -> &'static str {
        match self {
            Lifecycle::Admit => "admit",
            Lifecycle::Resize => "resize",
            Lifecycle::Evict => "evict",
            Lifecycle::Revoke => "revoke",
        }
    }

    /// Span name of the service call.
    pub fn span(self) -> &'static str {
        match self {
            Lifecycle::Admit => "serve.admit_to",
            Lifecycle::Resize => "serve.resize",
            Lifecycle::Evict => "serve.evict",
            Lifecycle::Revoke => "serve.revoke",
        }
    }
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, passed: bool, why: impl FnOnce() -> String) {
        if passed {
            self.ok(1);
        } else {
            self.fail(why());
        }
    }
}

/// Requests completed and host time spent in timed phases.
#[derive(Default, Clone, Copy)]
pub struct Throughput {
    pub requests: u64,
    pub ns: u64,
}

impl Throughput {
    pub fn add(&mut self, requests: usize, elapsed: Duration) {
        self.requests += requests as u64;
        self.ns += elapsed.as_nanos() as u64;
    }
}

/// Everything a run accumulates over its passes.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    /// Process start: pass 1's set-up is counted from here.
    pub origin: Instant,
    pub tally: Tally,
    pub passes: usize,
    pub setup_s: Vec<f64>,
    pub synth_ns: u64,
    pub synth_refs: u64,
    pub plain: Throughput,
    pub traced: Throughput,
    /// This pass's sampled request latencies.
    pub request_ns: Samples,
    /// This pass's lifecycle call latencies, all kinds.
    pub lifecycle_pass_ns: Samples,
    /// The run's lifecycle call latencies by kind ([`Lifecycle::ALL`]
    /// order).
    pub lifecycle_ns: [Samples; 4],
    /// Per untraced pass: request and lifecycle percentiles, and Macc/s.
    pub request_pct: PassPercentiles,
    pub lifecycle_pct: PassPercentiles,
    pub pass_maps: Vec<f64>,
    /// The first pass's simulated outputs and counters.
    pub digest: Option<SimDigest>,
    pub window: Option<Window>,
    /// serve_churn: every tenant's lifetime stats after the first pass.
    pub tenants: Option<Vec<AppStats>>,
    pub ledger: Ledger,
    pub spans: Spans,
    /// Per-tenant lines for the traced report.
    pub tenant_table: Vec<String>,
}

impl Run {
    fn new(workload: Workload, seed: u64, origin: Instant, traced: bool) -> Run {
        Run {
            workload,
            seed,
            origin,
            tally: Tally::default(),
            passes: 0,
            setup_s: Vec::new(),
            synth_ns: 0,
            synth_refs: 0,
            plain: Throughput::default(),
            traced: Throughput::default(),
            request_ns: Samples::new(),
            lifecycle_pass_ns: Samples::new(),
            lifecycle_ns: Default::default(),
            request_pct: PassPercentiles::default(),
            lifecycle_pct: PassPercentiles::default(),
            pass_maps: Vec::new(),
            digest: None,
            window: None,
            tenants: None,
            ledger: Ledger::default(),
            spans: Spans::new(origin, traced),
            tenant_table: Vec::new(),
        }
    }

    /// Start of this pass's set-up: process start for the first pass.
    pub fn setup_start(&self) -> Instant {
        if self.passes == 0 {
            self.origin
        } else {
            Instant::now()
        }
    }

    /// Records an untraced pass's speed and percentiles, checks the
    /// pass's simulated outputs against the first pass's, and keeps the
    /// first pass's counters.
    pub fn finish_pass(&mut self, kind: PassKind, window: Window, timed: Duration) {
        if kind == PassKind::Plain {
            self.pass_maps.push(per(
                window.activity.accesses * 1000,
                timed.as_nanos() as u64,
            ));
            self.request_pct
                .add(&self.request_ns, &mut self.tally, "request");
            self.lifecycle_pct
                .add(&self.lifecycle_pass_ns, &mut self.tally, "lifecycle");
        }
        self.request_ns.clear();
        self.lifecycle_pass_ns.clear();
        let digest = window.digest();
        match self.digest {
            None => {
                self.digest = Some(digest);
                self.window = Some(window);
            }
            Some(first) => self.tally.check(first == digest, || {
                format!(
                    "pass {}: simulated outputs {digest:?} != {first:?}",
                    self.passes
                )
            }),
        }
        self.passes += 1;
    }

    /// Checks the first pass's simulated outputs against those recorded
    /// for this workload and seed, if any.
    fn check_recorded(&mut self) {
        let recorded = sim::recorded(self.workload.name(), self.seed);
        if let (Some(digest), Some(want)) = (self.digest, recorded) {
            self.tally.check(digest == want, || {
                format!("simulated outputs {digest:?} != recorded {want:?}")
            });
        }
    }

    /// Checks the one-copy-per-region invariant on a cache.
    pub fn check_no_duplicates(&mut self, cache: &molcache_core::MolecularCache) {
        let dup = cache.find_duplicate_line();
        self.tally.check(dup.is_none(), || {
            format!("duplicate line in region {dup:?}")
        });
    }
}

/// The p50 and p99 of each untraced pass.
///
/// The run reports each one's fast decile over the passes
/// ([`stats::fast_decile`]). The host's speed drifts between modes that
/// last from a fraction of a second to tens of seconds; a pass figure
/// follows the mode the pass ran in, and the fast decile is the speed
/// the program reaches in the faster modes, which moves only when the
/// host is slow for more than nine tenths of the run.
#[derive(Default)]
pub struct PassPercentiles {
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl PassPercentiles {
    /// Adds one pass's percentiles; a refused percentile fails the run.
    fn add(&mut self, s: &Samples, tally: &mut Tally, what: &str) {
        for (q, values) in [(0.5, &mut self.p50), (0.99, &mut self.p99)] {
            match s.percentile(q) {
                Ok(ns) => values.push(ns as f64),
                Err(e) => tally.fail(format!("{what} p{}: {e}", q * 100.0)),
            }
        }
        self.samples += s.len();
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

struct Report {
    workload: Workload,
    tally: Tally,
    passes: usize,
    metrics: Vec<Metric>,
    /// Printed, but left out of the result line: the tail latencies of
    /// an untraced run (see [`tails`]).
    ungated: Vec<Metric>,
    notes: Vec<String>,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad value for {flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{USAGE}"))?]
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                s @ 1..=120 => seconds = Some(s),
                _ => return Err(format!("--seconds must lie in 1..=120\n{USAGE}")),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workloads: workloads.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn run_workload(workload: Workload, args: &Args, origin: Instant) -> Run {
    let mut run = Run::new(workload, args.seed, origin, args.trace);
    let cycle: &[PassKind] = match (args.trace, workload) {
        (false, _) => &[PassKind::Plain],
        (true, Workload::ServeChurn) => &[PassKind::Plain, PassKind::Traced, PassKind::Bare],
        (true, _) => &[PassKind::Plain, PassKind::Traced],
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    // A traced run needs as many untraced passes as an untraced run.
    while i < MIN_PASSES * cycle.len() || start.elapsed() < budget || i % cycle.len() != 0 {
        let kind = cycle[i % cycle.len()];
        match workload {
            Workload::ServeChurn => serve_pass::run(&mut run, kind),
            _ => core_passes::run(&mut run, kind),
        }
        i += 1;
    }
    run.check_recorded();
    run
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

impl Report {
    fn new(run: &Run) -> Report {
        Report {
            workload: run.workload,
            tally: Tally::default(),
            passes: run.passes,
            metrics: Vec::new(),
            ungated: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// A percentile of `s` scaled by `scale`; a refusal fails the run.
    fn percentile(&mut self, name: &str, s: &Samples, q: f64, scale: f64, unit: &'static str) {
        match s.percentile(q) {
            Ok(ns) => self.push(name, ns as f64 / scale, unit, s.len()),
            Err(e) => {
                self.tally.fail(format!("{name}: percentile refused: {e}"));
                self.push(name, 0.0, unit, s.len());
            }
        }
    }

    /// The fast decile of a per-pass figure scaled by `scale`; a
    /// refusal fails the run. `samples` counts the calls or requests
    /// behind the pass figures.
    fn pass_figure(
        &mut self,
        name: &str,
        values: &[f64],
        higher_is_faster: bool,
        scale: f64,
        unit: &'static str,
        samples: u64,
    ) {
        match stats::fast_decile(values, higher_is_faster) {
            Ok(v) => self.push(name, v / scale, unit, samples),
            Err(e) => {
                self.tally.fail(format!("{name}: fast decile refused: {e}"));
                self.push(name, 0.0, unit, samples);
            }
        }
    }

    /// Like [`percentile`](Self::percentile), but a layer that did no
    /// such work on this workload reports 0 with 0 samples.
    fn layer_percentile(
        &mut self,
        name: &str,
        s: &Samples,
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        if s.is_empty() {
            self.push(name, 0.0, unit, 0);
        } else {
            self.percentile(name, s, q, scale, unit);
        }
    }
}

fn end_to_end(run: &Run) -> Report {
    let mut r = Report::new(run);
    let (req, life) = (&run.request_pct, &run.lifecycle_pct);
    r.pass_figure(
        "throughput_maps",
        &run.pass_maps,
        true,
        1.0,
        "Macc/s",
        run.plain.requests,
    );
    r.pass_figure("request_p50_ns", &req.p50, false, 1.0, "ns", req.samples);
    r.pass_figure(
        "lifecycle_p50_us",
        &life.p50,
        false,
        1e3,
        "us",
        life.samples,
    );
    // Set-up time too is a fast decile over passes: their median followed
    // the share of the run the host spent slow, and moved by 0.30–0.41
    // between sets of runs of the same code.
    let passes = run.setup_s.len() as u64;
    r.pass_figure("setup_s", &run.setup_s, false, 1.0, "s", passes);
    match peak_rss_mib() {
        Some(v) => r.push("peak_rss_mib", v, "MiB", 1),
        None => {
            r.tally
                .fail("peak_rss_mib: /proc/self/status has no VmHWM".into());
            r.push("peak_rss_mib", 0.0, "MiB", 0);
        }
    }
    let d = run.digest.expect("a run has at least one pass");
    let n = run.passes as u64;
    r.push("miss_rate", d.miss_rate, "ratio", n);
    r.push("sim_cycles_per_access", d.cycles_per_access, "cycles", n);
    r.push("energy_nj_per_access", d.energy_nj_per_access, "nJ", n);
    r.push("goal_deviation", d.goal_deviation, "ratio", n);
    let gated = r.metrics.len();
    tails(&mut r, run);
    r.ungated = r.metrics.split_off(gated);
    let maps = &run.pass_maps;
    r.notes.push(format!(
        "pass Macc/s: min={:.3} median={:.3} max={:.3}",
        maps.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(maps).unwrap_or(f64::NAN),
        maps.iter().copied().fold(0.0, f64::max)
    ));
    let recorded = if sim::recorded(run.workload.name(), run.seed).is_some() {
        "recorded for this seed"
    } else {
        "no record for this seed"
    };
    r.notes.push(format!(
        "sim-digest ({recorded}): (\"{}\", {}, {d:?}),",
        run.workload.name(),
        run.seed
    ));
    r
}

/// The p99 request and lifecycle latencies, as fast deciles over the
/// untraced passes. A pass's p99 jumps whenever a burst of host
/// contention slows more than 1 % of its calls: over ten runs their
/// spread reached 0.28–0.33 of the median, past the widest bound
/// `BENCHMARK.json` allows (0.25). So an untraced run prints them
/// without putting them in its result line, and the traced run reports
/// them with the per-layer metrics, which have no bound.
fn tails(r: &mut Report, run: &Run) {
    let (req, life) = (&run.request_pct, &run.lifecycle_pct);
    r.pass_figure("request_p99_ns", &req.p99, false, 1.0, "ns", req.samples);
    r.pass_figure(
        "lifecycle_p99_us",
        &life.p99,
        false,
        1e3,
        "us",
        life.samples,
    );
}

fn per_layer(run: &Run) -> Report {
    let mut r = Report::new(run);
    let w = run.window.as_ref().expect("a run has at least one pass");
    let l = &run.ledger;
    let acc = w.activity.accesses;
    r.push(
        "trace.synth_ns_per_ref",
        per(run.synth_ns, run.synth_refs),
        "ns",
        run.synth_refs,
    );

    r.layer_percentile("tags.gate_scan_ns", &l.gate_scan, 0.5, 1.0, "ns");
    r.layer_percentile("tags.probe_ns", &l.probe, 0.5, 1.0, "ns");
    r.push(
        "tags.asid_compares_per_access",
        per(w.activity.asid_compares, acc),
        "count",
        acc,
    );
    r.push(
        "tags.tag_probes_per_access",
        per(w.activity.ways_probed, acc),
        "count",
        acc,
    );

    r.push(
        "pipeline.ulmo_search_share",
        per(w.activity.ulmo_searches, acc),
        "ratio",
        acc,
    );
    for stage in Stage::ALL {
        let name = format!(
            "pipeline.{}.cycles_per_access",
            stage.name().replace('-', "_")
        );
        r.push(name, w.stage_cycles_per_access(stage), "cycles", acc);
    }

    r.push(
        "memo.hit_rate",
        per(w.memo_hits, w.memo_lookups),
        "ratio",
        w.memo_lookups,
    );
    r.push(
        "memo.stale_share",
        per(w.memo_stale, w.memo_lookups),
        "ratio",
        w.memo_lookups,
    );
    r.push(
        "memo.generation_bumps",
        w.generation_bumps as f64,
        "count",
        1,
    );

    r.layer_percentile("cache.memo_hit_ns", &l.memo_hit, 0.5, 1.0, "ns");
    r.layer_percentile("cache.hit_ns", &l.hit, 0.5, 1.0, "ns");
    r.layer_percentile("cache.miss_ns", &l.miss, 0.5, 1.0, "ns");
    r.layer_percentile("cache.miss_p99_ns", &l.miss, 0.99, 1.0, "ns");
    r.push("cache.memo_hit_count", l.memo_hit.len() as f64, "count", 1);
    r.push("cache.hit_count", l.hit.len() as f64, "count", 1);
    r.push("cache.miss_count", l.miss.len() as f64, "count", 1);

    r.push("policy.resize_rounds", w.resize_rounds as f64, "count", 1);
    r.layer_percentile("policy.round_call_us", &l.round, 0.5, 1e3, "us");
    r.push("policy.round_call_count", l.round.len() as f64, "count", 1);
    r.push(
        "resize.failed_allocations",
        w.failed_allocations as f64,
        "count",
        1,
    );

    for (kind, s) in Lifecycle::ALL.iter().zip(&run.lifecycle_ns) {
        r.layer_percentile(&format!("lifecycle.{}_us", kind.name()), s, 0.5, 1e3, "us");
        r.push(
            format!("lifecycle.{}_count", kind.name()),
            s.len() as f64,
            "count",
            1,
        );
    }

    let self_ns = match (l.service.percentile(0.5), l.bare.percentile(0.5)) {
        (Ok(service), Ok(bare)) => service as f64 - bare as f64,
        _ if l.service.is_empty() && l.bare.is_empty() => 0.0,
        (s, b) => {
            r.tally.fail(format!(
                "serve.self_ns_per_access: percentile refused: {s:?} {b:?}"
            ));
            0.0
        }
    };
    r.push(
        "serve.self_ns_per_access",
        self_ns,
        "ns",
        l.service.len().min(l.bare.len()),
    );
    r.push(
        "serve.lock_acquisitions",
        w.lock_acquisitions as f64,
        "count",
        1,
    );
    r.push(
        "serve.contended_share",
        per(w.lock_contended, w.lock_acquisitions),
        "ratio",
        w.lock_acquisitions,
    );
    r.push("serve.lock_wait_ns", w.lock_wait_ns as f64, "ns", 1);
    r.push(
        "serve.revoked_rejects",
        w.revoked_rejects as f64,
        "count",
        1,
    );

    tails(&mut r, run);
    r.push(
        "bench.trace_overhead",
        per(
            run.traced.requests * run.plain.ns,
            run.traced.ns * run.plain.requests,
        ) - 1.0,
        "ratio",
        run.traced.requests,
    );

    for (name, n, total, own) in run.spans.self_times() {
        r.notes.push(format!(
            "span {name:<24} n={n:<8} total_ms={:<12.3} self_ms={:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    r.notes.extend(run.tenant_table.iter().cloned());
    match write_spans(run) {
        Ok(path) => r.notes.push(format!("spans written to {path}")),
        Err(e) => r.tally.fail(format!("writing spans: {e}")),
    }
    r
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(run: &Run) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.jsonl", run.workload.name(), run.seed);
    std::fs::write(&path, run.spans.to_jsonl())?;
    Ok(path)
}

fn print_report(r: &Report) {
    println!("== {} ({} passes)", r.workload.name(), r.passes);
    for m in &r.metrics {
        println!(
            "  {:<40} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &r.ungated {
        println!(
            "  {:<40} {:>16.6} {:<8} n={} (not in the result line)",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &r.notes {
        println!("  {note}");
    }
    println!(
        "  operations: attempted={} succeeded={} failed={}",
        r.tally.attempted,
        r.tally.attempted - r.tally.failed,
        r.tally.failed
    );
    for note in &r.tally.notes {
        println!("  FAILED: {note}");
    }
}

/// The final result line. With several workloads, metric names carry a
/// `<workload>/` prefix.
fn result_json(reports: &[Report]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.tally.failed).sum();
    let mut metrics = String::new();
    for r in reports {
        for m in &r.metrics {
            let name = if reports.len() == 1 {
                m.name.clone()
            } else {
                format!("{}/{}", r.workload.name(), m.name)
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut reports = Vec::new();
    for (i, &workload) in args.workloads.iter().enumerate() {
        // Only the first workload's set-up includes process start.
        let start = if i == 0 { origin } else { Instant::now() };
        let run = run_workload(workload, &args, start);
        let mut report = if args.trace {
            per_layer(&run)
        } else {
            end_to_end(&run)
        };
        let run_tally = run.tally;
        report.tally.attempted += run_tally.attempted;
        report.tally.failed += run_tally.failed;
        report.tally.notes.extend(run_tally.notes);
        print_report(&report);
        reports.push(report);
    }
    println!("{}", result_json(&reports));
    if reports.iter().any(|r| r.tally.failed > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
