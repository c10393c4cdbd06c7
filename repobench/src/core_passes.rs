//! mixed12 and miss_storm: one `MolecularCache` driven directly through
//! `CacheModel::access`.

use crate::ledger::{time_tags, timed_access, Geometry, NO_REQUEST};
use crate::serve_pass::{lifecycle_step, Step};
use crate::sim::{Snap, Window};
use crate::{PassKind, Run, Workload, SAMPLE_EVERY, SPAN_EVERY};
use molcache_bench::experiments::table2;
use molcache_bench::workloads::{miss_storm_cache, miss_storm_requests, mixed12_requests};
use molcache_core::{MolecularCache, RegionPolicy};
use molcache_serve::CacheService;
use molcache_sim::CacheModel;
use molcache_trace::Asid;
use std::hint::black_box;
use std::time::Instant;

/// Warm-up and timed requests per pass. Warm-up fills the cache and
/// lets Algorithm 1 settle before anything is timed.
fn sizes(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::Mixed12 => (300_000, 200_000),
        Workload::MissStorm => (100_000, 200_000),
        Workload::ServeChurn => unreachable!("serve_churn has its own pass"),
    }
}

/// Requests of the timed stream the tag kernels are timed on.
pub const TAG_REQUESTS: usize = 1 << 16;

/// Lifecycle calls per pass of the post-pass lifecycle probe.
const PROBE_CALLS: usize = 2000;

/// One pass: set-up from scratch, then the timed replay.
pub fn run(run: &mut Run, kind: PassKind) {
    let setup_start = run.setup_start();
    let pass_span = run.spans.add("pass", 0, NO_REQUEST, setup_start, None);
    let setup_span = run
        .spans
        .add("setup", pass_span, NO_REQUEST, setup_start, None);
    let (warm, timed) = sizes(run.workload);

    let span = run.spans.open("trace.synth", setup_span);
    let t = Instant::now();
    let reqs = match run.workload {
        Workload::Mixed12 => mixed12_requests((warm + timed) as u64, run.seed),
        _ => miss_storm_requests((warm + timed) as u64, run.seed),
    };
    run.synth_ns += t.elapsed().as_nanos() as u64;
    run.synth_refs += reqs.len() as u64;
    run.spans.close(span);

    let span = run.spans.open("construct", setup_span);
    let mut cache = match run.workload {
        Workload::Mixed12 => table2::molecular_6mb(RegionPolicy::Randy, run.seed),
        _ => miss_storm_cache(run.seed, true),
    };
    run.spans.close(span);

    let span = run.spans.open("warmup", setup_span);
    let (warm_reqs, timed_reqs) = reqs.split_at(warm);
    for r in warm_reqs {
        black_box(cache.access(*r));
    }
    run.tally.ok(warm as u64);
    let before = Snap::of(&cache);
    run.spans.close(span);
    run.spans.close(setup_span);
    run.setup_s.push(setup_start.elapsed().as_secs_f64());

    let timed_span = run.spans.open("timed", pass_span);
    let start = Instant::now();
    match kind {
        PassKind::Plain => {
            let mut countdown = 0;
            for r in timed_reqs {
                if countdown == 0 {
                    countdown = SAMPLE_EVERY;
                    let t0 = Instant::now();
                    black_box(cache.access(*r));
                    run.request_ns.record(t0.elapsed().as_nanos() as u64);
                } else {
                    black_box(cache.access(*r));
                }
                countdown -= 1;
            }
        }
        PassKind::Traced => {
            for (i, r) in timed_reqs.iter().enumerate() {
                let (_, t0, t1, _) = timed_access(&mut cache, *r, &mut run.ledger);
                if i % SPAN_EVERY == 0 {
                    run.spans
                        .add("cache.access", timed_span, i as u64, t0, Some(t1));
                }
            }
        }
        PassKind::Bare => unreachable!("bare passes belong to serve_churn"),
    }
    let elapsed = start.elapsed();
    if kind == PassKind::Plain {
        run.plain.add(timed_reqs.len(), elapsed);
    } else {
        run.traced.add(timed_reqs.len(), elapsed);
    }
    run.spans.close(timed_span);
    run.tally.ok(timed_reqs.len() as u64);

    let mut window = Window::default();
    window.add(&cache, &before, &Snap::of(&cache));
    run.check_no_duplicates(&cache);
    let apps: Vec<(Asid, usize)> = cache
        .snapshots()
        .iter()
        .map(|s| (s.asid, cache.config().app_cluster(s.asid).unwrap_or(0)))
        .collect();
    if kind == PassKind::Traced {
        let span = run.spans.open("tags.kernels", pass_span);
        time_tags(
            Geometry::of(&cache, 1),
            &apps,
            &timed_reqs[..TAG_REQUESTS],
            &mut run.ledger,
        );
        run.spans.close(span);
        if run.tenant_table.is_empty() {
            run.tenant_table = apps
                .iter()
                .map(|&(asid, cluster)| {
                    let a = window.stats.app(asid);
                    format!(
                        "tenant asid={:<3} cluster={cluster} accesses={:<9} miss_rate={:.4} goal={} molecules={}",
                        asid.raw(),
                        a.accesses,
                        a.miss_rate(),
                        cache.config().goal(asid),
                        cache.region_size(asid).unwrap_or(0)
                    )
                })
                .collect();
        }
    }
    if kind == PassKind::Plain {
        let span = run.spans.open("lifecycle.probe", pass_span);
        lifecycle_probe(run, cache, &apps, span);
        run.spans.close(span);
    }
    run.finish_pass(kind, window, elapsed);
    run.spans.close(pass_span);
}

/// Times `CacheService` lifecycle calls on the pass's end state: the
/// cache is moved into a one-shard service, every app is admitted
/// (its region already exists), and all apps walk the lifecycle
/// [`Step::CYCLE`] together, step by step, until [`PROBE_CALLS`] calls
/// ran.
/// The simulated outputs were taken before, so the probe cannot move
/// them.
fn lifecycle_probe(run: &mut Run, cache: MolecularCache, apps: &[(Asid, usize)], parent: u32) {
    let mut slot = Some(cache);
    let service = CacheService::new(1, |_| slot.take().expect("a one-shard service"));
    let mut handles = Vec::with_capacity(apps.len());
    for &(asid, _) in apps {
        match service.admit_to(asid, 0) {
            Ok(h) => {
                run.tally.ok(1);
                handles.push(h);
            }
            Err(e) => run.tally.fail(format!("lifecycle probe admit: {e}")),
        }
    }
    let calls_per_round = handles.len() * Step::CYCLE_CALLS;
    for _ in 0..PROBE_CALLS.div_ceil(calls_per_round.max(1)) {
        for step in Step::CYCLE {
            for h in handles.iter_mut() {
                lifecycle_step(run, &service, h, step, parent, NO_REQUEST);
            }
        }
    }
    service.with_shard(0, |c| run.check_no_duplicates(c));
}
