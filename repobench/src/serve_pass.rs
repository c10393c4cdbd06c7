//! serve_churn: `CacheService` with 8 tenants on 4 shards, one client
//! thread, and lifecycle calls at fixed request indices.

use crate::core_passes::TAG_REQUESTS;
use crate::ledger::{time_tags, timed_access, Geometry, NO_REQUEST};
use crate::sim::{Snap, Window};
use crate::{Lifecycle, PassKind, Run, SAMPLE_EVERY, SPAN_EVERY};
use molcache_bench::workloads::{cache_1mb, SERVE_CHUNK};
use molcache_core::MolecularCache;
use molcache_serve::{CacheService, ServeError, TenantHandle};
use molcache_sim::{AppStats, CacheModel, Request};
use molcache_telemetry::ShardContention;
use molcache_trace::tenants::{interleave_chunked, tenant_traces};
use molcache_trace::{AccessKind, Address, Asid};
use std::hint::black_box;
use std::time::Instant;

const TENANTS: usize = 8;
const SHARDS: usize = 4;
const WARM: usize = 200_000;
const TIMED: usize = 400_000;
/// One lifecycle step every this many timed requests (the first at
/// half that index).
const STEP_EVERY: usize = 128;
/// Region sizes, in molecules, of the grow and shrink steps.
const GROW_TO: usize = 48;
const SHRINK_TO: usize = 8;

/// A lifecycle step. `Revoke` revokes the tenancy, checks that the old
/// handle is rejected with `Revoked`, and re-admits the tenant on its
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Grow,
    Shrink,
    Evict,
    Revoke,
}

impl Step {
    /// One tenant's lifecycle cycle: the four operations of the churn in
    /// equal turns. No traffic source fixes their mix, so none is
    /// favoured. With a revoke's re-admit, one cycle is five calls: a
    /// grow and a shrink resize, an evict, a revoke and an admit.
    pub const CYCLE: [Step; 4] = [Step::Grow, Step::Shrink, Step::Evict, Step::Revoke];

    /// Service calls one [`CYCLE`](Self::CYCLE) makes (a revoke also
    /// re-admits).
    pub const CYCLE_CALLS: usize = Step::CYCLE.len() + 1;

    /// The k-th step of the churn schedule and its tenant: tenants take
    /// turns, and each tenant walks its own cycle.
    fn nth(k: usize) -> (usize, Step) {
        (k % TENANTS, Step::CYCLE[(k / TENANTS) % Step::CYCLE.len()])
    }
}

fn shard_cache(seed: u64, shard: usize) -> MolecularCache {
    cache_1mb(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn asid_of(tenant: usize) -> Asid {
    Asid::new(tenant as u16 + 1)
}

fn tenant_of(req: &Request) -> usize {
    req.asid.raw() as usize - 1
}

/// Times one lifecycle call through the service; an error fails it.
fn timed_call<T>(
    run: &mut Run,
    kind: Lifecycle,
    parent: u32,
    request: u64,
    call: impl FnOnce() -> Result<T, ServeError>,
) -> Option<T> {
    let t0 = Instant::now();
    let res = call();
    let t1 = Instant::now();
    let ns = t1.duration_since(t0).as_nanos() as u64;
    run.lifecycle_ns[kind as usize].record(ns);
    run.lifecycle_pass_ns.record(ns);
    run.spans.add(kind.span(), parent, request, t0, Some(t1));
    match res {
        Ok(v) => {
            run.tally.ok(1);
            Some(v)
        }
        Err(e) => {
            run.tally.fail(format!("{}: {e}", kind.span()));
            None
        }
    }
}

/// Runs one lifecycle step on `handle` through the service. Returns
/// whether the revoked handle was rejected (for `Revoke` steps).
pub fn lifecycle_step(
    run: &mut Run,
    service: &CacheService,
    handle: &mut TenantHandle,
    step: Step,
    parent: u32,
    request: u64,
) -> bool {
    let h = *handle;
    match step {
        Step::Grow => {
            timed_call(run, Lifecycle::Resize, parent, request, || {
                service.resize(&h, GROW_TO)
            });
        }
        Step::Shrink => {
            timed_call(run, Lifecycle::Resize, parent, request, || {
                service.resize(&h, SHRINK_TO)
            });
        }
        Step::Evict => {
            timed_call(run, Lifecycle::Evict, parent, request, || service.evict(&h));
        }
        Step::Revoke => {
            timed_call(run, Lifecycle::Revoke, parent, request, || {
                service.revoke(&h)
            });
            let probe = Request {
                asid: h.asid(),
                addr: Address::new(0),
                kind: AccessKind::Read,
            };
            let old = service.access(&h, probe);
            let rejected = old == Err(ServeError::Revoked(h.asid()));
            run.tally.check(rejected, || {
                format!("access through a revoked handle returned {old:?}")
            });
            if let Some(fresh) = timed_call(run, Lifecycle::Admit, parent, request, || {
                service.admit_to(h.asid(), h.shard())
            }) {
                *handle = fresh;
            }
            return rejected;
        }
    }
    false
}

/// The same step on bare caches, through the core calls the service
/// makes.
fn bare_step(caches: &mut [MolecularCache], tenant: usize, step: Step) {
    let asid = asid_of(tenant);
    let cache = &mut caches[tenant % SHARDS];
    match step {
        Step::Grow => {
            cache.set_region_size(asid, GROW_TO);
        }
        Step::Shrink => {
            cache.set_region_size(asid, SHRINK_TO);
        }
        Step::Evict => {
            cache.flush_region(asid);
        }
        Step::Revoke => {
            cache.release_region(asid);
            cache.admit_app(asid);
        }
    }
}

fn lock_totals(c: &[ShardContention]) -> (u64, u64, u64) {
    c.iter().fold((0, 0, 0), |(a, b, w), s| {
        (a + s.acquisitions, b + s.contended, w + s.lock_wait_ns)
    })
}

/// One pass: set-up from scratch, then the timed replay.
pub fn run(run: &mut Run, kind: PassKind) {
    let setup_start = run.setup_start();
    let pass_span = run.spans.add("pass", 0, NO_REQUEST, setup_start, None);
    let setup_span = run
        .spans
        .add("setup", pass_span, NO_REQUEST, setup_start, None);

    let span = run.spans.open("trace.synth", setup_span);
    let t = Instant::now();
    let traces = tenant_traces(TENANTS, ((WARM + TIMED) / TENANTS) as u64, run.seed);
    let reqs: Vec<Request> = interleave_chunked(&traces, SERVE_CHUNK)
        .into_iter()
        .map(Request::from)
        .collect();
    drop(traces);
    run.synth_ns += t.elapsed().as_nanos() as u64;
    run.synth_refs += reqs.len() as u64;
    run.spans.close(span);
    let (warm, timed) = reqs.split_at(WARM);

    if kind == PassKind::Bare {
        bare_pass(run, warm, timed, setup_start, pass_span, setup_span);
    } else {
        service_pass(run, kind, warm, timed, setup_start, pass_span, setup_span);
    }
    run.spans.close(pass_span);
}

fn service_pass(
    run: &mut Run,
    kind: PassKind,
    warm: &[Request],
    timed: &[Request],
    setup_start: Instant,
    pass_span: u32,
    setup_span: u32,
) {
    let span = run.spans.open("construct", setup_span);
    let service = CacheService::new(SHARDS, |i| shard_cache(run.seed, i));
    let mut handles = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        match service.admit_to(asid_of(t), t % SHARDS) {
            Ok(h) => handles.push(h),
            Err(e) => {
                run.tally.fail(format!("admitting tenant {t}: {e}"));
                return;
            }
        }
    }
    run.tally.ok(TENANTS as u64);
    run.spans.close(span);

    let span = run.spans.open("warmup", setup_span);
    let mut errors = 0u64;
    for r in warm {
        if let Err(e) = service.access(&handles[tenant_of(r)], *r) {
            errors += 1;
            run.tally.fail(format!("warm-up access: {e}"));
        }
    }
    run.tally.ok(warm.len() as u64 - errors);
    let before: Vec<Snap> = (0..SHARDS)
        .map(|s| service.with_shard(s, Snap::of))
        .collect();
    let locks_before = lock_totals(&service.contention());
    run.spans.close(span);
    run.spans.close(setup_span);
    run.setup_s.push(setup_start.elapsed().as_secs_f64());

    let timed_span = run.spans.open("timed", pass_span);
    let mut errors = 0u64;
    let mut rejects = 0u64;
    let mut next_step = STEP_EVERY / 2;
    let mut k = 0;
    let mut countdown = 0;
    let start = Instant::now();
    for (i, r) in timed.iter().enumerate() {
        if i == next_step {
            let (tenant, step) = Step::nth(k);
            let h = &mut handles[tenant];
            rejects += u64::from(lifecycle_step(run, &service, h, step, timed_span, i as u64));
            k += 1;
            next_step += STEP_EVERY;
        }
        let h = &handles[tenant_of(r)];
        let res = match kind {
            PassKind::Plain if countdown == 0 => {
                countdown = SAMPLE_EVERY;
                let t0 = Instant::now();
                let res = service.access(h, *r);
                run.request_ns.record(t0.elapsed().as_nanos() as u64);
                res
            }
            PassKind::Plain => service.access(h, *r),
            _ => {
                let t0 = Instant::now();
                let res = service.access(h, *r);
                let t1 = Instant::now();
                run.ledger
                    .service
                    .record(t1.duration_since(t0).as_nanos() as u64);
                if i % SPAN_EVERY == 0 {
                    run.spans
                        .add("serve.access", timed_span, i as u64, t0, Some(t1));
                }
                res
            }
        };
        if kind == PassKind::Plain {
            countdown -= 1;
        }
        match res {
            Ok(out) => {
                black_box(out);
            }
            Err(e) => {
                errors += 1;
                run.tally.fail(format!("request {i}: {e}"));
            }
        }
    }
    let elapsed = start.elapsed();
    if kind == PassKind::Plain {
        run.plain.add(timed.len(), elapsed);
    } else {
        run.traced.add(timed.len(), elapsed);
    }
    run.spans.close(timed_span);
    run.tally.ok(timed.len() as u64 - errors);

    let (acq, contended, wait) = lock_totals(&service.contention());
    let mut window = Window {
        lock_acquisitions: acq - locks_before.0,
        lock_contended: contended - locks_before.1,
        lock_wait_ns: wait - locks_before.2,
        revoked_rejects: rejects,
        ..Window::default()
    };
    for (s, base) in before.iter().enumerate() {
        service.with_shard(s, |c| {
            window.add(c, base, &Snap::of(c));
            run.check_no_duplicates(c);
        });
    }
    let stats: Vec<AppStats> = handles
        .iter()
        .map(|h| service.tenant_stats(h).unwrap_or_default())
        .collect();
    check_tenants(run, stats, "service");

    if kind == PassKind::Traced {
        let span = run.spans.open("tags.kernels", pass_span);
        let apps: Vec<(Asid, usize)> = (0..TENANTS).map(|t| (asid_of(t), t % SHARDS)).collect();
        let geom = service.with_shard(0, |c| Geometry::of(c, SHARDS));
        time_tags(geom, &apps, &timed[..TAG_REQUESTS], &mut run.ledger);
        run.spans.close(span);
        if run.tenant_table.is_empty() {
            run.tenant_table = handles
                .iter()
                .map(|h| {
                    let a = window.stats.app(h.asid());
                    format!(
                        "tenant asid={:<3} shard={} accesses={:<9} miss_rate={:.4} molecules={}",
                        h.asid().raw(),
                        h.shard(),
                        a.accesses,
                        a.miss_rate(),
                        service.tenant_region_size(h).unwrap_or(0)
                    )
                })
                .collect();
        }
    }
    run.finish_pass(kind, window, elapsed);
}

/// Replays the pass's requests and lifecycle calls on bare caches, one
/// per shard: the reference the service's per-tenant stats must equal,
/// and the baseline of `serve.self_ns_per_access`.
fn bare_pass(
    run: &mut Run,
    warm: &[Request],
    timed: &[Request],
    setup_start: Instant,
    pass_span: u32,
    setup_span: u32,
) {
    let span = run.spans.open("construct", setup_span);
    let mut caches: Vec<MolecularCache> = (0..SHARDS).map(|i| shard_cache(run.seed, i)).collect();
    for t in 0..TENANTS {
        caches[t % SHARDS].admit_app(asid_of(t));
    }
    run.spans.close(span);

    let span = run.spans.open("warmup", setup_span);
    for r in warm {
        black_box(caches[tenant_of(r) % SHARDS].access(*r));
    }
    let before: Vec<Snap> = caches.iter().map(Snap::of).collect();
    run.spans.close(span);
    run.spans.close(setup_span);
    run.setup_s.push(setup_start.elapsed().as_secs_f64());

    let timed_span = run.spans.open("timed", pass_span);
    let mut next_step = STEP_EVERY / 2;
    let mut k = 0;
    let start = Instant::now();
    for (i, r) in timed.iter().enumerate() {
        if i == next_step {
            let (tenant, step) = Step::nth(k);
            bare_step(&mut caches, tenant, step);
            k += 1;
            next_step += STEP_EVERY;
        }
        let cache = &mut caches[tenant_of(r) % SHARDS];
        let (_, t0, t1, ns) = timed_access(cache, *r, &mut run.ledger);
        run.ledger.bare.record(ns);
        if i % SPAN_EVERY == 0 {
            run.spans
                .add("cache.access", timed_span, i as u64, t0, Some(t1));
        }
    }
    run.spans.close(timed_span);

    let mut window = Window::default();
    for (c, base) in caches.iter().zip(&before) {
        window.add(c, base, &Snap::of(c));
        run.check_no_duplicates(c);
    }
    let stats: Vec<AppStats> = (0..TENANTS)
        .map(|t| caches[t % SHARDS].stats().app(asid_of(t)))
        .collect();
    check_tenants(run, stats, "bare replay");
    run.finish_pass(PassKind::Bare, window, start.elapsed());
}

/// Every pass, service or bare, must leave each tenant with the same
/// lifetime stats as the first pass.
fn check_tenants(run: &mut Run, stats: Vec<AppStats>, source: &str) {
    match &run.tenants {
        None => run.tenants = Some(stats),
        Some(first) => {
            let same = *first == stats;
            run.tally.check(same, || {
                format!("{source}: per-tenant stats differ from the first service pass")
            });
        }
    }
}
