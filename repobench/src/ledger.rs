//! The traced run's ledger: spans around the benchmark's calls into each
//! layer, per-outcome call timings, and the tag-kernel timings.
//!
//! Spans are kept in memory and written out once the run ends. A span
//! records its name, start, end, the span that caused it and the index
//! of the request it served; a layer's self time is its spans' time
//! minus the part their child spans cover.

use crate::stats::Samples;
use molcache_core::ids::MoleculeId;
use molcache_core::tags::{GateMask, TagStore};
use molcache_core::MolecularCache;
use molcache_sim::{AccessOutcome, CacheModel, Request};
use molcache_trace::{Asid, LineAddr};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Request index of spans that serve no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span. Ids start at 1; parent 0 means a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder; records nothing when off.
pub struct Spans {
    origin: Instant,
    on: bool,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, on: bool) -> Spans {
        Spans {
            origin,
            on,
            list: Vec::with_capacity(if on { 1 << 17 } else { 0 }),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; returns its id (0 when off).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        self.add(name, parent, NO_REQUEST, Instant::now(), None)
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let end = self.ns(Instant::now());
            self.list[id as usize - 1].end_ns = end;
        }
    }

    /// Records a span from clock readings the caller already took, so a
    /// traced call costs no extra clock reads.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Option<Instant>,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.list.len() as u32 + 1;
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        self.list.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by child spans), in name order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len() + 1];
        for s in &self.list {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.list {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[s.id as usize]);
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.list.len() * 96);
        for s in &self.list {
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-call timings the traced passes collect.
#[derive(Default)]
pub struct Ledger {
    /// `MolecularCache::access` by outcome: served from the memo, other
    /// hits, misses; and calls during which a resize round ran.
    pub memo_hit: Samples,
    pub hit: Samples,
    pub miss: Samples,
    pub round: Samples,
    /// `CacheService::access`, every call of the traced service passes.
    pub service: Samples,
    /// Bare `MolecularCache::access` on the serialized service stream.
    pub bare: Samples,
    /// Tag kernels: mean ns per call over batches of [`TAG_BATCH`].
    pub gate_scan: Samples,
    pub probe: Samples,
}

/// Times one `MolecularCache::access` and files it under its outcome.
#[inline]
pub fn timed_access(
    cache: &mut MolecularCache,
    req: Request,
    ledger: &mut Ledger,
) -> (AccessOutcome, Instant, Instant, u64) {
    let memo_before = memo_hits(cache);
    let rounds = cache.resize_rounds();
    let t0 = Instant::now();
    let out = std::hint::black_box(cache.access(req));
    let t1 = Instant::now();
    let ns = t1.duration_since(t0).as_nanos() as u64;
    if memo_hits(cache) > memo_before {
        ledger.memo_hit.record(ns);
    } else if out.hit {
        ledger.hit.record(ns);
    } else {
        ledger.miss.record(ns);
    }
    if cache.resize_rounds() > rounds {
        ledger.round.record(ns);
    }
    (out, t0, t1, ns)
}

fn memo_hits(cache: &MolecularCache) -> u64 {
    cache.memo_stats().map_or(0, |m| m.hits)
}

/// Calls per timed tag-kernel batch (one clock pair per batch keeps the
/// timer's own cost out of the per-call figure).
pub const TAG_BATCH: usize = 64;

/// The cache geometry a [`TagStore`] is built with.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub clusters: usize,
    pub tiles_per_cluster: usize,
    pub tile_molecules: usize,
    pub frames_per_molecule: usize,
    pub line_size: u64,
}

impl Geometry {
    /// The geometry of `clusters` copies of `cache`'s clusters.
    pub fn of(cache: &MolecularCache, clusters: usize) -> Geometry {
        let cfg = cache.config();
        Geometry {
            clusters: clusters * cfg.clusters(),
            tiles_per_cluster: cfg.tiles_per_cluster(),
            tile_molecules: cfg.tile_molecules(),
            frames_per_molecule: cfg.frames_per_molecule(),
            line_size: cfg.line_size(),
        }
    }
}

/// Times the ASID gate and the gated tag probe directly on a
/// [`TagStore`] of the workload's geometry, fed the workload's lines.
///
/// `apps` gives each app's cluster. Every tile of a cluster is split
/// round-robin among the apps of that cluster, and the j-th app of a
/// cluster is homed on its j-th tile (modulo the tile count). The probe
/// walks the home tile's gated molecules until one holds the line, as
/// the home-lookup stage does; misses are filled after the batch's
/// clock stops, so later batches see a warm mix of hits and misses.
pub fn time_tags(geom: Geometry, apps: &[(Asid, usize)], reqs: &[Request], ledger: &mut Ledger) {
    let tiles = geom.clusters * geom.tiles_per_cluster;
    let mut store = TagStore::new(tiles * geom.tile_molecules, geom.frames_per_molecule);
    let mut home = BTreeMap::new();
    for c in 0..geom.clusters {
        let members: Vec<Asid> = apps.iter().filter(|a| a.1 == c).map(|a| a.0).collect();
        if members.is_empty() {
            continue;
        }
        for t in 0..geom.tiles_per_cluster {
            let base = (c * geom.tiles_per_cluster + t) * geom.tile_molecules;
            for m in 0..geom.tile_molecules {
                store.configure(MoleculeId((base + m) as u32), members[m % members.len()]);
            }
        }
        for (j, asid) in members.iter().enumerate() {
            let tile = c * geom.tiles_per_cluster + j % geom.tiles_per_cluster;
            home.insert(*asid, tile * geom.tile_molecules);
        }
    }
    // Per-app gate results for the probe loop, and per-request lookups
    // resolved before any clock starts.
    let apps_in_order: Vec<Asid> = home.keys().copied().collect();
    let masks: Vec<GateMask> = home
        .iter()
        .map(|(&asid, &base)| {
            let mut mask = GateMask::default();
            store.gate_scan(base, geom.tile_molecules, asid, &mut mask);
            mask
        })
        .collect();
    let plan: Vec<(usize, usize, LineAddr, bool)> = reqs
        .iter()
        .map(|r| {
            let app = apps_in_order
                .binary_search(&r.asid)
                .expect("request of a known app");
            (
                home[&r.asid],
                app,
                r.addr.line(geom.line_size),
                r.kind.is_write(),
            )
        })
        .collect();
    let mut mask = GateMask::with_capacity(geom.tile_molecules);
    let mut missed: Vec<(usize, LineAddr)> = Vec::with_capacity(TAG_BATCH);
    for batch in plan.chunks_exact(TAG_BATCH) {
        let t0 = Instant::now();
        let mut gated = 0u32;
        for &(base, app, _, _) in batch {
            store.gate_scan(base, geom.tile_molecules, apps_in_order[app], &mut mask);
            gated += mask.count();
        }
        std::hint::black_box(gated);
        ledger
            .gate_scan
            .record(t0.elapsed().as_nanos() as u64 / TAG_BATCH as u64);

        let t0 = Instant::now();
        for &(_, app, line, write) in batch {
            if !masks[app].iter().any(|m| store.probe(m, line, write)) {
                missed.push((app, line));
            }
        }
        ledger
            .probe
            .record(t0.elapsed().as_nanos() as u64 / TAG_BATCH as u64);
        for (app, line) in missed.drain(..) {
            let m = &masks[app];
            if m.count() > 0 {
                let k = (line.0 % u64::from(m.count())) as usize;
                let mol = m.iter().nth(k).expect("k < count");
                store.fill(mol, line, false);
            }
        }
    }
}
