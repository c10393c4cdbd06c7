//! The classic set-associative cache (the "Dinero" role).

use crate::config::{CacheConfig, WriteMissPolicy, WritePolicy};
use crate::model::{AccessOutcome, Activity, CacheModel, Request};
use crate::replacement::{Policy, SetPolicy};
use crate::stats::CacheStats;
use molcache_trace::rng::Rng;
use molcache_trace::Asid;

/// One line frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineSlot {
    pub tag: u64,
    pub valid: bool,
    pub dirty: bool,
    pub asid: Asid,
}

impl LineSlot {
    pub(crate) const EMPTY: LineSlot = LineSlot {
        tag: 0,
        valid: false,
        dirty: false,
        asid: Asid::NONE,
    };
}

/// A set-associative, write-back / write-allocate cache.
///
/// Supports any power-of-two geometry and the policies in
/// [`Policy`]. This is the baseline model for every
/// traditional-cache configuration in the paper (direct mapped through
/// 8-way, 1–8 MB).
///
/// ```
/// use molcache_sim::{CacheConfig, SetAssocCache, Request, CacheModel};
/// use molcache_trace::{Address, Asid, AccessKind};
///
/// let mut c = SetAssocCache::lru(CacheConfig::new(64 * 1024, 4, 64)?);
/// let req = Request { asid: Asid::new(1), addr: Address::new(0x1000), kind: AccessKind::Read };
/// assert!(!c.access(req).hit);   // cold miss
/// assert!(c.access(req).hit);    // now resident
/// # Ok::<(), molcache_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    policy_kind: Policy,
    lines: Vec<LineSlot>,
    policies: Vec<SetPolicy>,
    rng: Rng,
    stats: CacheStats,
    activity: Activity,
}

impl SetAssocCache {
    /// Creates a cache with the given replacement policy.
    pub fn new(cfg: CacheConfig, policy: Policy) -> Self {
        let sets = cfg.num_sets() as usize;
        let assoc = cfg.assoc() as usize;
        SetAssocCache {
            cfg,
            policy_kind: policy,
            lines: vec![LineSlot::EMPTY; sets * assoc],
            policies: (0..sets).map(|_| SetPolicy::new(policy, assoc)).collect(),
            rng: Rng::seeded(0x5E7A_550C ^ cfg.size_bytes()),
            stats: CacheStats::new(),
            activity: Activity::default(),
        }
    }

    /// Creates an LRU cache (the common baseline).
    pub fn lru(cfg: CacheConfig) -> Self {
        SetAssocCache::new(cfg, Policy::Lru)
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> Policy {
        self.policy_kind
    }

    /// Number of valid lines currently resident (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    fn index_and_tag(&self, addr: molcache_trace::Address) -> (usize, u64) {
        let line = addr.line(self.cfg.line_size()).0;
        let sets = self.cfg.num_sets();
        ((line % sets) as usize, line / sets)
    }
}

impl CacheModel for SetAssocCache {
    fn access(&mut self, req: Request) -> AccessOutcome {
        let (set, tag) = self.index_and_tag(req.addr);
        let assoc = self.cfg.assoc() as usize;
        self.activity.accesses += 1;
        // A traditional cache probes all ways of the indexed set in
        // parallel, every access.
        self.activity.ways_probed += assoc as u64;

        // Hit path.
        let slots = &mut self.lines[set * assoc..(set + 1) * assoc];
        if let Some(way) = slots.iter().position(|l| l.valid && l.tag == tag) {
            if req.kind.is_write() && self.cfg.write_policy() == WritePolicy::WriteBack {
                slots[way].dirty = true;
            }
            self.policies[set].on_hit(way);
            self.stats
                .record(req.asid, true, false, self.cfg.hit_latency());
            return AccessOutcome::hit(self.cfg.hit_latency());
        }

        // Store miss under no-write-allocate: forward without installing.
        if req.kind.is_write() && self.cfg.write_miss_policy() == WriteMissPolicy::NoWriteAllocate {
            self.stats.record(
                req.asid,
                false,
                false,
                self.cfg.hit_latency() + self.cfg.miss_penalty(),
            );
            return AccessOutcome {
                hit: false,
                latency: self.cfg.hit_latency() + self.cfg.miss_penalty(),
                writeback: false,
                lines_fetched: 0,
                stages: None,
            };
        }

        // Miss path: pick a frame (invalid first, else victim).
        let way = match slots.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => self.policies[set].victim(&mut self.rng),
        };
        let writeback = slots[way].valid && slots[way].dirty;
        slots[way] = LineSlot {
            tag,
            valid: true,
            dirty: req.kind.is_write() && self.cfg.write_policy() == WritePolicy::WriteBack,
            asid: req.asid,
        };
        self.policies[set].on_fill(way);
        self.activity.line_fills += 1;
        if writeback {
            self.activity.writebacks += 1;
        }
        self.stats.record(
            req.asid,
            false,
            writeback,
            self.cfg.hit_latency() + self.cfg.miss_penalty(),
        );
        AccessOutcome::miss(self.cfg.hit_latency() + self.cfg.miss_penalty(), writeback)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn activity(&self) -> Activity {
        self.activity
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.activity = Activity::default();
    }

    fn describe(&self) -> String {
        format!("{} {}", self.cfg, self.policy_kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molcache_trace::{AccessKind, Address};

    fn read(addr: u64) -> Request {
        Request {
            asid: Asid::new(1),
            addr: Address::new(addr),
            kind: AccessKind::Read,
        }
    }

    fn write(addr: u64) -> Request {
        Request {
            asid: Asid::new(1),
            addr: Address::new(addr),
            kind: AccessKind::Write,
        }
    }

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::lru(CacheConfig::new(512, 2, 64).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(read(0)).hit);
        assert!(c.access(read(0)).hit);
        assert!(c.access(read(63)).hit, "same line, different offset");
        assert!(!c.access(read(64)).hit, "next line misses");
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets); assoc 2.
        assert!(!c.access(read(0)).hit);
        assert!(!c.access(read(4 * 64)).hit);
        assert!(!c.access(read(8 * 64)).hit); // evicts line 0 (LRU)
        assert!(!c.access(read(0)).hit, "line 0 was evicted");
        assert!(c.access(read(8 * 64)).hit, "line 8 still resident");
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(4 * 64));
        c.access(read(0)); // 0 is MRU; 4*64 is LRU
        c.access(read(8 * 64)); // evicts 4*64
        assert!(c.access(read(0)).hit);
        assert!(!c.access(read(4 * 64)).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny();
        assert!(!c.access(write(0)).hit);
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64)); // evicts dirty line 0
        assert!(out.writeback);
        assert_eq!(c.stats().global.writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64));
        assert!(!out.writeback);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(read(0));
        c.access(write(0)); // hit, marks dirty
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64)); // evicts line 0, now dirty
        assert!(out.writeback);
    }

    #[test]
    fn stats_track_per_app() {
        let mut c = tiny();
        let r1 = Request {
            asid: Asid::new(1),
            addr: Address::new(0),
            kind: AccessKind::Read,
        };
        let r2 = Request {
            asid: Asid::new(2),
            addr: Address::new(1 << 30),
            kind: AccessKind::Read,
        };
        c.access(r1);
        c.access(r1);
        c.access(r2);
        assert_eq!(c.stats().app(Asid::new(1)).hits, 1);
        assert_eq!(c.stats().app(Asid::new(2)).misses, 1);
    }

    #[test]
    fn activity_counts_ways() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(0));
        let a = c.activity();
        assert_eq!(a.accesses, 2);
        assert_eq!(a.ways_probed, 4); // 2 accesses x 2 ways
        assert_eq!(a.line_fills, 1);
    }

    #[test]
    fn reset_stats_clears_counters_not_contents() {
        let mut c = tiny();
        c.access(read(0));
        c.reset_stats();
        assert_eq!(c.stats().global.accesses, 0);
        assert_eq!(c.activity().accesses, 0);
        // Cache contents are preserved.
        assert!(c.access(read(0)).hit);
    }

    #[test]
    fn write_through_never_writes_back() {
        let cfg = CacheConfig::new(512, 2, 64)
            .unwrap()
            .with_write_policy(WritePolicy::WriteThrough);
        let mut c = SetAssocCache::lru(cfg);
        c.access(write(0));
        c.access(write(0)); // hit; still not dirty
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64)); // evicts line 0
        assert!(!out.writeback, "write-through lines are never dirty");
        assert_eq!(c.stats().global.writebacks, 0);
    }

    #[test]
    fn no_write_allocate_skips_install() {
        let cfg = CacheConfig::new(512, 2, 64)
            .unwrap()
            .with_write_miss_policy(WriteMissPolicy::NoWriteAllocate);
        let mut c = SetAssocCache::lru(cfg);
        let out = c.access(write(0));
        assert!(!out.hit);
        assert_eq!(out.lines_fetched, 0, "store miss not installed");
        assert!(!c.access(read(0)).hit, "line was never brought in");
        // Read misses still allocate.
        assert!(c.access(read(0)).hit);
    }

    #[test]
    fn describe_mentions_geometry_and_policy() {
        let c = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap(), Policy::Random);
        assert_eq!(c.describe(), "1MB 4way 64B-line Random");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::lru(CacheConfig::direct_mapped(256, 64).unwrap());
        // 4 sets; lines 0 and 4 collide.
        c.access(read(0));
        assert!(!c.access(read(4 * 64)).hit);
        assert!(!c.access(read(0)).hit, "DM cache must have evicted line 0");
    }

    #[test]
    fn full_working_set_fits() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(read(i * 64));
        }
        assert_eq!(c.resident_lines(), 8);
        for i in 0..8u64 {
            assert!(c.access(read(i * 64)).hit, "line {i} should be resident");
        }
    }
}
