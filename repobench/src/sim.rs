//! Counter windows over a timed phase, and the simulated outputs and
//! layer counters derived from them.
//!
//! Every figure here is a deterministic function of the seed: it comes
//! from the simulator's own counters, never from the host clock.

use molcache_core::{MemoStats, MolecularCache};
use molcache_metrics::deviation::{average_deviation, MissRateGoal};
use molcache_power::accounting::EnergyMeter;
use molcache_power::calibrate::molecule_report;
use molcache_power::tech::TechNode;
use molcache_sim::{Activity, CacheModel, CacheStats, Stage};
use molcache_trace::Asid;
use std::collections::BTreeMap;

/// One cache's counters at an instant.
#[derive(Clone)]
pub struct Snap {
    stats: CacheStats,
    activity: Activity,
    memo: MemoStats,
    rounds: u64,
    failed_allocations: u64,
}

impl Snap {
    /// Reads every counter the benchmark reports from `cache`.
    pub fn of(cache: &MolecularCache) -> Snap {
        Snap {
            stats: cache.stats().clone(),
            activity: cache.activity(),
            memo: cache.memo_stats().unwrap_or_default(),
            rounds: cache.resize_rounds(),
            failed_allocations: cache.failed_allocations(),
        }
    }
}

/// Counters accumulated over a timed phase, summed over every cache
/// (shard) that served it.
#[derive(Clone, Default)]
pub struct Window {
    /// Global and per-app hit/miss/latency deltas.
    pub stats: CacheStats,
    /// Activity-event deltas.
    pub activity: Activity,
    /// Memo front-end lookups, hits, stale hits and generation bumps.
    pub memo_lookups: u64,
    pub memo_hits: u64,
    pub memo_stale: u64,
    pub generation_bumps: u64,
    /// Algorithm 1 rounds and failed molecule grants.
    pub resize_rounds: u64,
    pub failed_allocations: u64,
    /// Miss-rate goal of every app seen.
    pub goals: BTreeMap<Asid, f64>,
    /// Shard-lock traffic (serve workloads only).
    pub lock_acquisitions: u64,
    pub lock_contended: u64,
    pub lock_wait_ns: u64,
    /// Old-handle accesses rejected with `Revoked` (serve only).
    pub revoked_rejects: u64,
}

impl Window {
    /// Adds the counters `cache` accumulated between two snapshots.
    pub fn add(&mut self, cache: &MolecularCache, before: &Snap, after: &Snap) {
        let d = after.stats.since(&before.stats);
        self.stats.global.merge(&d.global);
        for (asid, app) in &d.per_app {
            self.stats.per_app.entry(*asid).or_default().merge(app);
            self.goals.insert(*asid, cache.config().goal(*asid));
        }
        self.activity
            .merge(&activity_since(&after.activity, &before.activity));
        let (m0, m1) = (&before.memo, &after.memo);
        self.memo_lookups += m1.lookups() - m0.lookups();
        self.memo_hits += m1.hits - m0.hits;
        self.memo_stale += m1.stale - m0.stale;
        self.generation_bumps += m1.generation_bumps - m0.generation_bumps;
        self.resize_rounds += after.rounds - before.rounds;
        self.failed_allocations += after.failed_allocations - before.failed_allocations;
    }

    /// The four simulated end-to-end outputs.
    pub fn digest(&self) -> SimDigest {
        let g = &self.stats.global;
        let mut goals = MissRateGoal::uniform(0.0);
        for (asid, goal) in &self.goals {
            goals = goals.with_override(*asid, *goal);
        }
        let node = TechNode::nm70();
        let meter = EnergyMeter::for_molecular(&molecule_report(&node), &node);
        SimDigest {
            miss_rate: g.miss_rate(),
            cycles_per_access: g.avg_latency(),
            energy_nj_per_access: meter.energy_per_access_nj(&self.activity),
            goal_deviation: average_deviation(
                self.stats
                    .per_app
                    .iter()
                    .filter(|(_, a)| a.accesses > 0)
                    .map(|(asid, a)| (*asid, a.miss_rate())),
                &goals,
            ),
        }
    }

    /// Simulated cycles one pipeline stage contributed per access.
    pub fn stage_cycles_per_access(&self, stage: Stage) -> f64 {
        per(
            self.activity.stages.stage(stage).cycles,
            self.activity.accesses,
        )
    }
}

/// `num / den`, 0 for an empty denominator.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulated outputs of each workload on the documented seeds: the
/// held-out seed 9091 and seeds 1 to 10. A run on one of these seeds
/// fails unless its outputs match to the last bit. A change to the
/// modelled cache changes them on purpose; such a change replaces these
/// rows with the `sim-digest` lines its runs print.
#[rustfmt::skip]
const RECORDED: &[(&str, u64, SimDigest)] = &[
    ("mixed12", 1, SimDigest { miss_rate: 0.340085, cycles_per_access: 73.47716, energy_nj_per_access: 17.512850646601187, goal_deviation: 0.17141824600205466 }),
    ("mixed12", 2, SimDigest { miss_rate: 0.318955, cycles_per_access: 69.516, energy_nj_per_access: 18.58870713355846, goal_deviation: 0.16408817719481447 }),
    ("mixed12", 3, SimDigest { miss_rate: 0.33001, cycles_per_access: 71.88616, energy_nj_per_access: 18.443142970526885, goal_deviation: 0.17227792699636227 }),
    ("mixed12", 4, SimDigest { miss_rate: 0.320895, cycles_per_access: 70.3728, energy_nj_per_access: 18.427629185167575, goal_deviation: 0.15646323608989238 }),
    ("mixed12", 5, SimDigest { miss_rate: 0.338585, cycles_per_access: 73.3272, energy_nj_per_access: 17.84419823270923, goal_deviation: 0.1751730269006764 }),
    ("mixed12", 6, SimDigest { miss_rate: 0.329665, cycles_per_access: 71.95092, energy_nj_per_access: 18.114881910276296, goal_deviation: 0.16108321779322243 }),
    ("mixed12", 7, SimDigest { miss_rate: 0.32382, cycles_per_access: 70.74868, energy_nj_per_access: 17.968441883439663, goal_deviation: 0.17126331510331275 }),
    ("mixed12", 8, SimDigest { miss_rate: 0.331545, cycles_per_access: 71.8952, energy_nj_per_access: 17.925674277669685, goal_deviation: 0.1668430377942303 }),
    ("mixed12", 9, SimDigest { miss_rate: 0.330215, cycles_per_access: 71.87248, energy_nj_per_access: 18.18626321247334, goal_deviation: 0.1652732212966445 }),
    ("mixed12", 10, SimDigest { miss_rate: 0.32746, cycles_per_access: 71.04084, energy_nj_per_access: 17.610650179073055, goal_deviation: 0.16361814309375636 }),
    ("mixed12", 9091, SimDigest { miss_rate: 0.33026, cycles_per_access: 71.90456, energy_nj_per_access: 17.961729535675946, goal_deviation: 0.1710180442977004 }),
    ("miss_storm", 1, SimDigest { miss_rate: 0.99919, cycles_per_access: 212.83652, energy_nj_per_access: 49.23374190086915, goal_deviation: 0.89919 }),
    ("miss_storm", 2, SimDigest { miss_rate: 0.999115, cycles_per_access: 212.82116, energy_nj_per_access: 49.23054073611209, goal_deviation: 0.899115 }),
    ("miss_storm", 3, SimDigest { miss_rate: 0.99894, cycles_per_access: 212.78572, energy_nj_per_access: 49.228942538291875, goal_deviation: 0.8989400000000001 }),
    ("miss_storm", 4, SimDigest { miss_rate: 0.999055, cycles_per_access: 212.8098, energy_nj_per_access: 49.233575525786144, goal_deviation: 0.899055 }),
    ("miss_storm", 5, SimDigest { miss_rate: 0.998875, cycles_per_access: 212.7728, energy_nj_per_access: 49.22776361336085, goal_deviation: 0.898875 }),
    ("miss_storm", 6, SimDigest { miss_rate: 0.999055, cycles_per_access: 212.8088, energy_nj_per_access: 49.22923155978464, goal_deviation: 0.899055 }),
    ("miss_storm", 7, SimDigest { miss_rate: 0.99899, cycles_per_access: 212.79564, energy_nj_per_access: 49.22932473687112, goal_deviation: 0.8989900000000001 }),
    ("miss_storm", 8, SimDigest { miss_rate: 0.998945, cycles_per_access: 212.78764, energy_nj_per_access: 49.232069546429095, goal_deviation: 0.898945 }),
    ("miss_storm", 9, SimDigest { miss_rate: 0.99901, cycles_per_access: 212.7998, energy_nj_per_access: 49.22866681752575, goal_deviation: 0.89901 }),
    ("miss_storm", 10, SimDigest { miss_rate: 0.998975, cycles_per_access: 212.793, energy_nj_per_access: 49.22981437188684, goal_deviation: 0.898975 }),
    ("miss_storm", 9091, SimDigest { miss_rate: 0.99892, cycles_per_access: 212.78204, energy_nj_per_access: 49.2286382988258, goal_deviation: 0.89892 }),
    ("serve_churn", 1, SimDigest { miss_rate: 0.653455, cycles_per_access: 137.2047, energy_nj_per_access: 6.672593343258931, goal_deviation: 0.5533758348785804 }),
    ("serve_churn", 2, SimDigest { miss_rate: 0.6556525, cycles_per_access: 137.6689, energy_nj_per_access: 6.675885876804165, goal_deviation: 0.5555706922258828 }),
    ("serve_churn", 3, SimDigest { miss_rate: 0.6537625, cycles_per_access: 137.29162, energy_nj_per_access: 6.6608351440902895, goal_deviation: 0.5536825932927998 }),
    ("serve_churn", 4, SimDigest { miss_rate: 0.6567675, cycles_per_access: 137.90966, energy_nj_per_access: 6.671804683232171, goal_deviation: 0.5566924108352256 }),
    ("serve_churn", 5, SimDigest { miss_rate: 0.65399, cycles_per_access: 137.25588, energy_nj_per_access: 6.651354122332156, goal_deviation: 0.5539069771611393 }),
    ("serve_churn", 6, SimDigest { miss_rate: 0.6564, cycles_per_access: 137.80558, energy_nj_per_access: 6.6661399054615655, goal_deviation: 0.556322659662644 }),
    ("serve_churn", 7, SimDigest { miss_rate: 0.655515, cycles_per_access: 137.59928, energy_nj_per_access: 6.6675805374837305, goal_deviation: 0.5554374352528114 }),
    ("serve_churn", 8, SimDigest { miss_rate: 0.6582575, cycles_per_access: 138.19296, energy_nj_per_access: 6.674039601736116, goal_deviation: 0.5581856289033267 }),
    ("serve_churn", 9, SimDigest { miss_rate: 0.6601175, cycles_per_access: 138.56428, energy_nj_per_access: 6.675213517420477, goal_deviation: 0.5600401487458916 }),
    ("serve_churn", 10, SimDigest { miss_rate: 0.656665, cycles_per_access: 137.88006, energy_nj_per_access: 6.674344273072182, goal_deviation: 0.556581475406811 }),
    ("serve_churn", 9091, SimDigest { miss_rate: 0.6530825, cycles_per_access: 137.11148, energy_nj_per_access: 6.660572123102457, goal_deviation: 0.5529959135862585 }),
];

/// The recorded outputs of `workload` on `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<SimDigest> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, digest)| digest)
}

/// The simulated outputs of one pass; equal across passes of one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimDigest {
    pub miss_rate: f64,
    pub cycles_per_access: f64,
    pub energy_nj_per_access: f64,
    pub goal_deviation: f64,
}

fn activity_since(now: &Activity, base: &Activity) -> Activity {
    Activity {
        accesses: now.accesses - base.accesses,
        ways_probed: now.ways_probed - base.ways_probed,
        line_fills: now.line_fills - base.line_fills,
        writebacks: now.writebacks - base.writebacks,
        asid_compares: now.asid_compares - base.asid_compares,
        ulmo_searches: now.ulmo_searches - base.ulmo_searches,
        stages: now.stages.since(&base.stages),
    }
}
