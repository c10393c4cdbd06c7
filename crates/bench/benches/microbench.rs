//! Micro-benchmarks: simulator throughput and power-model cost.
//!
//! These measure the *simulator* (accesses per second, organization
//! search cost), complementing the experiment benches that regenerate the
//! paper's tables. Timing runs on the in-tree [`stopwatch`] runner (the
//! workspace builds offline, so no external bench harness).
//!
//! [`stopwatch`]: molcache_bench::stopwatch

use molcache_bench::stopwatch::{bench, bench_throughput, section};
use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_power::cacti::analyze;
use molcache_power::tech::TechNode;
use molcache_sim::replacement::{Policy, SetPolicy};
use molcache_sim::{CacheConfig, CacheModel, Request, SetAssocCache};
use molcache_trace::gen::TraceSource;
use molcache_trace::presets::Benchmark;
use molcache_trace::rng::Rng;
use molcache_trace::Asid;
use std::time::Duration;

const BATCH: usize = 10_000;
const BUDGET: Duration = Duration::from_millis(300);

fn trace(n: usize) -> Vec<Request> {
    let mut src = Benchmark::Parser.source(Asid::new(1), 3);
    src.collect_n(n).into_iter().map(Request::from).collect()
}

fn bench_trace_generation() {
    section("trace_generation");
    for bm in [Benchmark::Ammp, Benchmark::Mcf, Benchmark::Crc] {
        let mut src = bm.source(Asid::new(1), 7);
        bench_throughput(bm.name(), BATCH as u64, BUDGET, || {
            for _ in 0..BATCH {
                std::hint::black_box(src.next_access());
            }
        });
    }
}

fn bench_reuse_profile_generation() {
    use molcache_trace::gen::{ReuseBand, ReuseProfileSource};
    use molcache_trace::Address;
    let mut src = ReuseProfileSource::new(
        Asid::new(1),
        Address::new(0),
        vec![ReuseBand::new(1, 64, 0.7), ReuseBand::new(64, 4096, 0.3)],
        0.02,
        0.1,
        5,
    )
    .unwrap();
    bench_throughput("reuse_profile", BATCH as u64, BUDGET, || {
        for _ in 0..BATCH {
            std::hint::black_box(src.next_access());
        }
    });
}

fn bench_set_assoc_access() {
    section("set_assoc_access");
    let reqs = trace(BATCH);
    for assoc in [1u32, 4, 8] {
        let mut cache = SetAssocCache::lru(CacheConfig::new(1 << 20, assoc, 64).unwrap());
        bench_throughput(&format!("1MB_{assoc}way"), BATCH as u64, BUDGET, || {
            for req in &reqs {
                std::hint::black_box(cache.access(*req));
            }
        });
    }
}

fn bench_molecular_access() {
    section("molecular_access");
    let reqs = trace(BATCH);
    for policy in [
        RegionPolicy::Random,
        RegionPolicy::Randy,
        RegionPolicy::LruDirect,
    ] {
        let config = MolecularConfig::builder()
            .molecule_size(8 * 1024)
            .tile_molecules(32)
            .tiles_per_cluster(4)
            .clusters(1)
            .policy(policy)
            .build()
            .unwrap();
        let mut cache = MolecularCache::new(config);
        bench_throughput(&format!("1MB_{policy}"), BATCH as u64, BUDGET, || {
            for req in &reqs {
                std::hint::black_box(cache.access(*req));
            }
        });
    }
}

fn bench_molecular_access_batched() {
    // The `CacheModel::access_batch` API path (the trait's default
    // per-request loop): same requests as `molecular_access`, one
    // `access_batch` call per iteration.
    section("molecular_access_batched");
    let reqs = trace(BATCH);
    let config = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(32)
        .tiles_per_cluster(4)
        .clusters(1)
        .policy(RegionPolicy::Randy)
        .build()
        .unwrap();
    let mut cache = MolecularCache::new(config);
    bench_throughput("1MB_Randy_batched", BATCH as u64, BUDGET, || {
        std::hint::black_box(cache.access_batch(&reqs));
    });
}

fn bench_resize_round() {
    // Cost of one full resize round (the paper estimates ~1500 cycles per
    // application on a host core; here we measure our simulator's cost).
    section("resize");
    let mk = || {
        let config = MolecularConfig::builder()
            .molecule_size(8 * 1024)
            .tile_molecules(64)
            .tiles_per_cluster(4)
            .clusters(1)
            // Constant period 1000: exactly one resize per 1000 accesses.
            .trigger(ResizeTrigger::Constant { period: 1_000 })
            .build()
            .unwrap();
        let mut cache = MolecularCache::new(config);
        let mut sources: Vec<_> = Benchmark::SPEC4
            .iter()
            .enumerate()
            .map(|(i, bm)| bm.source(Asid::new(i as u16 + 1), 3))
            .collect();
        // Warm the regions so resize rounds have real work to do.
        for _ in 0..250 {
            for src in &mut sources {
                let acc = src.next_access().unwrap();
                cache.access(Request::from(acc));
            }
        }
        (cache, sources)
    };
    bench("resize_round_4apps", BUDGET, || {
        let (mut cache, mut sources) = mk();
        for _ in 0..250 {
            for src in &mut sources {
                let acc = src.next_access().unwrap();
                std::hint::black_box(cache.access(Request::from(acc)));
            }
        }
        std::hint::black_box(&cache);
    });
}

fn bench_replacement_policies() {
    section("replacement_victim");
    for policy in [Policy::Lru, Policy::Fifo, Policy::Random, Policy::PlruTree] {
        let mut p = SetPolicy::new(policy, 8);
        let mut rng = Rng::seeded(3);
        for w in 0..8 {
            p.on_fill(w);
        }
        bench(&format!("{policy}_8way"), BUDGET, || {
            for _ in 0..1000 {
                let v = p.victim(&mut rng);
                p.on_hit(std::hint::black_box(v));
            }
        });
    }
}

fn bench_din_parse() {
    use molcache_trace::din::{read_din, write_din};
    section("din");
    let mut src = Benchmark::Gcc.source(Asid::new(1), 3);
    let accs = src.collect_n(BATCH);
    let mut bytes = Vec::new();
    write_din(&accs, &mut bytes).unwrap();
    bench_throughput("parse", BATCH as u64, BUDGET, || {
        std::hint::black_box(read_din(std::io::Cursor::new(&bytes), Asid::new(1)).unwrap());
    });
}

fn bench_power_model() {
    section("power_model");
    let node = TechNode::nm70();
    let big = CacheConfig::new(8 << 20, 4, 64).unwrap().with_ports(4);
    bench("cacti_analyze_8mb_4way", BUDGET, || {
        std::hint::black_box(analyze(&big, &node));
    });
    let molecule = CacheConfig::new(8 << 10, 1, 64).unwrap();
    bench("cacti_analyze_molecule", BUDGET, || {
        std::hint::black_box(analyze(&molecule, &node));
    });
}

fn main() {
    bench_trace_generation();
    bench_reuse_profile_generation();
    bench_set_assoc_access();
    bench_molecular_access();
    bench_molecular_access_batched();
    bench_resize_round();
    bench_replacement_policies();
    bench_din_parse();
    bench_power_model();
}
