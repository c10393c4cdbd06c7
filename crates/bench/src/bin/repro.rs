//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [table1|fig5|table2|table4|fig6|table5|ablations|all]
//!       [--scale smoke|quick|paper] [--refs N] [--json DIR] [--jobs N]
//! ```
//!
//! With `--json DIR` each experiment also writes a machine-readable
//! record as `DIR/<id>.json`. With `--jobs N` independent experiment
//! points fan out over N worker threads; the output is byte-identical
//! to `--jobs 1` because every point owns its cache and trace sources
//! and results are merged in a fixed order.

use molcache_bench::experiments::{ablations, fig5, fig6, table1, table2, table4, table5};
use molcache_bench::{Engine, ExperimentScale};
use std::io::Write as _;

/// Every target `repro` accepts; `all` selects the rest.
const TARGETS: [&str; 8] = [
    "table1",
    "fig5",
    "table2",
    "table4",
    "fig6",
    "table5",
    "ablations",
    "all",
];

/// Prints the usage line plus `problem` and exits with status 2.
fn usage(problem: &str) -> ! {
    eprintln!("repro: {problem}");
    eprintln!(
        "usage: repro [{}] [--scale smoke|quick|paper] [--refs N] [--json DIR] [--jobs N]",
        TARGETS.join("|")
    );
    std::process::exit(2);
}

struct Options {
    targets: Vec<String>,
    scale: ExperimentScale,
    json_dir: Option<String>,
    jobs: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        targets: Vec::new(),
        scale: ExperimentScale::Quick,
        json_dir: None,
        jobs: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                opts.scale = match v.as_str() {
                    "smoke" => ExperimentScale::Smoke,
                    "quick" => ExperimentScale::Quick,
                    "paper" => ExperimentScale::Paper,
                    other => {
                        eprintln!("unknown scale `{other}` (smoke|quick|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--refs" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) => opts.scale = ExperimentScale::Custom(n),
                    Err(_) => {
                        eprintln!("--refs expects a number, got `{v}`");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.jobs = n,
                    _ => {
                        eprintln!("--jobs expects a positive number, got `{v}`");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => match args.next() {
                Some(dir) => opts.json_dir = Some(dir),
                None => usage("--json expects a directory"),
            },
            flag if flag.starts_with('-') => usage(&format!("unknown flag `{flag}`")),
            target if TARGETS.contains(&target) => opts.targets.push(target.to_string()),
            other => usage(&format!("unknown target `{other}`")),
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".to_string());
    }
    opts
}

fn write_json(dir: &Option<String>, id: &str, json: String) {
    let Some(dir) = dir else { return };
    let path = std::path::Path::new(dir).join(format!("{id}.json"));
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let opts = parse_args();
    let scale = opts.scale;
    let engine = Engine::new(opts.jobs);
    let all = opts.targets.iter().any(|t| t == "all");
    let wants = |name: &str| all || opts.targets.iter().any(|t| t == name);
    let start = std::time::Instant::now();

    if wants("table1") {
        let t = table1::run_with(scale, &engine);
        println!("{}", t.render());
        write_json(&opts.json_dir, "table1", t.record().to_json());
    }
    if wants("fig5") {
        for graph in [fig5::Graph::A, fig5::Graph::B] {
            let f = fig5::run_with(graph, scale, &engine);
            println!("{}", f.render());
            write_json(&opts.json_dir, &f.record().id.clone(), f.record().to_json());
        }
    }
    // Table 2 feeds Table 5; run them together so the measurement is shared.
    let mut t2_cache = None;
    if wants("table2") {
        let t = table2::run_with(scale, &engine);
        println!("{}", t.render());
        write_json(&opts.json_dir, "table2", t.record().to_json());
        t2_cache = Some(t);
    }
    if wants("table4") {
        let t = table4::run_with(scale, &engine);
        println!("{}", t.render());
        write_json(&opts.json_dir, "table4", t.record().to_json());
    }
    if wants("fig6") {
        let f = fig6::run_with(scale, &engine);
        println!("{}", f.render());
        write_json(&opts.json_dir, "fig6", f.record().to_json());
    }
    if wants("table5") {
        let t = match &t2_cache {
            Some(t2) => table5::run_from_table2(t2),
            None => table5::run_with(scale, &engine),
        };
        println!("{}", t.render());
        write_json(&opts.json_dir, "table5", t.record().to_json());
    }
    if wants("ablations") {
        println!("{}", ablations::run_with(scale, &engine));
        write_json(
            &opts.json_dir,
            "ablations",
            ablations::record_with(scale, &engine).to_json(),
        );
    }
    eprintln!(
        "done in {:.1}s ({} references per experiment, {} jobs)",
        start.elapsed().as_secs_f64(),
        scale.references(),
        engine.jobs()
    );
}
