// A binary root: printing to the terminal is its job (the workspace
// table denies it in library code).
#![allow(clippy::print_stdout, clippy::print_stderr)]

//! `harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! harness <command> [options]
//!
//! commands:
//!   table1 | table2 | table3 | fig11 | fig12 | fig13 | negative
//!   ablation            bottom-up vs top-down construction
//!   family              §3.1 synopsis-family sizes (A(k), 1-index, stable)
//!   values              value-predicate estimation (extension)
//!   all                 every experiment in order
//!   bench baseline      wall-clock baseline snapshot (BENCH_core.json);
//!                       options: --dataset NAME --elements N --queries N
//!                       --runs N --budgets a,b,c --threads N --seed N
//!                       --out PATH --trace PATH --metrics PATH
//!   bench diff OLD NEW  compare two baseline snapshots: ±8% noise
//!                       threshold on time metrics (--time-pct N),
//!                       exact match on determinism counters; options:
//!                       --warn-only-time --out PATH (verdict JSON);
//!                       exits 1 when the comparison fails
//!
//! options:
//!   --scale F           dataset scale multiplier (default 0.25; 1 = paper)
//!   --queries N         workload size (default 200; paper = 1000)
//!   --esd-queries N     queries used for ESD (default 100)
//!   --budgets a,b,c     synopsis budgets in KB (default 10,20,30,40,50)
//!   --seed N            RNG seed (default 0x5EED)
//!   --threads N         worker threads (default: all cores)
//!   --no-xsketch        skip the slow twig-XSketch baseline
//!   --csv DIR           also write CSV files into DIR
//!   --trace PATH        record a Chrome trace_event timeline of the run
//!                       (open in chrome://tracing or ui.perfetto.dev)
//!   --metrics PATH      write the axqa-obs/2 metrics snapshot (counters,
//!                       histograms, per-span totals and allocations)
//! ```
//!
//! All argument errors flow back to `main` as `Err(message)` and exit
//! with status 2 (usage); the process never calls `std::process::exit`
//! (banned in clippy.toml — destructors must run).

use axqa_harness::experiments::{
    ablation_topdown, family, fig11, fig12, fig13, negative, table1, table2, table3, values,
    ExperimentConfig,
};
use axqa_harness::PipelineConfig;
use std::process::ExitCode;

/// Every allocation this binary makes is tallied (DESIGN.md §12):
/// `bench baseline` reports per-phase allocation profiles, and the
/// `allocation.tracked` flag in the snapshot proves this line exists.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

const USAGE: &str = "usage: harness <table1|table2|table3|fig11|fig12|fig13|negative|ablation|\
                     family|values|all|bench> [options]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first().cloned() else {
        return Err(USAGE.to_string());
    };
    if command == "bench" {
        return cmd_bench(&args[1..]);
    }
    let (config, obs) = parse_experiment_args(&args[1..])?;

    println!(
        "# axqa harness — scale {:.2}, {} queries, seed {:#x}, budgets {:?} KB{}",
        config.pipeline.scale,
        config.pipeline.queries,
        config.pipeline.seed,
        config.budgets_kb,
        if config.with_xsketch {
            ""
        } else {
            ", no xsketch"
        },
    );
    let started = axqa_obs::Stopwatch::start();
    // Only pay for recording when an output was requested; without the
    // flags every span/counter stays a relaxed-atomic branch.
    let recorder = obs.wants_recording().then(|| {
        let recorder = axqa_obs::Recorder::new();
        recorder.install();
        recorder
    });
    match command.as_str() {
        "table1" => print_one(table1(&config)),
        "table2" => print_one(table2(&config)),
        "table3" => print_one(table3(&config)),
        "fig11" => print_many(fig11(&config)),
        "fig12" => print_many(fig12(&config)),
        "fig13" => print_one(fig13(&config)),
        "negative" => print_one(negative(&config)),
        "ablation" => print_one(ablation_topdown(&config)),
        "family" => print_one(family(&config)),
        "values" => print_one(values(&config)),
        "all" => {
            print_one(table1(&config));
            print_one(table2(&config));
            print_one(table3(&config));
            print_many(fig11(&config));
            print_many(fig12(&config));
            print_one(fig13(&config));
            print_one(negative(&config));
            print_one(family(&config));
            print_one(values(&config));
            print_one(ablation_topdown(&config));
        }
        other => return Err(format!("unknown command {other}\n{USAGE}")),
    }
    if let Some(recorder) = recorder {
        axqa_obs::uninstall();
        obs.write(&recorder.drain())?;
    }
    println!("# done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(ExitCode::SUCCESS)
}

/// Where to write the run's observability outputs (`--trace`,
/// `--metrics`).
#[derive(Debug, Default)]
struct ObsOutputs {
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
}

impl ObsOutputs {
    fn wants_recording(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    fn write(&self, snapshot: &axqa_obs::Snapshot) -> Result<(), String> {
        if let Some(path) = &self.trace {
            std::fs::write(path, axqa_obs::export::chrome_trace(snapshot))
                .map_err(|error| format!("could not write {}: {error}", path.display()))?;
            println!("# wrote trace {}", path.display());
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, axqa_obs::export::metrics_json(snapshot))
                .map_err(|error| format!("could not write {}: {error}", path.display()))?;
            println!("# wrote metrics {}", path.display());
        }
        Ok(())
    }
}

fn parse_experiment_args(args: &[String]) -> Result<(ExperimentConfig, ObsOutputs), String> {
    let mut config = ExperimentConfig {
        pipeline: PipelineConfig {
            scale: 0.25,
            queries: 200,
            seed: 0x5EED,
            threads: 0,
            need_nesting: true,
        },
        ..ExperimentConfig::default()
    };
    let mut obs = ObsOutputs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--scale" => config.pipeline.scale = parse("--scale", &value("--scale")?)?,
            "--queries" => config.pipeline.queries = parse("--queries", &value("--queries")?)?,
            "--esd-queries" => {
                config.esd_queries = parse("--esd-queries", &value("--esd-queries")?)?;
            }
            "--seed" => config.pipeline.seed = parse("--seed", &value("--seed")?)?,
            "--threads" => config.pipeline.threads = parse("--threads", &value("--threads")?)?,
            "--no-xsketch" => config.with_xsketch = false,
            "--budgets" => config.budgets_kb = parse_budgets(&value("--budgets")?)?,
            "--csv" => config.csv_dir = Some(value("--csv")?.into()),
            "--trace" => obs.trace = Some(value("--trace")?.into()),
            "--metrics" => obs.metrics = Some(value("--metrics")?.into()),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok((config, obs))
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    const BENCH_USAGE: &str = "usage: harness bench baseline [--dataset NAME] [--elements N] \
                               [--queries N] [--runs N] [--budgets a,b,c] [--threads N] \
                               [--seed N] [--out PATH] [--trace PATH] [--metrics PATH]\n\
                               \x20      harness bench diff OLD NEW [--time-pct N] \
                               [--warn-only-time] [--out PATH]";
    let Some(sub) = args.first() else {
        return Err(BENCH_USAGE.to_string());
    };
    if sub == "diff" {
        return cmd_bench_diff(&args[1..]);
    }
    if sub != "baseline" {
        return Err(format!(
            "unknown bench subcommand {sub} (expected: baseline | diff)\n{BENCH_USAGE}"
        ));
    }
    let mut config = axqa_harness::bench::BaselineConfig::default();
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--dataset" => {
                let name = value("--dataset")?;
                config.dataset = axqa_harness::bench::parse_dataset(&name)
                    .ok_or_else(|| format!("unknown dataset {name} (xmark|imdb|sprot|dblp)"))?;
            }
            "--elements" => config.elements = parse("--elements", &value("--elements")?)?,
            "--queries" => config.queries = parse("--queries", &value("--queries")?)?,
            "--runs" => config.runs = parse("--runs", &value("--runs")?)?,
            "--threads" => config.threads = parse("--threads", &value("--threads")?)?,
            "--seed" => config.seed = parse("--seed", &value("--seed")?)?,
            "--budgets" => config.budgets_kb = parse_budgets(&value("--budgets")?)?,
            "--out" => config.out = value("--out")?.into(),
            "--trace" => config.trace_out = Some(value("--trace")?.into()),
            "--metrics" => config.metrics_out = Some(value("--metrics")?.into()),
            other => return Err(format!("unknown option {other}\n{BENCH_USAGE}")),
        }
    }
    config
        .validate()
        .map_err(|message| format!("{message}\n{BENCH_USAGE}"))?;
    let started = axqa_obs::Stopwatch::start();
    let report = axqa_harness::bench::run_baseline(&config);
    print!("{}", report.render());
    report
        .write()
        .map_err(|error| format!("could not write {}: {error}", config.out.display()))?;
    if let Some(path) = &config.trace_out {
        println!("# wrote trace {}", path.display());
    }
    if let Some(path) = &config.metrics_out {
        println!("# wrote metrics {}", path.display());
    }
    println!(
        "# wrote {} in {:.1}s",
        config.out.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench_diff(args: &[String]) -> Result<ExitCode, String> {
    const DIFF_USAGE: &str = "usage: harness bench diff OLD NEW [--time-pct N] \
                              [--warn-only-time] [--out PATH]";
    let mut config = axqa_harness::diff::DiffConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--time-pct" => config.time_pct = parse("--time-pct", &value("--time-pct")?)?,
            "--warn-only-time" => config.warn_only_time = true,
            "--out" => config.out = Some(value("--out")?.into()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n{DIFF_USAGE}"));
            }
            path => paths.push(path.to_string()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(format!(
            "bench diff takes exactly two snapshot paths (got {})\n{DIFF_USAGE}",
            paths.len()
        ));
    };
    if config.time_pct < 0.0 {
        return Err(format!("--time-pct must be non-negative\n{DIFF_USAGE}"));
    }
    let report = axqa_harness::diff::run_diff(old_path, new_path, config);
    print!("{}", report.render());
    report.write().map_err(|error| {
        let out = report
            .config
            .out
            .as_ref()
            .map_or_else(String::new, |p| p.display().to_string());
        format!("could not write {out}: {error}")
    })?;
    if let Some(path) = &report.config.out {
        println!("# wrote verdict {}", path.display());
    }
    // Comparison failures are exit 1 (distinct from usage errors' 2),
    // so CI can gate on the verdict.
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_one(table: axqa_harness::report::Table) {
    println!("{}", table.render());
}

fn print_many(tables: Vec<axqa_harness::report::Table>) {
    for table in tables {
        println!("{}", table.render());
    }
}

fn parse<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse {name} value {text:?}"))
}

fn parse_budgets(text: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|s| parse::<usize>("--budgets", s.trim()))
        .collect()
}
