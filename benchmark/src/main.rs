//! Command line of the benchmark.
//!
//! ```text
//! axqa-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//!                    [--repeat N]
//!     With --workload: runs that workload in this process and prints
//!     its metrics, then one JSON line {correct, attempted, failed,
//!     metrics}: end-to-end metrics, or per-layer ones with --trace 1.
//!     --out DIR also writes DIR/NAME.json (and DIR/NAME.trace.json, a
//!     Chrome trace, with --trace 1).
//!     Without --workload: runs every workload N times (default 1), one
//!     child process at a time, and writes every run to DIR/results.json
//!     (DIR/layers.json with --trace 1); DIR defaults to
//!     benchmark/results.
//!
//! axqa-benchmark compare A.json B.json
//!     B's median against A's for every (end-to-end metric, workload)
//!     pair under the bounds of the repository's BENCHMARK.json;
//!     deterministic values must match exactly. Exits 1 on any
//!     violation.
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use axqa_benchmark::{run, Options, Workload, DEFAULT_SEED, THREADS};

// Spans then carry the allocation counts the per-layer metrics report.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

const USAGE: &str = "usage:
  axqa-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--repeat N]
  axqa-benchmark compare A.json B.json";

const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut out = None;
    let mut repeat = None;
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        let value = flags
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => options.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--repeat" => {
                repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| format!("bad repeat {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    match (workload, repeat) {
        (Some(_), Some(_)) => Err("--repeat runs every workload; drop --workload".into()),
        (Some(workload), None) => run_one(workload, &options, out.as_deref()),
        (None, repeat) => run_all(
            &options,
            repeat.unwrap_or(1),
            &out.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("results")),
        ),
    }
}

fn run_one(workload: Workload, options: &Options, out: Option<&Path>) -> Result<ExitCode, String> {
    let report = run(workload, options, 1.0)?;
    println!(
        "{}  seed {}  threads {THREADS}  1 closed-loop client  {} requests, {} failed",
        workload.name(),
        report.seed,
        report.attempted,
        report.failed
    );
    println!(
        "inputs_s {:.3} s (input generation and exact ground truth, not part of setup_s)",
        report.inputs_s
    );
    println!(
        "rel_error_pct {}  build.merges {}  sketch {} bytes, fnv64 {:016x}",
        report.rel_error_pct, report.merges, report.sketch_bytes, report.sketch_fnv64
    );
    println!(
        "every timed request: p50 {:.6} ms, p90 {:.6} ms over {} requests (printed, not gated); \
         the metrics take the fastest time of each of the sweep's {} requests",
        report.all_ms_p50, report.all_ms_p90, report.timed_requests, report.sweep_requests
    );
    for metric in &report.metrics {
        println!("{:<34} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(table) = &report.table {
        print!("{table}");
    }
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        write(
            &dir.join(format!("{}.json", workload.name())),
            &report.detail_json(),
        )?;
        if let Some(trace) = &report.chrome_trace {
            write(&dir.join(format!("{}.trace.json", workload.name())), trace)?;
        }
    }
    println!("{}", report.summary_json());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload `repeat` times, each run in its own child
/// process, one at a time, and gathers their result files.
fn run_all(options: &Options, repeat: usize, out: &Path) -> Result<ExitCode, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut runs: Vec<Vec<String>> = vec![Vec::new(); Workload::ALL.len()];
    let mut passed = true;
    for _ in 0..repeat {
        for (workload, runs) in Workload::ALL.into_iter().zip(&mut runs) {
            let detail = out.join(format!("{}.json", workload.name()));
            // A stale file must not stand in for a run that failed.
            let _ = std::fs::remove_file(&detail);
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", workload.name()])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if options.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(out)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            match std::fs::read_to_string(&detail) {
                Ok(text) if status.success() => {
                    passed &= text.contains("\"correct\": true");
                    runs.push(text);
                }
                _ => {
                    eprintln!("{} did not complete ({status})", workload.name());
                    passed = false;
                }
            }
        }
    }
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .zip(&runs)
        .map(|(workload, runs)| format!("\"{}\": [{}]", workload.name(), runs.join(", ")))
        .collect();
    let path = out.join(if options.trace {
        "layers.json"
    } else {
        "results.json"
    });
    write(
        &path,
        &format!(
            "{{\"schema\": \"axqa-benchmark/1\", \"seed\": {}, \"seconds\": {}, \"threads\": {THREADS}, \
             \"workloads\": {{{}}}}}\n",
            options.seed,
            options.seconds,
            workloads.join(", ")
        ),
    )?;
    println!("wrote {}", path.display());
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let comparison = axqa_benchmark::compare::compare(
        &read(Path::new(a))?,
        &read(Path::new(b))?,
        &read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?,
    )?;
    print!("{}", comparison.text);
    println!("{}", if comparison.passed { "PASS" } else { "FAIL" });
    Ok(if comparison.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
