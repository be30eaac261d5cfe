//! `bench baseline` — wall-clock baseline for the three hot paths:
//! stable-summary construction, TSBUILD compression at the paper's
//! budgets (serial vs parallel candidate scoring), and EVALQUERY over
//! the workload. Writes a `BENCH_core.json` snapshot (medians over N
//! runs plus machine info) so perf regressions are visible in review
//! diffs without a CI-enforced threshold.

use axqa_core::{
    estimate_selectivity, eval_query_with_scratch, ts_build, BuildConfig, EvalConfig, EvalScratch,
};
use axqa_datagen::workload::{positive_workload, WorkloadConfig};
use axqa_datagen::{generate, Dataset, GenConfig};
use axqa_query::TwigQuery;
use axqa_synopsis::size::kb;
use axqa_synopsis::{build_stable, StableSummary};

/// Knobs for the baseline run.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Dataset generator to benchmark on.
    pub dataset: Dataset,
    /// Target element count of the generated document.
    pub elements: usize,
    /// Workload size for the EVALQUERY timing.
    pub queries: usize,
    /// Timed repetitions per measurement (median is reported).
    pub runs: usize,
    /// TSBUILD budgets in KB (the paper sweeps 10–50).
    pub budgets_kb: Vec<usize>,
    /// Worker threads for the parallel TSBUILD variant (0 = all cores).
    pub threads: usize,
    /// RNG seed for the document and workload.
    pub seed: u64,
    /// Output path of the JSON snapshot.
    pub out: std::path::PathBuf,
    /// Optional Chrome `trace_event` output (`--trace PATH`), loadable
    /// in `chrome://tracing`/Perfetto.
    pub trace_out: Option<std::path::PathBuf>,
    /// Optional standalone `axqa-obs/2` metrics output
    /// (`--metrics PATH`); the same document is embedded in the
    /// baseline JSON either way.
    pub metrics_out: Option<std::path::PathBuf>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            dataset: Dataset::XMark,
            elements: 60_000,
            queries: 200,
            runs: 3,
            budgets_kb: vec![10, 20, 30, 40, 50],
            threads: 0,
            seed: 0x5EED,
            out: std::path::PathBuf::from("BENCH_core.json"),
            trace_out: None,
            metrics_out: None,
        }
    }
}

impl BaselineConfig {
    /// Checks invariants the flag types cannot express: a median needs
    /// at least one timed run, and the sweep needs real work to time.
    /// The CLI rejects the config (usage error, nonzero exit) on `Err`.
    pub fn validate(&self) -> Result<(), String> {
        if self.runs == 0 {
            return Err("--runs must be at least 1 (medians need at least one sample)".into());
        }
        if self.budgets_kb.is_empty() {
            return Err("--budgets must list at least one budget in KB".into());
        }
        if self.elements == 0 {
            return Err("--elements must be at least 1".into());
        }
        if self.queries == 0 {
            return Err("--queries must be at least 1".into());
        }
        Ok(())
    }
}

/// Parses a dataset name as accepted on the command line.
pub fn parse_dataset(name: &str) -> Option<Dataset> {
    match name.to_ascii_lowercase().as_str() {
        "xmark" => Some(Dataset::XMark),
        "imdb" => Some(Dataset::Imdb),
        "sprot" | "swissprot" => Some(Dataset::SProt),
        "dblp" => Some(Dataset::Dblp),
        _ => None,
    }
}

/// One TSBUILD budget's timings.
#[derive(Debug, Clone)]
pub struct TsBuildRow {
    /// Budget in KB.
    pub budget_kb: usize,
    /// Median wall time with `threads = 1` (today's serial path).
    pub serial_ms: f64,
    /// Median wall time with the configured thread count.
    pub parallel_ms: f64,
    /// Thread count the parallel variant actually used.
    pub threads: usize,
    /// `serial_ms / parallel_ms` — NaN (JSON `null`) when the parallel
    /// variant ran with one thread: a 1-thread run compares serial
    /// against itself and a ≈1 "speedup" would be a measurement
    /// artifact, not a result (README "Benchmarks" caveat).
    pub speedup: f64,
}

/// The full baseline snapshot (see [`BaselineReport::to_json`]).
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// The configuration that produced it.
    pub config: BaselineConfig,
    /// Median stable-summary construction time.
    pub stable_build_ms: f64,
    /// Per-budget TSBUILD timings.
    pub ts_build: Vec<TsBuildRow>,
    /// Number of workload queries evaluated.
    pub eval_queries: usize,
    /// Median total EVALQUERY wall time over the workload.
    pub eval_total_ms: f64,
    /// Derived per-query cost in microseconds.
    pub eval_per_query_us: f64,
    /// p50 of individual query times (µs) across all timed runs.
    pub eval_per_query_us_p50: f64,
    /// p95 of individual query times (µs) across all timed runs — the
    /// tail the mean hides.
    pub eval_per_query_us_p95: f64,
    /// Threads the parallel TSBUILD variant actually ran with
    /// (machine-info provenance: `threads` in the config block is the
    /// *requested* count, 0 meaning "all cores").
    pub threads_used: usize,
    /// Host CPU count at measurement time.
    pub cpus: usize,
    /// Whether the process's global allocator is the counting one —
    /// when `false`, every allocation figure in the report is zero
    /// because nothing was tallied, and the `allocation` block says so.
    pub alloc_tracked: bool,
    /// Drained observability snapshot of the whole run (embedded as the
    /// `metrics` block, schema `axqa-obs/2`).
    pub metrics: axqa_obs::Snapshot,
}

fn median_ms(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nearest-rank percentile (`num/den`, e.g. 95/100) over an already
/// sorted sample vector; integer rank arithmetic keeps the index exact.
fn percentile(sorted: &[f64], num: usize, den: usize) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[(sorted.len() - 1) * num / den]
    }
}

/// Total recorded duration of all spans named `name`, in microseconds.
fn span_total_us(metrics: &axqa_obs::Snapshot, name: &str) -> u64 {
    metrics
        .spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.end_us.saturating_sub(span.start_us))
        .sum()
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let watch = axqa_obs::Stopwatch::start();
    let value = f();
    (watch.elapsed_ms(), value)
}

/// Runs one measurement `runs` times and reports the median.
fn measure(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1)).map(|_| f()).collect();
    median_ms(&mut samples)
}

/// Runs the full baseline: document generation (untimed), stable build,
/// TSBUILD serial vs parallel at every budget, and EVALQUERY over the
/// workload against the first-budget sketch.
pub fn run_baseline(config: &BaselineConfig) -> BaselineReport {
    // The baseline drives its own recorder: all TSBUILD/EVALQUERY spans
    // and counters of the run land in the embedded `metrics` block and
    // the optional `--trace` timeline.
    let recorder = axqa_obs::Recorder::new();
    recorder.install();
    let doc = generate(
        config.dataset,
        &GenConfig {
            target_elements: config.elements,
            seed: config.seed,
        },
    );
    let stable_build_ms = measure(config.runs, || time_ms(|| build_stable(&doc)).0);
    let stable = build_stable(&doc);
    let workload = positive_workload(
        &stable,
        &WorkloadConfig {
            count: config.queries,
            seed: config.seed ^ 0xA11CE,
            ..WorkloadConfig::default()
        },
    );

    let mut ts_rows = Vec::new();
    for &budget_kb in &config.budgets_kb {
        ts_rows.push(bench_ts_build(config, &stable, budget_kb));
    }

    let eval = bench_eval_query(config, &stable, &workload);
    axqa_obs::uninstall();
    let threads_used = ts_rows.iter().map(|row| row.threads).max().unwrap_or(1);
    BaselineReport {
        config: config.clone(),
        stable_build_ms,
        ts_build: ts_rows,
        eval_queries: workload.len(),
        eval_total_ms: eval.total_ms,
        eval_per_query_us: eval.per_query_us,
        eval_per_query_us_p50: eval.p50_us,
        eval_per_query_us_p95: eval.p95_us,
        threads_used,
        cpus: axqa_xml::threads::cores(),
        alloc_tracked: axqa_obs::alloc::counting_allocator_active(),
        metrics: recorder.drain(),
    }
}

fn bench_ts_build(config: &BaselineConfig, stable: &StableSummary, budget_kb: usize) -> TsBuildRow {
    let mut serial_config = BuildConfig::with_budget(kb(budget_kb));
    serial_config.threads = 1;
    let mut parallel_config = BuildConfig::with_budget(kb(budget_kb));
    parallel_config.threads = config.threads;
    let threads = parallel_config.effective_threads();
    let serial_ms = measure(config.runs, || {
        time_ms(|| ts_build(stable, &serial_config)).0
    });
    let parallel_ms = measure(config.runs, || {
        time_ms(|| ts_build(stable, &parallel_config)).0
    });
    TsBuildRow {
        budget_kb,
        serial_ms,
        parallel_ms,
        threads,
        // Single-threaded "parallel" runs have no parallelism to
        // measure; json_f renders the NaN as null.
        speedup: if threads <= 1 {
            f64::NAN
        } else {
            serial_ms / parallel_ms.max(1e-9)
        },
    }
}

/// EVALQUERY serving-loop timings: median total plus the per-query
/// distribution (p50/p95 across all timed runs).
struct EvalBench {
    total_ms: f64,
    per_query_us: f64,
    p50_us: f64,
    p95_us: f64,
}

fn bench_eval_query(
    config: &BaselineConfig,
    stable: &StableSummary,
    workload: &[TwigQuery],
) -> EvalBench {
    let first_budget = config.budgets_kb.first().copied().unwrap_or(10);
    let ts = ts_build(stable, &BuildConfig::with_budget(kb(first_budget))).sketch;
    let eval_config = EvalConfig::default();
    // One scratch serves the whole workload — the steady-state serving
    // configuration the baseline is meant to measure.
    let mut scratch = EvalScratch::new();
    let mut samples: Vec<f64> = Vec::with_capacity(config.runs.max(1) * workload.len());
    let total_ms = measure(config.runs, || {
        time_ms(|| {
            let mut acc = 0.0f64;
            for query in workload {
                let watch = axqa_obs::Stopwatch::start();
                if let Some(result) =
                    eval_query_with_scratch(&ts, query, &eval_config, None, &mut scratch)
                {
                    acc += estimate_selectivity(&result, query);
                }
                samples.push(watch.elapsed_ms() * 1_000.0);
            }
            std::hint::black_box(acc)
        })
        .0
    });
    let per_query_us = if workload.is_empty() {
        0.0
    } else {
        total_ms * 1_000.0 / workload.len() as f64
    };
    samples.sort_by(f64::total_cmp);
    EvalBench {
        total_ms,
        per_query_us,
        p50_us: percentile(&samples, 50, 100),
        p95_us: percentile(&samples, 95, 100),
    }
}

fn json_f(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

/// Span names whose allocation profile the baseline reports per phase.
/// `TSBUILD.finalize` is deliberately absent: that span lives on the
/// sweep/snapshot path (`finalize_snapshots`), not the bench path.
const ALLOC_PHASE_SPANS: &[&str] = &[
    "BUILDSTABLE",
    "TSBUILD",
    "CREATEPOOL",
    "CREATEPOOL.score",
    "TSBUILD.merge_loop",
    "TSBUILD.merge_loop.score",
    "TSBUILD.merge_loop.apply",
    "TSBUILD.to_sketch",
    "EVALQUERY",
];

impl BaselineReport {
    /// Percentage of the parallel regions' thread-capacity that was
    /// spent busy: `100 · busy_us / capacity_us` (0 when no parallel
    /// region ran).
    pub fn utilization_pct(&self) -> f64 {
        let busy = self.metrics.counter("parallel.busy_us");
        let capacity = self.metrics.counter("parallel.capacity_us");
        if capacity == 0 {
            0.0
        } else {
            100.0 * busy as f64 / capacity as f64
        }
    }

    /// Serializes the snapshot as the `axqa-bench-baseline/3` JSON
    /// document (hand-rolled — the workspace carries no serde). v3 adds
    /// the `allocation` and `parallel` blocks and drops the dead
    /// `finalize_us` phase (the `TSBUILD.finalize` span is sweep-only
    /// and never fires on the bench path); v2 added the
    /// `ts_build_phases` span breakdown and the per-query p50/p95.
    pub fn to_json(&self) -> String {
        let budgets: Vec<String> = self
            .config
            .budgets_kb
            .iter()
            .map(ToString::to_string)
            .collect();
        let ts_rows: Vec<String> = self
            .ts_build
            .iter()
            .map(|row| {
                format!(
                    concat!(
                        "    {{\"budget_kb\": {}, \"serial_ms\": {}, ",
                        "\"parallel_ms\": {}, \"threads\": {}, \"speedup\": {}}}"
                    ),
                    row.budget_kb,
                    json_f(row.serial_ms),
                    json_f(row.parallel_ms),
                    row.threads,
                    json_f(row.speedup),
                )
            })
            .collect();
        let alloc_phases: Vec<String> = ALLOC_PHASE_SPANS
            .iter()
            .map(|name| {
                format!(
                    "    \"{}\": {{\"allocs\": {}, \"alloc_bytes\": {}}}",
                    name,
                    self.metrics.span_alloc_count(name),
                    self.metrics.span_alloc_bytes(name),
                )
            })
            .collect();
        format!(
            r#"{{
  "schema": "axqa-bench-baseline/3",
  "machine": {{"os": "{os}", "arch": "{arch}", "cpus": {cpus}, "threads_used": {threads_used}}},
  "config": {{
    "dataset": "{dataset}",
    "elements": {elements},
    "queries": {queries},
    "runs": {runs},
    "budgets_kb": [{budgets}],
    "threads": {threads},
    "seed": {seed}
  }},
  "stable_build_ms": {stable},
  "ts_build": [
{ts_rows}
  ],
  "ts_build_phases": {{
    "ts_build_us": {ph_total},
    "create_pool_us": {ph_pool},
    "merge_loop_us": {ph_merge},
    "merge_loop_score_us": {ph_score},
    "merge_loop_apply_us": {ph_apply},
    "to_sketch_us": {ph_sketch}
  }},
  "allocation": {{
    "tracked": {alloc_tracked},
    "phases": {{
{alloc_phases}
    }}
  }},
  "parallel": {{
    "regions": {par_regions},
    "busy_us": {par_busy},
    "wall_us": {par_wall},
    "capacity_us": {par_capacity},
    "utilization_pct": {par_util}
  }},
  "eval_query": {{"queries": {eq}, "total_ms": {et}, "per_query_us": {epq}, "per_query_us_p50": {p50}, "per_query_us_p95": {p95}}},
  "metrics": {metrics}}}
"#,
            os = std::env::consts::OS,
            arch = std::env::consts::ARCH,
            cpus = self.cpus,
            threads_used = self.threads_used,
            dataset = self.config.dataset.name(),
            elements = self.config.elements,
            queries = self.config.queries,
            runs = self.config.runs,
            budgets = budgets.join(", "),
            threads = self.config.threads,
            seed = self.config.seed,
            stable = json_f(self.stable_build_ms),
            ts_rows = ts_rows.join(",\n"),
            ph_total = span_total_us(&self.metrics, "TSBUILD"),
            ph_pool = span_total_us(&self.metrics, "CREATEPOOL"),
            ph_merge = span_total_us(&self.metrics, "TSBUILD.merge_loop"),
            ph_score = span_total_us(&self.metrics, "TSBUILD.merge_loop.score"),
            ph_apply = span_total_us(&self.metrics, "TSBUILD.merge_loop.apply"),
            ph_sketch = span_total_us(&self.metrics, "TSBUILD.to_sketch"),
            alloc_tracked = self.alloc_tracked,
            alloc_phases = alloc_phases.join(",\n"),
            par_regions = self.metrics.counter("parallel.regions"),
            par_busy = self.metrics.counter("parallel.busy_us"),
            par_wall = self.metrics.counter("parallel.wall_us"),
            par_capacity = self.metrics.counter("parallel.capacity_us"),
            par_util = json_f(self.utilization_pct()),
            eq = self.eval_queries,
            et = json_f(self.eval_total_ms),
            epq = json_f(self.eval_per_query_us),
            p50 = json_f(self.eval_per_query_us_p50),
            p95 = json_f(self.eval_per_query_us_p95),
            metrics = axqa_obs::export::metrics_json(&self.metrics).trim_end(),
        )
    }

    /// Writes the JSON snapshot to `config.out`, plus the Chrome trace
    /// and standalone metrics documents when `--trace`/`--metrics`
    /// were given.
    pub fn write(&self) -> std::io::Result<()> {
        std::fs::write(&self.config.out, self.to_json())?;
        if let Some(path) = &self.config.trace_out {
            std::fs::write(path, axqa_obs::export::chrome_trace(&self.metrics))?;
        }
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, axqa_obs::export::metrics_json(&self.metrics))?;
        }
        Ok(())
    }

    /// Human-readable summary for stdout.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench baseline — {} (~{} elements, {} runs)\n  stable build: {} ms\n",
            self.config.dataset.name(),
            self.config.elements,
            self.config.runs,
            json_f(self.stable_build_ms),
        );
        for row in &self.ts_build {
            out.push_str(&format!(
                "  ts_build {}KB: serial {} ms, parallel({}) {} ms, speedup {}\n",
                row.budget_kb,
                json_f(row.serial_ms),
                row.threads,
                json_f(row.parallel_ms),
                json_f(row.speedup),
            ));
        }
        out.push_str(&format!(
            "  eval_query: {} queries, total {} ms ({} us/query, p50 {} us, p95 {} us)\n",
            self.eval_queries,
            json_f(self.eval_total_ms),
            json_f(self.eval_per_query_us),
            json_f(self.eval_per_query_us_p50),
            json_f(self.eval_per_query_us_p95),
        ));
        out.push_str(&format!(
            "  ts_build phases: create_pool {} us, merge_loop {} us (score {} us, apply {} us)\n",
            span_total_us(&self.metrics, "CREATEPOOL"),
            span_total_us(&self.metrics, "TSBUILD.merge_loop"),
            span_total_us(&self.metrics, "TSBUILD.merge_loop.score"),
            span_total_us(&self.metrics, "TSBUILD.merge_loop.apply"),
        ));
        if self.alloc_tracked {
            out.push_str(&format!(
                "  allocation: merge_loop.score {} events, EVALQUERY {} events \
                 ({} bytes)\n",
                self.metrics.span_alloc_count("TSBUILD.merge_loop.score"),
                self.metrics.span_alloc_count("EVALQUERY"),
                self.metrics.span_alloc_bytes("EVALQUERY"),
            ));
        } else {
            out.push_str(
                "  allocation: untracked (binary did not install the counting allocator)\n",
            );
        }
        if self.metrics.counter("parallel.regions") > 0 {
            out.push_str(&format!(
                "  parallel: {} regions, utilization {}% ({} us busy / {} us capacity)\n",
                self.metrics.counter("parallel.regions"),
                json_f(self.utilization_pct()),
                self.metrics.counter("parallel.busy_us"),
                self.metrics.counter("parallel.capacity_us"),
            ));
        }
        // Provenance honesty: a speedup≈1 on a starved host is a
        // measurement artifact, not a perf regression — say so instead
        // of letting the snapshot mislead a review diff.
        if self.cpus == 1 {
            out.push_str(
                "  warning: single-CPU host — serial vs parallel TSBUILD cannot \
                 diverge here; speedup columns are not meaningful\n",
            );
        } else if self.threads_used <= 1 {
            out.push_str(
                "  warning: parallel variant ran with 1 thread — speedup columns \
                 compare serial against itself\n",
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_baseline` installs the process-global recorder; serialize
    /// the tests that do so.
    static RECORDER_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny() -> BaselineConfig {
        BaselineConfig {
            elements: 2_000,
            queries: 10,
            runs: 1,
            budgets_kb: vec![2, 4],
            out: std::env::temp_dir().join(format!("axqa-bench-{}.json", std::process::id())),
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn baseline_emits_wellformed_snapshot() {
        let _gate = RECORDER_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let config = tiny();
        let report = run_baseline(&config);
        assert_eq!(report.ts_build.len(), 2);
        assert!(report.stable_build_ms >= 0.0);
        assert!(report.eval_queries > 0);
        let json = report.to_json();
        for key in [
            "\"schema\": \"axqa-bench-baseline/3\"",
            "\"machine\"",
            "\"cpus\"",
            "\"threads_used\"",
            "\"stable_build_ms\"",
            "\"ts_build\"",
            "\"ts_build_phases\"",
            "\"create_pool_us\"",
            "\"merge_loop_us\"",
            "\"merge_loop_score_us\"",
            "\"merge_loop_apply_us\"",
            "\"allocation\"",
            "\"tracked\"",
            "\"TSBUILD.merge_loop.score\": {\"allocs\"",
            "\"parallel\"",
            "\"utilization_pct\"",
            "\"eval_query\"",
            "\"per_query_us_p50\"",
            "\"per_query_us_p95\"",
            "\"speedup\"",
            "\"metrics\"",
            "\"schema\": \"axqa-obs/2\"",
            "\"tsbuild.merges\"",
            "\"TSBUILD\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // v3 dropped the dead sweep-only phase from the bench document.
        assert!(!json.contains("\"finalize_us\""));
        // The embedded snapshot saw the run's work.
        assert!(report.metrics.counter("tsbuild.merges") > 0);
        assert!(report.metrics.span_count("EVALQUERY") > 0);
        assert!(report.metrics.span_count("BUILDSTABLE") > 0);
        // The scratch-reuse discipline held: after CREATEPOOL warms the
        // per-worker workspaces, candidate scoring reuses them instead
        // of growing fresh arrays.
        assert!(report.metrics.counter("tsbuild.scratch_reuses") > 0);
        assert!(report.metrics.counter("tsbuild.stat_bsearch") > 0);
        // The lazy merge queue converted stale re-pushes into memo hits.
        assert!(report.metrics.counter("tsbuild.stale_skipped") > 0);
        assert!(report.eval_per_query_us_p95 >= report.eval_per_query_us_p50);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        report.write().unwrap();
        let on_disk = std::fs::read_to_string(&config.out).unwrap();
        assert_eq!(on_disk, json);
        let _ = std::fs::remove_file(&config.out);
    }

    #[test]
    fn single_threaded_baseline_emits_null_speedup() {
        let _gate = RECORDER_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut config = tiny();
        config.threads = 1;
        let report = run_baseline(&config);
        assert_eq!(report.threads_used, 1);
        for row in &report.ts_build {
            assert_eq!(row.threads, 1);
            assert!(row.speedup.is_nan(), "1-thread speedup must be null");
        }
        let json = report.to_json();
        assert!(json.contains("\"speedup\": null"), "{json}");
    }

    #[test]
    fn baseline_writes_trace_and_metrics_files() {
        let _gate = RECORDER_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pid = std::process::id();
        let mut config = tiny();
        config.out = std::env::temp_dir().join(format!("axqa-bench-traced-{pid}.json"));
        config.trace_out = Some(std::env::temp_dir().join(format!("axqa-trace-{pid}.json")));
        config.metrics_out = Some(std::env::temp_dir().join(format!("axqa-metrics-{pid}.json")));
        let report = run_baseline(&config);
        report.write().unwrap();
        let trace = std::fs::read_to_string(config.trace_out.as_ref().unwrap()).unwrap();
        assert!(trace.starts_with("{\"traceEvents\": ["));
        for name in [
            "\"TSBUILD\"",
            "\"CREATEPOOL\"",
            "\"EVALQUERY\"",
            "\"BUILDSTABLE\"",
        ] {
            assert!(trace.contains(name), "trace missing {name}");
        }
        assert_eq!(
            trace.matches("\"ph\": \"B\"").count(),
            trace.matches("\"ph\": \"E\"").count()
        );
        let metrics = std::fs::read_to_string(config.metrics_out.as_ref().unwrap()).unwrap();
        assert!(metrics.contains("\"schema\": \"axqa-obs/2\""));
        for path in [
            &config.out,
            config.trace_out.as_ref().unwrap(),
            config.metrics_out.as_ref().unwrap(),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(tiny().validate().is_ok());
        let zero_runs = BaselineConfig { runs: 0, ..tiny() };
        assert!(zero_runs.validate().unwrap_err().contains("--runs"));
        let no_budgets = BaselineConfig {
            budgets_kb: Vec::new(),
            ..tiny()
        };
        assert!(no_budgets.validate().unwrap_err().contains("--budgets"));
        let zero_elements = BaselineConfig {
            elements: 0,
            ..tiny()
        };
        assert!(zero_elements.validate().is_err());
        let zero_queries = BaselineConfig {
            queries: 0,
            ..tiny()
        };
        assert!(zero_queries.validate().is_err());
    }

    #[test]
    fn dataset_names_parse() {
        assert_eq!(parse_dataset("xmark"), Some(Dataset::XMark));
        assert_eq!(parse_dataset("SwissProt"), Some(Dataset::SProt));
        assert_eq!(parse_dataset("nope"), None);
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut a = [3.0, 1.0, 2.0];
        assert_eq!(median_ms(&mut a), 2.0);
        let mut b: [f64; 0] = [];
        assert_eq!(median_ms(&mut b), 0.0);
    }
}
