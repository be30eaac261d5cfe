//! The experiments: one function per paper table/figure.

use crate::pipeline::{relative_error, PipelineConfig, Prepared};
use crate::report::{fmt_f, fmt_kb, fmt_secs, Table};
use axqa_core::build::ts_build_sweep;
use axqa_core::parallel::map_indexed;
use axqa_core::{
    estimate_selectivity, eval_query, eval_query_with_scratch, ts_build, BuildConfig, EvalConfig,
    EvalScratch, TreeSketch,
};
use axqa_datagen::workload::{negative_workload, positive_workload, WorkloadConfig};
use axqa_datagen::Dataset;
use axqa_distance::{esd_documents, esd_summaries, EsdConfig, SetDistance, WeightedSummary};
use axqa_eval::selectivity as exact_selectivity;
use axqa_obs::Stopwatch;
use axqa_synopsis::size::kb;
use axqa_synopsis::SizeModel;
use axqa_xml::DocStats;
use axqa_xsketch::answer::{sample_answer, SampleConfig};
use axqa_xsketch::build::{build_xsketch, XsBuildConfig};
use axqa_xsketch::estimate::{xs_estimate_selectivity, XsEvalConfig};
use axqa_xsketch::XSketch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Experiment-level configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Shared pipeline knobs (scale, query count, seed, threads).
    pub pipeline: PipelineConfig,
    /// Synopsis budgets in KB (the paper sweeps 10–50).
    pub budgets_kb: Vec<usize>,
    /// Include the twig-XSketch baseline (slow to build by design).
    pub with_xsketch: bool,
    /// Cap on queries used for the (expensive) ESD measurements.
    pub esd_queries: usize,
    /// CSV output directory, if any.
    pub csv_dir: Option<std::path::PathBuf>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            pipeline: PipelineConfig::default(),
            budgets_kb: vec![10, 20, 30, 40, 50],
            with_xsketch: true,
            esd_queries: 100,
            csv_dir: None,
        }
    }
}

impl ExperimentConfig {
    fn save(&self, table: &mut Table, name: &str) {
        if let Some(dir) = &self.csv_dir {
            if let Err(error) = table.save_csv(dir, name) {
                table.note(format!("could not write {name}.csv: {error}"));
            }
        }
    }
}

/// The three TX datasets of the comparison experiments.
pub const TX_DATASETS: [Dataset; 3] = [Dataset::XMark, Dataset::Imdb, Dataset::SProt];

// ---------------------------------------------------------------------
// Table 1 — dataset characteristics
// ---------------------------------------------------------------------

/// Table 1: elements, serialized size and stable-summary size per
/// dataset (TX and large variants).
pub fn table1(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.table1");
    let mut table = Table::new(
        "Table 1: data set characteristics",
        &["Data Set", "Elements", "File Size", "Stable Synopsis"],
    );
    let model = SizeModel::TREESKETCH;
    let mut add = |dataset: Dataset, large: bool, suffix: &str| {
        let base = if large {
            dataset.large_elements()
        } else {
            dataset.tx_elements()
        };
        if base == 0 {
            return;
        }
        let target = usize::try_from(axqa_xml::f64_to_u64(
            ((base as f64) * config.pipeline.scale).max(2_000.0),
        ))
        .unwrap_or(usize::MAX);
        let doc = axqa_datagen::generate(
            dataset,
            &axqa_datagen::GenConfig {
                target_elements: target,
                seed: config.pipeline.seed,
            },
        );
        let stats = DocStats::compute(&doc);
        let stable = axqa_synopsis::build_stable(&doc);
        table.row(vec![
            format!("{}{}", dataset.name(), suffix),
            stats.elements.to_string(),
            format!("{:.1}MB", stats.file_bytes as f64 / (1024.0 * 1024.0)),
            fmt_kb(model.graph_bytes(stable.len(), stable.num_edges())),
        ]);
    };
    for dataset in TX_DATASETS {
        add(dataset, false, "-TX");
    }
    for dataset in Dataset::ALL {
        add(dataset, true, "");
    }
    config.save(&mut table, "table1");
    table
}

// ---------------------------------------------------------------------
// Table 2 — workload characteristics
// ---------------------------------------------------------------------

/// Table 2: average binding tuples per query, for the TX and large
/// workloads.
pub fn table2(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.table2");
    let mut table = Table::new(
        "Table 2: workload characteristics",
        &["Data Set", "Queries", "Avg Binding Tuples"],
    );
    for (dataset, large, suffix) in [
        (Dataset::Imdb, false, "-TX"),
        (Dataset::XMark, false, "-TX"),
        (Dataset::SProt, false, "-TX"),
        (Dataset::Imdb, true, ""),
        (Dataset::XMark, true, ""),
        (Dataset::SProt, true, ""),
        (Dataset::Dblp, true, ""),
    ] {
        let prepared = Prepared::new(
            dataset,
            large,
            &PipelineConfig {
                need_nesting: false,
                ..config.pipeline.clone()
            },
        );
        table.row(vec![
            format!("{}{}", dataset.name(), suffix),
            prepared.workload.len().to_string(),
            fmt_f(prepared.avg_binding_tuples()),
        ]);
    }
    config.save(&mut table, "table2");
    table
}

// ---------------------------------------------------------------------
// Table 3 — construction times
// ---------------------------------------------------------------------

/// Table 3: construction time of TSBUILD (stable summary → label-split
/// floor, the paper's worst case) vs the workload-driven twig-XSketch
/// build (label-split → 10 KB).
pub fn table3(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.table3");
    let mut table = Table::new(
        "Table 3: construction times",
        &["Data Set", "TreeSketch", "Twig-XSketch", "Stable Nodes"],
    );
    for dataset in TX_DATASETS {
        let prepared = Prepared::new(dataset, false, &config.pipeline);
        // TreeSketch: compress all the way down (budget below the
        // label-split floor).
        let start = Stopwatch::start();
        let report = ts_build(&prepared.stable, &BuildConfig::with_budget(1));
        let ts_time = start.elapsed();
        let _ = report;
        // Twig-XSketch: refine the label-split graph to 10 KB using a
        // build workload with exact counts.
        let xs_time = if config.with_xsketch {
            let build_workload = xsketch_build_workload(&prepared, config);
            let start = Stopwatch::start();
            let _ = build_xsketch(
                &prepared.stable,
                &build_workload,
                &XsBuildConfig::with_budget(kb(10)),
            );
            Some(start.elapsed())
        } else {
            None
        };
        table.row(vec![
            format!("{}-TX", dataset.name()),
            fmt_secs(ts_time),
            xs_time.map_or("-".into(), fmt_secs),
            prepared.stable.len().to_string(),
        ]);
    }
    config.save(&mut table, "table3");
    table
}

/// Exact-count workload used to drive the twig-XSketch builder (fresh
/// seed, so the evaluation workload is held out).
fn xsketch_build_workload(
    prepared: &Prepared,
    config: &ExperimentConfig,
) -> Vec<(axqa_query::TwigQuery, f64)> {
    let queries = positive_workload(
        &prepared.stable,
        &WorkloadConfig {
            count: 30,
            seed: config.pipeline.seed ^ 0xB111D,
            ..WorkloadConfig::default()
        },
    );
    queries
        .into_iter()
        .map(|q| {
            let s = exact_selectivity(&prepared.doc, &prepared.index, &q);
            (q, s)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 11 — average ESD of approximate answers vs budget
// ---------------------------------------------------------------------

/// Figure 11: per TX dataset, average ESD of TreeSketch answers and
/// twig-XSketch sampled answers across budgets.
///
/// # Panics
///
/// If a prepared workload contains a query with no nesting tree — the
/// workload construction keeps only positive queries, so this is
/// unreachable for [`Prepared`] inputs.
pub fn fig11(config: &ExperimentConfig) -> Vec<Table> {
    let _span = axqa_obs::span("experiment.fig11");
    let esd_config = EsdConfig::default();
    let mut tables = Vec::new();
    for dataset in TX_DATASETS {
        let prepared = Prepared::new(dataset, false, &config.pipeline);
        let n_esd = config.esd_queries.min(prepared.workload.len());
        // Truth summaries are budget-independent: compute once.
        let truths: Vec<WeightedSummary> = parallel_map(config, n_esd, |i| {
            let nt = match prepared.nesting[i].as_ref() {
                Some(nt) => nt,
                None => unreachable!("workload keeps only positive queries"),
            };
            WeightedSummary::from_nesting_tree(&prepared.doc, nt)
        });
        let build_workload = if config.with_xsketch {
            xsketch_build_workload(&prepared, config)
        } else {
            Vec::new()
        };

        let mut table = Table::new(
            format!("Figure 11: avg ESD, {}-TX", dataset.name()),
            &["Budget", "TreeSketch", "TwigXSketch"],
        );
        let budget_bytes: Vec<usize> = config.budgets_kb.iter().map(|&b| kb(b)).collect();
        let sweep = ts_build_sweep(
            &prepared.stable,
            &budget_bytes,
            &BuildConfig::with_budget(0),
        );
        // Flattened (budget × query) fan-out: queries of every budget
        // feed one pool, so a slow budget cannot idle the workers.
        let n_budgets = config.budgets_kb.len();
        let ts_esd: Vec<f64> = parallel_map_eval(config, n_budgets * n_esd, |scratch, idx| {
            let (bi, i) = (idx / n_esd, idx % n_esd);
            esd_of_treesketch_answer(&prepared, &sweep[bi], i, &truths[i], &esd_config, scratch)
        });
        let xs_all: Vec<XSketch> = if config.with_xsketch {
            xsketches_per_budget(config, &prepared.stable, &build_workload)
        } else {
            Vec::new()
        };
        let xs_esd: Vec<f64> = if config.with_xsketch {
            parallel_map(config, n_budgets * n_esd, |idx| {
                let (bi, i) = (idx / n_esd, idx % n_esd);
                esd_of_xsketch_answer(&prepared, &xs_all[bi], i, &truths[i], &esd_config, config)
            })
        } else {
            Vec::new()
        };
        for (bi, &budget_kb) in config.budgets_kb.iter().enumerate() {
            let xs_cell = if config.with_xsketch {
                fmt_f(mean(&xs_esd[bi * n_esd..(bi + 1) * n_esd]))
            } else {
                "-".into()
            };
            table.row(vec![
                format!("{budget_kb}KB"),
                fmt_f(mean(&ts_esd[bi * n_esd..(bi + 1) * n_esd])),
                xs_cell,
            ]);
        }
        config.save(
            &mut table,
            &format!("fig11_{}", dataset.name().to_lowercase()),
        );
        tables.push(table);
    }
    tables
}

fn esd_of_treesketch_answer(
    prepared: &Prepared,
    ts: &TreeSketch,
    i: usize,
    truth: &WeightedSummary,
    esd_config: &EsdConfig,
    scratch: &mut EvalScratch,
) -> f64 {
    match eval_query_with_scratch(
        ts,
        &prepared.workload[i],
        &EvalConfig::default(),
        None,
        scratch,
    ) {
        Some(result) => {
            let approx = WeightedSummary::from_result_sketch(&result);
            esd_summaries(truth, &approx, esd_config)
        }
        None => {
            let nt = match prepared.nesting[i].as_ref() {
                Some(nt) => nt,
                None => unreachable!("workload keeps only positive queries"),
            };
            axqa_distance::esd_empty_answer(&prepared.doc, nt, esd_config)
        }
    }
}

fn esd_of_xsketch_answer(
    prepared: &Prepared,
    xs: &XSketch,
    i: usize,
    truth: &WeightedSummary,
    esd_config: &EsdConfig,
    config: &ExperimentConfig,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(config.pipeline.seed ^ (i as u64).wrapping_mul(0x9E37));
    match sample_answer(
        xs,
        &prepared.workload[i],
        &SampleConfig::default(),
        &mut rng,
    ) {
        Some(tree) => {
            let approx = WeightedSummary::from_answer_tree(&tree);
            esd_summaries(truth, &approx, esd_config)
        }
        None => {
            let nt = match prepared.nesting[i].as_ref() {
                Some(nt) => nt,
                None => unreachable!("workload keeps only positive queries"),
            };
            axqa_distance::esd_empty_answer(&prepared.doc, nt, esd_config)
        }
    }
}

// ---------------------------------------------------------------------
// Figure 12 — selectivity estimation error vs budget (TX datasets)
// ---------------------------------------------------------------------

/// Figure 12: per TX dataset, average relative selectivity error of
/// both techniques across budgets.
pub fn fig12(config: &ExperimentConfig) -> Vec<Table> {
    let _span = axqa_obs::span("experiment.fig12");
    let mut tables = Vec::new();
    let pipeline = PipelineConfig {
        need_nesting: false,
        ..config.pipeline.clone()
    };
    for dataset in TX_DATASETS {
        let prepared = Prepared::new(dataset, false, &pipeline);
        let sanity = prepared.sanity_bound();
        let build_workload = if config.with_xsketch {
            xsketch_build_workload(&prepared, config)
        } else {
            Vec::new()
        };
        let mut table = Table::new(
            format!("Figure 12: avg rel error (%), {}-TX", dataset.name()),
            &["Budget", "TreeSketch", "TwigXSketch"],
        );
        let n = prepared.workload.len();
        let budget_bytes: Vec<usize> = config.budgets_kb.iter().map(|&b| kb(b)).collect();
        let sweep = ts_build_sweep(
            &prepared.stable,
            &budget_bytes,
            &BuildConfig::with_budget(0),
        );
        // Same flattening as fig11: one (budget × query) fan-out per
        // technique instead of a serial loop over budgets.
        let n_budgets = config.budgets_kb.len();
        let ts_err: Vec<f64> = parallel_map_eval(config, n_budgets * n, |scratch, idx| {
            let (bi, i) = (idx / n, idx % n);
            let query = &prepared.workload[i];
            let est = match eval_query_with_scratch(
                &sweep[bi],
                query,
                &EvalConfig::default(),
                None,
                scratch,
            ) {
                Some(result) => estimate_selectivity(&result, query),
                None => 0.0,
            };
            relative_error(prepared.exact[i], est, sanity)
        });
        let xs_all: Vec<XSketch> = if config.with_xsketch {
            xsketches_per_budget(config, &prepared.stable, &build_workload)
        } else {
            Vec::new()
        };
        let xs_err: Vec<f64> = if config.with_xsketch {
            parallel_map(config, n_budgets * n, |idx| {
                let (bi, i) = (idx / n, idx % n);
                let est = xs_estimate_selectivity(
                    &xs_all[bi],
                    &prepared.workload[i],
                    &XsEvalConfig::default(),
                );
                relative_error(prepared.exact[i], est, sanity)
            })
        } else {
            Vec::new()
        };
        for (bi, &budget_kb) in config.budgets_kb.iter().enumerate() {
            let xs_cell = if config.with_xsketch {
                format!("{:.1}", mean(&xs_err[bi * n..(bi + 1) * n]) * 100.0)
            } else {
                "-".into()
            };
            table.row(vec![
                format!("{budget_kb}KB"),
                format!("{:.1}", mean(&ts_err[bi * n..(bi + 1) * n]) * 100.0),
                xs_cell,
            ]);
        }
        config.save(
            &mut table,
            &format!("fig12_{}", dataset.name().to_lowercase()),
        );
        tables.push(table);
    }
    tables
}

// ---------------------------------------------------------------------
// Figure 13 — TreeSketch scaling on the large datasets
// ---------------------------------------------------------------------

/// Figure 13: TreeSketch estimation error on IMDB / XMark / SwissProt /
/// DBLP (large scale) across budgets; also reports construction time
/// (the §6.2 scaling discussion).
pub fn fig13(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.fig13");
    let mut table = Table::new(
        "Figure 13: TreeSketch selectivity error (%) on large data sets",
        &["Data Set", "Build", "10KB", "20KB", "30KB", "40KB", "50KB"],
    );
    let pipeline = PipelineConfig {
        need_nesting: false,
        ..config.pipeline.clone()
    };
    for dataset in Dataset::ALL {
        let prepared = Prepared::new(dataset, true, &pipeline);
        let sanity = prepared.sanity_bound();
        let n = prepared.workload.len();
        let start = Stopwatch::start();
        // One compression sweep serves all budgets (greedy merging is
        // prefix-stable: each budget is a stopping point on one merge
        // trajectory), and its wall time is the reported build cost.
        let fig13_budgets = [10usize, 20, 30, 40, 50];
        let budget_bytes: Vec<usize> = fig13_budgets.iter().map(|&b| kb(b)).collect();
        let sweep = ts_build_sweep(
            &prepared.stable,
            &budget_bytes,
            &BuildConfig::with_budget(0),
        );
        let build_time = start.elapsed();
        // Flattened (budget × query) fan-out over all five budgets.
        let values: Vec<f64> =
            parallel_map_eval(config, fig13_budgets.len() * n, |scratch, idx| {
                let (bi, i) = (idx / n, idx % n);
                let query = &prepared.workload[i];
                let est = match eval_query_with_scratch(
                    &sweep[bi],
                    query,
                    &EvalConfig::default(),
                    None,
                    scratch,
                ) {
                    Some(result) => estimate_selectivity(&result, query),
                    None => 0.0,
                };
                relative_error(prepared.exact[i], est, sanity)
            });
        let mut errs: Vec<String> = Vec::new();
        for bi in 0..fig13_budgets.len() {
            errs.push(format!(
                "{:.1}",
                mean(&values[bi * n..(bi + 1) * n]) * 100.0
            ));
        }
        let mut row = vec![dataset.name().to_string(), fmt_secs(build_time)];
        row.extend(errs);
        table.row(row);
    }
    config.save(&mut table, "fig13");
    table
}

// ---------------------------------------------------------------------
// §6.1 — negative workloads
// ---------------------------------------------------------------------

/// Negative workloads: TreeSketches should "consistently produce empty
/// answers as approximations".
pub fn negative(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.negative");
    let mut table = Table::new(
        "Negative workloads: fraction answered empty (TreeSketch, 10KB)",
        &["Data Set", "Queries", "Empty Answers", "Avg |Estimate|"],
    );
    for dataset in TX_DATASETS {
        let prepared = Prepared::new(dataset, false, &config.pipeline);
        let negatives = negative_workload(
            &prepared.stable,
            &WorkloadConfig {
                count: config.pipeline.queries.min(200),
                seed: config.pipeline.seed ^ 0x4E6,
                ..WorkloadConfig::default()
            },
        );
        let ts = ts_build(&prepared.stable, &BuildConfig::with_budget(kb(10))).sketch;
        let mut empty = 0usize;
        let mut estimate_sum = 0.0f64;
        let mut scratch = EvalScratch::new();
        for query in &negatives {
            match eval_query_with_scratch(&ts, query, &EvalConfig::default(), None, &mut scratch) {
                None => empty += 1,
                Some(result) => estimate_sum += estimate_selectivity(&result, query),
            }
        }
        table.row(vec![
            format!("{}-TX", dataset.name()),
            negatives.len().to_string(),
            format!("{empty}/{}", negatives.len()),
            fmt_f(estimate_sum / negatives.len() as f64),
        ]);
    }
    config.save(&mut table, "negative");
    table
}

// ---------------------------------------------------------------------
// Ablations — the §4.2 construction choices and the ESD set distance
// ---------------------------------------------------------------------

/// The ablations, one table each:
///
/// * bottom-up TSBUILD against the top-down splitter at equal budgets
///   (§4.2 argues bottom-up wins), with both build times;
/// * squared error and build time of TSBUILD under four CREATEPOOL
///   settings: the defaults, all-pairs candidates in every
///   `(label, depth)` group, and the paper's `Uh`/`Lh` pool bounds
///   (10,000/100) lowered to 1,000/10 and raised to 50,000/500;
/// * ESD and its time under the greedy set distance and under exact
///   EMD, between two IMDB documents of 10,000 and 6,000 elements.
pub fn ablation(config: &ExperimentConfig) -> Vec<Table> {
    let _span = axqa_obs::span("experiment.ablation");
    let mut topdown = Table::new(
        "Ablation: bottom-up (TSBUILD) vs top-down squared error",
        &[
            "Data Set",
            "Budget",
            "Bottom-up sq",
            "Top-down sq",
            "Bottom-up time",
            "Top-down time",
        ],
    );
    let mut pool = Table::new(
        "Ablation: CREATEPOOL settings, squared error and build time",
        &[
            "Data Set",
            "Budget",
            "Default sq",
            "All-pairs sq",
            "Uh 1000/Lh 10 sq",
            "Uh 50000/Lh 500 sq",
            "Default time",
            "All-pairs time",
            "Uh 1000/Lh 10 time",
            "Uh 50000/Lh 500 time",
        ],
    );
    // The builds read only the stable summary: no workload.
    let pipeline = PipelineConfig {
        queries: 0,
        need_nesting: false,
        ..config.pipeline.clone()
    };
    for dataset in TX_DATASETS {
        let stable = Prepared::new(dataset, false, &pipeline).stable;
        for &budget_kb in &config.budgets_kb {
            let default = BuildConfig {
                threads: config.pipeline.threads,
                ..BuildConfig::with_budget(kb(budget_kb))
            };
            let (top, top_time) = timed(|| axqa_core::topdown_build(&stable, &default));
            let settings = [
                default.clone(),
                BuildConfig {
                    group_all_pairs_cap: usize::MAX,
                    ..default.clone()
                },
                BuildConfig {
                    heap_upper: 1_000,
                    heap_lower: 10,
                    ..default.clone()
                },
                BuildConfig {
                    heap_upper: 50_000,
                    heap_lower: 500,
                    ..default
                },
            ];
            let builds: Vec<(f64, Duration)> = settings
                .iter()
                .map(|setting| {
                    let (report, time) = timed(|| ts_build(&stable, setting));
                    (report.squared_error, time)
                })
                .collect();
            let name = format!("{}-TX", dataset.name());
            let budget = format!("{budget_kb}KB");
            let (bottom_sq, bottom_time) = builds[0];
            topdown.row(vec![
                name.clone(),
                budget.clone(),
                fmt_f(bottom_sq),
                fmt_f(top.squared_error()),
                fmt_secs(bottom_time),
                fmt_secs(top_time),
            ]);
            let mut cells = vec![name, budget];
            cells.extend(builds.iter().map(|&(sq, _)| fmt_f(sq)));
            cells.extend(builds.iter().map(|&(_, time)| fmt_secs(time)));
            pool.row(cells);
        }
    }
    config.save(&mut topdown, "ablation_topdown");
    config.save(&mut pool, "ablation_pool");

    let imdb = |elements| {
        axqa_datagen::generate(
            Dataset::Imdb,
            &axqa_datagen::GenConfig {
                target_elements: elements,
                seed: config.pipeline.seed,
            },
        )
    };
    let (a, b) = (imdb(10_000), imdb(6_000));
    let mut setdist = Table::new(
        format!(
            "Ablation: ESD set distance, IMDB {} vs {} elements",
            a.len(),
            b.len()
        ),
        &["Set distance", "ESD", "Time"],
    );
    for (name, set_distance) in [
        ("GreedyMac", SetDistance::GreedyMac { exponent: 2.0 }),
        ("EMD", SetDistance::Emd { exponent: 2.0 }),
    ] {
        let (esd, time) = timed(|| esd_documents(&a, &b, &EsdConfig { set_distance }));
        setdist.row(vec![name.to_string(), fmt_f(esd), fmt_secs(time)]);
    }
    config.save(&mut setdist, "ablation_setdist");
    vec![topdown, pool, setdist]
}

// ---------------------------------------------------------------------
// Value-predicate extension (the paper's future work)
// ---------------------------------------------------------------------

/// Estimation error for twigs with value predicates (`[. op c]`) across
/// budgets, with and without the value layer — the extension experiment
/// (no paper counterpart; §1 declares values future work).
pub fn values(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.values");
    use axqa_core::eval_query_with_values;
    use axqa_core::ValueIndex;
    use axqa_query::{parse_path, PathExpr, QVar, TwigQuery, ValueOp, ValuePred};

    let mut table = Table::new(
        "Value predicates: avg rel error (%) with/without the value layer",
        &["Data Set", "Budget", "With values", "Structural only"],
    );
    for (dataset, paths) in [
        (Dataset::Dblp, ["//year", "//article/year", "//book/year"]),
        (
            Dataset::Imdb,
            ["//movie/year", "//year", "//person/birthdate"],
        ),
    ] {
        let prepared = Prepared::new(
            dataset,
            false,
            &PipelineConfig {
                queries: 0,
                ..config.pipeline.clone()
            },
        );
        // Value-predicate workload: sweep thresholds over each path.
        let ops = [ValueOp::Gt, ValueOp::Le, ValueOp::Ge];
        let mut workload: Vec<TwigQuery> = Vec::new();
        for path_text in paths {
            for (i, &op) in ops.iter().enumerate() {
                for threshold in [1940.0, 1970.0, 1985.0, 1995.0, 2000.0] {
                    let base: PathExpr = match parse_path(path_text) {
                        Ok(p) => p,
                        Err(_) => continue,
                    };
                    let mut q = TwigQuery::new();
                    q.add(
                        QVar::ROOT,
                        base.with_value_pred(ValuePred {
                            op,
                            constant: threshold + i as f64,
                        }),
                    );
                    workload.push(q);
                }
            }
        }
        let exact: Vec<f64> = workload
            .iter()
            .map(|q| exact_selectivity(&prepared.doc, &prepared.index, q))
            .collect();
        let sanity = {
            let mut sorted = exact.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            sorted[sorted.len() / 10].max(1.0)
        };
        for &budget_kb in &config.budgets_kb {
            let report = ts_build(&prepared.stable, &BuildConfig::with_budget(kb(budget_kb)));
            let values = ValueIndex::build(
                &prepared.doc,
                &prepared.stable,
                &report.sketch,
                &report.stable_assignment,
                64,
            );
            let mut with_err = 0.0;
            let mut without_err = 0.0;
            for (query, &truth) in workload.iter().zip(&exact) {
                let with = eval_query_with_values(
                    &report.sketch,
                    query,
                    &EvalConfig::default(),
                    Some(&values),
                )
                .map_or(0.0, |r| estimate_selectivity(&r, query));
                let without = eval_query(&report.sketch, query, &EvalConfig::default())
                    .map_or(0.0, |r| estimate_selectivity(&r, query));
                with_err += relative_error(truth, with, sanity);
                without_err += relative_error(truth, without, sanity);
            }
            let n = workload.len() as f64;
            table.row(vec![
                dataset.name().to_string(),
                format!("{budget_kb}KB"),
                format!("{:.1}", with_err / n * 100.0),
                format!("{:.1}", without_err / n * 100.0),
            ]);
        }
    }
    config.save(&mut table, "values");
    table
}

// ---------------------------------------------------------------------
// Synopsis family — the §3.1 node-partitioning landscape
// ---------------------------------------------------------------------

/// Sizes of the §3.1 synopsis family on each dataset: label-split
/// (A(0)), A(2), the 1-index (incoming-path equivalence) and the
/// count-stable summary (outgoing-subtree equivalence). Illustrates why
/// backward path indexes cannot replace count stability: they measure
/// different things and their sizes are incomparable.
pub fn family(config: &ExperimentConfig) -> Table {
    let _span = axqa_obs::span("experiment.family");
    let mut table = Table::new(
        "Synopsis family: classes (bytes) per partition",
        &["Data Set", "A(0)", "A(2)", "1-index", "Count-stable"],
    );
    let model = SizeModel::TREESKETCH;
    for dataset in Dataset::ALL {
        let prepared = Prepared::new(
            dataset,
            false,
            &PipelineConfig {
                queries: 0,
                ..config.pipeline.clone()
            },
        );
        let doc = &prepared.doc;
        let fmt = |classes: usize, edges: usize| {
            format!(
                "{} ({})",
                classes,
                fmt_kb(model.graph_bytes(classes, edges))
            )
        };
        let a0 = axqa_synopsis::ak_index(doc, 0);
        let a2 = axqa_synopsis::ak_index(doc, 2);
        let one = axqa_synopsis::one_index(doc);
        table.row(vec![
            dataset.name().to_string(),
            fmt(a0.num_classes, a0.num_edges(doc)),
            fmt(a2.num_classes, a2.num_edges(doc)),
            fmt(one.num_classes, one.num_edges(doc)),
            fmt(prepared.stable.len(), prepared.stable.num_edges()),
        ]);
    }
    config.save(&mut table, "family");
    table
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Runs `f` once and returns its result with its wall time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Stopwatch::start();
    let value = f();
    (value, start.elapsed())
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Index-parallel map with the configured worker count, on core's
/// claim loop.
fn parallel_map<T, F>(config: &ExperimentConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut lanes = vec![(); config.pipeline.effective_threads()];
    map_indexed(&mut lanes, n, |(), i| f(i))
}

/// [`parallel_map`] with a per-worker [`EvalScratch`], so the EVALQUERY
/// serving loops reuse one workspace per thread instead of allocating
/// per query.
fn parallel_map_eval<T, F>(config: &ExperimentConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut EvalScratch, usize) -> T + Sync,
{
    let mut scratches: Vec<EvalScratch> = (0..config.pipeline.effective_threads())
        .map(|_| EvalScratch::new())
        .collect();
    map_indexed(&mut scratches, n, f)
}

/// Builds the twig-XSketch baseline at every budget, one budget per
/// worker (each build is independent, so budgets fan out).
fn xsketches_per_budget(
    config: &ExperimentConfig,
    stable: &axqa_synopsis::StableSummary,
    build_workload: &[(axqa_query::TwigQuery, f64)],
) -> Vec<XSketch> {
    parallel_map(config, config.budgets_kb.len(), |bi| {
        build_xsketch(
            stable,
            build_workload,
            &XsBuildConfig::with_budget(kb(config.budgets_kb[bi])),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_xml::threads::SPAWNS_LEFT;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            pipeline: PipelineConfig {
                scale: 0.03,
                queries: 12,
                seed: 5,
                threads: 2,
                need_nesting: true,
            },
            budgets_kb: vec![4, 8],
            with_xsketch: true,
            esd_queries: 6,
            csv_dir: None,
        }
    }

    #[test]
    fn fig12_runs_and_improves_with_budget() {
        let tables = fig12(&tiny_config());
        assert_eq!(tables.len(), 3);
        for t in &tables {
            let text = t.render();
            assert!(text.contains("4KB") && text.contains("8KB"), "{text}");
        }
    }

    #[test]
    fn refused_threads_leave_fig12_unchanged() {
        // Every worker refused (the sweep's, CREATEPOOL's and the
        // experiment maps'): the calling thread does all the work, and
        // the tables are the one-thread ones.
        let mut serial = tiny_config();
        serial.pipeline.threads = 1;
        let expected: Vec<String> = fig12(&serial).iter().map(Table::render).collect();
        SPAWNS_LEFT.set(0);
        let refused: Vec<String> = fig12(&tiny_config()).iter().map(Table::render).collect();
        SPAWNS_LEFT.set(usize::MAX);
        assert_eq!(refused, expected);
    }

    #[test]
    fn negative_answers_are_empty() {
        let table = negative(&tiny_config());
        let text = table.render();
        // All three datasets answered (3 rows + header + rule).
        assert_eq!(text.lines().count(), 6, "{text}");
    }
}

#[cfg(test)]
mod smoke_tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            pipeline: PipelineConfig {
                scale: 0.02,
                queries: 8,
                seed: 77,
                threads: 1,
                need_nesting: true,
            },
            budgets_kb: vec![2, 6],
            with_xsketch: false,
            esd_queries: 4,
            csv_dir: None,
        }
    }

    #[test]
    fn table1_has_all_rows() {
        let t = table1(&cfg());
        // 3 TX rows + 4 large rows + header + rule + title.
        assert_eq!(t.render().lines().count(), 10);
    }

    #[test]
    fn table3_reports_times() {
        let text = table3(&cfg()).render();
        assert!(text.contains("XMark-TX"));
        assert!(text.contains('s'));
    }

    #[test]
    fn fig11_without_baseline() {
        let tables = fig11(&cfg());
        assert_eq!(tables.len(), 3);
        for t in tables {
            let text = t.render();
            assert!(text.contains("2KB") && text.contains("6KB"));
            assert!(text.contains('-'), "baseline column shows '-'");
        }
    }

    #[test]
    fn fig13_covers_all_datasets() {
        let text = fig13(&cfg()).render();
        for name in ["IMDB", "XMark", "SwissProt", "DBLP"] {
            assert!(text.contains(name), "{text}");
        }
    }

    #[test]
    fn family_and_values_run() {
        let family_text = family(&cfg()).render();
        assert!(family_text.contains("1-index"));
        let values_text = values(&cfg()).render();
        assert!(values_text.contains("DBLP"));
    }

    #[test]
    fn csv_export_writes_files() {
        let dir = std::env::temp_dir().join(format!("axqa-csv-{}", std::process::id()));
        let config = ExperimentConfig {
            csv_dir: Some(dir.clone()),
            ..cfg()
        };
        let _ = table1(&config);
        assert!(dir.join("table1.csv").exists());
        let content = std::fs::read_to_string(dir.join("table1.csv")).unwrap();
        assert!(content.starts_with("Data Set,"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
