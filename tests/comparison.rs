// Examples/integration tests are demo code: panicking extractors are fine.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::arithmetic_side_effects
)]

//! The paper's headline comparison (§6.2), as a deterministic test:
//! at equal byte budgets, TreeSketches produce approximate answers with
//! lower ESD and selectivity estimates with lower error than
//! twig-XSketches, and are cheaper to construct.

use axqa::datagen::workload::{positive_workload, WorkloadConfig};
use axqa::distance::{esd_answer, esd_answer_tree, esd_empty_answer, EsdConfig};
use axqa::prelude::*;
use axqa::xsketch::answer::{sample_answer, SampleConfig};
use axqa::xsketch::build::{build_xsketch, XsBuildConfig};
use axqa::xsketch::estimate::{xs_estimate_selectivity, XsEvalConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Setup {
    doc: Document,
    index: DocIndex,
    workload: Vec<TwigQuery>,
    exact: Vec<f64>,
    ts: TreeSketch,
    xs: axqa::xsketch::XSketch,
}

fn prepare(dataset: Dataset, elements: usize, budget: usize) -> Setup {
    let doc = generate(
        dataset,
        &GenConfig {
            target_elements: elements,
            seed: 0xC04,
        },
    );
    let stable = build_stable(&doc);
    let index = DocIndex::build(&doc);
    let workload = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 40,
            seed: 0xC04 ^ 1,
            ..WorkloadConfig::default()
        },
    );
    let exact: Vec<f64> = workload
        .iter()
        .map(|q| selectivity(&doc, &index, q))
        .collect();
    let build_queries: Vec<(TwigQuery, f64)> = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 20,
            seed: 0xC04 ^ 2,
            ..WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| {
        let s = selectivity(&doc, &index, &q);
        (q, s)
    })
    .collect();
    let ts = ts_build(&stable, &BuildConfig::with_budget(budget)).sketch;
    let xs = build_xsketch(&stable, &build_queries, &XsBuildConfig::with_budget(budget));
    Setup {
        doc,
        index,
        workload,
        exact,
        ts,
        xs,
    }
}

#[test]
fn treesketch_beats_xsketch_on_esd_and_selectivity() {
    // SwissProt-style data: high structural diversity, where 5 KB is a
    // genuinely lossy budget at 25 K elements (the stable summary is
    // ~40 KB). At looser budgets both techniques approach exactness and
    // the comparison degenerates.
    let setup = prepare(Dataset::SProt, 25_000, 5 * 1024);
    let esd_config = EsdConfig::default();

    let mut ts_esd = 0.0;
    let mut xs_esd = 0.0;
    let mut ts_err = 0.0;
    let mut xs_err = 0.0;
    let mut sorted = setup.exact.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let sanity = sorted[sorted.len() / 10].max(1.0);

    for (i, query) in setup.workload.iter().enumerate() {
        let truth = evaluate(&setup.doc, &setup.index, query).expect("positive");
        // ESD of answers.
        ts_esd += match eval_query(&setup.ts, query, &EvalConfig::default()) {
            Some(result) => esd_answer(&setup.doc, &truth, &result, &esd_config),
            None => esd_empty_answer(&setup.doc, &truth, &esd_config),
        };
        let mut rng = StdRng::seed_from_u64(i as u64);
        xs_esd += match sample_answer(&setup.xs, query, &SampleConfig::default(), &mut rng) {
            Some(tree) => esd_answer_tree(&setup.doc, &truth, &tree, &esd_config),
            None => esd_empty_answer(&setup.doc, &truth, &esd_config),
        };
        // Selectivity error.
        let ts_est = axqa::core::selectivity::estimate_query_selectivity(
            &setup.ts,
            query,
            &EvalConfig::default(),
        );
        let xs_est = xs_estimate_selectivity(&setup.xs, query, &XsEvalConfig::default());
        ts_err += (setup.exact[i] - ts_est).abs() / ts_est.max(sanity);
        xs_err += (setup.exact[i] - xs_est).abs() / xs_est.max(sanity);
    }

    assert!(
        ts_esd < xs_esd,
        "TreeSketch avg ESD {} must beat twig-XSketch {}",
        ts_esd / setup.workload.len() as f64,
        xs_esd / setup.workload.len() as f64,
    );
    assert!(
        ts_err <= xs_err + 1e-9,
        "TreeSketch avg error {} must not lose to twig-XSketch {}",
        ts_err / setup.workload.len() as f64,
        xs_err / setup.workload.len() as f64,
    );
}

#[test]
fn construction_is_cheaper_for_treesketch() {
    // Table 3's shape: TSBUILD (squared-error objective) is faster than
    // the workload-driven twig-XSketch refinement at the same budget.
    let doc = generate(
        Dataset::SProt,
        &GenConfig {
            target_elements: 20_000,
            seed: 3,
        },
    );
    let stable = build_stable(&doc);
    let index = DocIndex::build(&doc);
    let build_queries: Vec<(TwigQuery, f64)> = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 20,
            seed: 4,
            ..WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| {
        let s = selectivity(&doc, &index, &q);
        (q, s)
    })
    .collect();

    let start = axqa_obs::Stopwatch::start();
    let _ = ts_build(&stable, &BuildConfig::with_budget(8 * 1024));
    let ts_time = start.elapsed();
    let start = axqa_obs::Stopwatch::start();
    let _ = build_xsketch(
        &stable,
        &build_queries,
        &XsBuildConfig::with_budget(8 * 1024),
    );
    let xs_time = start.elapsed();
    assert!(
        ts_time < xs_time,
        "TSBUILD {ts_time:?} should beat workload-driven build {xs_time:?}"
    );
}
