// Examples/integration tests are demo code: panicking extractors and
// printing are fine.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::arithmetic_side_effects,
    clippy::print_stdout
)]

//! Selectivity estimation for query optimization (§4.4): compare
//! TreeSketch and twig-XSketch estimates against exact counts across a
//! workload, at several space budgets.
//!
//! ```text
//! cargo run --release --example selectivity_estimation
//! ```
//!
//! This is a miniature of Figure 12 over the DBLP-style dataset: the
//! sort of estimates a cost-based XML query optimizer would consume.

use axqa::datagen::workload::{positive_workload, WorkloadConfig};
use axqa::prelude::*;
use axqa::xsketch::build::{build_xsketch, XsBuildConfig};
use axqa::xsketch::estimate::{xs_estimate_selectivity, XsEvalConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = generate(
        Dataset::Dblp,
        &GenConfig {
            target_elements: 120_000,
            seed: 7,
        },
    );
    let stable = build_stable(&doc);
    let index = DocIndex::build(&doc);
    println!(
        "bibliography: {} elements, stable summary {} classes",
        doc.len(),
        stable.len()
    );

    // A 60-query twig workload with exact ground truth.
    let workload = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 60,
            seed: 99,
            ..WorkloadConfig::default()
        },
    );
    let exact: Vec<f64> = workload
        .iter()
        .map(|q| selectivity(&doc, &index, q))
        .collect();
    let mut sorted = exact.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let sanity = sorted[sorted.len() / 10].max(1.0);

    // Build workload for the baseline (held out from evaluation).
    let build_queries: Vec<(TwigQuery, f64)> = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 25,
            seed: 4242,
            ..WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| {
        let s = selectivity(&doc, &index, &q);
        (q, s)
    })
    .collect();

    println!(
        "\n{:>8}  {:>12}  {:>12}",
        "budget", "TreeSketch", "TwigXSketch"
    );
    for budget_kb in [2usize, 5, 10, 20] {
        let ts = ts_build(&stable, &BuildConfig::with_budget(budget_kb * 1024)).sketch;
        let xs = build_xsketch(
            &stable,
            &build_queries,
            &XsBuildConfig::with_budget(budget_kb * 1024),
        );
        let mut ts_err = 0.0;
        let mut xs_err = 0.0;
        for (query, &truth) in workload.iter().zip(&exact) {
            let e1 = axqa::core::selectivity::estimate_query_selectivity(
                &ts,
                query,
                &EvalConfig::default(),
            );
            let e2 = xs_estimate_selectivity(&xs, query, &XsEvalConfig::default());
            ts_err += (truth - e1).abs() / e1.max(sanity);
            xs_err += (truth - e2).abs() / e2.max(sanity);
        }
        let n = workload.len() as f64;
        println!(
            "{:>7}K  {:>11.2}%  {:>11.2}%",
            budget_kb,
            ts_err / n * 100.0,
            xs_err / n * 100.0
        );
    }

    // Show a handful of individual estimates.
    println!("\nsample estimates (10KB TreeSketch):");
    let ts = ts_build(&stable, &BuildConfig::with_budget(10 * 1024)).sketch;
    for (query, &truth) in workload.iter().zip(&exact).take(5) {
        let est =
            axqa::core::selectivity::estimate_query_selectivity(&ts, query, &EvalConfig::default());
        let line = query.to_string().replace('\n', " ; ");
        println!("  exact {truth:>10.0}  est {est:>12.1}   {line}");
    }
    Ok(())
}
