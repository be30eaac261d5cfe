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

//! Approximate-answer quality under the ESD metric (§5): why averages
//! beat histogram sampling for *structure*, and why tree-edit distance
//! is the wrong yardstick.
//!
//! ```text
//! cargo run --release --example answer_quality
//! ```
//!
//! Part 1 re-enacts Figure 10: tree-edit distance cannot tell a
//! correlation-preserving approximation from a correlation-destroying
//! one; ESD can. Part 2 measures average ESD of TreeSketch answers vs
//! sampled twig-XSketch answers on a protein dataset (a miniature of
//! Figure 11).

use axqa::datagen::workload::{positive_workload, WorkloadConfig};
use axqa::distance::{
    esd_answer, esd_answer_tree, esd_documents, tree_edit_distance, EditCosts, EsdConfig,
};
use axqa::prelude::*;
use axqa::xsketch::answer::{sample_answer, SampleConfig};
use axqa::xsketch::build::{build_xsketch, XsBuildConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // Part 1 — Figure 10.
    // ------------------------------------------------------------------
    let truth = parse_document("<r><a><c/><c/><c/><c/><d/></a><a><c/><d/><d/><d/><d/></a></r>")?;
    let t1 = parse_document("<r><a><c/><d/></a><a><c/><c/><c/><c/><d/><d/><d/><d/></a></r>")?;
    let t2 = parse_document(
        "<r><a><c/><c/><c/><c/><c/><c/><d/><d/></a><a><c/><c/><d/><d/><d/><d/><d/><d/></a></r>",
    )?;
    let edit = EditCosts::insert_delete_only();
    println!("Figure 10 — T has a's with (4c,1d) and (1c,4d) children:");
    println!(
        "  tree-edit:  d(T,T1) = {}   d(T,T2) = {}   (cannot separate them)",
        tree_edit_distance(&truth, &t1, &edit),
        tree_edit_distance(&truth, &t2, &edit)
    );
    let esd = EsdConfig::default();
    println!(
        "  ESD      :  d(T,T1) = {:.1}  d(T,T2) = {:.1}  (prefers the correlation-preserving T2)\n",
        esd_documents(&truth, &t1, &esd),
        esd_documents(&truth, &t2, &esd)
    );

    // ------------------------------------------------------------------
    // Part 2 — miniature Figure 11 on SwissProt-style data.
    // ------------------------------------------------------------------
    let doc = generate(
        Dataset::SProt,
        &GenConfig {
            target_elements: 40_000,
            seed: 11,
        },
    );
    let stable = build_stable(&doc);
    let index = DocIndex::build(&doc);
    let workload = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 30,
            seed: 3,
            ..WorkloadConfig::default()
        },
    );
    let build_queries: Vec<(TwigQuery, f64)> = positive_workload(
        &stable,
        &WorkloadConfig {
            count: 20,
            seed: 777,
            ..WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| (q.clone(), selectivity(&doc, &index, &q)))
    .collect();

    println!(
        "avg ESD of approximate answers, SwissProt-style ({} elements):",
        doc.len()
    );
    println!(
        "{:>8}  {:>12}  {:>12}",
        "budget", "TreeSketch", "TwigXSketch"
    );
    for budget_kb in [10usize, 25, 50] {
        let ts = ts_build(&stable, &BuildConfig::with_budget(budget_kb * 1024)).sketch;
        let xs = build_xsketch(
            &stable,
            &build_queries,
            &XsBuildConfig::with_budget(budget_kb * 1024),
        );
        let mut ts_total = 0.0;
        let mut xs_total = 0.0;
        for (i, query) in workload.iter().enumerate() {
            let truth = evaluate(&doc, &index, query).expect("positive workload");
            // TreeSketch answer.
            ts_total += match eval_query(&ts, query, &EvalConfig::default()) {
                Some(result) => esd_answer(&doc, &truth, &result, &esd),
                None => axqa::distance::esd_empty_answer(&doc, &truth, &esd),
            };
            // Sampled twig-XSketch answer.
            let mut rng = StdRng::seed_from_u64(i as u64);
            xs_total += match sample_answer(&xs, query, &SampleConfig::default(), &mut rng) {
                Some(tree) => esd_answer_tree(&doc, &truth, &tree, &esd),
                None => axqa::distance::esd_empty_answer(&doc, &truth, &esd),
            };
        }
        let n = workload.len() as f64;
        println!(
            "{:>7}K  {:>12.1}  {:>12.1}",
            budget_kb,
            ts_total / n,
            xs_total / n
        );
    }
    Ok(())
}
