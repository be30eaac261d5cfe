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

//! Quickstart: summarize a document, preview a query approximately,
//! compare against the exact answer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full TreeSketch life cycle on the paper's own running
//! example (the Figure 1 bibliography and the Figure 2 twig query).

use axqa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Figure 1 document: authors with papers, keywords,
    // names and books.
    let doc = parse_document(
        "<d>\
           <a><p><y/><t/><k/></p><p><y/><t/><k/><k/></p><n/></a>\
           <a><n/><p><y/><t/><k/></p><b><t/></b></a>\
           <a><n/><p><y/><t/><k/></p><b><t/></b></a>\
         </d>",
    )?;
    println!("document: {} elements, height {}", doc.len(), doc.height());

    // 1. The count-stable summary (BUILDSTABLE, §4.1): a lossless,
    //    deduplicated synopsis.
    let stable = build_stable(&doc);
    println!(
        "stable summary: {} classes, {} edges (lossless)",
        stable.len(),
        stable.num_edges()
    );

    // 2. Compress to a TreeSketch within a byte budget (TSBUILD, §4.2).
    let budget = SizeModel::TREESKETCH.graph_bytes(stable.len(), stable.num_edges()) - 1;
    let report = ts_build(&stable, &BuildConfig::with_budget(budget));
    println!(
        "treesketch: {} clusters after {} merges, squared error {:.2}, {} bytes",
        report.sketch.len(),
        report.merges,
        report.squared_error,
        report.final_bytes,
    );
    println!("{}", report.sketch.dump());

    // 3. The Figure 2 twig query: authors with books, their papers,
    //    keywords (optional), names (optional).
    let query = parse_twig(
        "q1: q0 //a[//b]\n\
         q2: q1 //p\n\
         q3: q2 ? //k\n\
         q4: q1 ? //n",
    )?;
    println!("query:\n{query}\n");

    // 4. Approximate answer (EVALQUERY, §4.3) + selectivity (§4.4).
    let result =
        eval_query(&report.sketch, &query, &EvalConfig::default()).expect("query is non-empty");
    println!("approximate result sketch:\n{}", result.dump());
    let estimate = estimate_selectivity(&result, &query);

    // 5. Exact ground truth for comparison.
    let index = DocIndex::build(&doc);
    let truth = evaluate(&doc, &index, &query).expect("non-empty");
    let exact = truth.binding_tuples(&query);
    println!("selectivity: exact {exact}, estimated {estimate:.3}");

    // 6. Quality of the approximate answer under the ESD metric (§5).
    let esd = esd_answer(&doc, &truth, &result, &EsdConfig::default());
    println!("ESD(approximate answer, true nesting tree) = {esd:.3}");
    Ok(())
}
