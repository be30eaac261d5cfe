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

//! The value-content extension (the paper's declared future work, §1):
//! numeric leaf values, `[. op c]` predicates, and per-cluster value
//! summaries that let a TreeSketch estimate value-selective twigs.
//!
//! ```text
//! cargo run --release --example value_predicates
//! ```

use axqa::core::values::ValueIndex;
use axqa::core::{eval_query_with_values, ts_build, BuildConfig, EvalConfig};
use axqa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A DBLP-style bibliography whose year leaves carry numeric values.
    let doc = generate(
        Dataset::Dblp,
        &GenConfig {
            target_elements: 80_000,
            seed: 42,
        },
    );
    let stable = build_stable(&doc);
    let index = DocIndex::build(&doc);
    println!(
        "bibliography: {} elements, {} valued leaves",
        doc.len(),
        doc.num_values()
    );

    // Build a 5 KB structural synopsis plus a value layer.
    let report = ts_build(&stable, &BuildConfig::with_budget(5 * 1024));
    let sketch = report.sketch;
    let values = ValueIndex::build(&doc, &stable, &sketch, &report.stable_assignment, 64);
    println!(
        "synopsis: {} clusters / {} B structure + {} B value layer\n",
        sketch.len(),
        report.final_bytes,
        values.size_bytes()
    );

    let session = [
        (
            "articles after 2000",
            "q1: q0 //article[year[. > 2000]]\nq2: q1 /author",
        ),
        (
            "nineties conference papers",
            "q1: q0 //inproceedings/year[. >= 1990][. < 2000]",
        ),
        ("pre-1980 books", "q1: q0 //book[year[. < 1980]]"),
        ("everything from exactly 1999", "q1: q0 //year[. = 1999]"),
    ];
    println!(
        "{:<34} {:>12} {:>12} {:>8}",
        "query", "exact", "estimate", "err%"
    );
    for (title, twig) in session {
        let query = parse_twig(twig)?;
        let exact = selectivity(&doc, &index, &query);
        let estimate =
            eval_query_with_values(&sketch, &query, &EvalConfig::default(), Some(&values))
                .map_or(0.0, |r| estimate_selectivity(&r, &query));
        let err = (exact - estimate).abs() / exact.max(1.0) * 100.0;
        println!("{title:<34} {exact:>12.0} {estimate:>12.1} {err:>7.1}%");
    }

    // Without the value layer the predicates are ignored (structural
    // upper bound) — show the difference.
    let query = parse_twig("q1: q0 //article[year[. > 2000]]")?;
    let structural = eval_query(&sketch, &query, &EvalConfig::default())
        .map_or(0.0, |r| estimate_selectivity(&r, &query));
    let valued = eval_query_with_values(&sketch, &query, &EvalConfig::default(), Some(&values))
        .map_or(0.0, |r| estimate_selectivity(&r, &query));
    println!(
        "\nstructural upper bound (no value layer): {structural:.0}; with value layer: {valued:.1}"
    );
    Ok(())
}
