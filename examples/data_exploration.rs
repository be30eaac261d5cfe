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

//! The paper's motivating scenario (§1): interactive exploration of a
//! large XML repository with approximate previews.
//!
//! ```text
//! cargo run --release --example data_exploration
//! ```
//!
//! Simulates an analyst session over an auction-site dataset: a 10 KB
//! TreeSketch answers a sequence of exploratory twig queries instantly;
//! for each preview we report the estimated result size, and then — as
//! if the analyst had decided the preview looked interesting — the exact
//! answer and the time both took.

use axqa::prelude::*;
use axqa_obs::Stopwatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size XMark-style auction document.
    let doc = generate(
        Dataset::XMark,
        &GenConfig {
            target_elements: 150_000,
            seed: 2026,
        },
    );
    let stats = DocStats::compute(&doc);
    println!(
        "repository: {} elements, {:.1} MB serialized, {} distinct tags",
        stats.elements,
        stats.file_bytes as f64 / (1024.0 * 1024.0),
        stats.distinct_labels
    );

    // Offline: build the synopsis once.
    let t = Stopwatch::start();
    let stable = build_stable(&doc);
    let sketch = ts_build(&stable, &BuildConfig::with_budget(10 * 1024)).sketch;
    println!(
        "10KB TreeSketch built in {:.2}s ({} clusters from {} stable classes)\n",
        t.elapsed().as_secs_f64(),
        sketch.len(),
        stable.len()
    );

    let index = DocIndex::build(&doc);
    let session = [
        // What does bidding activity look like?
        (
            "open auctions with bidders",
            "q1: q0 //open_auction[bidder]\nq2: q1 /bidder",
        ),
        // Do sellers annotate their auctions?
        (
            "annotated closed auctions",
            "q1: q0 //closed_auction[annotation]\nq2: q1 /annotation//text",
        ),
        // Are people with profiles also watching auctions?
        (
            "profiled people who watch",
            "q1: q0 //person[profile]\nq2: q1 //watch\nq3: q1 ? //interest",
        ),
        // Items with deeply nested descriptions.
        (
            "items with nested lists",
            "q1: q0 //item//parlist[listitem]\nq2: q1 //text",
        ),
    ];

    for (title, twig) in session {
        let query = parse_twig(twig)?;
        let t = Stopwatch::start();
        let estimate = axqa::core::selectivity::estimate_query_selectivity(
            &sketch,
            &query,
            &EvalConfig::default(),
        );
        let preview_time = t.elapsed();
        let t = Stopwatch::start();
        let exact = selectivity(&doc, &index, &query);
        let exact_time = t.elapsed();
        println!("query: {title}");
        println!("  preview : {estimate:>12.1} binding tuples   ({preview_time:.2?})");
        println!("  exact   : {exact:>12.1} binding tuples   ({exact_time:.2?})");
        let error = (exact - estimate).abs() / exact.max(1.0) * 100.0;
        println!("  error   : {error:>11.1}%\n");
    }
    Ok(())
}
