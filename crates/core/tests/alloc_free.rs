// Integration tests opt back into panicking extractors (workspace lint
// table, DESIGN.md "Static analysis & invariants").
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Dynamic alloc-free check (ISSUE 9 tentpole): the `lint/hot-paths.toml`
//! roots are enforced alloc-free *statically* by the `hot-path-alloc`
//! lint rule; this test confirms the same claim *empirically* by running
//! the real kernels under the counting allocator and reading the
//! per-span allocation profiles out of the recorder.
//!
//! What "alloc-free" means per span (the `[[alloc-ok]]` grants in
//! `lint-baseline.toml` draw the same lines):
//!
//! - `TSBUILD.merge_loop` — the loop driver (heap pops, union-find
//!   resolution, staleness checks, candidate re-push): **exactly zero**
//!   allocations. The heap is pushed only after a pop, so it never
//!   regrows mid-loop.
//! - `TSBUILD.merge_loop.score` — `evaluate_merge` on a warmed
//!   [`ScoreScratch`]: amortized to zero. The only allocations are
//!   scratch growth to the run's high-water mark, so the total must be
//!   a sliver of `tsbuild.reevals`.
//! - `EVALQUERY` — `eval_query_with_scratch` with a pooled
//!   [`EvalScratch`]: per-query allocations are granted *output
//!   construction* (the answer is a freshly built `ResultSketch`), so
//!   the steady-state profile must be flat — re-running the identical
//!   workload on the warm scratch allocates exactly the same amount,
//!   i.e. nothing is allocated *by the loop* beyond the answers
//!   themselves.
//! - The summarize front end, `parse_document` and `BUILDSTABLE`,
//!   allocates per label and class, not per element: buffer growth,
//!   label interning, and one child list plus one boxed signature per
//!   new class.
//!
//! Kept as serial `#[test]`s in one binary would still race on the
//! process-wide recorder gate, so each test installs and uninstalls its
//! recorder under a local mutex.

use axqa_core::{eval_query_with_scratch, ts_build, BuildConfig, EvalConfig, EvalScratch};
use axqa_query::parse_twig;
use axqa_synopsis::build_stable;
use axqa_xml::parse_document;

/// The whole point of this binary: every allocation in the process goes
/// through the counting allocator, so span profiles are real counts.
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

/// The recorder gate and the tracking flag are process-wide; tests that
/// install recorders must not overlap.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Enough same-label classes per level for a long merge loop with many
/// lazy re-scorings (same shape as the PR-2 parity tests).
fn many_class_doc() -> axqa_xml::Document {
    let mut src = String::from("<r>");
    for k in 1..=40 {
        src.push_str("<p>");
        src.push_str(&"<k/>".repeat(k));
        src.push_str(&"<m/>".repeat(k % 5 + 1));
        src.push_str("</p>");
    }
    for k in 1..=20 {
        src.push_str("<q><p>");
        src.push_str(&"<k/>".repeat(k * 2));
        src.push_str("</p></q>");
    }
    src.push_str("</r>");
    parse_document(&src).unwrap()
}

#[test]
fn merge_loop_kernels_allocate_nothing_mid_loop() {
    let _gate = GATE.lock().unwrap();
    assert!(
        axqa_obs::alloc::counting_allocator_active(),
        "test binary must run under the counting allocator"
    );
    let doc = many_class_doc();
    let stable = build_stable(&doc);
    let mut config = BuildConfig::with_budget(1); // tightest budget: maximal merging
    config.threads = 1;

    let recorder = axqa_obs::Recorder::new();
    recorder.install();
    let report = ts_build(&stable, &config);
    axqa_obs::uninstall();
    let snapshot = recorder.drain();

    // The run exercised the kernels for real.
    assert!(report.merges > 0);
    let reevals = snapshot.counter("tsbuild.reevals");
    assert!(snapshot.counter("tsbuild.merges") > 0);
    assert!(reevals > 0, "budget-1 build must trigger lazy re-scoring");
    assert!(snapshot.span_count("TSBUILD.merge_loop") > 0);
    assert!(snapshot.span_count("TSBUILD.merge_loop.apply") > 0);

    // Loop driver: zero allocations, zero bytes. Exclusive attribution
    // means child spans (score/apply) own their events, so anything
    // counted here was allocated by the pop/resolve/re-push machinery
    // itself — which must not allocate at all.
    assert_eq!(
        snapshot.span_alloc_count("TSBUILD.merge_loop"),
        0,
        "merge-loop driver allocated: {:?}",
        profile(&snapshot)
    );
    assert_eq!(snapshot.span_alloc_bytes("TSBUILD.merge_loop"), 0);

    // Scoring kernel: `evaluate_merge` allocates only when the shared
    // scratch grows to a new high-water mark. Growth events must be a
    // vanishing fraction of the re-evaluations they amortize over.
    let score_allocs = snapshot.span_alloc_count("TSBUILD.merge_loop.score");
    assert!(
        score_allocs <= reevals / 8,
        "scratch growth not amortized: {score_allocs} allocation(s) over {reevals} re-evaluations"
    );
}

#[test]
fn pooled_evalquery_steady_state_allocates_only_the_answers() {
    let _gate = GATE.lock().unwrap();
    assert!(axqa_obs::alloc::counting_allocator_active());
    let doc = many_class_doc();
    let stable = build_stable(&doc);
    let sketch = ts_build(&stable, &BuildConfig::with_budget(2048)).sketch;
    let eval_config = EvalConfig::default();

    let workload = [
        "q1: q0 //p",
        "q1: q0 //p\nq2: q1 /k",
        "q1: q0 /q\nq2: q1 /p\nq3: q2 /k",
        "q1: q0 //k",
        "q1: q0 //p\nq2: q1 ? /m",
    ]
    .map(|src| parse_twig(src).unwrap());

    // One scratch serves the whole workload — the pooled serving-loop
    // configuration. The warmup pass grows it to the workload's
    // high-water mark before anything is measured.
    let mut scratch = EvalScratch::new();
    for query in &workload {
        std::hint::black_box(eval_query_with_scratch(
            &sketch,
            query,
            &eval_config,
            None,
            &mut scratch,
        ));
    }

    let mut passes = Vec::new();
    for _ in 0..2 {
        let recorder = axqa_obs::Recorder::new();
        recorder.install();
        for query in &workload {
            std::hint::black_box(eval_query_with_scratch(
                &sketch,
                query,
                &eval_config,
                None,
                &mut scratch,
            ));
        }
        axqa_obs::uninstall();
        let snapshot = recorder.drain();
        assert_eq!(snapshot.span_count("EVALQUERY"), workload.len());
        passes.push((
            snapshot.span_alloc_count("EVALQUERY"),
            snapshot.span_alloc_bytes("EVALQUERY"),
        ));
    }

    // Answers are freshly built per query (granted output construction),
    // so the count is nonzero — but on a warm scratch it is *flat*: the
    // second measured pass allocates byte-for-byte what the first did.
    // Any drift would mean the serving loop itself leaks allocations
    // into the steady state (scratch regrowth, memo churn).
    assert!(passes[0].0 > 0, "answer construction allocates");
    assert_eq!(
        passes[0], passes[1],
        "pooled EVALQUERY steady state drifted between identical passes"
    );
}

/// 4,000 bibliography records, ~28,000 elements in 25 classes: each
/// record's keyword and marker counts cycle, and its year is numeric.
fn bibliography_text() -> String {
    let mut src = String::from("<bib>");
    for i in 0..4000 {
        src.push_str("<p>");
        src.push_str(&"<k/>".repeat(i % 7 + 1));
        src.push_str(&"<m/>".repeat(i % 3));
        src.push_str(&format!("<y>{}</y></p>", 1990 + i % 30));
    }
    src.push_str("</bib>");
    src
}

#[test]
fn parse_and_buildstable_allocate_per_class_not_per_element() {
    let _gate = GATE.lock().unwrap();
    assert!(axqa_obs::alloc::counting_allocator_active());
    let text = bibliography_text();

    let recorder = axqa_obs::Recorder::new();
    recorder.install();
    let doc = {
        let _span = axqa_obs::span("parse_document");
        parse_document(&text).unwrap()
    };
    let stable = build_stable(&doc);
    axqa_obs::uninstall();
    let snapshot = recorder.drain();

    assert!(doc.len() >= 20_000, "{} elements", doc.len());
    assert_eq!(doc.num_values(), 4000);
    let parse_allocs = snapshot.span_alloc_count("parse_document");
    assert!(
        parse_allocs < 100,
        "parse_document allocated {parse_allocs} times for {} elements",
        doc.len()
    );
    let classes = stable.len() as u64;
    let stable_allocs = snapshot.span_alloc_count("BUILDSTABLE");
    assert!(
        stable_allocs <= 4 * classes + 64,
        "BUILDSTABLE allocated {stable_allocs} times for {classes} classes"
    );
}

/// Per-span allocation profile for assertion failure messages.
fn profile(snapshot: &axqa_obs::Snapshot) -> Vec<(String, u64, u64)> {
    let mut names: Vec<&str> = snapshot.spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                snapshot.span_alloc_count(n),
                snapshot.span_alloc_bytes(n),
            )
        })
        .collect()
}
