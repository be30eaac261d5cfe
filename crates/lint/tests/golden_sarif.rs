// Integration tests opt back into panicking extractors (workspace lint
// table, DESIGN.md "Static analysis & invariants").
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Golden-file test for the SARIF 2.1.0 exporter (ISSUE 6 satellite),
//! mirroring `obs/tests/golden_trace.rs`: rule metadata, result shape,
//! suppression of baselined findings, region omission for line-less
//! findings, and message escaping are pinned byte-for-byte against
//! `tests/golden/sarif.json`.

use axqa_lint::engine::Outcome;
use axqa_lint::sarif::render_sarif;
use axqa_lint::Finding;

/// A hand-built outcome: the allocation-analysis rules plus the
/// original trio, and four findings — a fresh error with a line, a
/// baselined error (suppressed in SARIF), a line-less snapshot-diff
/// finding whose message needs JSON escaping, and a hot-path
/// allocation finding from the reachability fixpoint.
fn fixture() -> Outcome {
    Outcome {
        findings: vec![
            Finding {
                rule: "paper-doc",
                file: "crates/core/src/build.rs".to_string(),
                line: 42,
                span: (1000, 1003),
                message: "pub fn without a paper citation (§ or Fig.) in its doc comment"
                    .to_string(),
            },
            Finding {
                rule: "hot-path-alloc",
                file: "crates/core/src/cluster.rs".to_string(),
                line: 409,
                span: (0, 0),
                message: "hot-path fn `axqa_core::cluster::ClusterState::evaluate_merge` \
                          allocates directly (`Vec::new` line 412) — reuse a scratch/pool or \
                          add an [[alloc-ok]] grant with a reason to lint-baseline.toml"
                    .to_string(),
            },
            Finding {
                rule: "hashmap-iter-order",
                file: "crates/xsketch/src/build.rs".to_string(),
                line: 216,
                span: (0, 0),
                message: "iteration order of hashmap `k` can flow into an ordered result"
                    .to_string(),
            },
            Finding {
                rule: "api-surface",
                file: "crates/core/src/eval.rs".to_string(),
                line: 0,
                span: (0, 0),
                message: "public API removed: `pub fn eval \\ \"quoted\"`".to_string(),
            },
        ],
        baselined: vec![false, false, true, false],
        stale: Vec::new(),
        files_scanned: 77,
        rules: vec![
            (
                "paper-doc",
                "pub fns in core/src/{build,eval}.rs cite the paper (§ or Fig.) in their doc comment",
            ),
            (
                "hashmap-iter-order",
                "no order-dependent FxHashMap/HashMap iteration in deterministic-path crates",
            ),
            (
                "api-surface",
                "public API matches lint/api-surface.txt",
            ),
            (
                "hot-path-alloc",
                "no ungranted allocation reachable from the hot roots in lint/hot-paths.toml",
            ),
            (
                "alloc-surface",
                "hot-cone allocation classification matches lint/alloc-surface.txt",
            ),
            (
                "dead-pub",
                "no plain-pub fn with zero intra-workspace callers and no textual reference",
            ),
        ],
        wrote: Vec::new(),
    }
}

#[test]
fn sarif_matches_golden_file() {
    let actual = render_sarif(&fixture());
    let golden = include_str!("golden/sarif.json");
    if actual != golden {
        // Leave the actual output somewhere inspectable so the golden
        // can be refreshed deliberately after an intended format change.
        let path = std::env::temp_dir().join("axqa_lint_golden_sarif_actual.json");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "render_sarif output diverged from tests/golden/sarif.json; \
             actual output written to {}",
            path.display()
        );
    }
}

#[test]
fn sarif_shape_is_well_formed() {
    let sarif = render_sarif(&fixture());
    // One run, schema + version up front.
    assert!(sarif.starts_with(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\","
    ));
    // Every registered rule appears in the driver metadata.
    for id in [
        "paper-doc",
        "hashmap-iter-order",
        "api-surface",
        "hot-path-alloc",
        "alloc-surface",
        "dead-pub",
    ] {
        assert!(sarif.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
    }
    // ruleIndex points into the driver's rules array.
    assert!(sarif.contains("\"ruleId\": \"hashmap-iter-order\", \"ruleIndex\": 1"));
    assert!(sarif.contains("\"ruleId\": \"hot-path-alloc\", \"ruleIndex\": 3"));
    // Exactly the baselined finding is suppressed.
    assert_eq!(
        sarif
            .matches("\"suppressions\": [{\"kind\": \"external\"}]")
            .count(),
        1
    );
    // The line-less finding has a location but no region.
    assert_eq!(sarif.matches("\"startLine\"").count(), 3);
    assert_eq!(sarif.matches("\"physicalLocation\"").count(), 4);
    // Message escaping survives.
    assert!(sarif.contains("pub fn eval \\\\ \\\"quoted\\\""));
    // Balanced braces/brackets — same well-formedness check the obs
    // golden test uses (no serde in the workspace to parse with).
    assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
    assert_eq!(sarif.matches('[').count(), sarif.matches(']').count());
}
