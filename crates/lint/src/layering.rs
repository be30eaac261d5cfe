//! Crate-layering rule: the workspace dependency graph must respect the
//! paper-mandated layer DAG (DESIGN.md §1/§6) — data model below query
//! model below evaluators below synopses below the harness — with no
//! cycles and no upward edges (`core` must never depend on `harness`).
//! Layers strictly decrease along every legal edge, so every cycle
//! among layered crates contains an upward or same-layer edge and
//! needs no search of its own.
//!
//! Edges come from each crate's `[dependencies]` section (a minimal
//! manifest scan in [`crate::engine`]); dev-dependencies are excluded
//! because tests may legitimately reach upward for fixtures and cargo
//! rejects build-breaking dev cycles itself.

use crate::{Finding, Rule, Scope, Workspace};

/// The declared layer of every workspace package. An edge `A → B` is
/// legal only when `layer(A) > layer(B)`; a package missing from this
/// table is itself a finding, so new crates must take a position in
/// the architecture before CI passes.
pub const LAYERS: &[(&str, u32)] = &[
    ("axqa-obs", 0),      // tracing/metrics: std-only, everything above may instrument
    ("axqa-xml", 0),      // data model: documents, labels, arena ids
    ("axqa-query", 1),    // twig queries over the data model
    ("axqa-synopsis", 2), // count-stable summaries, generic synopses
    ("axqa-eval", 2),     // exact twig evaluation (ground truth)
    ("axqa-core", 3),     // TreeSketch: TSBUILD/EVALQUERY (the paper)
    ("axqa-xsketch", 3),  // twig-XSketch baseline
    ("axqa-datagen", 3),  // dataset + workload generators
    ("axqa-distance", 4), // ESD/tree-edit metrics (compare synopses)
    ("axqa-bench", 5),    // criterion benches over everything below
    ("axqa-harness", 5),  // experiment harness
    ("axqa-cli", 5),      // command-line front end
    ("axqa", 6),          // umbrella re-export package (repo tests/)
    ("axqa-lint", 6),     // this engine (depends only on layer-0 axqa-obs)
    ("xtask", 7),         // automation driver (depends on axqa-lint)
];

/// Enforces [`LAYERS`] over the workspace manifests.
pub struct CrateLayering;

impl Rule for CrateLayering {
    fn id(&self) -> &'static str {
        "crate-layering"
    }
    fn describe(&self) -> &'static str {
        "workspace dependency edges respect the DESIGN.md §1 layer DAG (no cycles/upward edges)"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        check_edges(&workspace.dep_edges, LAYERS, findings);
    }
}

/// The checker proper, parameterized over edges and layers so tests can
/// inject violations (an upward `core → harness` edge, a cycle) without
/// touching real manifests.
pub fn check_edges(
    edges: &[(String, Vec<String>)],
    layers: &[(&str, u32)],
    findings: &mut Vec<Finding>,
) {
    let layer_of = |name: &str| layers.iter().find(|(n, _)| *n == name).map(|(_, l)| *l);
    let manifest = |name: &str| format!("{}/Cargo.toml", crate_dir(name));

    for (package, deps) in edges {
        let Some(from_layer) = layer_of(package) else {
            findings.push(Finding {
                rule: "crate-layering",
                file: manifest(package),
                line: 0,
                span: (0, 0),
                message: format!(
                    "crate `{package}` has no declared layer — add it to LAYERS in \
                     crates/lint/src/layering.rs (DESIGN.md §1)"
                ),
            });
            continue;
        };
        for dep in deps {
            let Some(to_layer) = layer_of(dep) else {
                continue; // external dep (vendor stub) — not layered
            };
            if from_layer <= to_layer {
                findings.push(Finding {
                    rule: "crate-layering",
                    file: manifest(package),
                    line: 0,
                    span: (0, 0),
                    message: format!(
                        "upward dependency `{package}` (layer {from_layer}) → `{dep}` \
                         (layer {to_layer}): lower layers must not depend on \
                         higher/equal ones (DESIGN.md §1)"
                    ),
                });
            }
        }
    }
}

/// Workspace-relative crate directory for a package name (`axqa-core` →
/// `crates/core`, the umbrella `axqa` → the repo root).
fn crate_dir(package: &str) -> String {
    match package {
        "axqa" => ".".to_string(),
        "xtask" => "crates/xtask".to_string(),
        other => format!("crates/{}", other.strip_prefix("axqa-").unwrap_or(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(&str, &[&str])]) -> Vec<(String, Vec<String>)> {
        pairs
            .iter()
            .map(|(n, deps)| (n.to_string(), deps.iter().map(|d| d.to_string()).collect()))
            .collect()
    }

    #[test]
    fn real_layering_shape_passes() {
        let graph = edges(&[
            ("axqa-xml", &[]),
            ("axqa-query", &["axqa-xml"]),
            ("axqa-eval", &["axqa-xml", "axqa-query"]),
            ("axqa-synopsis", &["axqa-xml"]),
            (
                "axqa-core",
                &["axqa-xml", "axqa-query", "axqa-synopsis", "axqa-eval"],
            ),
            (
                "axqa-harness",
                &["axqa-core", "axqa-distance", "axqa-datagen"],
            ),
            ("axqa-distance", &["axqa-core"]),
            ("axqa-datagen", &["axqa-synopsis"]),
            ("xtask", &["axqa-lint"]),
            ("axqa-lint", &[]),
        ]);
        let mut findings = Vec::new();
        check_edges(&graph, LAYERS, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn injected_upward_dependency_fails() {
        // The acceptance scenario: core grows a dependency on harness.
        let graph = edges(&[
            ("axqa-core", &["axqa-xml", "axqa-harness"]),
            ("axqa-xml", &[]),
            ("axqa-harness", &["axqa-core"]),
        ]);
        let mut findings = Vec::new();
        check_edges(&graph, LAYERS, &mut findings);
        let upward: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("upward dependency"))
            .collect();
        assert_eq!(upward.len(), 1, "{findings:?}");
        assert!(upward[0]
            .message
            .contains("`axqa-core` (layer 3) → `axqa-harness` (layer 5)"));
    }

    #[test]
    fn same_layer_edge_is_rejected() {
        let graph = edges(&[("axqa-eval", &["axqa-synopsis"])]);
        let mut findings = Vec::new();
        check_edges(&graph, LAYERS, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn unknown_crate_must_declare_a_layer() {
        let graph = edges(&[("axqa-newthing", &["axqa-xml"])]);
        let mut findings = Vec::new();
        check_edges(&graph, LAYERS, &mut findings);
        assert!(findings[0].message.contains("no declared layer"));
    }

    #[test]
    fn cycles_are_reported_as_an_upward_edge() {
        let graph = edges(&[("axqa-xml", &["axqa-query"]), ("axqa-query", &["axqa-xml"])]);
        let mut findings = Vec::new();
        check_edges(&graph, LAYERS, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("upward dependency `axqa-xml` (layer 0) → `axqa-query` (layer 1)"));
    }
}
