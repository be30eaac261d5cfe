#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # axqa-lint — the repository's static-analysis engine
//!
//! `cargo xtask lint` runs the nine analyses that clippy cannot make:
//! a paper-citation rule, workspace-scope rules (crate layering,
//! public-API surface snapshot), call-graph analyses over a lightweight
//! fn-item parser (panic and allocation reachability, dead `pub` fns),
//! and determinism dataflow rules, plus a ratcheting baseline and
//! SARIF 2.1.0 export. Bans that clippy can enforce with type
//! information (unwraps, lossy casts, `# Panics` docs, printing, raw
//! clocks, `process::exit`, the system allocator, float equality) live
//! in the workspace lint table and `clippy.toml` instead. See DESIGN.md
//! §8 and §10 for the architecture.
//!
//! The engine is deterministic and nearly dependency-free — its one
//! dependency is the layer-0 `axqa-obs` facade, so the lint phases
//! (`lint.tokenize`, `lint.parse`, `lint.callgraph`, `lint.rules`,
//! `lint.fixpoint`) show up in `lint-metrics.json` like any other
//! phase of the system:
//!
//! * [`token`] tokenizes Rust sources (strings, raw strings, char
//!   literals, comments) and masks `#[cfg(test)]` regions on tokens,
//!   so rules neither miss violations split across lines nor
//!   false-positive inside string literals;
//! * [`rules`] holds the per-file `paper-doc` rule (a type
//!   implementing [`Rule`]);
//! * [`parse`] extracts per-file [`parse::FnItem`]s (qualified path,
//!   visibility, `# Panics` docs, body token range) from the token
//!   stream;
//! * [`callgraph`] builds the intra-workspace call graph
//!   (suffix-qualified name resolution, conservative method calls,
//!   edges pruned to each crate's dependency closure), collects direct
//!   panic sites, and runs the backward reachability fixpoint that the
//!   panic and allocation analyses share;
//! * [`surface`] is the snapshot ratchet behind the three committed
//!   `lint/*-surface.txt` files: parse, render, multiset diff, and the
//!   `--update-surfaces` write path;
//! * [`reach`] classifies public fns by panic reachability
//!   (`lint/panic-surface.txt`);
//! * [`allocsite`] detects direct allocation sites (constructors on
//!   heap-owning types, owned-result methods, growth calls, and
//!   macro-opaque invocations) in function bodies;
//! * [`hotpath`] classifies the call cones of the hot roots declared in
//!   `lint/hot-paths.toml` by allocation reachability, after applying
//!   the baseline's `[[alloc-ok]]` grants (`lint/alloc-surface.txt`,
//!   DESIGN.md §11);
//! * [`deadpub`] reports plain-`pub` functions with zero
//!   intra-workspace callers and no textual references;
//! * [`determinism`] flags order-dependent hashmap iteration and
//!   non-total float comparisons in the deterministic-path crates;
//! * [`sarif`] renders a run as a SARIF 2.1.0 log for GitHub code
//!   scanning;
//! * [`layering`] parses the workspace manifests and enforces the
//!   DESIGN.md §1 crate-layer DAG (no cycles, no upward edges);
//! * [`api_surface`] extracts the `pub fn` / `pub struct` signatures
//!   (`lint/api-surface.txt`);
//! * [`baseline`] implements the `lint-baseline.toml` ratchet:
//!   grandfathered findings pass, new findings fail, and
//!   `--update-baseline` shrinks the file as violations are fixed. Its
//!   TOML-subset reader also parses `lint/hot-paths.toml`;
//! * [`engine`] collects sources, runs the registry, applies the
//!   baseline and renders human text or `--format json`
//!   (schema `axqa-lint/1`).

pub mod allocsite;
pub mod api_surface;
pub mod baseline;
pub mod callgraph;
pub mod deadpub;
pub mod determinism;
pub mod engine;
pub mod hotpath;
pub mod layering;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod surface;
pub mod token;

use std::cell::OnceCell;

use token::Token;

/// One rule violation, structured so it can render as text or JSON and
/// be matched against the baseline.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (stable, kebab-case).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line (0 when the finding has no line, e.g. a removed
    /// API-surface entry).
    pub line: u32,
    /// Byte span in the file (`0..0` when not applicable).
    pub span: (usize, usize),
    /// Human-readable message.
    pub message: String,
}

/// Whether a rule sees one file at a time or the whole workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Called once per collected source file.
    File,
    /// Called once with the whole [`Workspace`].
    Workspace,
}

/// One collected source file with its token stream and test mask.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes (`crates/core/src/eval.rs`).
    pub rel: String,
    /// Package name of the owning crate (`axqa-core`, `xtask`, or
    /// `axqa` for the umbrella `src/`).
    pub crate_name: String,
    /// True for binary-target roots (`src/main.rs`, `src/bin/*.rs`):
    /// diagnostics printed from a binary are legitimate.
    pub is_bin: bool,
    /// The file contents.
    pub text: String,
    /// Token stream of `text`.
    pub tokens: Vec<Token>,
    /// `in_test[i]` — token `i` sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Tokenizes `text` and computes the test mask.
    pub fn new(rel: String, crate_name: String, is_bin: bool, text: String) -> SourceFile {
        let tokens = token::tokenize(&text);
        let in_test = token::test_mask(&text, &tokens);
        SourceFile {
            rel,
            crate_name,
            is_bin,
            text,
            tokens,
            in_test,
        }
    }
}

/// Workspace context handed to [`Scope::Workspace`] rules.
#[derive(Debug)]
pub struct Workspace {
    /// Every collected source file, sorted by path.
    pub files: Vec<SourceFile>,
    /// `(package name, internal [dependencies] edges)` per workspace
    /// crate, from the crate manifests (dev-dependencies excluded —
    /// cargo already forbids dev-cycles that break builds, and tests
    /// may reach upward for fixtures).
    pub dep_edges: Vec<(String, Vec<String>)>,
    /// `(path, contents)` of every committed [`surface`] snapshot that
    /// exists.
    pub snapshots: Vec<(&'static str, String)>,
    /// Contents of `lint/hot-paths.toml` (the alloc-analysis roots)
    /// if present.
    pub hot_paths: Option<String>,
    /// `[[alloc-ok]]` grants parsed from `lint-baseline.toml` — the
    /// hot-path analysis consumes these *before* seeding its fixpoint,
    /// unlike `[[allow]]` entries which apply to finished findings.
    pub alloc_grants: Vec<baseline::AllocGrant>,
    /// Lazily built call graph, shared by every workspace rule (the
    /// engine builds it once per run instead of once per rule).
    pub graph: OnceCell<callgraph::CallGraph>,
}

impl Workspace {
    /// A workspace over `files` and the manifest `dep_edges`, with no
    /// snapshots, hot-paths config or grants yet.
    pub fn new(files: Vec<SourceFile>, dep_edges: Vec<(String, Vec<String>)>) -> Workspace {
        Workspace {
            files,
            dep_edges,
            snapshots: Vec::new(),
            hot_paths: None,
            alloc_grants: Vec::new(),
            graph: OnceCell::new(),
        }
    }

    /// The workspace call graph, built on first use (under a
    /// `lint.callgraph` span) and shared across rules.
    pub fn callgraph(&self) -> &callgraph::CallGraph {
        self.graph.get_or_init(|| {
            let _span = axqa_obs::span("lint.callgraph");
            callgraph::build(&self.files, &self.dep_edges)
        })
    }
}

/// A lint rule: an id, a scope, and a checker. Every finding fails
/// the gate unless the baseline grandfathers it.
///
/// Per-file rules implement [`Rule::check_file`]; workspace rules
/// implement [`Rule::check_workspace`]. The engine owns iteration
/// order, so rules stay pure: findings in, findings out.
pub trait Rule {
    /// Stable kebab-case id (baseline keys and JSON use it).
    fn id(&self) -> &'static str;
    /// One-line description for `--format json` and docs.
    fn describe(&self) -> &'static str;
    /// Per-file or workspace scope.
    fn scope(&self) -> Scope {
        Scope::File
    }
    /// Per-file check; default no-op for workspace rules.
    fn check_file(&self, _file: &SourceFile, _findings: &mut Vec<Finding>) {}
    /// Workspace check; default no-op for per-file rules.
    fn check_workspace(&self, _workspace: &Workspace, _findings: &mut Vec<Finding>) {}
}

/// The registry: every rule the engine runs, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(rules::PaperDoc),
        Box::new(determinism::HashMapIterOrder),
        Box::new(determinism::FloatTotalOrder),
        Box::new(layering::CrateLayering),
        Box::new(api_surface::SURFACE),
        Box::new(reach::SURFACE),
        Box::new(hotpath::HotPathAlloc),
        Box::new(hotpath::SURFACE),
        Box::new(deadpub::DeadPub),
    ]
}
