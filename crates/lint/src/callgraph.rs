//! Intra-workspace call graph over parsed [`FnItem`]s.
//!
//! Call sites are extracted from function bodies at the token level:
//! free/path calls (`ts_build(…)`, `build::ts_build(…)`), method calls
//! (`x.evaluate_merge(…)`), and `Self::` calls (resolved against the
//! enclosing impl type). Name resolution is *suffix-qualified*: a call
//! path matches every workspace function with the same bare name whose
//! qualified path is consistent with the call's qualifiers; method
//! calls — where the receiver type is unknown without type inference —
//! conservatively match every workspace function of that name. Calls
//! that match no workspace function (std, vendor stubs) fall outside
//! the graph. An edge survives only when the callee's crate is the
//! caller's own crate or in its manifest dependency closure, so a
//! method name shared with an unrelated crate adds no edge. See
//! DESIGN.md §10 for the soundness caveats (method-call conservatism,
//! macro opacity, and generic std-trait dispatch into a higher crate's
//! impl, which the pruning cuts).
//!
//! `reaching` is the backward worklist fixpoint over these edges that
//! both the panic ([`crate::reach`]) and the allocation
//! ([`crate::hotpath`]) analyses run.
//!
//! Alongside the edges, each body is scanned for *direct panic sites*:
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`assert!`-family
//! macros, `.unwrap()`/`.expect(…)`, and slice indexing `x[i]` — all
//! outside `#[cfg(test)]`. `debug_assert!` is deliberately excluded:
//! release builds compile it out, and the determinism kernels lean on
//! debug cross-checks.

use crate::parse::{is_keyword, FnItem};
use crate::token::{next_code, prev_code, TokenKind};
use crate::SourceFile;

/// Why a function can panic directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    Assert,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// Slice/array indexing `x[i]`.
    Index,
}

/// One direct panic site inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct PanicSite {
    /// What panics.
    pub kind: PanicKind,
    /// 1-based line of the site.
    pub line: u32,
}

/// The workspace call graph: one node per [`FnItem`], edges by index.
#[derive(Debug)]
pub struct CallGraph {
    /// Every parsed function, across all files, in file order.
    pub items: Vec<FnItem>,
    /// `calls[i]` — indices of workspace functions item `i` may call
    /// (deduplicated, sorted).
    pub calls: Vec<Vec<usize>>,
    /// `sites[i]` — direct panic sites in item `i`'s body.
    pub sites: Vec<Vec<PanicSite>>,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];

/// Builds the graph for `files`. A call edge survives only when the
/// callee's crate is the caller's own crate or in its transitive
/// dependency closure under the manifest `dep_edges`.
pub fn build(files: &[SourceFile], dep_edges: &[(String, Vec<String>)]) -> CallGraph {
    let mut items: Vec<FnItem> = Vec::new();
    let mut file_of_item: Vec<usize> = Vec::new();
    {
        let _span = axqa_obs::span("lint.parse");
        for (f, file) in files.iter().enumerate() {
            for item in crate::parse::parse_file(file) {
                items.push(item);
                file_of_item.push(f);
            }
        }
    }

    // Bare-name index for resolution.
    let mut by_name: Vec<(usize, &str)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (i, item.name.as_str()))
        .collect();
    by_name.sort_by(|a, b| a.1.cmp(b.1));

    // `(crate, crates it can link against)`, itself included.
    let closures: Vec<(&str, Vec<&str>)> = dep_edges
        .iter()
        .map(|(name, _)| {
            let mut seen = vec![name.as_str()];
            let mut stack = vec![name.as_str()];
            while let Some(cur) = stack.pop() {
                for (_, deps) in dep_edges.iter().filter(|(n, _)| n == cur) {
                    for dep in deps {
                        if !seen.contains(&dep.as_str()) {
                            seen.push(dep);
                            stack.push(dep);
                        }
                    }
                }
            }
            (name.as_str(), seen)
        })
        .collect();

    let mut calls: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
    let mut sites: Vec<Vec<PanicSite>> = vec![Vec::new(); items.len()];

    for (idx, item) in items.iter().enumerate() {
        let Some((start, end)) = item.body else {
            continue;
        };
        let file = &files[file_of_item[idx]];
        scan_body(
            file,
            item,
            start,
            end,
            &items,
            &by_name,
            &mut calls[idx],
            &mut sites[idx],
        );
        let linkable = closures
            .iter()
            .find(|(name, _)| *name == item.crate_name)
            .map_or(&[][..], |(_, deps)| deps);
        calls[idx].retain(|&callee| {
            let to = items[callee].crate_name.as_str();
            to == item.crate_name || linkable.contains(&to)
        });
        calls[idx].sort_unstable();
        calls[idx].dedup();
    }

    CallGraph {
        items,
        calls,
        sites,
    }
}

/// `reaching[i]` — item `i` is a seed or calls one, directly or
/// transitively: a backward worklist fixpoint over the call edges.
/// Test items neither seed nor propagate.
pub(crate) fn reaching(graph: &CallGraph, mut seeds: Vec<bool>) -> Vec<bool> {
    let _span = axqa_obs::span("lint.fixpoint");
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); seeds.len()];
    for (caller, callees) in graph.calls.iter().enumerate() {
        if graph.items[caller].is_test {
            seeds[caller] = false;
            continue;
        }
        for &callee in callees {
            callers[callee].push(caller);
        }
    }
    let mut worklist: Vec<usize> = (0..seeds.len()).filter(|&i| seeds[i]).collect();
    while let Some(i) = worklist.pop() {
        for &caller in &callers[i] {
            if !seeds[caller] {
                seeds[caller] = true;
                worklist.push(caller);
            }
        }
    }
    seeds
}

/// All item indices named `name` (binary search over the sorted index).
fn named(by_name: &[(usize, &str)], name: &str) -> Vec<usize> {
    let lo = by_name.partition_point(|(_, n)| *n < name);
    let hi = by_name.partition_point(|(_, n)| *n <= name);
    by_name[lo..hi].iter().map(|(i, _)| *i).collect()
}

/// Scans one body for call sites and panic sites.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    file: &SourceFile,
    item: &FnItem,
    start: usize,
    end: usize,
    items: &[FnItem],
    by_name: &[(usize, &str)],
    calls: &mut Vec<usize>,
    sites: &mut Vec<PanicSite>,
) {
    let tokens = &file.tokens;
    for i in start..end.min(tokens.len()) {
        if file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let token = &tokens[i];
        match token.kind {
            TokenKind::Ident => {}
            TokenKind::Punct if token.text(&file.text) == "[" => {
                // Indexing: `expr[i]` — the previous code token is an
                // identifier (not a keyword), `)` or `]`. Attributes
                // (`#[…]`), macro brackets (`vec![…]`), slice patterns
                // and array literals all have other predecessors.
                if let Some(p) = prev_code(tokens, i) {
                    if p >= start {
                        let prev = &tokens[p];
                        let prev_text = prev.text(&file.text);
                        let indexable = (prev.kind == TokenKind::Ident && !is_keyword(prev_text))
                            || prev_text == ")"
                            || prev_text == "]";
                        if indexable {
                            sites.push(PanicSite {
                                kind: PanicKind::Index,
                                line: token.line,
                            });
                        }
                    }
                }
                continue;
            }
            _ => continue,
        }
        let name = token.text(&file.text);

        // Macro panic sites: `name !` for the panic/assert families.
        if next_code(tokens, i).is_some_and(|n| tokens[n].text(&file.text) == "!") {
            if PANIC_MACROS.contains(&name) {
                sites.push(PanicSite {
                    kind: PanicKind::Macro,
                    line: token.line,
                });
            } else if ASSERT_MACROS.contains(&name) {
                sites.push(PanicSite {
                    kind: PanicKind::Assert,
                    line: token.line,
                });
            }
            continue;
        }

        // Everything else of interest is `name (` — a call.
        let called = next_code(tokens, i).is_some_and(|n| tokens[n].text(&file.text) == "(");
        if !called || is_keyword(name) {
            continue;
        }
        let dotted = prev_code(tokens, i).is_some_and(|p| tokens[p].text(&file.text) == ".");
        if dotted {
            match name {
                "unwrap" => {
                    sites.push(PanicSite {
                        kind: PanicKind::Unwrap,
                        line: token.line,
                    });
                }
                "expect" => {
                    sites.push(PanicSite {
                        kind: PanicKind::Expect,
                        line: token.line,
                    });
                }
                _ => {
                    // Method call: receiver type unknown — match every
                    // workspace fn with this name (conservative).
                    for target in named(by_name, name) {
                        if !items[target].is_test {
                            calls.push(target);
                        }
                    }
                }
            }
            continue;
        }
        // Skip `fn name(` — a nested fn definition, not a call.
        if prev_code(tokens, i).is_some_and(|p| tokens[p].text(&file.text) == "fn") {
            continue;
        }
        // Free or path call: walk the `A :: B :: name` qualifiers back.
        let mut quals: Vec<&str> = Vec::new();
        let mut back = i;
        while let Some(sep) = prev_code(tokens, back) {
            if tokens[sep].text(&file.text) != "::" {
                break;
            }
            let Some(q) = prev_code(tokens, sep) else {
                break;
            };
            let qt = tokens[q].text(&file.text);
            if tokens[q].kind != TokenKind::Ident {
                break; // turbofish `>::` — keep what we have
            }
            quals.push(qt);
            back = q;
        }
        quals.reverse();
        for target in resolve(item, &quals, name, items, by_name) {
            if !items[target].is_test {
                calls.push(target);
            }
        }
    }
}

/// Resolves a call with qualifier segments `quals` and bare name `name`
/// from inside `caller`. `Self` qualifiers map to the caller's impl
/// type; `crate`/`self`/`super` act as workspace-internal markers and
/// are dropped (the remaining segments filter by containment).
fn resolve(
    caller: &FnItem,
    quals: &[&str],
    name: &str,
    items: &[FnItem],
    by_name: &[(usize, &str)],
) -> Vec<usize> {
    let mut effective: Vec<String> = Vec::new();
    for q in quals {
        match *q {
            "crate" | "self" | "super" => {}
            "Self" => {
                if let Some(t) = &caller.self_type {
                    effective.push(t.clone());
                }
            }
            other => effective.push(other.to_string()),
        }
    }
    named(by_name, name)
        .into_iter()
        .filter(|&i| {
            let path = &items[i].path;
            // Every qualifier must appear among the item's path
            // segments (suffix-consistent, order not enforced — a
            // re-export like `axqa_core::ts_build` still matches
            // `axqa_core::build::ts_build`). A qualifier naming
            // something outside the workspace (std, vendored crates)
            // filters the candidate out.
            effective.iter().all(|q| {
                path.iter()
                    .take(path.len().saturating_sub(1))
                    .any(|s| s == q)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotpath::{analyze, parse_config, AllocClass};
    use crate::Workspace;

    fn graph(sources: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, text)| {
                SourceFile::new(
                    rel.to_string(),
                    "axqa-core".to_string(),
                    false,
                    text.to_string(),
                )
            })
            .collect();
        build(&files, &[])
    }

    fn item_idx(g: &CallGraph, name: &str) -> usize {
        g.items.iter().position(|i| i.name == name).unwrap()
    }

    #[test]
    fn free_calls_resolve_across_files() {
        let g = graph(&[
            ("crates/core/src/a.rs", "pub fn caller() { helper(1); }\n"),
            (
                "crates/core/src/b.rs",
                "pub fn helper(x: u32) -> u32 { x }\n",
            ),
        ]);
        let caller = item_idx(&g, "caller");
        let helper = item_idx(&g, "helper");
        assert_eq!(g.calls[caller], vec![helper]);
    }

    #[test]
    fn path_qualifiers_filter_candidates() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn go() { b::run(); std::process::run(); }\n",
            ),
            ("crates/core/src/b.rs", "pub fn run() {}\n"),
            ("crates/core/src/c.rs", "pub fn run() {}\n"),
        ]);
        let go = item_idx(&g, "go");
        // `b::run` resolves to b.rs only; `std::process::run` to nothing.
        let b_run = g
            .items
            .iter()
            .position(|i| i.name == "run" && i.file.ends_with("b.rs"))
            .unwrap();
        assert_eq!(g.calls[go], vec![b_run]);
    }

    #[test]
    fn method_calls_are_conservative_and_self_resolves() {
        let src = "struct S;\nimpl S {\n  pub fn outer(&self) { self.inner(); Self::assoc(); }\n  \
                   fn inner(&self) {}\n  fn assoc() {}\n}\nstruct T;\nimpl T { fn inner(&self) {} }\n";
        let g = graph(&[("crates/core/src/a.rs", src)]);
        let outer = item_idx(&g, "outer");
        // `.inner()` matches both S::inner and T::inner (conservative);
        // `Self::assoc()` resolves through the impl type.
        let names: Vec<&str> = g.calls[outer]
            .iter()
            .map(|&i| g.items[i].name.as_str())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert_eq!(names.iter().filter(|n| **n == "inner").count(), 2);
        assert!(names.contains(&"assoc"));
    }

    #[test]
    fn panic_sites_are_classified() {
        let src = "pub fn f(v: &[u32], o: Option<u32>) -> u32 {\n\
                   assert!(!v.is_empty());\n\
                   if v.len() > 3 { panic!(\"too long\"); }\n\
                   let x = v[0];\n\
                   x + o.unwrap() + o.expect(\"set\")\n}\n";
        let g = graph(&[("crates/core/src/a.rs", src)]);
        let kinds: Vec<PanicKind> = g.sites[0].iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PanicKind::Assert,
                PanicKind::Macro,
                PanicKind::Index,
                PanicKind::Unwrap,
                PanicKind::Expect
            ]
        );
    }

    #[test]
    fn non_panicking_lookalikes_are_ignored() {
        let src = "pub fn f(o: Option<u32>) -> u32 {\n\
                   let v = vec![1, 2];\n\
                   #[allow(dead_code)]\n\
                   let arr = [0u8; 4];\n\
                   let [a, b] = [1, 2];\n\
                   debug_assert!(a <= b);\n\
                   o.unwrap_or(v.len() as u32)\n}\n";
        let g = graph(&[("crates/core/src/a.rs", src)]);
        assert!(g.sites[0].is_empty(), "{:?}", g.sites[0]);
    }

    #[test]
    fn test_code_contributes_no_sites_or_edges() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { live(); Some(1).unwrap(); }\n}\n";
        let g = graph(&[("crates/core/src/a.rs", src)]);
        let t = item_idx(&g, "t");
        assert!(g.items[t].is_test);
        assert!(g.sites[t].is_empty());
    }

    #[test]
    fn indexing_after_call_or_index_counts() {
        let src = "pub fn f(m: &M) -> u32 { m.rows()[0][1] }\n";
        let g = graph(&[("crates/core/src/a.rs", src)]);
        let idx_sites = g.sites[0]
            .iter()
            .filter(|s| s.kind == PanicKind::Index)
            .count();
        assert_eq!(idx_sites, 2);
    }

    #[test]
    fn dependency_pruning_cuts_cross_crate_method_matches() {
        // `x.load()` conservatively matches axqa-other's `load`, which
        // panics and allocates. Without a declared dependency the edge
        // is pruned and `f` is panic-free and alloc-free; with one it
        // reaches both.
        let file = |rel: &str, krate: &str, text: &str| {
            SourceFile::new(rel.to_string(), krate.to_string(), false, text.to_string())
        };
        for (deps, panic_class, alloc_class) in [
            (Vec::new(), "panic-free", AllocClass::Free),
            (
                vec!["axqa-other".to_string()],
                "panic-reaching",
                AllocClass::Reaching,
            ),
        ] {
            let mut ws = Workspace::new(
                vec![
                    file(
                        "crates/core/src/a.rs",
                        "axqa-core",
                        "pub fn f(x: &S) -> usize { x.load() }\n",
                    ),
                    file(
                        "crates/other/src/b.rs",
                        "axqa-other",
                        "pub fn load() -> Vec<u32> { panic!(\"boom\"); Vec::new() }\n",
                    ),
                ],
                vec![
                    ("axqa-core".to_string(), deps),
                    ("axqa-other".to_string(), Vec::new()),
                ],
            );
            ws.hot_paths = Some("[[root]]\npath = \"f\"\nreason = \"test\"\n".to_string());
            let f = item_idx(ws.callgraph(), "f");
            let panic = crate::reach::surface(ws.callgraph());
            let line = panic
                .iter()
                .find(|(l, _)| l.key == "axqa_core::a::f")
                .unwrap();
            assert_eq!(line.0.class, panic_class);
            let roots = parse_config(ws.hot_paths.as_deref().unwrap()).unwrap();
            assert_eq!(analyze(&ws, &roots).class_of(f), alloc_class);
        }
    }
}
