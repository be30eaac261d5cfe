// Integration tests may panic on impossible cases.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Property tests for the alloc-reachability analysis
//! (`crates/lint/src/hotpath.rs`).
//!
//! The committed `lint/alloc-surface.txt` must be a pure function of the
//! workspace *contents* — never of the order files happen to be visited
//! in. The engine sorts collected files by path, but nothing downstream
//! is allowed to depend on that: `hotpath::analyze` sorts its own file
//! index and the shared surface renderer sorts its output. These properties pin
//! that down by rendering the surface for a generated workspace under a
//! random permutation of the file list and demanding byte-identical
//! output, with grants and cross-crate calls in play.

use axqa_lint::baseline::AllocGrant;
use axqa_lint::{hotpath, SourceFile, Workspace};
use proptest::prelude::*;

/// Statements that are direct allocation sites, labelled with the
/// `what` a matching grant would use.
const ALLOC_STMTS: &[(&str, &str)] = &[
    ("let v: Vec<u32> = Vec::new();", "Vec::new"),
    (
        "let s = xs.iter().copied().collect::<Vec<u32>>();",
        ".collect",
    ),
    ("let t = vec![0u8; 4];", "vec!"),
    ("out.resize(8, 0);", ".resize"),
];

/// Statements the detector must ignore.
const PLAIN_STMTS: &[&str] = &[
    "let x = a.wrapping_add(b);",
    "if a > b { return a; }",
    "let y = a.min(b);",
    "out.push(a);",
];

/// One generated function: its statement picks (index into
/// [`ALLOC_STMTS`] when `< ALLOC_STMTS.len()`, else a plain statement)
/// and the indices of the functions it calls.
#[derive(Debug, Clone)]
struct GenFn {
    stmts: Vec<u8>,
    calls: Vec<u8>,
}

/// A generated workspace: functions distributed round-robin over
/// `num_files` files across two crates, plus an optional grant.
#[derive(Debug, Clone)]
struct GenWorkspace {
    fns: Vec<GenFn>,
    num_files: usize,
    grant: Option<(u8, u8, usize)>,
}

fn render_fn(i: usize, spec: &GenFn, num_fns: usize) -> String {
    let mut body = String::new();
    for &pick in &spec.stmts {
        let pick = pick as usize;
        if pick < ALLOC_STMTS.len() {
            body.push_str(&format!("    {}\n", ALLOC_STMTS[pick].0));
        } else {
            body.push_str(&format!("    {}\n", PLAIN_STMTS[pick % PLAIN_STMTS.len()]));
        }
    }
    for &callee in &spec.calls {
        body.push_str(&format!(
            "    hot_fn_{}(xs, a, b, out);\n",
            callee as usize % num_fns
        ));
    }
    format!(
        "pub fn hot_fn_{i}(xs: &[u32], a: u32, b: u32, out: &mut Vec<u32>) -> u32 {{\n\
         {body}    a\n}}\n\n"
    )
}

/// Builds the workspace with files in the order given by `perm`
/// (a permutation of `0..num_files`).
fn build(spec: &GenWorkspace, perm: &[usize]) -> Workspace {
    let num_fns = spec.fns.len();
    let mut texts: Vec<String> = vec![String::new(); spec.num_files];
    for (i, f) in spec.fns.iter().enumerate() {
        texts[i % spec.num_files].push_str(&render_fn(i, f, num_fns));
    }
    let file_of = |fi: usize| -> SourceFile {
        // Odd files live in a second crate that the first depends on,
        // so cross-crate edges survive dependency pruning in exactly
        // one direction.
        let (rel, crate_name) = if fi.is_multiple_of(2) {
            (format!("crates/core/src/gen{fi}.rs"), "axqa-core")
        } else {
            (format!("crates/eval/src/gen{fi}.rs"), "axqa-eval")
        };
        SourceFile::new(rel, crate_name.to_string(), false, texts[fi].clone())
    };
    let alloc_grants = spec
        .grant
        .iter()
        .map(|&(fi, what, count)| AllocGrant {
            path: format!("hot_fn_{}", fi as usize % num_fns),
            what: ALLOC_STMTS[what as usize % ALLOC_STMTS.len()].1.to_string(),
            count,
            reason: "generated".to_string(),
        })
        .collect();
    let mut ws = Workspace::new(
        perm.iter().map(|&fi| file_of(fi)).collect(),
        vec![
            ("axqa-core".to_string(), vec!["axqa-eval".to_string()]),
            ("axqa-eval".to_string(), Vec::new()),
        ],
    );
    ws.hot_paths = Some("[[root]]\npath = \"hot_fn_0\"\nreason = \"generated root\"\n".to_string());
    ws.alloc_grants = alloc_grants;
    ws
}

fn gen_workspace() -> impl Strategy<Value = GenWorkspace> {
    let gen_fn = (
        proptest::collection::vec(0u8..8, 0..5),
        proptest::collection::vec(0u8..16, 0..4),
    )
        .prop_map(|(stmts, calls)| GenFn { stmts, calls });
    (
        proptest::collection::vec(gen_fn, 2..10),
        2usize..5,
        (any::<bool>(), 0u8..16, 0u8..4, 0usize..4),
    )
        .prop_map(
            |(fns, num_files, (granted, fi, what, count))| GenWorkspace {
                fns,
                num_files,
                grant: granted.then_some((fi, what, count)),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The rendered alloc surface is identical for every file-visit
    // order, including with a grant consuming some of the sites.
    #[test]
    fn surface_is_file_order_independent(
        spec in gen_workspace(),
        seed in any::<u64>(),
    ) {
        let sorted: Vec<usize> = (0..spec.num_files).collect();
        let reference = hotpath::SURFACE.render(&build(&spec, &sorted)).unwrap();

        // Deterministic permutation from the seed (avoid a second
        // proptest-level shuffle dimension blowing up the case count).
        let mut perm = sorted.clone();
        let mut state = seed | 1;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let shuffled = hotpath::SURFACE.render(&build(&spec, &perm)).unwrap();
        prop_assert_eq!(&reference, &shuffled, "perm {:?}", perm);
    }

    // Rebuilding the same workspace twice renders the same surface —
    // no per-process hash seeding or other hidden state leaks in.
    #[test]
    fn surface_is_rebuild_stable(spec in gen_workspace()) {
        let order: Vec<usize> = (0..spec.num_files).collect();
        let a = hotpath::SURFACE.render(&build(&spec, &order)).unwrap();
        let b = hotpath::SURFACE.render(&build(&spec, &order)).unwrap();
        prop_assert_eq!(a, b);
    }
}
