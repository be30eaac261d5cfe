//! Determinism dataflow rules.
//!
//! The system's headline guarantee is that TSBUILD/EVALQUERY answers
//! are bit-identical across thread counts and budgets. Two token-level
//! dataflow approximations defend it statically in the crates on that
//! deterministic path (core, eval, synopsis, xsketch, distance):
//!
//! * `hashmap-iter-order` — iterating an `FxHashMap`/`HashMap`
//!   (`iter`, `keys`, `values`, `into_iter`, `drain`, or a `for` loop
//!   over the map) in non-test code, where the iteration order can
//!   flow into a returned value or an accumulator. Order-insensitive
//!   terminals (`count`, `any`, `all`, `len`, …) are exempt, as is the
//!   collect-then-sort idiom (`let mut v = m.iter().collect(); v.sort…`).
//! * `float-total-order` — `f64`/`f32` comparisons that depend on the
//!   IEEE partial order: `.partial_cmp(…)` anywhere (use `total_cmp`),
//!   and `==`/`!=` against identifiers declared with a float type,
//!   including `x == 0.0` (which clippy's `float_cmp` allows).
//!
//! Both are statement-granularity approximations over the token
//! stream, not a type checker: identifiers are classified by local
//! `name: FxHashMap<…>` / `name: f64` declarations (let bindings,
//! params, struct fields) within the same file. DESIGN.md §10 spells
//! out the soundness caveats.

use crate::token::{next_code, prev_code, Token, TokenKind};
use crate::{Finding, Rule, SourceFile};

/// Crates whose non-test code must be order-independent.
const DETERMINISTIC_CRATES: &[&str] = &[
    "axqa-core",
    "axqa-eval",
    "axqa-synopsis",
    "axqa-xsketch",
    "axqa-distance",
];

/// Map methods that yield iteration-order-dependent sequences.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Chain terminals whose result is independent of iteration order.
const EXEMPT_TERMINALS: &[&str] = &[
    "count",
    "any",
    "all",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "max",
    "min",
];

/// Statement-level markers that the sequence flows somewhere ordered.
const FLOW_MARKERS: &[&str] = &[
    "collect",
    "fold",
    "sum",
    "product",
    "reduce",
    "extend",
    "push",
    "insert",
    "chain",
    "zip",
    "last",
    "position",
    "find",
    "map_while",
    "take_while",
    "for_each",
];

/// `name.sort…` methods that restore a total order after collecting.
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

fn in_scope(file: &SourceFile) -> bool {
    DETERMINISTIC_CRATES.contains(&file.crate_name.as_str())
}

fn finding(rule: &'static str, file: &SourceFile, token: &Token, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel.clone(),
        line: token.line,
        span: (token.start, token.end),
        message,
    }
}

fn text(file: &SourceFile, i: usize) -> &str {
    file.tokens[i].text(&file.text)
}

fn is_punct(file: &SourceFile, i: usize, p: &str) -> bool {
    file.tokens[i].kind == TokenKind::Punct && text(file, i) == p
}

/// Identifiers declared with one of `types` in this file: collects the
/// bound name from `name: T…`, `let [mut] name = T::…`, struct fields
/// and fn params alike. A per-file name set, not a scope analysis —
/// good enough for lint-grade classification.
fn typed_idents(file: &SourceFile, types: &[&str]) -> Vec<String> {
    let tokens = &file.tokens;
    let mut names: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident || !types.contains(&text(file, i)) {
            continue;
        }
        // `name : [& [mut]] T` — annotation on a let, param, or field.
        let mut j = match prev_code(tokens, i) {
            Some(j) => j,
            None => continue,
        };
        while is_punct(file, j, "&")
            || (tokens[j].kind == TokenKind::Ident && text(file, j) == "mut")
        {
            match prev_code(tokens, j) {
                Some(p) => j = p,
                None => break,
            }
        }
        let name_idx = if is_punct(file, j, ":") {
            prev_code(tokens, j)
        } else if is_punct(file, j, "=") {
            // `let [mut] name = T::default()`.
            prev_code(tokens, j)
        } else {
            None
        };
        if let Some(n) = name_idx {
            if tokens[n].kind == TokenKind::Ident && !crate::parse::is_keyword(text(file, n)) {
                let name = text(file, n).to_string();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Walks back from `i` to the first code token after the previous
/// statement boundary (`;`, `{`, `}`) — an approximation that treats
/// any brace as a boundary.
fn statement_start(file: &SourceFile, i: usize) -> usize {
    let tokens = &file.tokens;
    let mut start = i;
    let mut j = i;
    while let Some(p) = prev_code(tokens, j) {
        if is_punct(file, p, ";") || is_punct(file, p, "{") || is_punct(file, p, "}") {
            break;
        }
        start = p;
        j = p;
    }
    start
}

/// Walks forward from `i` to the statement's terminating `;` (or the
/// `{` opening a block at nesting depth zero, for `for`/`if`/`match`
/// heads). Returns an exclusive end index.
fn statement_end(file: &SourceFile, i: usize) -> usize {
    let tokens = &file.tokens;
    let mut depth: usize = 0;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            match text(file, j) {
                "(" | "[" => depth = depth.saturating_add(1),
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return j,
                "{" | "}" if depth == 0 => return j,
                _ => {}
            }
        }
        j = j.saturating_add(1);
    }
    tokens.len()
}

/// The index one past the matching `}` for the `{` at `open`.
fn block_end(file: &SourceFile, open: usize) -> usize {
    let tokens = &file.tokens;
    let mut depth: usize = 0;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            match text(file, j) {
                "{" => depth = depth.saturating_add(1),
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j.saturating_add(1);
                    }
                }
                _ => {}
            }
        }
        j = j.saturating_add(1);
    }
    tokens.len()
}

/// Walks a method chain starting at the iterator method's `(` and
/// returns the name of the last method called on the chain.
fn chain_terminal(file: &SourceFile, method: usize) -> &str {
    let tokens = &file.tokens;
    let mut terminal = method;
    let mut j = method;
    // Skip the argument list (and any turbofish before it).
    while let Some(mut open) = next_code(tokens, j) {
        if is_punct(file, open, "::") {
            // `collect::<Vec<_>>(…)` — skip to the `(` after the generics.
            let mut k = open;
            let mut angle: usize = 0;
            loop {
                let Some(n) = next_code(tokens, k) else {
                    return text(file, terminal);
                };
                match text(file, n) {
                    "<" => angle = angle.saturating_add(1),
                    ">" => angle = angle.saturating_sub(1),
                    ">>" => angle = angle.saturating_sub(2),
                    "(" if angle == 0 => {
                        open = n;
                        break;
                    }
                    _ => {}
                }
                k = n;
            }
        }
        if !is_punct(file, open, "(") {
            break;
        }
        let mut depth: usize = 0;
        let mut k = open;
        while k < tokens.len() {
            if tokens[k].kind == TokenKind::Punct {
                match text(file, k) {
                    "(" => depth = depth.saturating_add(1),
                    ")" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k = k.saturating_add(1);
        }
        // After `)`: `?`, then `.` + ident continues the chain.
        let mut after = match next_code(tokens, k) {
            Some(a) => a,
            None => break,
        };
        if is_punct(file, after, "?") {
            after = match next_code(tokens, after) {
                Some(a) => a,
                None => break,
            };
        }
        if !is_punct(file, after, ".") {
            break;
        }
        let Some(name) = next_code(tokens, after) else {
            break;
        };
        if tokens[name].kind != TokenKind::Ident {
            break;
        }
        terminal = name;
        j = name;
    }
    text(file, terminal)
}

/// True when `name.sort…(` appears in `tokens[from..to]`.
fn sorted_later(file: &SourceFile, name: &str, from: usize, to: usize) -> bool {
    let tokens = &file.tokens;
    for i in from..to.min(tokens.len()) {
        if tokens[i].kind == TokenKind::Ident
            && SORT_METHODS.contains(&text(file, i))
            && prev_code(tokens, i).is_some_and(|p| {
                is_punct(file, p, ".")
                    && prev_code(tokens, p).is_some_and(|r| {
                        tokens[r].kind == TokenKind::Ident && text(file, r) == name
                    })
            })
        {
            return true;
        }
    }
    false
}

/// Does `tokens[start..end]` contain a flow marker (ordered sink)?
fn has_flow_marker(file: &SourceFile, start: usize, end: usize) -> bool {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate().take(end).skip(start) {
        match token.kind {
            TokenKind::Ident if FLOW_MARKERS.contains(&text(file, i)) => return true,
            TokenKind::Punct
                if matches!(
                    text(file, i),
                    "+=" | "-=" | "*=" | "/=" | "|=" | "&=" | "^="
                ) =>
            {
                return true
            }
            _ => {}
        }
    }
    false
}

/// Flags `FxHashMap`/`HashMap` iteration whose order can reach a
/// returned value or accumulator in non-test code of deterministic-path
/// crates.
pub struct HashMapIterOrder;

impl HashMapIterOrder {
    fn check_site(
        &self,
        file: &SourceFile,
        site: usize,
        map_name: &str,
        findings: &mut Vec<Finding>,
    ) {
        let tokens = &file.tokens;
        let start = statement_start(file, site);
        let end = statement_end(file, site);
        let head = text(file, start);

        if head == "for" {
            // Order flows iteration-by-iteration: flag when the loop
            // body accumulates.
            let body_end = block_end(file, end);
            if !has_flow_marker(file, end, body_end) {
                return;
            }
        } else {
            let terminal = chain_terminal(file, site);
            if EXEMPT_TERMINALS.contains(&terminal) {
                return;
            }
            // Collect-then-sort: `let [mut] v = m.iter()…; … v.sort…`.
            if head == "let" {
                let mut n = next_code(tokens, start);
                if n.is_some_and(|i| text(file, i) == "mut") {
                    n = next_code(tokens, n.unwrap_or(start));
                }
                if let Some(n) = n {
                    if tokens[n].kind == TokenKind::Ident {
                        let bound = text(file, n).to_string();
                        let horizon = end.saturating_add(400);
                        if sorted_later(file, &bound, end, horizon) {
                            return;
                        }
                    }
                }
            }
            if !has_flow_marker(file, start, end) && head != "return" {
                return;
            }
        }
        findings.push(finding(
            self.id(),
            file,
            &tokens[site],
            format!(
                "iteration order of hashmap `{map_name}` can flow into an ordered result — \
                 sort the entries (collect + sort by key) or use an order-independent fold"
            ),
        ));
    }
}

impl Rule for HashMapIterOrder {
    fn id(&self) -> &'static str {
        "hashmap-iter-order"
    }
    fn describe(&self) -> &'static str {
        "no order-dependent FxHashMap/HashMap iteration in non-test code of \
         deterministic-path crates (core/eval/synopsis/xsketch/distance)"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !in_scope(file) {
            return;
        }
        let maps = typed_idents(file, &["FxHashMap", "HashMap"]);
        if maps.is_empty() {
            return;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.in_test[i] || tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let t = text(file, i);
            // `map.iter()` / `map.keys()` / … method chains.
            if ITER_METHODS.contains(&t)
                && next_code(tokens, i).is_some_and(|n| is_punct(file, n, "("))
            {
                let receiver = prev_code(tokens, i)
                    .filter(|p| is_punct(file, *p, "."))
                    .and_then(|p| prev_code(tokens, p))
                    .filter(|r| tokens[*r].kind == TokenKind::Ident)
                    .map(|r| text(file, r).to_string());
                if let Some(name) = receiver {
                    if maps.contains(&name) {
                        self.check_site(file, i, &name, findings);
                    }
                }
                continue;
            }
            // `for pat in [&[mut]] map {` — implicit IntoIterator.
            if t == "in" {
                let mut j = next_code(tokens, i);
                while j.is_some_and(|k| is_punct(file, k, "&") || text(file, k) == "mut") {
                    j = next_code(tokens, j.unwrap_or(i));
                }
                if let Some(j) = j {
                    if tokens[j].kind == TokenKind::Ident
                        && maps.contains(&text(file, j).to_string())
                        && next_code(tokens, j).is_some_and(|n| is_punct(file, n, "{"))
                    {
                        let name = text(file, j).to_string();
                        self.check_site(file, j, &name, findings);
                    }
                }
            }
        }
    }
}

/// Flags float comparisons that depend on the IEEE partial order.
pub struct FloatTotalOrder;

impl Rule for FloatTotalOrder {
    fn id(&self) -> &'static str {
        "float-total-order"
    }
    fn describe(&self) -> &'static str {
        "no partial_cmp / ==/!= on f64|f32 values in deterministic-path crates — \
         use total_cmp or an epsilon predicate"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !in_scope(file) {
            return;
        }
        let floats = typed_idents(file, &["f64", "f32"]);
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.in_test[i] {
                continue;
            }
            match tokens[i].kind {
                // `.partial_cmp(` — calls only; `fn partial_cmp`
                // (a PartialOrd impl's signature) is not a site.
                TokenKind::Ident
                    if text(file, i) == "partial_cmp"
                        && prev_code(tokens, i).is_some_and(|p| is_punct(file, p, "."))
                        && next_code(tokens, i).is_some_and(|n| is_punct(file, n, "(")) =>
                {
                    findings.push(finding(
                        self.id(),
                        file,
                        &tokens[i],
                        "`.partial_cmp(…)` yields None for NaN and is order-unstable — \
                         use `f64::total_cmp` for sorting keys"
                            .to_string(),
                    ));
                }
                TokenKind::Punct if matches!(text(file, i), "==" | "!=") => {
                    if floats.is_empty() {
                        continue;
                    }
                    let lhs = prev_code(tokens, i)
                        .filter(|p| tokens[*p].kind == TokenKind::Ident)
                        .map(|p| text(file, p));
                    let mut r = next_code(tokens, i);
                    if r.is_some_and(|k| is_punct(file, k, "-") || is_punct(file, k, "&")) {
                        r = next_code(tokens, r.unwrap_or(i));
                    }
                    let rhs = r
                        .filter(|p| tokens[*p].kind == TokenKind::Ident)
                        .map(|p| text(file, p));
                    let float_side = [lhs, rhs]
                        .into_iter()
                        .flatten()
                        .find(|n| floats.contains(&(*n).to_string()));
                    if let Some(name) = float_side {
                        let op = text(file, i).to_string();
                        findings.push(finding(
                            self.id(),
                            file,
                            &tokens[i],
                            format!(
                                "`{op}` on float `{name}` — bitwise float equality is a \
                                 determinism hazard; compare with `total_cmp` or an epsilon"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::new(
            "crates/core/src/x.rs".to_string(),
            "axqa-core".to_string(),
            false,
            text.to_string(),
        )
    }

    fn run_map(text: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        HashMapIterOrder.check_file(&file(text), &mut findings);
        findings
    }

    fn run_float(text: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        FloatTotalOrder.check_file(&file(text), &mut findings);
        findings
    }

    #[test]
    fn tracks_declarations_in_all_forms() {
        let f = file(
            "struct S { field: FxHashMap<u32, u32> }\n\
             fn g(param: &FxHashMap<u32, u32>, other: u32) {\n\
                 let local: HashMap<u32, u32> = HashMap::new();\n\
                 let built = FxHashMap::default();\n\
             }\n",
        );
        let names = typed_idents(&f, &["FxHashMap", "HashMap"]);
        assert_eq!(names, vec!["field", "param", "local", "built"]);
    }

    #[test]
    fn collect_into_return_is_flagged() {
        let findings = run_map(
            "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n\
                 m.values().copied().collect()\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`m`"));
    }

    #[test]
    fn order_insensitive_terminals_are_exempt() {
        assert!(
            run_map("fn f(m: &FxHashMap<u32, u32>) -> usize { m.keys().count() }\n").is_empty()
        );
        assert!(
            run_map("fn f(m: &FxHashMap<u32, u32>) -> bool { m.values().any(|v| *v > 0) }\n")
                .is_empty()
        );
    }

    #[test]
    fn collect_then_sort_is_exempt() {
        let findings = run_map(
            "fn f(m: &FxHashMap<u32, u32>) -> Vec<(u32, u32)> {\n\
                 let mut v: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();\n\
                 v.sort_unstable_by_key(|(k, _)| *k);\n\
                 v\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn for_loop_accumulation_is_flagged_but_pure_reads_pass() {
        let flagged = run_map(
            "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n\
                 let mut out = Vec::new();\n\
                 for (_, v) in m { out.push(*v); }\n\
                 out\n\
             }\n",
        );
        assert_eq!(flagged.len(), 1, "{flagged:?}");

        let clean = run_map(
            "fn f(m: &FxHashMap<u32, u32>) {\n\
                 for (_, v) in m { assert_ne!(*v, 0); }\n\
             }\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn test_code_and_other_crates_are_out_of_scope() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n\
                   m.values().copied().collect() }\n}\n";
        assert!(run_map(src).is_empty());

        let mut findings = Vec::new();
        let f = SourceFile::new(
            "crates/obs/src/x.rs".to_string(),
            "axqa-obs".to_string(),
            false,
            "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> { m.values().copied().collect() }\n"
                .to_string(),
        );
        HashMapIterOrder.check_file(&f, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn partial_cmp_calls_flagged_but_impl_signature_is_not() {
        let findings = run_float(
            "impl PartialOrd for S {\n\
                 fn partial_cmp(&self, other: &S) -> Option<Ordering> {\n\
                     self.key.partial_cmp(&other.key)\n\
                 }\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("total_cmp"));
    }

    #[test]
    fn float_ident_equality_is_flagged_across_statements() {
        let findings = run_float(
            "fn f(weight: f64) -> bool {\n\
                 let limit: f64 = threshold();\n\
                 weight == limit\n\
             }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`weight`"));

        // Integers compare fine.
        assert!(run_float("fn f(n: u32) -> bool { n == 3 }\n").is_empty());
    }
}
