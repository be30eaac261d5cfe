//! The per-file token rule `paper-doc` (DESIGN.md §8). It skips
//! `#[cfg(test)]` tokens via the file's test mask and is immune to
//! string-literal and comment false positives by construction.

use crate::token::{next_code, TokenKind};
use crate::{Finding, Rule, SourceFile};

/// Every plain `pub fn` in `core/src/build.rs` and `core/src/eval.rs`
/// carries a doc comment citing the paper (a `§` section or a `Fig.`
/// reference), so the algorithmic surface stays anchored to its source.
pub struct PaperDoc;

impl Rule for PaperDoc {
    fn id(&self) -> &'static str {
        "paper-doc"
    }
    fn describe(&self) -> &'static str {
        "pub fns in core/src/{build,eval}.rs cite the paper (§ or Fig.) in their doc comment"
    }
    fn check_file(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !file.rel.ends_with("core/src/build.rs") && !file.rel.ends_with("core/src/eval.rs") {
            return;
        }
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] || token.kind != TokenKind::Ident || token.text(&file.text) != "pub"
            {
                continue;
            }
            // Plain `pub` only: `pub(crate)` etc. is not public API.
            let Some(mut j) = next_code(&file.tokens, i) else {
                continue;
            };
            if file.tokens[j].text(&file.text) == "(" {
                continue;
            }
            // Skip qualifiers up to `fn`; bail on non-fn items.
            let mut is_fn = false;
            for _ in 0..4 {
                let text = file.tokens[j].text(&file.text);
                if text == "fn" {
                    is_fn = true;
                    break;
                }
                if !matches!(text, "const" | "unsafe" | "async" | "extern")
                    && file.tokens[j].kind != TokenKind::Literal
                {
                    break;
                }
                match next_code(&file.tokens, j) {
                    Some(next) => j = next,
                    None => break,
                }
            }
            if !is_fn {
                continue;
            }
            if !preceding_docs_cite_paper(file, i) {
                findings.push(Finding {
                    rule: self.id(),
                    file: file.rel.clone(),
                    line: token.line,
                    span: (token.start, token.end),
                    message: "pub fn without a paper citation (§ or Fig.) in its doc comment"
                        .to_string(),
                });
            }
        }
    }
}

/// Walks backwards from the `pub` token over attributes and doc
/// comments; true if any doc comment in that run cites the paper.
fn preceding_docs_cite_paper(file: &SourceFile, pub_index: usize) -> bool {
    let mut j = pub_index;
    while j > 0 {
        j -= 1;
        let token = &file.tokens[j];
        match token.kind {
            TokenKind::DocComment => {
                let text = token.text(&file.text);
                if text.contains('§') || text.contains("Fig.") {
                    return true;
                }
            }
            TokenKind::Comment => {}
            _ => {
                // Attributes between docs and the fn are fine: skip one
                // `#[…]` group (we're walking backwards, so from `]`
                // back to `#`).
                if token.text(&file.text) == "]" {
                    let mut depth = 0i64;
                    while j > 0 {
                        match file.tokens[j].text(&file.text) {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j -= 1;
                    }
                    // Expect the `#` before the `[`.
                    if j > 0 && file.tokens[j - 1].text(&file.text) == "#" {
                        j -= 1;
                        continue;
                    }
                    return false;
                }
                return false;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::new(rel.into(), "axqa-core".into(), false, src.into());
        let mut findings = Vec::new();
        PaperDoc.check_file(&file, &mut findings);
        findings
    }

    #[test]
    fn paper_doc_requires_citation_on_build_and_eval() {
        let undocumented = "pub fn ts_build() {}\n";
        assert_eq!(check("crates/core/src/build.rs", undocumented).len(), 1);
        let documented = "/// TSBUILD (Fig. 5).\npub fn ts_build() {}\n";
        assert!(check("crates/core/src/build.rs", documented).is_empty());
        let section = "/// See §4.3.\n#[inline]\npub fn eval() {}\n";
        assert!(check("crates/core/src/eval.rs", section).is_empty());
        // Other files are exempt; pub(crate) and pub struct are exempt.
        assert!(check("crates/xml/src/tree.rs", undocumented).is_empty());
        let scoped = "pub(crate) fn helper() {}\npub struct S;\n";
        assert!(check("crates/core/src/build.rs", scoped).is_empty());
    }
}
