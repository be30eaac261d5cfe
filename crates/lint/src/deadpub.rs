//! Dead public API detection over the call graph.
//!
//! The api-surface snapshot ratchets *churn*, but it happily
//! fossilizes `pub fn`s nobody calls: once in the snapshot, an unused
//! export never surfaces again. This rule cross-references the call
//! graph with a workspace-wide textual scan: a plain-`pub` function
//! with zero intra-workspace call edges *and* no textual reference
//! anywhere (no identifier use outside its own definition, no doc-link
//! mention, no test or example exercising it) is reported.
//!
//! The textual pass is what keeps the conservative call graph honest:
//! function pointers (`map(score_fn)`), re-exports (`pub use`),
//! doc examples, and bench/test harness code all mention the name as
//! an identifier or in a doc comment, so anything with a textual
//! reference is presumed live. Only names that appear *nowhere* except
//! their own `fn` definition are findings — a deliberately
//! high-precision, low-recall trade.
//!
//! Existing dead exports are baseline-granted on introduction; the
//! ratchet keeps new ones out.

use crate::parse::Visibility;
use crate::token::TokenKind;
use crate::{Finding, Rule, Scope, Workspace};

/// Reports plain-`pub` fns with no callers and no textual references.
pub struct DeadPub;

impl Rule for DeadPub {
    fn id(&self) -> &'static str {
        "dead-pub"
    }
    fn describe(&self) -> &'static str {
        "plain-pub fn with zero intra-workspace callers and no textual reference \
         anywhere in the workspace (tests and docs included) — remove it or make \
         it pub(crate)"
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let graph = workspace.callgraph();
        let n = graph.items.len();

        let mut has_caller = vec![false; n];
        for callees in &graph.calls {
            for &callee in callees {
                has_caller[callee] = true;
            }
        }

        let candidates: Vec<usize> = (0..n)
            .filter(|&i| {
                let item = &graph.items[i];
                item.vis == Visibility::Public
                    && !item.is_test
                    && !item.is_bin
                    && item.name != "main"
                    && item.body.is_some()
                    && !has_caller[i]
            })
            .collect();
        if candidates.is_empty() {
            return;
        }

        // Textual liveness: any identifier token equal to a candidate
        // name that is not the name in a `fn` definition, or any
        // comment/doc-comment containing it, marks the name referenced.
        // Test-masked tokens count — a fn only tests exercise is live.
        let mut referenced: Vec<bool> = vec![false; candidates.len()];
        for file in &workspace.files {
            for (t, token) in file.tokens.iter().enumerate() {
                match token.kind {
                    TokenKind::Ident => {
                        let text = token.text(&file.text);
                        let is_def = crate::token::prev_code(&file.tokens, t)
                            .is_some_and(|p| file.tokens[p].text(&file.text) == "fn");
                        if is_def {
                            continue;
                        }
                        for (c, &i) in candidates.iter().enumerate() {
                            if !referenced[c] && graph.items[i].name == text {
                                referenced[c] = true;
                            }
                        }
                    }
                    TokenKind::Comment | TokenKind::DocComment => {
                        let text = token.text(&file.text);
                        for (c, &i) in candidates.iter().enumerate() {
                            if !referenced[c] && text.contains(graph.items[i].name.as_str()) {
                                referenced[c] = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        for (c, &i) in candidates.iter().enumerate() {
            if referenced[c] {
                continue;
            }
            let item = &graph.items[i];
            findings.push(Finding {
                rule: self.id(),
                file: item.file.clone(),
                line: item.line,
                span: (0, 0),
                message: format!(
                    "pub fn `{}` has no intra-workspace callers and no textual \
                     reference — remove it or mark it pub(crate)",
                    item.display_path()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn workspace(sources: &[(&str, &str)]) -> Workspace {
        let files = sources
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
        Workspace::new(files, vec![("axqa-core".to_string(), Vec::new())])
    }

    fn check(sources: &[(&str, &str)]) -> Vec<Finding> {
        let ws = workspace(sources);
        let mut findings = Vec::new();
        DeadPub.check_workspace(&ws, &mut findings);
        findings
    }

    #[test]
    fn unreferenced_pub_fn_is_reported() {
        let findings = check(&[(
            "crates/core/src/a.rs",
            "pub fn orphan(x: u32) -> u32 { x }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("axqa_core::a::orphan"));
    }

    #[test]
    fn called_and_textually_referenced_fns_are_live() {
        let findings = check(&[
            (
                "crates/core/src/a.rs",
                "pub fn used() {}\npub fn pointed() {}\npub fn run(f: fn()) { used(); f(); }\n",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn go() { super::a::run(pointed); }\n",
            ),
        ]);
        // `run` is live via the call in b.rs; `used` via the call edge;
        // `pointed` via the fn-pointer identifier; `go` mentions none
        // of the other names textually but is itself referenced by
        // nothing — the only finding.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("::go`"));
    }

    #[test]
    fn test_only_and_doc_references_count_as_live() {
        let findings = check(&[(
            "crates/core/src/a.rs",
            "/// See also [`documented`].\npub fn entry() {}\npub fn documented() {}\n\
             pub fn tested() {}\n#[cfg(test)]\nmod tests {\n  fn t() { tested(); entry(); }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn restricted_private_and_main_are_ignored() {
        let findings = check(&[(
            "crates/core/src/a.rs",
            "pub(crate) fn scoped() {}\nfn private() {}\npub fn main() {}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
