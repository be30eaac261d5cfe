//! The snapshot ratchet behind the `api-surface`, `panic-surface` and
//! `alloc-surface` rules.
//!
//! A surface is a committed text file under `lint/`: comment lines
//! starting with `#`, then one sorted line per entry, `<file> <key>`
//! or, on a classified surface, `<file> <key> <class>`. The key is a
//! normalized signature or a qualified fn path; the class is the
//! analysis verdict for it. The rule diffs the current lines against
//! the file as a multiset: an added entry, a changed class or a
//! removed entry is a finding until `cargo xtask lint
//! --update-surfaces` rewrites every surface, so what the workspace
//! exports, what can panic and what can allocate on the hot paths only
//! change through a reviewed diff.

use std::path::Path;

use crate::{api_surface, engine, hotpath, reach, Finding, Rule, Scope, Workspace};

/// One surface entry. `class` is empty on an unclassified surface.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Line {
    /// Workspace-relative file of the entry.
    pub file: String,
    /// Normalized signature or qualified fn path.
    pub key: String,
    /// Classification (`panic-free`, `alloc-reaching`, …) or empty.
    pub class: String,
}

/// Surface entries, each with the 1-based source line of its item.
pub type Entries = Vec<(Line, u32)>;

/// One committed snapshot: its rule, file and header, and the function
/// that computes its current lines.
#[derive(Clone, Copy)]
pub struct Surface {
    /// Rule id (baseline keys and JSON use it).
    pub(crate) rule: &'static str,
    /// One-line rule description.
    pub(crate) describe: &'static str,
    /// Snapshot path, relative to the workspace root.
    pub(crate) path: &'static str,
    /// Comment block that opens the snapshot file.
    pub(crate) header: &'static str,
    /// Whether every line ends in a class word.
    pub(crate) classified: bool,
    /// The current entries, in any order; `None` when the surface
    /// cannot be computed (a config error that another rule reports).
    pub(crate) lines: fn(&Workspace) -> Option<Entries>,
}

/// Every surface, in registry order.
pub(crate) const ALL: [Surface; 3] = [api_surface::SURFACE, reach::SURFACE, hotpath::SURFACE];

/// Rewrites every snapshot under `root` (`--update-surfaces`) and hands
/// the new text to `workspace`, so the same run checks against it.
/// A surface that cannot be computed keeps its committed file; the
/// rule that owns the config error fails the gate. Returns the paths
/// written.
pub(crate) fn update_all(
    root: &Path,
    workspace: &mut Workspace,
) -> Result<Vec<&'static str>, String> {
    let mut wrote = Vec::new();
    for surface in &ALL {
        let Some(text) = surface.render(workspace) else {
            continue;
        };
        engine::write(&root.join(surface.path), &text)?;
        workspace.snapshots.retain(|(p, _)| *p != surface.path);
        workspace.snapshots.push((surface.path, text));
        wrote.push(surface.path);
    }
    Ok(wrote)
}

impl Surface {
    /// The current entries, sorted.
    fn current(&self, workspace: &Workspace) -> Option<Entries> {
        let mut lines = (self.lines)(workspace)?;
        lines.sort();
        Some(lines)
    }

    /// Renders the snapshot file: the header, then one line per entry.
    /// `None` when the surface cannot be computed.
    pub fn render(&self, workspace: &Workspace) -> Option<String> {
        let mut out = self.header.to_string();
        for (line, _) in self.current(workspace)? {
            out.push_str(&line.file);
            out.push(' ');
            out.push_str(&line.key);
            if self.classified {
                out.push(' ');
                out.push_str(&line.class);
            }
            out.push('\n');
        }
        Some(out)
    }

    /// Parses a committed snapshot back into entries.
    fn parse(&self, text: &str) -> Vec<Line> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (file, rest) = l.split_once(' ')?;
                let (key, class) = if self.classified {
                    rest.rsplit_once(' ')?
                } else {
                    (rest, "")
                };
                Some(Line {
                    file: file.to_string(),
                    key: key.to_string(),
                    class: class.to_string(),
                })
            })
            .collect()
    }
}

impl Rule for Surface {
    fn id(&self) -> &'static str {
        self.rule
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn scope(&self) -> Scope {
        Scope::Workspace
    }
    fn check_workspace(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let Some(current) = self.current(workspace) else {
            return;
        };
        let finding = |file: &str, line: u32, what: String| Finding {
            rule: self.rule,
            file: file.to_string(),
            line,
            span: (0, 0),
            message: format!("{what} — review, then run `cargo xtask lint --update-surfaces`"),
        };
        let Some((_, text)) = workspace.snapshots.iter().find(|(p, _)| *p == self.path) else {
            findings.push(finding(
                self.path,
                0,
                format!("missing snapshot {}", self.path),
            ));
            return;
        };
        let mut snapshot = self.parse(text);

        for (line, at) in &current {
            if let Some(pos) = snapshot.iter().position(|s| s == line) {
                snapshot.remove(pos);
                continue;
            }
            let old = snapshot
                .iter()
                .find(|s| s.file == line.file && s.key == line.key);
            let what = match old {
                Some(old) => format!(
                    "`{}` changed class (was `{}`, now `{}`)",
                    line.key, old.class, line.class
                ),
                None if self.classified => format!(
                    "`{}` added as `{}` (not in {})",
                    line.key, line.class, self.path
                ),
                None => format!("`{}` added (not in {})", line.key, self.path),
            };
            findings.push(finding(&line.file, (*at).max(1), what));
        }
        for old in snapshot {
            // A changed class was reported above with its new entry.
            if !current
                .iter()
                .any(|(c, _)| c.file == old.file && c.key == old.key)
            {
                let what = format!("`{}` removed (still in {})", old.key, self.path);
                findings.push(finding(&old.file, 0, what));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    /// A one-file workspace with a hot root `kernel` and, when given,
    /// every surface's snapshot.
    fn workspace(src: &str, snapshots: &[(&'static str, String)]) -> Workspace {
        let file = SourceFile::new(
            "crates/core/src/a.rs".to_string(),
            "axqa-core".to_string(),
            false,
            src.to_string(),
        );
        let mut ws = Workspace::new(vec![file], vec![("axqa-core".to_string(), Vec::new())]);
        ws.hot_paths = Some("[[root]]\npath = \"kernel\"\nreason = \"test kernel\"\n".to_string());
        ws.snapshots = snapshots.to_vec();
        ws
    }

    fn rendered(src: &str) -> Vec<(&'static str, String)> {
        let ws = workspace(src, &[]);
        ALL.iter()
            .map(|s| (s.path, s.render(&ws).unwrap()))
            .collect()
    }

    fn check(surface: &Surface, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        surface.check_workspace(ws, &mut findings);
        findings
    }

    const BEFORE: &str = "pub fn kernel(v: &[u32]) -> u32 { kept(v) + stale() }\n\
                          pub fn kept(v: &[u32]) -> u32 { 1 }\n\
                          pub fn stale() -> u32 { 2 }\n";
    const AFTER: &str = "pub fn kernel(v: &[u32]) -> u32 { kept(v) + fresh() }\n\
                         pub fn kept(v: &[u32]) -> Vec<u32> { vec![v[0]] }\n\
                         pub fn fresh() -> u32 { 2 }\n";

    #[test]
    fn rendered_snapshots_round_trip_and_check_clean() {
        let snapshots = rendered(BEFORE);
        let ws = workspace(BEFORE, &snapshots);
        for (surface, (path, text)) in ALL.iter().zip(&snapshots) {
            assert_eq!(*path, surface.path);
            assert!(text.starts_with(surface.header));
            let current: Vec<Line> = surface
                .current(&ws)
                .unwrap()
                .into_iter()
                .map(|(l, _)| l)
                .collect();
            assert_eq!(surface.parse(text), current, "{path}");
            assert_eq!(current.len(), 3, "{path}");
            assert!(check(surface, &ws).is_empty(), "{path}");
        }
    }

    #[test]
    fn missing_snapshot_is_one_actionable_finding() {
        let ws = workspace(BEFORE, &[]);
        for surface in &ALL {
            let findings = check(surface, &ws);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].file, surface.path);
            assert!(findings[0].message.contains("--update-surfaces"));
        }
    }

    #[test]
    fn diff_reports_additions_class_changes_and_removals() {
        let ws = workspace(AFTER, &rendered(BEFORE));
        for surface in &ALL {
            let findings = check(surface, &ws);
            // Two entries come and go on every surface. `kept` starts to
            // allocate and panic, and so does its caller `kernel`: two
            // class changes on the classified surfaces, one new and one
            // removed signature on the API one.
            assert_eq!(findings.len(), 4, "{}: {findings:?}", surface.path);
            let has = |patterns: &[&str], line_set: bool| {
                findings.iter().any(|f| {
                    patterns.iter().all(|p| f.message.contains(p)) && (f.line > 0) == line_set
                })
            };
            assert!(has(&["fresh", "` added"], true), "{findings:?}");
            assert!(has(&["stale", "` removed"], false), "{findings:?}");
            let (was, kept_now, kernel_now) = match surface.rule {
                "panic-surface" => ("panic-free", "panic-reaching", "panic-reaching"),
                "alloc-surface" => ("alloc-free", "allocates-directly", "alloc-reaching"),
                _ => {
                    assert!(has(&["kept", "Vec < u32 >` added"], true), "{findings:?}");
                    assert!(has(&["kept", "-> u32` removed"], false), "{findings:?}");
                    continue;
                }
            };
            for (name, now) in [("::kept`", kept_now), ("::kernel`", kernel_now)] {
                let transition = format!("{name} changed class (was `{was}`, now `{now}`)");
                assert!(has(&[&transition], true), "{findings:?}");
            }
        }
    }

    #[test]
    fn update_skips_a_surface_it_cannot_compute() {
        let root = std::env::temp_dir().join(format!("axqa_lint_surface_{}", std::process::id()));
        let committed = "# committed\ncrates/core/src/a.rs a::kernel alloc-free\n";
        engine::write(&root.join(hotpath::SURFACE.path), committed).unwrap();
        let mut ws = workspace(BEFORE, &[(hotpath::SURFACE.path, committed.to_string())]);
        // A root without its `reason` key fails the config reader.
        ws.hot_paths = Some("[[root]]\npath = \"kernel\"\n".to_string());

        let wrote = update_all(&root, &mut ws).unwrap();
        let on_disk = std::fs::read_to_string(root.join(hotpath::SURFACE.path)).unwrap();
        let api = std::fs::read_to_string(root.join(api_surface::SURFACE.path)).unwrap();
        std::fs::remove_dir_all(&root).unwrap();

        assert_eq!(wrote, [api_surface::SURFACE.path, reach::SURFACE.path]);
        assert_eq!(on_disk, committed);
        assert!(api.starts_with(api_surface::SURFACE.header));
        let kept = ws
            .snapshots
            .iter()
            .find(|(p, _)| *p == hotpath::SURFACE.path);
        assert_eq!(kept.map(|(_, t)| t.as_str()), Some(committed));
        assert!(ws.snapshots.iter().any(|(p, _)| *p == reach::SURFACE.path));
    }
}
