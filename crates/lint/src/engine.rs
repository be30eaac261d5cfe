//! The engine: collects sources and manifests, runs the rule
//! registry, applies the baseline ratchet, and renders results as
//! human text or machine JSON (schema `axqa-lint/1`).
//!
//! The xtask binary is a thin flag-parser over [`run`]; everything
//! testable lives here.

use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::{Allow, Baseline, BASELINE_PATH};
use crate::{hotpath, registry, surface, Finding, Scope, SourceFile, Workspace};

/// What `run` should rewrite on disk besides checking.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateFlags {
    /// Rewrite `lint-baseline.toml` to exactly cover current findings
    /// (hand-maintained `[[alloc-ok]]` grants are preserved).
    pub baseline: bool,
    /// Rewrite every `lint/*-surface.txt` snapshot from the current
    /// sources.
    pub surfaces: bool,
}

/// The result of one engine run, ready for rendering.
#[derive(Debug)]
pub struct Outcome {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// `baselined[i]` — finding `i` is grandfathered by the baseline.
    pub baselined: Vec<bool>,
    /// Baseline entries whose allowance exceeds current findings.
    pub stale: Vec<Allow>,
    /// How many source files were tokenized and checked.
    pub files_scanned: usize,
    /// `(id, description)` of every registered rule.
    pub rules: Vec<(&'static str, &'static str)>,
    /// Workspace-relative paths of the files the update flags rewrote.
    pub wrote: Vec<&'static str>,
}

impl Outcome {
    /// Findings not covered by the baseline.
    pub fn new_findings(&self) -> usize {
        self.baselined.iter().filter(|b| !**b).count()
    }

    /// The gate passes when every finding is baselined.
    pub fn gate_passes(&self) -> bool {
        self.new_findings() == 0
    }
}

/// Walks up from the current directory to the manifest that declares
/// `[workspace]`.
pub fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("could not locate the workspace root (no [workspace] Cargo.toml)".into());
        }
    }
}

/// One full engine run rooted at `root`.
pub fn run(root: &Path, update: UpdateFlags) -> Result<Outcome, String> {
    let mut workspace = collect_workspace(root)?;

    // The baseline is parsed before anything renders or checks:
    // `[[alloc-ok]]` grants feed the hot-path analysis (granted sites
    // never seed the fixpoint), unlike `[[allow]]` entries which apply
    // to finished findings.
    let baseline_path = root.join(BASELINE_PATH);
    let mut baseline = if baseline_path.is_file() {
        let text = fs::read_to_string(&baseline_path)
            .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
        Baseline::parse(&text)?
    } else {
        Baseline::default()
    };
    workspace.alloc_grants = baseline.alloc_ok.clone();

    let mut wrote = if update.surfaces {
        surface::update_all(root, &mut workspace)?
    } else {
        Vec::new()
    };

    let rules = registry();
    let mut findings = Vec::new();
    {
        let _span = axqa_obs::span("lint.rules");
        for rule in &rules {
            match rule.scope() {
                Scope::File => {
                    for file in &workspace.files {
                        rule.check_file(file, &mut findings);
                    }
                }
                Scope::Workspace => rule.check_workspace(&workspace, &mut findings),
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    if update.baseline {
        // `[[allow]]` entries regenerate from the current findings;
        // `[[alloc-ok]]` grants are hand-maintained and carried over.
        let alloc_ok = std::mem::take(&mut baseline.alloc_ok);
        baseline = Baseline::from_findings(&findings);
        baseline.alloc_ok = alloc_ok;
        write(&baseline_path, &baseline.render())?;
        wrote.push(BASELINE_PATH);
    }

    let applied = baseline.apply(&findings);
    Ok(Outcome {
        files_scanned: workspace.files.len(),
        rules: rules.iter().map(|r| (r.id(), r.describe())).collect(),
        findings,
        baselined: applied.baselined,
        stale: applied.stale,
        wrote,
    })
}

/// Writes `text` to `path`, creating its directory if needed.
pub(crate) fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Collects every workspace source file (crate `src/` trees plus the
/// umbrella root `src/`, vendor excluded by construction), the
/// manifest dependency edges, the surface snapshots and the hot-paths
/// config.
pub fn collect_workspace(root: &Path) -> Result<Workspace, String> {
    let mut packages: Vec<(String, PathBuf, Vec<String>)> = Vec::new();

    // The umbrella package lives in the workspace manifest itself.
    let root_manifest = read_manifest(&root.join("Cargo.toml"))?;
    packages.push((
        parse_package_name(&root_manifest)
            .ok_or_else(|| "workspace Cargo.toml has no [package] name".to_string())?,
        root.to_path_buf(),
        parse_dependency_names(&root_manifest),
    ));

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let manifest = read_manifest(&dir.join("Cargo.toml"))?;
        let name = parse_package_name(&manifest)
            .ok_or_else(|| format!("{}: no [package] name", dir.join("Cargo.toml").display()))?;
        packages.push((name, dir, parse_dependency_names(&manifest)));
    }

    // Keep only intra-workspace edges; vendor stubs are not layered.
    let names: Vec<String> = packages.iter().map(|(n, _, _)| n.clone()).collect();
    let dep_edges: Vec<(String, Vec<String>)> = packages
        .iter()
        .map(|(name, _, deps)| {
            (
                name.clone(),
                deps.iter().filter(|d| names.contains(d)).cloned().collect(),
            )
        })
        .collect();

    let mut files = Vec::new();
    {
        let _span = axqa_obs::span("lint.tokenize");
        for (name, dir, _) in &packages {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs_files(root, &src, name, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
    }

    let mut workspace = Workspace::new(files, dep_edges);
    for surface in &surface::ALL {
        if let Some(text) = read_optional(&root.join(surface.path))? {
            workspace.snapshots.push((surface.path, text));
        }
    }
    workspace.hot_paths = read_optional(&root.join(hotpath::CONFIG_PATH))?;
    Ok(workspace)
}

/// Recursively gathers `.rs` files under `dir` into [`SourceFile`]s.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(root, &path, crate_name, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip {}: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let is_bin =
                rel.ends_with("/src/main.rs") || rel == "src/main.rs" || rel.contains("/src/bin/");
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            out.push(SourceFile::new(rel, crate_name.to_string(), is_bin, text));
        }
    }
    Ok(())
}

fn read_manifest(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Reads a snapshot file that may legitimately not exist yet.
fn read_optional(path: &Path) -> Result<Option<String>, String> {
    if path.is_file() {
        fs::read_to_string(path)
            .map(Some)
            .map_err(|e| format!("read {}: {e}", path.display()))
    } else {
        Ok(None)
    }
}

/// Extracts `name = "…"` from the `[package]` section of a manifest.
pub fn parse_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_suffix('"') {
                if let Some(name) = rest
                    .strip_prefix("name")
                    .map(str::trim_start)
                    .and_then(|r| r.strip_prefix('='))
                    .map(str::trim_start)
                    .and_then(|r| r.strip_prefix('"'))
                {
                    return Some(name.to_string());
                }
            }
        }
    }
    None
}

/// Extracts dependency names from every `[dependencies]` /
/// `[target.….dependencies]` section (dev- and build-dependencies are
/// deliberately excluded — see the layering rule's module docs).
pub fn parse_dependency_names(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]"
                || (line.starts_with("[target.") && line.ends_with(".dependencies]"));
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `axqa-core.workspace = true` or `axqa-core = { path = … }`.
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if !name.is_empty() {
            deps.push(name);
        }
    }
    deps
}

/// Renders the human-readable report (the default `cargo xtask lint`
/// output).
pub fn render_text(outcome: &Outcome) -> String {
    let mut out = format!(
        "axqa-lint: {} file(s) scanned, {} rule(s)\n",
        outcome.files_scanned,
        outcome.rules.len()
    );
    for (finding, covered) in outcome.findings.iter().zip(&outcome.baselined) {
        let suffix = if *covered { " (baselined)" } else { "" };
        if finding.line > 0 {
            out.push_str(&format!(
                "{}:{}: {} [{}]{}\n",
                finding.file, finding.line, finding.message, finding.rule, suffix
            ));
        } else {
            out.push_str(&format!(
                "{}: {} [{}]{}\n",
                finding.file, finding.message, finding.rule, suffix
            ));
        }
    }
    for allow in &outcome.stale {
        out.push_str(&format!(
            "note: stale baseline entry `{}` in {} (allowance {} exceeds current findings) — \
             run `cargo xtask lint --update-baseline`\n",
            allow.rule, allow.file, allow.count
        ));
    }
    let baselined = outcome
        .findings
        .len()
        .saturating_sub(outcome.new_findings());
    out.push_str(&format!(
        "summary: {} finding(s) — {} baselined, {} new; {} stale baseline entr{}\n",
        outcome.findings.len(),
        baselined,
        outcome.new_findings(),
        outcome.stale.len(),
        if outcome.stale.len() == 1 { "y" } else { "ies" },
    ));
    if outcome.gate_passes() {
        out.push_str("invariant pass clean\n");
    }
    out
}

/// Renders the machine-readable report (schema `axqa-lint/1`), emitted
/// by `cargo xtask lint --format json` and uploaded as a CI artifact.
pub fn render_json(outcome: &Outcome) -> String {
    let mut out = String::from("{\n  \"schema\": \"axqa-lint/1\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));

    out.push_str("  \"rules\": [\n");
    for (i, (id, describe)) in outcome.rules.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"severity\": \"error\", \"description\": {}}}{}\n",
            json_string(id),
            json_string(describe),
            if i.saturating_add(1) < outcome.rules.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"findings\": [\n");
    let total = outcome.findings.len();
    for (i, (finding, covered)) in outcome.findings.iter().zip(&outcome.baselined).enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"severity\": \"error\", \"file\": {}, \"line\": {}, \
             \"span\": [{}, {}], \"message\": {}, \"baselined\": {}}}{}\n",
            json_string(finding.rule),
            json_string(&finding.file),
            finding.line,
            finding.span.0,
            finding.span.1,
            json_string(&finding.message),
            covered,
            if i.saturating_add(1) < total { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    let baselined = total.saturating_sub(outcome.new_findings());
    out.push_str(&format!(
        "  \"summary\": {{\"total\": {}, \"baselined\": {}, \"new\": {}, \
         \"stale_baseline_entries\": {}}}\n",
        total,
        baselined,
        outcome.new_findings(),
        outcome.stale.len()
    ));
    out.push_str("}\n");
    out
}

/// Escapes a string for JSON output (quotes, backslashes, control
/// characters — all the repo's messages are ASCII-or-UTF-8 text).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len().saturating_add(2));
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_names() {
        let manifest = "[package]\nname = \"axqa-core\"\nversion.workspace = true\n";
        assert_eq!(parse_package_name(manifest), Some("axqa-core".to_string()));
        assert_eq!(parse_package_name("[workspace]\nmembers = []\n"), None);
    }

    #[test]
    fn parses_dependency_names_across_styles() {
        let manifest = "\
[package]
name = \"x\"

[dependencies]
axqa-xml.workspace = true
axqa-core = { path = \"../core\" }
rand.workspace = true
# comment
[dev-dependencies]
proptest.workspace = true
";
        assert_eq!(
            parse_dependency_names(manifest),
            vec![
                "axqa-xml".to_string(),
                "axqa-core".to_string(),
                "rand".to_string()
            ]
        );
    }

    #[test]
    fn json_escaping_covers_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    fn outcome_with(findings: Vec<Finding>, baselined: Vec<bool>) -> Outcome {
        Outcome {
            findings,
            baselined,
            stale: Vec::new(),
            files_scanned: 1,
            rules: vec![("paper-doc", "paper anchors")],
            wrote: Vec::new(),
        }
    }

    fn sample_finding() -> Finding {
        Finding {
            rule: "paper-doc",
            file: "crates/core/src/build.rs".to_string(),
            line: 12,
            span: (100, 109),
            message: "pub fn without a paper citation (§ or Fig.) in its doc comment".to_string(),
        }
    }

    #[test]
    fn gate_fails_on_new_findings_only() {
        let failing = outcome_with(vec![sample_finding()], vec![false]);
        assert!(!failing.gate_passes());
        assert_eq!(failing.new_findings(), 1);

        let grandfathered = outcome_with(vec![sample_finding()], vec![true]);
        assert!(grandfathered.gate_passes());
        assert_eq!(grandfathered.new_findings(), 0);
    }

    #[test]
    fn text_rendering_mentions_baseline_status() {
        let outcome = outcome_with(vec![sample_finding()], vec![true]);
        let text = render_text(&outcome);
        assert!(text.contains("crates/core/src/build.rs:12:"));
        assert!(text.contains("(baselined)"));
        assert!(text.contains("invariant pass clean"));
    }

    #[test]
    fn json_rendering_has_schema_and_summary() {
        let outcome = outcome_with(vec![sample_finding()], vec![false]);
        let json = render_json(&outcome);
        assert!(json.contains("\"schema\": \"axqa-lint/1\""));
        assert!(json.contains("\"new\": 1"));
        assert!(json.contains("\"baselined\": false"));
    }
}
