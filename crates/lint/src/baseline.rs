//! The `lint-baseline.toml` ratchet.
//!
//! Pre-existing findings are grandfathered per `(rule, file)` with a
//! count; anything beyond the recorded count is *new* and fails the
//! gate. Fixing violations makes entries stale (reported as notes),
//! and `cargo xtask lint --update-baseline` rewrites the file with the
//! current counts — so the baseline only ever shrinks under review.
//!
//! The file is a deliberately tiny TOML subset (parsed here without a
//! TOML dependency): comments, repeated `[[allow]]` tables with string
//! `rule`/`file` keys and an integer `count`, and repeated
//! `[[alloc-ok]]` tables granting deliberate allocation sites to the
//! hot-path analysis ([`crate::hotpath`]): string `path` (qualified fn
//! path suffix), string `what` (site label from
//! [`crate::allocsite::AllocSite::what`]), integer `count`, and a
//! **required** non-empty `reason` — every grant documents why the
//! allocation is acceptable (scratch-pool growth, cold path, output
//! construction), so the surface carries zero undocumented grants.

use crate::Finding;

/// Path of the committed baseline, relative to the workspace root.
pub const BASELINE_PATH: &str = "lint-baseline.toml";

/// One grandfathered `(rule, file)` group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule id the findings belong to.
    pub rule: String,
    /// Workspace-relative file the findings are in.
    pub file: String,
    /// How many findings of this rule in this file are tolerated.
    pub count: usize,
}

/// One granted allocation site group for the hot-path analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocGrant {
    /// Qualified function-path suffix the grant applies to
    /// (`ClusterState::apply_merge` matches
    /// `axqa_core::cluster::ClusterState::apply_merge`).
    pub path: String,
    /// Site label (`.clone`, `Vec::with_capacity`, `vec!`, …).
    pub what: String,
    /// How many sites with this label are granted in that function.
    pub count: usize,
    /// Why the allocation is deliberate. Required and non-empty.
    pub reason: String,
}

/// The parsed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// All allow entries, in file order.
    pub allows: Vec<Allow>,
    /// All alloc-ok grants, in file order.
    pub alloc_ok: Vec<AllocGrant>,
}

/// Result of matching findings against a baseline.
#[derive(Debug)]
pub struct Applied {
    /// `baselined[i]` — finding `i` is covered by an allow entry.
    pub baselined: Vec<bool>,
    /// Entries whose allowance exceeds the current count (violations
    /// were fixed; `--update-baseline` will drop/shrink them).
    pub stale: Vec<Allow>,
}

impl Baseline {
    /// Parses the baseline text. Unknown keys, unknown tables, or
    /// malformed lines are hard errors — a silently misread baseline
    /// would un-gate CI.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        const SCHEMA: &[(&str, &[&str])] = &[
            ("allow", &["rule", "file", "count"]),
            ("alloc-ok", &["path", "what", "count", "reason"]),
        ];
        let mut baseline = Baseline::default();
        for table in read_tables(text, BASELINE_PATH, SCHEMA)? {
            if table.name == "allow" {
                baseline.allows.push(Allow {
                    rule: table.string("rule")?,
                    file: table.string("file")?,
                    count: table.count("count")?,
                });
                continue;
            }
            let reason = table.string("reason")?;
            if reason.trim().is_empty() {
                return Err(format!(
                    "{BASELINE_PATH}:{}: [[alloc-ok]] `reason` must be non-empty — every grant \
                     documents why the allocation is deliberate",
                    table.line
                ));
            }
            baseline.alloc_ok.push(AllocGrant {
                path: table.string("path")?,
                what: table.string("what")?,
                count: table.count("count")?,
                reason,
            });
        }
        Ok(baseline)
    }

    /// Builds a baseline that exactly covers `findings` (the
    /// `--update-baseline` output), grouped by `(rule, file)` and
    /// sorted for a stable diff.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut allows: Vec<Allow> = Vec::new();
        for finding in findings {
            if let Some(existing) = allows
                .iter_mut()
                .find(|a| a.rule == finding.rule && a.file == finding.file)
            {
                existing.count = existing.count.saturating_add(1);
            } else {
                allows.push(Allow {
                    rule: finding.rule.to_string(),
                    file: finding.file.clone(),
                    count: 1,
                });
            }
        }
        allows.sort_by(|a, b| (&a.file, &a.rule).cmp(&(&b.file, &b.rule)));
        Baseline {
            allows,
            alloc_ok: Vec::new(),
        }
    }

    /// Renders back to the committed TOML form.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Grandfathered lint findings (generated by `cargo xtask lint --update-baseline`).\n\
             # New findings beyond these counts fail the gate; fix violations and\n\
             # regenerate to shrink this file. Target: empty.\n",
        );
        for allow in &self.allows {
            out.push_str("\n[[allow]]\n");
            out.push_str(&format!("rule = \"{}\"\n", allow.rule));
            out.push_str(&format!("file = \"{}\"\n", allow.file));
            out.push_str(&format!("count = {}\n", allow.count));
        }
        if !self.alloc_ok.is_empty() {
            out.push_str(
                "\n# Deliberate allocation sites on the hot-path cones (DESIGN.md §11).\n\
                 # Each grant names the function, the site label, how many sites it\n\
                 # covers, and why the allocation is acceptable. Hand-maintained:\n\
                 # `--update-baseline` preserves these entries.\n",
            );
        }
        for grant in &self.alloc_ok {
            out.push_str("\n[[alloc-ok]]\n");
            out.push_str(&format!("path = \"{}\"\n", grant.path));
            out.push_str(&format!("what = \"{}\"\n", grant.what));
            out.push_str(&format!("count = {}\n", grant.count));
            out.push_str(&format!("reason = \"{}\"\n", grant.reason));
        }
        out
    }

    /// Matches `findings` against the allowances. Within a `(rule,
    /// file)` group the first `count` findings (engine order: by line)
    /// are baselined; the overflow is new.
    pub fn apply(&self, findings: &[Finding]) -> Applied {
        let mut baselined = vec![false; findings.len()];
        let mut stale = Vec::new();
        for allow in &self.allows {
            let mut remaining = allow.count;
            for (i, finding) in findings.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                if !baselined[i] && finding.rule == allow.rule && finding.file == allow.file {
                    baselined[i] = true;
                    remaining = remaining.saturating_sub(1);
                }
            }
            if remaining > 0 {
                stale.push(allow.clone());
            }
        }
        Applied { baselined, stale }
    }
}

/// One `[[name]]` table read by [`read_tables`].
pub(crate) struct Table<'a> {
    /// Table name, from the schema.
    name: &'static str,
    /// The keys the schema allows in this table.
    keys: &'static [&'static str],
    /// 1-based line of the `[[name]]` header.
    line: usize,
    /// File named in error messages.
    file: &'static str,
    /// `(key, raw value, line)` in file order; keys are unique.
    pairs: Vec<(&'a str, &'a str, usize)>,
}

impl Table<'_> {
    /// The raw value of `key` and its line.
    fn get(&self, key: &str) -> Result<(&str, usize), String> {
        self.pairs
            .iter()
            .find(|(k, _, _)| *k == key)
            .map(|&(_, value, line)| (value, line))
            .ok_or_else(|| {
                format!(
                    "{}:{}: [[{}]] entry missing `{key}`",
                    self.file, self.line, self.name
                )
            })
    }

    /// `key` as a double-quoted string without escapes (rule ids and
    /// repo paths never need them).
    pub(crate) fn string(&self, key: &str) -> Result<String, String> {
        let (value, line) = self.get(key)?;
        value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .filter(|v| !v.contains(['"', '\\']))
            .map(str::to_string)
            .ok_or_else(|| {
                format!(
                    "{}:{line}: `{key}` must be a double-quoted string without escapes",
                    self.file
                )
            })
    }

    /// `key` as a non-negative integer.
    pub(crate) fn count(&self, key: &str) -> Result<usize, String> {
        let (value, line) = self.get(key)?;
        value.parse().map_err(|_| {
            format!(
                "{}:{line}: `{key}` must be a non-negative integer",
                self.file
            )
        })
    }
}

/// Reads the TOML subset shared by `lint-baseline.toml` and
/// `lint/hot-paths.toml`: `#` comments, blank lines, and repeated
/// `[[name]]` tables of `key = value` lines. `schema` lists each table
/// name with its allowed keys. Unknown tables, unknown or duplicate
/// keys and keys outside a table are errors naming `file` and the line.
pub(crate) fn read_tables<'a>(
    text: &'a str,
    file: &'static str,
    schema: &[(&'static str, &'static [&'static str])],
) -> Result<Vec<Table<'a>>, String> {
    let mut tables: Vec<Table<'a>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx.saturating_add(1);
        let at = |message: String| format!("{file}:{line}: {message}");
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with('[') {
            let &(name, keys) = trimmed
                .strip_prefix("[[")
                .and_then(|t| t.strip_suffix("]]"))
                .and_then(|t| schema.iter().find(|(name, _)| *name == t))
                .ok_or_else(|| at(format!("unknown table `{trimmed}`")))?;
            tables.push(Table {
                name,
                keys,
                line,
                file,
                pairs: Vec::new(),
            });
            continue;
        }
        let (key, value) = trimmed
            .split_once('=')
            .ok_or_else(|| at("expected `key = value`".to_string()))?;
        let key = key.trim();
        let table = tables
            .last_mut()
            .ok_or_else(|| at("key outside a table".to_string()))?;
        if !table.keys.contains(&key) {
            return Err(at(format!("unknown [[{}]] key `{key}`", table.name)));
        }
        if table.pairs.iter().any(|(k, _, _)| *k == key) {
            return Err(at(format!("duplicate [[{}]] key `{key}`", table.name)));
        }
        table.pairs.push((key, value.trim(), line));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            span: (0, 0),
            message: String::from("m"),
        }
    }

    #[test]
    fn parse_render_round_trip() {
        let baseline = Baseline {
            allows: vec![Allow {
                rule: "dead-pub".to_string(),
                file: "crates/harness/src/bench.rs".to_string(),
                count: 2,
            }],
            alloc_ok: Vec::new(),
        };
        let parsed = Baseline::parse(&baseline.render()).unwrap();
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn overflow_beyond_allowance_is_new() {
        let baseline = Baseline {
            allows: vec![Allow {
                rule: "dead-pub".to_string(),
                file: "a.rs".to_string(),
                count: 1,
            }],
            alloc_ok: Vec::new(),
        };
        let findings = vec![
            finding("dead-pub", "a.rs", 3),
            finding("dead-pub", "a.rs", 9),
            finding("paper-doc", "a.rs", 4),
        ];
        let applied = baseline.apply(&findings);
        assert_eq!(applied.baselined, vec![true, false, false]);
        assert!(applied.stale.is_empty());
    }

    #[test]
    fn fixed_violations_make_entries_stale() {
        let baseline = Baseline {
            allows: vec![Allow {
                rule: "hashmap-iter-order".to_string(),
                file: "crates/xsketch/src/build.rs".to_string(),
                count: 3,
            }],
            alloc_ok: Vec::new(),
        };
        let applied = baseline.apply(&[]);
        assert_eq!(applied.stale.len(), 1);
        assert_eq!(applied.stale[0].count, 3);
    }

    #[test]
    fn from_findings_groups_and_sorts() {
        let findings = vec![
            finding("dead-pub", "b.rs", 1),
            finding("dead-pub", "a.rs", 2),
            finding("dead-pub", "a.rs", 7),
        ];
        let baseline = Baseline::from_findings(&findings);
        assert_eq!(
            baseline.allows,
            vec![
                Allow {
                    rule: "dead-pub".into(),
                    file: "a.rs".into(),
                    count: 2
                },
                Allow {
                    rule: "dead-pub".into(),
                    file: "b.rs".into(),
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn malformed_baselines_are_hard_errors() {
        assert!(Baseline::parse("count = 1\n").is_err()); // key outside table
        assert!(Baseline::parse("[[allow]]\nrule = \"x\"\n").is_err()); // missing keys
        assert!(Baseline::parse("[[allow]]\nrule = x\nfile = \"f\"\ncount = 1\n").is_err());
        assert!(Baseline::parse("[[allow]]\nrule = \"x\"\nfile = \"f\"\ncount = -1\n").is_err());
        let err = Baseline::parse("[[allow]]\nrule = \"x\"\nfile = \"f\"\ncount = 1\ncount = 99\n")
            .unwrap_err();
        assert!(err.contains("lint-baseline.toml:5"), "{err}"); // duplicate key
    }

    #[test]
    fn alloc_ok_grants_round_trip() {
        let baseline = Baseline {
            allows: Vec::new(),
            alloc_ok: vec![AllocGrant {
                path: "ClusterState::apply_merge".to_string(),
                what: ".clone".to_string(),
                count: 1,
                reason: "runs once per applied merge, not per scored candidate".to_string(),
            }],
        };
        let parsed = Baseline::parse(&baseline.render()).unwrap();
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn alloc_ok_requires_a_reason() {
        let text = "[[alloc-ok]]\npath = \"f\"\nwhat = \".clone\"\ncount = 1\n";
        let err = Baseline::parse(text).unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");

        let text = "[[alloc-ok]]\npath = \"f\"\nwhat = \".clone\"\ncount = 1\nreason = \" \"\n";
        let err = Baseline::parse(text).unwrap_err();
        assert!(err.contains("non-empty"), "{err}");
    }

    #[test]
    fn unknown_tables_and_cross_table_keys_are_errors() {
        assert!(Baseline::parse("[[deny]]\n").is_err());
        assert!(Baseline::parse("[[allow]]\npath = \"x\"\n").is_err());
        assert!(Baseline::parse("[[alloc-ok]]\nrule = \"x\"\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n[[allow]]\n# inner\nrule = \"r\"\nfile = \"f\"\ncount = 0\n";
        let parsed = Baseline::parse(text).unwrap();
        assert_eq!(parsed.allows.len(), 1);
        assert_eq!(parsed.allows[0].count, 0);
    }
}
