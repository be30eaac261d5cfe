//! SARIF 2.1.0 export.
//!
//! `cargo xtask lint --format sarif` (or `--sarif PATH` alongside any
//! other format) renders the run as a Static Analysis Results
//! Interchange Format log, hand-rolled like the Chrome-trace exporter
//! in axqa-obs — no serde, stable key order, trailing newline.
//!
//! Shape notes, for readers diffing against the spec:
//!
//! * one `run` with `tool.driver.rules` carrying every registered rule
//!   (id + short description + default level), so viewers can render
//!   rule metadata even for rules with zero results;
//! * each finding becomes a `result` with `ruleId`/`ruleIndex`,
//!   `message.text`, and one physical location; findings with no line
//!   (e.g. a removed API-surface entry) omit the `region`;
//! * baselined findings carry `suppressions: [{"kind": "external"}]`
//!   — GitHub code scanning hides suppressed results by default, so
//!   only *new* findings annotate pull requests, matching the
//!   ratchet's text/JSON semantics.

use crate::engine::{json_string, Outcome};

/// The schema URI embedded in every log.
pub const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders an [`Outcome`] as a SARIF 2.1.0 log.
pub fn render_sarif(outcome: &Outcome) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"$schema\": {},\n", json_string(SCHEMA_URI)));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");

    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"axqa-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/axqa/axqa\",\n");
    out.push_str("          \"rules\": [\n");
    let rule_count = outcome.rules.len();
    for (i, (id, describe)) in outcome.rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}{}\n",
            json_string(id),
            json_string(describe),
            if i.saturating_add(1) < rule_count {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");

    out.push_str("      \"results\": [\n");
    let total = outcome.findings.len();
    for (i, (finding, covered)) in outcome.findings.iter().zip(&outcome.baselined).enumerate() {
        let rule_index = outcome
            .rules
            .iter()
            .position(|(id, _)| *id == finding.rule)
            .unwrap_or(0);
        let region = if finding.line > 0 {
            format!(", \"region\": {{\"startLine\": {}}}", finding.line)
        } else {
            String::new()
        };
        let suppressions = if *covered {
            ", \"suppressions\": [{\"kind\": \"external\"}]"
        } else {
            ""
        };
        out.push_str(&format!(
            "        {{\"ruleId\": {}, \"ruleIndex\": {rule_index}, \"level\": \"error\", \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {}}}{region}}}}}]{suppressions}}}{}\n",
            json_string(finding.rule),
            json_string(&finding.message),
            json_string(&finding.file),
            if i.saturating_add(1) < total { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn outcome(findings: Vec<Finding>, baselined: Vec<bool>) -> Outcome {
        Outcome {
            findings,
            baselined,
            stale: Vec::new(),
            files_scanned: 2,
            rules: vec![
                ("dead-pub", "no dead pub fns"),
                ("paper-doc", "paper anchors"),
            ],
            wrote: Vec::new(),
        }
    }

    fn sample(rule: &'static str, line: u32) -> Finding {
        Finding {
            rule,
            file: "crates/core/src/build.rs".to_string(),
            line,
            span: (0, 0),
            message: "msg with \"quotes\"".to_string(),
        }
    }

    #[test]
    fn emits_schema_version_and_rule_metadata() {
        let sarif = render_sarif(&outcome(Vec::new(), Vec::new()));
        assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"id\": \"dead-pub\""));
        assert!(sarif.contains("\"level\": \"error\""));
    }

    #[test]
    fn results_carry_rule_index_location_and_escaping() {
        let sarif = render_sarif(&outcome(vec![sample("paper-doc", 7)], vec![false]));
        assert!(sarif.contains("\"ruleId\": \"paper-doc\""));
        assert!(sarif.contains("\"ruleIndex\": 1"));
        assert!(sarif.contains("\"startLine\": 7"));
        assert!(sarif.contains("msg with \\\"quotes\\\""));
        assert!(!sarif.contains("suppressions"));
    }

    #[test]
    fn baselined_findings_are_suppressed_and_zero_line_omits_region() {
        let sarif = render_sarif(&outcome(vec![sample("dead-pub", 0)], vec![true]));
        assert!(sarif.contains("\"suppressions\": [{\"kind\": \"external\"}]"));
        assert!(!sarif.contains("startLine"));
    }
}
