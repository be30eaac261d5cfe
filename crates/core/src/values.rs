//! Value summaries: the paper's declared future-work extension (§1
//! scopes value content out of the core study; the XSKETCH line's
//! "structure and value synopses" \[16\] is the cited antecedent).
//!
//! A [`ValueIndex`] attaches to each TreeSketch cluster an equi-depth
//! summary of the numeric values carried by the cluster's elements:
//! a sorted sample (exact when the extent is small, quantile-thinned
//! otherwise) plus the fraction of elements carrying any value at all.
//! During `EVALQUERY`, a step's value predicates scale its selectivity
//! by the fraction of the endpoint cluster's values satisfying them —
//! the same independence posture as the structural assumptions of §4.3.
//!
//! Value summaries live *beside* the structural synopsis: their size is
//! accounted separately ([`ValueIndex::size_bytes`], 4 bytes per stored
//! sample value under the DESIGN.md §4.1 accounting convention).

use crate::sketch::{TreeSketch, TsNodeId};
use axqa_query::ValuePred;
use axqa_synopsis::StableSummary;
use axqa_xml::Document;

/// Per-cluster value summary.
#[derive(Debug, Clone, Default)]
pub struct ValueSummary {
    /// Sorted value sample: all values when `exact`, equi-depth
    /// quantiles otherwise.
    pub sample: Vec<f64>,
    /// Elements of the extent carrying a value.
    pub with_value: u64,
    /// Extent size.
    pub total: u64,
    /// Whether `sample` holds every value (small extents).
    pub exact: bool,
}

impl ValueSummary {
    /// Fraction of the cluster's elements satisfying *all* predicates.
    pub fn selectivity(&self, preds: &[ValuePred]) -> f64 {
        if preds.is_empty() {
            return 1.0;
        }
        if self.total == 0 || self.sample.is_empty() {
            return 0.0;
        }
        let satisfying = self
            .sample
            .iter()
            .filter(|&&v| preds.iter().all(|p| p.test(Some(v))))
            .count();
        let value_fraction = self.with_value as f64 / self.total as f64;
        (satisfying as f64 / self.sample.len() as f64) * value_fraction
    }

    /// Fallible variant of [`ValueSummary::selectivity`]: a non-trivial
    /// predicate over a cluster with a zero element count is a
    /// division-by-zero-count, reported as
    /// [`crate::error::AxqaError::ZeroCountDivision`] instead of being
    /// coerced to selectivity 0.
    pub fn try_selectivity(&self, preds: &[ValuePred]) -> Result<f64, crate::error::AxqaError> {
        if !preds.is_empty() && self.total == 0 {
            return Err(crate::error::AxqaError::ZeroCountDivision {
                context: "value-predicate selectivity",
            });
        }
        Ok(self.selectivity(preds))
    }
}

/// Value summaries for every node of one TreeSketch.
#[derive(Debug, Clone)]
pub struct ValueIndex {
    per_node: Vec<ValueSummary>,
}

impl ValueIndex {
    /// Builds the index for `sketch` given the document, its stable
    /// summary (whose element→class assignment routes values), and the
    /// stable-class → sketch-node assignment produced by the builder.
    /// `capacity` bounds the per-node sample (values beyond it are
    /// thinned to equi-depth quantiles).
    ///
    /// # Panics
    ///
    /// If `stable_assignment` does not cover the stable summary
    /// (`stable_assignment.len() != stable.len()`).
    pub fn build(
        doc: &Document,
        stable: &StableSummary,
        sketch: &TreeSketch,
        stable_assignment: &[u32],
        capacity: usize,
    ) -> ValueIndex {
        assert_eq!(stable_assignment.len(), stable.len());
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); sketch.len()];
        let mut with_value = vec![0u64; sketch.len()];
        for element in doc.node_ids() {
            let class = stable.class_of(element);
            let node = stable_assignment[class.index()] as usize;
            if let Some(v) = doc.value(element) {
                values[node].push(v);
                with_value[node] = with_value[node].saturating_add(1);
            }
        }
        let per_node = values
            .into_iter()
            .enumerate()
            .map(|(i, mut vs)| {
                vs.sort_by(f64::total_cmp);
                let exact = vs.len() <= capacity;
                let sample = if exact {
                    vs
                } else {
                    // Equi-depth thinning: the k-th of `capacity` samples
                    // is the value at quantile (k + ½) / capacity.
                    (0..capacity)
                        .map(|k| vs[(k * vs.len() + vs.len() / 2) / capacity])
                        .collect()
                };
                ValueSummary {
                    sample,
                    with_value: with_value[i],
                    total: sketch.node(TsNodeId(axqa_xml::dense_id(i))).count,
                    exact,
                }
            })
            .collect();
        ValueIndex { per_node }
    }

    /// Builds the index for the *exact* TreeSketch of a stable summary
    /// (identity assignment).
    pub fn build_for_stable(
        doc: &Document,
        stable: &StableSummary,
        sketch: &TreeSketch,
        capacity: usize,
    ) -> ValueIndex {
        let identity: Vec<u32> = (0..axqa_xml::dense_id(stable.len())).collect();
        ValueIndex::build(doc, stable, sketch, &identity, capacity)
    }

    /// The summary of one cluster.
    pub fn summary(&self, node: TsNodeId) -> &ValueSummary {
        &self.per_node[node.index()]
    }

    /// Selectivity of `preds` at `node`.
    pub fn selectivity(&self, node: TsNodeId, preds: &[ValuePred]) -> f64 {
        self.per_node[node.index()].selectivity(preds)
    }

    /// Additional bytes the value layer occupies: 4 per stored sample
    /// value + 8 per node (counts).
    pub fn size_bytes(&self) -> usize {
        self.per_node.iter().map(|s| 8 + 4 * s.sample.len()).sum()
    }

    /// Serializes the index (line-oriented, like the other formats):
    ///
    /// ```text
    /// values v1
    /// node <id> <with_value> <total> <exact 0|1> <v1> <v2> …
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "values v1
",
        );
        for (i, s) in self.per_node.iter().enumerate() {
            let _ = write!(
                out,
                "node {} {} {} {}",
                i,
                s.with_value,
                s.total,
                u8::from(s.exact)
            );
            for v in &s.sample {
                let _ = write!(out, " {v}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Parses the text format; the node count must match the sketch the
    /// index is used with.
    pub fn from_text(text: &str) -> Result<ValueIndex, String> {
        let mut per_node: Vec<ValueSummary> = Vec::new();
        let mut seen_header = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(tag) = parts.next() else {
                continue; // unreachable: the line is non-empty after trim
            };
            match tag {
                "values" => {
                    if parts.next() != Some("v1") {
                        return Err(format!("line {}: unsupported version", lineno + 1));
                    }
                    seen_header = true;
                }
                "node" => {
                    let id: usize = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: bad node id", lineno + 1))?;
                    if id != per_node.len() {
                        return Err(format!("line {}: node ids must be dense", lineno + 1));
                    }
                    let mut num = |what: &str| -> Result<f64, String> {
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| format!("line {}: bad {what}", lineno + 1))
                    };
                    let with_value = axqa_xml::f64_to_u64(num("with_value")?);
                    let total = axqa_xml::f64_to_u64(num("total")?);
                    let exact = num("exact")? != 0.0;
                    let sample: Result<Vec<f64>, String> = parts
                        .map(|t| {
                            t.parse()
                                .map_err(|_| format!("line {}: bad sample value", lineno + 1))
                        })
                        .collect();
                    per_node.push(ValueSummary {
                        sample: sample?,
                        with_value,
                        total,
                        exact,
                    });
                }
                other => return Err(format!("line {}: unknown record {other:?}", lineno + 1)),
            }
        }
        if !seen_header {
            return Err("missing 'values v1' header".into());
        }
        Ok(ValueIndex { per_node })
    }

    /// Number of per-node summaries (must equal the sketch's node count).
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ts_build, BuildConfig};
    use crate::eval::{eval_query_with_values, EvalConfig};
    use crate::selectivity::estimate_selectivity;
    use axqa_eval::{selectivity as exact_selectivity, DocIndex};
    use axqa_query::parse_twig;
    use axqa_synopsis::build_stable;
    use axqa_xml::parse_document;

    fn bib() -> axqa_xml::Document {
        parse_document(
            "<bib>\
               <p><year>1992</year><k/></p>\
               <p><year>2001</year><k/></p>\
               <p><year>2004</year><k/></p>\
               <p><year>2010</year><k/></p>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn exact_value_selectivity_on_stable_synopsis() {
        let doc = bib();
        let stable = build_stable(&doc);
        let sketch = crate::sketch::TreeSketch::from_stable(&stable);
        let values = ValueIndex::build_for_stable(&doc, &stable, &sketch, 64);
        let index = DocIndex::build(&doc);
        for twig in [
            "q1: q0 //year[. > 2000]",
            "q1: q0 //year[. <= 1992]",
            "q1: q0 //year[. >= 2001][. < 2010]",
        ] {
            let query = parse_twig(twig).unwrap();
            let exact = exact_selectivity(&doc, &index, &query);
            let result =
                eval_query_with_values(&sketch, &query, &EvalConfig::default(), Some(&values));
            let estimate = result.map_or(0.0, |r| estimate_selectivity(&r, &query));
            assert!(
                (exact - estimate).abs() < 1e-9,
                "{twig}: exact {exact} vs estimate {estimate}"
            );
        }
    }

    #[test]
    fn without_value_index_predicates_are_ignored() {
        let doc = bib();
        let stable = build_stable(&doc);
        let sketch = crate::sketch::TreeSketch::from_stable(&stable);
        let query = parse_twig("q1: q0 //year[. > 2000]").unwrap();
        let result = crate::eval::eval_query(&sketch, &query, &EvalConfig::default()).unwrap();
        // Structural upper bound: all 4 years.
        assert_eq!(estimate_selectivity(&result, &query), 4.0);
    }

    #[test]
    fn quantile_thinning_stays_close() {
        // 1000 values 0..1000; capacity 10 → deciles; P(> 700) ≈ 0.3.
        let mut b = axqa_xml::DocumentBuilder::new("r");
        for i in 0..1000 {
            b.leaf_with_value("v", i as f64);
        }
        let doc = b.finish();
        let stable = build_stable(&doc);
        let sketch = crate::sketch::TreeSketch::from_stable(&stable);
        let values = ValueIndex::build_for_stable(&doc, &stable, &sketch, 10);
        let v_label = doc.labels().get("v").unwrap();
        let v_node = sketch.nodes_with_label(v_label).next().unwrap();
        assert!(!values.summary(v_node).exact);
        let sel = values.selectivity(
            v_node,
            &[axqa_query::ValuePred {
                op: axqa_query::ValueOp::Gt,
                constant: 700.0,
            }],
        );
        assert!((sel - 0.3).abs() < 0.1, "sel = {sel}");
    }

    #[test]
    fn value_index_roundtrips_through_text() {
        let doc = bib();
        let stable = build_stable(&doc);
        let sketch = crate::sketch::TreeSketch::from_stable(&stable);
        let values = ValueIndex::build_for_stable(&doc, &stable, &sketch, 64);
        let back = ValueIndex::from_text(&values.to_text()).unwrap();
        assert_eq!(back.len(), values.len());
        for i in 0..back.len() {
            let (a, b) = (
                back.summary(TsNodeId(i as u32)),
                values.summary(TsNodeId(i as u32)),
            );
            assert_eq!(a.sample, b.sample);
            assert_eq!(a.with_value, b.with_value);
            assert_eq!(a.total, b.total);
            assert_eq!(a.exact, b.exact);
        }
        assert!(ValueIndex::from_text("garbage").is_err());
        assert!(ValueIndex::from_text(
            "values v2
"
        )
        .is_err());
    }

    #[test]
    fn values_survive_compression() {
        // Merge the p-classes; the year cluster's values pool together.
        let doc = bib();
        let stable = build_stable(&doc);
        let report = ts_build(&stable, &BuildConfig::with_budget(1));
        let sketch = report.sketch;
        let values = ValueIndex::build(&doc, &stable, &sketch, &report.stable_assignment, 64);
        let index = DocIndex::build(&doc);
        let query = parse_twig("q1: q0 //year[. > 2000]").unwrap();
        let exact = exact_selectivity(&doc, &index, &query);
        let result = eval_query_with_values(&sketch, &query, &EvalConfig::default(), Some(&values));
        let estimate = result.map_or(0.0, |r| estimate_selectivity(&r, &query));
        assert!(
            (exact - estimate).abs() < 1e-9,
            "exact {exact} vs estimate {estimate}"
        );
        assert!(values.size_bytes() > 0);
    }
}
