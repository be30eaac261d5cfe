//! Text serialization for TreeSketch synopses.
//!
//! An approximate-answering system builds synopses offline and loads
//! them at query time; this module provides the storage format. It is
//! line-oriented (like `axqa_synopsis::io`) and self-contained:
//!
//! ```text
//! treesketch v1
//! labels <n>
//! label <id> <name>
//! nodes <n> root <id> sq <squared-error>
//! node <id> <label-id> <count> <depth>
//! edge <from> <to> <avg>
//! ```

use crate::sketch::{TreeSketch, TsNode, TsNodeId};
use axqa_xml::{LabelId, LabelTable};
use std::fmt::Write as _;

/// Serializes a TreeSketch.
pub fn to_text(sketch: &TreeSketch) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "treesketch v1");
    let _ = writeln!(out, "labels {}", sketch.labels().len());
    for (id, name) in sketch.labels().iter() {
        let _ = writeln!(out, "label {} {}", id.0, name);
    }
    let _ = writeln!(
        out,
        "nodes {} root {} sq {}",
        sketch.len(),
        sketch.root().0,
        sketch.squared_error()
    );
    for (i, node) in sketch.nodes().iter().enumerate() {
        let _ = writeln!(
            out,
            "node {} {} {} {}",
            i, node.label.0, node.count, node.depth
        );
        for &(target, avg) in &node.edges {
            let _ = writeln!(out, "edge {} {} {}", i, target.0, avg);
        }
    }
    out
}

/// Deserialization errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchIoError {
    /// What went wrong.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl std::fmt::Display for SketchIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "treesketch parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for SketchIoError {}

fn io_err(message: impl Into<String>, line: usize) -> SketchIoError {
    SketchIoError {
        message: message.into(),
        line,
    }
}

/// Parses the text format back into a TreeSketch.
pub fn from_text(text: &str) -> Result<TreeSketch, SketchIoError> {
    let mut labels = LabelTable::new();
    let mut nodes: Vec<TsNode> = Vec::new();
    let mut root = 0u32;
    let mut squared_error = 0.0f64;
    let mut seen_header = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let Some(tag) = parts.next() else {
            continue; // unreachable: the line is non-empty after trim
        };
        match tag {
            "treesketch" => {
                if parts.next() != Some("v1") {
                    return Err(io_err("unsupported version", line));
                }
                seen_header = true;
            }
            "labels" => {}
            "label" => {
                let _id: u32 = num(&mut parts, line)?;
                let name = parts
                    .next()
                    .ok_or_else(|| io_err("label needs a name", line))?;
                labels.intern(name);
            }
            "nodes" => {
                let n: u32 = num(&mut parts, line)?;
                // The count is the file's claim: reserve no more nodes
                // than the text holds shortest node lines, so an honest
                // file still gets one allocation and a lying header no
                // huge one.
                nodes.reserve((n as usize).min(text.len() / "node 0 0 0 0".len()));
                if parts.next() != Some("root") {
                    return Err(io_err("expected 'root'", line));
                }
                root = num(&mut parts, line)?;
                if parts.next() != Some("sq") {
                    return Err(io_err("expected 'sq'", line));
                }
                squared_error = fnum(&mut parts, line)?;
            }
            "node" => {
                let id: u32 = num(&mut parts, line)?;
                if id as usize != nodes.len() {
                    return Err(io_err("node ids must be dense and in order", line));
                }
                let label: u32 = num(&mut parts, line)?;
                if label as usize >= labels.len() {
                    return Err(io_err("node references unknown label", line));
                }
                let count: u32 = num(&mut parts, line)?;
                let depth: u32 = num(&mut parts, line)?;
                nodes.push(TsNode {
                    label: LabelId(label),
                    count: count as u64,
                    edges: Vec::new(),
                    depth,
                });
            }
            "edge" => {
                let from: u32 = num(&mut parts, line)?;
                let to: u32 = num(&mut parts, line)?;
                let avg: f64 = fnum(&mut parts, line)?;
                if from as usize >= nodes.len() {
                    return Err(io_err("edge from unknown node", line));
                }
                nodes[from as usize].edges.push((TsNodeId(to), avg));
            }
            other => return Err(io_err(format!("unknown record {other:?}"), line)),
        }
    }
    if !seen_header {
        return Err(io_err("missing 'treesketch v1' header", 1));
    }
    if nodes.is_empty() {
        return Err(io_err("sketch has no nodes", 1));
    }
    if root as usize >= nodes.len() {
        return Err(io_err("root references unknown node", 1));
    }
    for node in &mut nodes {
        node.edges.sort_unstable_by_key(|&(t, _)| t);
    }
    // Validate edge targets now that all nodes exist.
    let n = nodes.len();
    for node in &nodes {
        for &(t, _) in &node.edges {
            if t.index() >= n {
                return Err(io_err("edge to unknown node", 1));
            }
        }
    }
    Ok(TreeSketch::from_parts(
        labels,
        nodes,
        TsNodeId(root),
        squared_error,
    ))
}

/// Parses a serialized sketch into the workspace error type: a
/// structurally valid file describing a synopsis with no nodes maps to
/// [`crate::error::AxqaError::EmptySynopsis`], every other failure to
/// [`crate::error::AxqaError::SketchIo`].
pub fn load_sketch(text: &str) -> Result<TreeSketch, crate::error::AxqaError> {
    match from_text(text) {
        Ok(sketch) => Ok(sketch),
        Err(e) if e.message == "sketch has no nodes" => {
            Err(crate::error::AxqaError::EmptySynopsis {
                context: "load_sketch",
            })
        }
        Err(e) => Err(crate::error::AxqaError::SketchIo(e)),
    }
}

fn num<'a>(parts: &mut impl Iterator<Item = &'a str>, line: usize) -> Result<u32, SketchIoError> {
    parts
        .next()
        .ok_or_else(|| io_err("missing numeric field", line))?
        .parse()
        .map_err(|_| io_err("bad numeric field", line))
}

fn fnum<'a>(parts: &mut impl Iterator<Item = &'a str>, line: usize) -> Result<f64, SketchIoError> {
    parts
        .next()
        .ok_or_else(|| io_err("missing float field", line))?
        .parse()
        .map_err(|_| io_err("bad float field", line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ts_build, BuildConfig};
    use axqa_synopsis::build_stable;
    use axqa_xml::parse_document;

    #[test]
    fn roundtrip_exact_and_compressed() {
        let doc = parse_document(
            "<r><a><b><c/></b><b><c/><c/><c/><c/></b></a>\
             <a><b><c/></b><b><c/><c/><c/><c/></b></a></r>",
        )
        .unwrap();
        let stable = build_stable(&doc);
        for budget in [1usize, 10_000] {
            let sketch = ts_build(&stable, &BuildConfig::with_budget(budget)).sketch;
            let text = to_text(&sketch);
            let back = from_text(&text).unwrap();
            assert_eq!(back.len(), sketch.len());
            assert_eq!(back.num_edges(), sketch.num_edges());
            assert_eq!(back.root(), sketch.root());
            assert!((back.squared_error() - sketch.squared_error()).abs() < 1e-9);
            for (a, b) in back.nodes().iter().zip(sketch.nodes()) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.count, b.count);
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.edges.len(), b.edges.len());
                for (&(t1, c1), &(t2, c2)) in a.edges.iter().zip(&b.edges) {
                    assert_eq!(t1, t2);
                    assert!((c1 - c2).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn loaded_sketch_answers_queries() {
        let doc = parse_document("<r><a><k/></a><a><k/><k/></a></r>").unwrap();
        let sketch = crate::sketch::TreeSketch::from_stable(&build_stable(&doc));
        let back = from_text(&to_text(&sketch)).unwrap();
        let query = axqa_query::parse_twig("q1: q0 //a\nq2: q1 /k").unwrap();
        let estimate = crate::selectivity::estimate_query_selectivity(
            &back,
            &query,
            &crate::eval::EvalConfig::default(),
        );
        assert_eq!(estimate, 3.0);
        // A node depth at u32::MAX makes each descendant step's path
        // budget u32::MAX; their sum must not overflow.
        let deep = "treesketch v1\nlabels 1\nlabel 0 a\nnodes 2 root 0 sq 0\n\
                    node 0 0 1 4294967295\nedge 0 1 1\nnode 1 0 1 0\n";
        let query = axqa_query::parse_twig("q1: q0 //a//a").unwrap();
        let estimate = crate::selectivity::try_estimate_query_selectivity(
            &load_sketch(deep).unwrap(),
            &query,
            &crate::eval::EvalConfig::default(),
        );
        assert!(estimate.is_ok(), "{estimate:?}");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_text("").is_err());
        assert!(from_text("treesketch v9\n").is_err());
        assert!(from_text("treesketch v1\nnode 0 0 1 0\n").is_err()); // unknown label
        assert!(
            from_text("treesketch v1\nlabel 0 a\nnodes 1 root 5 sq 0\nnode 0 0 1 0\n").is_err()
        );
        assert!(from_text("treesketch v1\nwhatever\n").is_err());
        // The header promises 2^32 - 1 nodes and no node line follows.
        assert!(
            load_sketch("treesketch v1\nlabels 1\nlabel 0 a\nnodes 4294967295 root 0 sq 0\n")
                .is_err()
        );
    }
}
