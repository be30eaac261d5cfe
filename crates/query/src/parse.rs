//! Parsers for path expressions and the compact twig text format.
//!
//! Path grammar (the paper's XPath subset):
//!
//! ```text
//! path      := step+
//! step      := axis name predicate*
//! axis      := "//" | "/"
//! predicate := "[" relpath "]" | "[" "." op number "]"
//! op        := "<" | "<=" | "=" | ">=" | ">"
//! relpath   := path | name-first-path        (leading axis defaults to "/")
//! name      := [A-Za-z0-9_.:-]+
//! ```
//!
//! `[. op number]` is a *value predicate* on the step's own element
//! (the value-content extension); whitespace inside it is allowed.
//!
//! Twig grammar: one line per non-root variable, in topological order:
//!
//! ```text
//! qJ: qI [?] path        e.g.  "q1: q0 //a[//b]"
//! ```

use crate::path::{Axis, PathExpr, Step, ValueOp, ValuePred};
use crate::twig::{QVar, TwigQuery};
use std::fmt;

/// Parse errors for paths and twig queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for QueryParseError {}

fn err(message: impl Into<String>, offset: usize) -> QueryParseError {
    QueryParseError {
        message: message.into(),
        offset,
    }
}

/// Deepest predicate nesting a path may have. The parser and every
/// walk over a parsed path recurse once per level, so unbounded
/// nesting would let a few hundred kilobytes of `[` overflow the
/// stack. The workload generator nests predicates one level deep
/// (`maybe_add_predicate` in axqa-datagen), so the cap sits far above
/// any query it makes.
const MAX_PREDICATE_DEPTH: usize = 64;

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn name(&mut self) -> Result<String, QueryParseError> {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(err("expected a label name", start));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    fn skip_spaces(&mut self) {
        while self.peek() == Some(' ') {
            self.pos += 1;
        }
    }

    /// Parses `op number` after the `.` of a value predicate.
    fn value_pred(&mut self) -> Result<ValuePred, QueryParseError> {
        self.skip_spaces();
        let op = if self.eat("<=") {
            ValueOp::Le
        } else if self.eat(">=") {
            ValueOp::Ge
        } else if self.eat("<") {
            ValueOp::Lt
        } else if self.eat(">") {
            ValueOp::Gt
        } else if self.eat("=") {
            ValueOp::Eq
        } else {
            return Err(err("expected a comparison operator after '.'", self.pos));
        };
        self.skip_spaces();
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len()
            && matches!(
                bytes[self.pos],
                b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let constant: f64 = self.input[start..self.pos]
            .parse()
            .map_err(|_| err("expected a number in value predicate", start))?;
        Ok(ValuePred { op, constant })
    }

    /// Parses a path nested `depth` predicates deep; `leading_axis_required`
    /// is false inside predicates, where `[b/c]` means `[/b/c]`.
    fn path(
        &mut self,
        leading_axis_required: bool,
        depth: usize,
    ) -> Result<PathExpr, QueryParseError> {
        let mut steps = Vec::new();
        loop {
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") || (steps.is_empty() && !leading_axis_required) {
                Axis::Child
            } else if steps.is_empty() {
                return Err(err("expected '/' or '//'", self.pos));
            } else {
                break;
            };
            let label = self.name()?;
            let mut step = Step::new(axis, label);
            loop {
                let open = self.pos;
                if !self.eat("[") {
                    break;
                }
                self.skip_spaces();
                if self.eat(".") {
                    let pred = self.value_pred()?;
                    self.skip_spaces();
                    if !self.eat("]") {
                        return Err(err("expected ']'", self.pos));
                    }
                    step.value_preds.push(pred);
                } else {
                    if depth == MAX_PREDICATE_DEPTH {
                        return Err(err(
                            format!("predicates nested deeper than {MAX_PREDICATE_DEPTH} levels"),
                            open,
                        ));
                    }
                    let predicate = self.path(false, depth + 1)?;
                    if !self.eat("]") {
                        return Err(err("expected ']'", self.pos));
                    }
                    step.predicates.push(predicate);
                }
            }
            steps.push(step);
        }
        Ok(PathExpr::new(steps))
    }
}

/// Parses a path expression like `//a[//b]/c[d/e]`.
pub fn parse_path(input: &str) -> Result<PathExpr, QueryParseError> {
    let mut cursor = Cursor {
        input: input.trim(),
        pos: 0,
    };
    let path = cursor.path(true, 0)?;
    if cursor.peek().is_some() {
        return Err(err(
            format!("trailing input: {:?}", cursor.rest()),
            cursor.pos,
        ));
    }
    Ok(path)
}

/// Parses the compact twig format (see module docs); blank lines and
/// `#`-comment lines are skipped.
pub fn parse_twig(input: &str) -> Result<TwigQuery, QueryParseError> {
    let mut query = TwigQuery::new();
    let mut consumed = 0usize;
    let mut next_var = 1u32;
    for line in input.lines() {
        let line_offset = consumed;
        consumed += line.len() + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (head, rest) = trimmed
            .split_once(':')
            .ok_or_else(|| err("expected 'qJ: qI path'", line_offset))?;
        let declared = parse_var(head.trim(), line_offset)?;
        if declared != QVar(next_var) {
            return Err(err(
                format!("expected declaration of q{next_var}, found {declared}"),
                line_offset,
            ));
        }
        let rest = rest.trim_start();
        let (parent_text, rest) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| err("expected parent variable then path", line_offset))?;
        let parent = parse_var(parent_text, line_offset)?;
        if parent.0 >= next_var {
            return Err(err(
                format!("parent {parent} not declared before q{next_var}"),
                line_offset,
            ));
        }
        let mut rest = rest.trim_start();
        let optional = if let Some(stripped) = rest.strip_prefix('?') {
            rest = stripped.trim_start();
            true
        } else {
            false
        };
        let path = parse_path(rest).map_err(|e| err(e.message, line_offset + e.offset))?;
        if optional {
            query.add_optional(parent, path);
        } else {
            query.add(parent, path);
        }
        next_var += 1;
    }
    Ok(query)
}

fn parse_var(text: &str, offset: usize) -> Result<QVar, QueryParseError> {
    let digits = text.strip_prefix('q').ok_or_else(|| {
        err(
            format!("expected a variable like q1, found {text:?}"),
            offset,
        )
    })?;
    let n: u32 = digits
        .parse()
        .map_err(|_| err(format!("bad variable number in {text:?}"), offset))?;
    Ok(QVar(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twig::figure2_query;

    #[test]
    fn parse_simple_paths() {
        assert_eq!(parse_path("//a").unwrap().to_string(), "//a");
        assert_eq!(parse_path("/a/b//c").unwrap().to_string(), "/a/b//c");
    }

    #[test]
    fn parse_predicates_with_default_child_axis() {
        let p = parse_path("/d[g]//f").unwrap();
        assert_eq!(p.to_string(), "/d[/g]//f");
        let p = parse_path("//a[//b][c/d]").unwrap();
        assert_eq!(p.to_string(), "//a[//b][/c/d]");
    }

    #[test]
    fn parse_nested_predicates() {
        let p = parse_path("//a[b[//c]]").unwrap();
        assert_eq!(p.to_string(), "//a[/b[//c]]");
    }

    #[test]
    fn reject_garbage() {
        assert!(parse_path("a//b").is_err()); // no leading axis at top level
        assert!(parse_path("//a[").is_err());
        assert!(parse_path("//a]").is_err());
        assert!(parse_path("//").is_err());
        assert!(parse_path("").is_err());
    }

    #[test]
    fn twig_roundtrip_through_display() {
        let q = figure2_query();
        let reparsed = parse_twig(&q.to_string()).unwrap();
        assert_eq!(reparsed, q);
    }

    #[test]
    fn twig_with_comments_and_blanks() {
        let q = parse_twig("# the Figure 2 query\n\nq1: q0 //a[//b]\nq2: q1 //p\n").unwrap();
        assert_eq!(q.num_vars(), 3);
        assert!(!q.node(QVar(1)).optional);
    }

    #[test]
    fn twig_rejects_forward_references() {
        assert!(parse_twig("q1: q3 //a").is_err());
        assert!(parse_twig("q2: q0 //a").is_err()); // must start at q1
    }

    #[test]
    fn twig_optional_marker() {
        let q = parse_twig("q1: q0 ? //n").unwrap();
        assert!(q.node(QVar(1)).optional);
    }
}

#[cfg(test)]
mod value_pred_tests {
    use super::*;
    use crate::path::ValueOp;

    #[test]
    fn parse_value_predicates() {
        let p = parse_path("//p/year[. > 1995]").unwrap();
        assert_eq!(p.to_string(), "//p/year[. > 1995]");
        let step = p.steps.last().unwrap();
        assert_eq!(step.value_preds.len(), 1);
        assert_eq!(step.value_preds[0].op, ValueOp::Gt);
        assert_eq!(step.value_preds[0].constant, 1995.0);
    }

    #[test]
    fn all_operators_and_ranges() {
        for (text, op) in [
            ("[.<5]", ValueOp::Lt),
            ("[.<=5]", ValueOp::Le),
            ("[.=5]", ValueOp::Eq),
            ("[.>=5]", ValueOp::Ge),
            ("[.>5]", ValueOp::Gt),
        ] {
            let p = parse_path(&format!("//x{text}")).unwrap();
            assert_eq!(p.steps[0].value_preds[0].op, op, "{text}");
        }
        // Range via two predicates.
        let p = parse_path("//x[.>=2][.<10]").unwrap();
        assert_eq!(p.steps[0].value_preds.len(), 2);
    }

    #[test]
    fn value_and_path_predicates_mix() {
        let p = parse_path("//p[year][. > 3]/k").unwrap();
        assert_eq!(p.steps[0].predicates.len(), 1);
        assert_eq!(p.steps[0].value_preds.len(), 1);
    }

    #[test]
    fn negative_and_float_constants() {
        let p = parse_path("//t[. <= -2.75]").unwrap();
        assert_eq!(p.steps[0].value_preds[0].constant, -2.75);
    }

    #[test]
    fn reject_bad_value_predicates() {
        assert!(parse_path("//x[.]").is_err());
        assert!(parse_path("//x[.>]").is_err());
        assert!(parse_path("//x[.>abc]").is_err());
    }

    #[test]
    fn value_pred_roundtrip_through_twig() {
        let q = parse_twig("q1: q0 //p[. >= 1990]\nq2: q1 /k").unwrap();
        let reparsed = parse_twig(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;

    /// The parser must fail cleanly (never panic) on malformed input.
    #[test]
    fn parser_rejects_garbage_without_panicking() {
        let nasty = [
            "",
            "[",
            "]",
            "//",
            "///",
            "//a[",
            "//a[.]",
            "//a[.>>3]",
            "//a[b",
            "q1 q0 //a",
            "q1:",
            "q1: q0",
            "q1: q0 ?",
            "q0: q0 /a",
            "q1: q0 //a\nq1: q0 //b",
            "q2: q1 //a",
            "//a[.=1e]",
            "//a[]",
            "/a/[b]",
            "//a//",
            "//a[//b]]",
            "q1: qx //a",
            "//a[. = ]",
        ];
        for input in nasty {
            let _ = parse_path(input);
            let _ = parse_twig(input);
        }
        // Nesting deep enough to overflow a recursive parser's stack,
        // rejected at the first `[` past the cap (byte 2 + 2 * 64).
        let deep = format!("/a{}{}", "[a".repeat(100_000), "]".repeat(100_000));
        assert_eq!(parse_path(&deep).unwrap_err().offset, 130);
        assert!(parse_twig(&format!("q1: q0 {deep}")).is_err());
    }

    #[test]
    fn deep_nesting_parses() {
        let deep = "//a[b[c[d[e[f[g]]]]]]";
        let p = parse_path(deep).unwrap();
        assert_eq!(p.total_steps(), 7);
        let deepest = format!("/a{}{}", "[a".repeat(64), "]".repeat(64));
        assert_eq!(parse_path(&deepest).unwrap().total_steps(), 65);
    }

    #[test]
    fn long_chains_parse() {
        let chain = "/a".repeat(64);
        let p = parse_path(&chain).unwrap();
        assert_eq!(p.steps.len(), 64);
    }
}
