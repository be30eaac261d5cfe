// Count-carrying crate (ISSUE 1; DESIGN.md "Static analysis & invariants"):
// lossy casts and unchecked arithmetic on element/edge counts, and exact
// float equality, are denied outside tests, on top of the workspace lint
// table.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::arithmetic_side_effects,
        clippy::float_cmp
    )
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

//! # axqa-distance — error metrics for approximate XML answers (§5)
//!
//! §5 argues that syntax-oriented metrics such as tree-edit distance
//! cannot judge approximate answers: an answer is good if it preserves
//! the *statistical traits* of the true result. The paper introduces the
//! **Element Simulation Distance (ESD)**: two elements are close if, for
//! every tag, their child sets (treated as value sets with recursively
//! computed pairwise distances) are close under a value-set distance
//! such as MAC or EMD.
//!
//! This crate implements:
//!
//! * [`WeightedSummary`] — the common representation ESD is computed
//!   over: a DAG of nodes with (possibly fractional) child
//!   multiplicities, built from documents, exact nesting trees, or
//!   approximate result sketches. This realizes the paper's "compute ESD
//!   on stable summaries" optimization.
//! * [`setdist`] — the pluggable value-set distance: a MAC-style greedy
//!   matching with a superlinear multiplicity-mismatch penalty (the
//!   paper notes MAC "assigns a heavy penalty if the compared element
//!   sets contain the same sub-tree in different multiplicities"), and
//!   an exact EMD via min-cost flow.
//! * [`esd`] — the ESD recursion with memoization over summary-node
//!   pairs, optionally restricted to children bound to the same query
//!   variable (the paper's "straightforward extension" used in §6).
//! * [`tree_edit`] — Zhang–Shasha ordered tree-edit distance with
//!   configurable operation costs, used to reproduce the Figure 10
//!   argument that edit distance ranks `T1` and `T2` equally while ESD
//!   prefers `T2`.

pub mod esd;
pub mod setdist;
pub mod tree_edit;
pub mod weighted;

pub use esd::{
    esd_answer, esd_answer_tree, esd_documents, esd_empty_answer, esd_summaries, EsdConfig,
};
pub use setdist::SetDistance;
pub use tree_edit::{tree_edit_distance, EditCosts};
pub use weighted::WeightedSummary;
