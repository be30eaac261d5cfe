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

//! # axqa-xsketch — the twig-XSketch baseline (§3.1, §6.1)
//!
//! Twig-XSketches (Polyzotis–Garofalakis–Ioannidis, ICDE 2004) are the
//! summarization technique the paper compares TreeSketches against: a
//! graph synopsis augmented with per-edge backward/forward *stability*
//! flags and per-node *edge histograms* capturing the joint distribution
//! of child counts across a node's outgoing edges. Construction is
//! *workload-driven*: starting from the coarse label-split graph, the
//! builder repeatedly applies the refinement (node split) that most
//! improves selectivity estimates over a sample query workload — the
//! expensive evaluation loop Table 3 contrasts with TSBUILD's
//! workload-independent squared-error metric.
//!
//! Reimplemented from the published descriptions (the original code base
//! is not available):
//!
//! * [`histogram`] — bounded-bucket joint edge histograms with exact
//!   head buckets and an averaged residual bucket.
//! * [`sketch`] — the synopsis structure and its byte accounting
//!   (`SizeModel::XSKETCH`: nodes 8 B, edges 9 B, buckets 12 B).
//! * [`build`] — the workload-driven refinement builder.
//! * [`estimate`] — histogram-based twig selectivity estimation.
//! * [`answer`] — the §6.1 approximate-answer generator: samples child
//!   counts from the edge histograms to synthesize a concrete
//!   [`axqa_eval::AnswerTree`].

pub mod answer;
pub mod build;
pub mod estimate;
pub mod histogram;
pub mod sketch;

pub use answer::sample_answer;
pub use build::{build_xsketch, XsBuildConfig};
pub use estimate::xs_estimate_selectivity;
pub use histogram::EdgeHistogram;
pub use sketch::{XEdge, XNode, XSketch, XsNodeId};
