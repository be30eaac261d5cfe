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

//! # axqa-core — TreeSketch synopses (the paper's contribution)
//!
//! A TreeSketch (§3.2, Definition 3.2) is a graph synopsis whose nodes
//! carry element counts and whose edges carry **average** child counts;
//! it approximates the unique count-stable summary of a document within a
//! space budget. This crate implements the full TreeSketch life cycle:
//!
//! * [`TreeSketch`] — the synopsis data structure, with the paper's
//!   clustering interpretation (every node is a cluster of elements whose
//!   per-target child-count vectors are collapsed to their centroid) and
//!   squared-error quality metric.
//! * [`cluster`] — the mutable clustering state over a count-stable
//!   skeleton that construction algorithms manipulate: incremental
//!   sufficient statistics (per-edge sums and sums of squares, §4.2) with
//!   exact cross-term maintenance via the stable skeleton.
//! * [`build`] — `TSBUILD` + `CREATEPOOL` (Figures 5, 6): bottom-up
//!   greedy merging ranked by marginal gain `errd/sized`, with a bounded
//!   candidate pool regenerated between rounds.
//! * [`queue`] — the lazy stale-skipping merge queue the TSBUILD loop
//!   drains: generation-stamped heap entries plus a score memo that
//!   re-evaluates only candidates adjacent to an applied merge, with the
//!   greedy merge sequence provably bit-identical to eager re-scoring.
//! * [`parallel`] — the claim loop every index-parallel fan-out runs
//!   on: CREATEPOOL scoring and the harness's maps.
//! * [`topdown`] — the top-down split-based ablation §4.2 argues against.
//! * [`eval`] — `EVALQUERY` + `EVALEMBED` (Figures 7, 8): approximate
//!   twig answering producing a [`eval::ResultSketch`] that summarizes
//!   the nesting tree, with inclusion–exclusion branch selectivities.
//! * [`selectivity`] — the §4.4 estimator: one post-order pass over the
//!   result sketch yielding the expected number of binding tuples.

pub mod build;
pub mod cluster;
pub mod error;
pub mod eval;
pub mod expand;
pub mod io;
pub mod parallel;
pub mod queue;
pub mod selectivity;
pub mod sketch;
pub mod topdown;
pub mod values;

pub use build::{try_ts_build, ts_build, ts_build_eager, BuildConfig, BuildReport};
pub use cluster::{ClusterState, ScoreScratch};
pub use error::AxqaError;
pub use eval::{
    eval_query, eval_query_with_scratch, eval_query_with_values, EvalConfig, EvalScratch,
    ResultSketch,
};
pub use expand::{expand_result, Expansion};
pub use queue::{MergeCandidate, MergeQueue, QueueStats};
pub use selectivity::{estimate_selectivity, try_estimate_query_selectivity};
pub use sketch::{TreeSketch, TsNodeId};
pub use topdown::topdown_build;
pub use values::{ValueIndex, ValueSummary};
