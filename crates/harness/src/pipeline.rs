//! Shared experiment pipeline: dataset → stable summary → workload →
//! exact ground truth, with parallel exact evaluation.

use axqa_core::parallel::map_indexed;
use axqa_datagen::workload::{positive_workload, WorkloadConfig};
use axqa_datagen::{generate, Dataset, GenConfig};
use axqa_eval::{evaluate, DocIndex, NestingTree};
use axqa_query::TwigQuery;
use axqa_synopsis::{build_stable, StableSummary};
use axqa_xml::Document;

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Multiplier on the dataset's paper element count.
    pub scale: f64,
    /// Workload size (the paper uses 1000).
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for exact evaluation (0 = available parallelism).
    pub threads: usize,
    /// Materialize exact nesting trees (needed for ESD experiments);
    /// selectivity-only experiments can skip them and use the direct
    /// tuple counter.
    pub need_nesting: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            scale: 0.25,
            queries: 200,
            seed: 0x5EED,
            threads: 0,
            need_nesting: true,
        }
    }
}

impl PipelineConfig {
    /// Worker-thread count to use.
    pub fn effective_threads(&self) -> usize {
        axqa_xml::threads::resolve(self.threads)
    }
}

/// A dataset prepared for experiments.
pub struct Prepared {
    /// Which dataset this is.
    pub dataset: Dataset,
    /// Whether the large-scale element target was used.
    pub large: bool,
    /// The document.
    pub doc: Document,
    /// Its count-stable summary.
    pub stable: StableSummary,
    /// Evaluation index.
    pub index: DocIndex,
    /// Positive twig workload.
    pub workload: Vec<TwigQuery>,
    /// Exact nesting trees; `None` per query when `need_nesting` was
    /// off (selectivity-only pipelines).
    pub nesting: Vec<Option<NestingTree>>,
    /// Exact binding-tuple counts.
    pub exact: Vec<f64>,
}

impl Prepared {
    /// Generates and fully prepares a dataset at TX (`large = false`) or
    /// large (`large = true`) scale.
    pub fn new(dataset: Dataset, large: bool, config: &PipelineConfig) -> Prepared {
        let base = if large {
            dataset.large_elements()
        } else {
            // DBLP has no TX row; fall back to its large count.
            let tx = dataset.tx_elements();
            if tx == 0 {
                dataset.large_elements()
            } else {
                tx
            }
        };
        let target = usize::try_from(axqa_xml::f64_to_u64(
            ((base as f64) * config.scale).max(2_000.0),
        ))
        .unwrap_or(usize::MAX);
        let doc = generate(
            dataset,
            &GenConfig {
                target_elements: target,
                seed: config.seed,
            },
        );
        let stable = build_stable(&doc);
        let index = DocIndex::build(&doc);
        let workload = positive_workload(
            &stable,
            &WorkloadConfig {
                count: config.queries,
                seed: config.seed ^ 0xA11CE,
                ..WorkloadConfig::default()
            },
        );
        let (nesting, exact) = exact_ground_truth(&doc, &index, &workload, config);
        Prepared {
            dataset,
            large,
            doc,
            stable,
            index,
            workload,
            nesting,
            exact,
        }
    }

    /// The paper's sanity bound `s`: the 10-percentile of true counts.
    pub fn sanity_bound(&self) -> f64 {
        let mut counts = self.exact.clone();
        counts.sort_by(f64::total_cmp);
        if counts.is_empty() {
            1.0
        } else {
            counts[counts.len() / 10].max(1.0)
        }
    }

    /// Average binding tuples per workload query (Table 2).
    pub fn avg_binding_tuples(&self) -> f64 {
        if self.exact.is_empty() {
            0.0
        } else {
            self.exact.iter().sum::<f64>() / self.exact.len() as f64
        }
    }
}

/// Evaluates the workload exactly, in parallel.
fn exact_ground_truth(
    doc: &Document,
    index: &DocIndex,
    workload: &[TwigQuery],
    config: &PipelineConfig,
) -> (Vec<Option<NestingTree>>, Vec<f64>) {
    let mut lanes = vec![(); config.effective_threads()];
    let results = map_indexed(&mut lanes, workload.len(), |(), i| {
        if config.need_nesting {
            let nt = evaluate(doc, index, &workload[i]);
            let count = nt
                .as_ref()
                .map_or(0.0, |tree| tree.binding_tuples(&workload[i]));
            (nt, count)
        } else {
            (
                None,
                axqa_eval::count_binding_tuples(doc, index, &workload[i]),
            )
        }
    });
    let mut nesting = Vec::with_capacity(workload.len());
    let mut exact = Vec::with_capacity(workload.len());
    for (nt, count) in results {
        nesting.push(nt);
        exact.push(count);
    }
    (nesting, exact)
}

/// The paper-literal relative error `|r − e| / max(e, s)` (§6.1).
pub fn relative_error(true_count: f64, estimate: f64, sanity: f64) -> f64 {
    (true_count - estimate).abs() / estimate.max(sanity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_dataset() {
        let config = PipelineConfig {
            scale: 0.05,
            queries: 20,
            seed: 9,
            threads: 2,
            need_nesting: true,
        };
        let p = Prepared::new(Dataset::Imdb, false, &config);
        assert_eq!(p.workload.len(), 20);
        assert_eq!(p.exact.len(), 20);
        assert!(p.exact.iter().all(|&c| c > 0.0), "positive workload");
        assert!(p.avg_binding_tuples() > 0.0);
        assert!(p.sanity_bound() >= 1.0);
    }

    #[test]
    fn relative_error_uses_paper_formula() {
        assert_eq!(relative_error(10.0, 5.0, 1.0), 1.0);
        assert_eq!(relative_error(10.0, 0.0, 2.0), 5.0);
        assert_eq!(relative_error(4.0, 4.0, 1.0), 0.0);
    }
}
