//! Seeded inputs: the document, the reference sketch, the served twigs
//! with the estimate each must reproduce, and the accuracy of the
//! reference sketch against exact ground truth. Nothing here is timed;
//! the caller reports its wall time as `inputs_s`.

use axqa_core::selectivity::estimate_query_selectivity;
use axqa_core::{try_ts_build, EvalConfig};
use axqa_datagen::workload::{negative_workload, positive_workload, WorkloadConfig};
use axqa_datagen::{generate, GenConfig};
use axqa_eval::{count_binding_tuples, DocIndex};
use axqa_query::TwigQuery;
use axqa_synopsis::build_stable;
use axqa_xml::Document;

use crate::Spec;

/// A twig served by every round.
pub(crate) struct Twig {
    /// Text handed to `parse_twig` on every request.
    pub text: String,
    /// The estimate `estimate_query_selectivity` gives on the reference
    /// sketch; every request must return exactly these bits.
    pub reference: f64,
    /// Whether the document has matches (a positive twig must then get a
    /// non-empty estimate).
    pub positive: bool,
}

pub(crate) struct Inputs {
    /// The document as XML text: the summarize input.
    pub xml: String,
    /// Stable-summary classes of the document.
    pub classes: usize,
    /// Text of the reference build: every summarize must reproduce it,
    /// and serving workloads load it.
    pub sketch: String,
    /// Merges of the reference build.
    pub merges: usize,
    /// Twigs served per round, in request order.
    pub twigs: Vec<Twig>,
    /// Twigs of the set-up warm-up. They come from a fixed seed, like the
    /// served document, so set-up does the same work whatever the run
    /// seed.
    pub warmup: Vec<Twig>,
    /// Mean |estimate − exact| / max(exact, s) over the check sample, in
    /// percent, where `s` is the 10th percentile of the positive twigs'
    /// exact counts (at least 1), the paper's sanity bound (§6.1).
    pub rel_error_pct: f64,
    /// Hash of the document, sketch and twig texts, the accuracy check
    /// sample's included.
    pub fingerprint: u64,
}

/// Generates every input of `spec` from `seed`.
pub(crate) fn make(spec: &Spec, seed: u64) -> Result<Inputs, String> {
    let doc = generate(
        spec.dataset,
        &GenConfig {
            target_elements: spec.elements,
            seed: crate::DATASET_SEED,
        },
    );
    let stable = build_stable(&doc);
    // On this thread alone: worker threads leave allocator arenas whose
    // resident size varied from run to run, and it showed in the serving
    // workloads' peak RSS. The sketch is the same on any thread count,
    // and every timed summarize is checked against it.
    let mut config = spec.build_config();
    config.threads = 1;
    let report =
        try_ts_build(&stable, &config).map_err(|e| format!("reference build failed: {e}"))?;
    let sketch = axqa_core::io::to_text(&report.sketch);
    // The inputs the run keeps are made before anything that depends on
    // the seed, so where they sit in the heap does not depend on it.
    let xml = if spec.summarize {
        axqa_xml::write_document(&doc)
    } else {
        String::new()
    };
    let eval = EvalConfig::default();

    let positives = positive_workload(
        &stable,
        &WorkloadConfig {
            count: spec.served_positive.max(spec.check.0),
            seed: seed ^ 0xA11CE,
            ..WorkloadConfig::default()
        },
    );
    let index = DocIndex::build(&doc);
    let negatives = empty_twigs(
        &doc,
        &index,
        &stable,
        spec.served_negative.max(spec.check.1),
        seed,
    );

    let check_positive = &positives[..spec.check.0];
    let check_texts: Vec<String> = check_positive
        .iter()
        .chain(&negatives[..spec.check.1])
        .map(TwigQuery::to_string)
        .collect();
    let exact: Vec<f64> = check_positive
        .iter()
        .map(|query| count_binding_tuples(&doc, &index, query))
        .collect();
    let mut sorted = exact.clone();
    sorted.sort_by(f64::total_cmp);
    let sanity = sorted
        .get(sorted.len() / 10)
        .copied()
        .unwrap_or(1.0)
        .max(1.0);
    let check = check_positive
        .iter()
        .zip(exact.iter().copied())
        .chain(negatives[..spec.check.1].iter().map(|q| (q, 0.0)));
    let (mut error_sum, mut checked) = (0.0, 0usize);
    for (query, truth) in check {
        let estimate = estimate_query_selectivity(&report.sketch, query, &eval);
        error_sum += (estimate - truth).abs() / truth.max(sanity);
        checked += 1;
    }

    let twig = |(query, positive): (&TwigQuery, bool)| Twig {
        text: query.to_string(),
        reference: estimate_query_selectivity(&report.sketch, query, &eval),
        positive,
    };
    let twigs: Vec<Twig> = interleave(
        &positives[..spec.served_positive],
        &negatives[..spec.served_negative],
    )
    .into_iter()
    .map(twig)
    .collect();
    let warmup: Vec<Twig> = positive_workload(
        &stable,
        &WorkloadConfig {
            count: spec.warmup,
            seed: crate::DATASET_SEED,
            ..WorkloadConfig::default()
        },
    )
    .iter()
    .map(|query| twig((query, true)))
    .collect();

    let mut parts: Vec<&str> = vec![&xml, &sketch];
    parts.extend(twigs.iter().chain(&warmup).map(|t| t.text.as_str()));
    parts.extend(check_texts.iter().map(String::as_str));
    let fingerprint = crate::fnv64(&parts);
    Ok(Inputs {
        classes: stable.len(),
        merges: report.merges,
        rel_error_pct: 100.0 * error_sum / checked.max(1) as f64,
        fingerprint,
        xml,
        sketch,
        twigs,
        warmup,
    })
}

/// `count` twigs with no match in `doc`. `negative_workload` proves
/// emptiness on the stable summary, which is conservative for branching
/// twigs, so each candidate is also counted exactly.
fn empty_twigs(
    doc: &Document,
    index: &DocIndex,
    stable: &axqa_synopsis::StableSummary,
    count: usize,
    seed: u64,
) -> Vec<TwigQuery> {
    let mut empty = Vec::with_capacity(count);
    let mut batch_seed = seed;
    while empty.len() < count {
        let batch = negative_workload(
            stable,
            &WorkloadConfig {
                count,
                seed: batch_seed,
                ..WorkloadConfig::default()
            },
        );
        empty.extend(
            batch
                .into_iter()
                .filter(|query| count_binding_tuples(doc, index, query) == 0.0),
        );
        batch_seed = batch_seed.wrapping_add(1);
    }
    empty.truncate(count);
    empty
}

/// Spreads the negative twigs evenly among the positive ones, each
/// tagged with whether it is positive.
fn interleave<'q>(
    positives: &'q [TwigQuery],
    negatives: &'q [TwigQuery],
) -> Vec<(&'q TwigQuery, bool)> {
    let stride = positives.len() / negatives.len().max(1);
    let mut negatives = negatives.iter();
    let mut out = Vec::with_capacity(positives.len() + negatives.len());
    for (i, query) in positives.iter().enumerate() {
        out.push((query, true));
        if stride > 0 && (i + 1) % stride == 0 {
            out.extend(negatives.next().map(|q| (q, false)));
        }
    }
    out.extend(negatives.map(|q| (q, false)));
    out
}
