//! The requests a client sends, each one call sequence of the `axqa`
//! CLI wrapped in benchmark-owned spans (one per layer called), and the
//! [`Runner`] that times them and checks every output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use axqa_core::{
    estimate_selectivity, eval_query_with_scratch, try_ts_build, BuildConfig, BuildReport,
    EvalConfig, EvalScratch, TreeSketch,
};
use axqa_obs::span;

use crate::inputs::{Inputs, Twig};
use crate::Spec;

/// Names of the benchmark's request spans (the roots of every traced
/// request; see `layers`).
pub(crate) const REQUEST_SPANS: [&str; 3] = ["summarize", "load", "estimate"];

/// What `axqa summarize` produces.
struct Summary {
    text: String,
    report: BuildReport,
    elements: usize,
}

/// `axqa summarize`: parse → BUILDSTABLE → TSBUILD → save. The document
/// and stable summary are dropped inside the request.
fn summarize(xml: &str, config: &BuildConfig) -> Result<Summary, String> {
    let _request = span("summarize");
    let doc = {
        let _layer = span("xml.parse_document");
        axqa_xml::parse_document(xml).map_err(|e| format!("parse_document: {e}"))?
    };
    let stable = {
        let _layer = span("synopsis.build_stable");
        axqa_synopsis::build_stable(&doc)
    };
    let report = {
        let _layer = span("core.try_ts_build");
        try_ts_build(&stable, config).map_err(|e| format!("try_ts_build: {e}"))?
    };
    let text = {
        let _layer = span("core.io.to_text");
        axqa_core::io::to_text(&report.sketch)
    };
    Ok(Summary {
        text,
        report,
        elements: doc.len(),
    })
}

/// Loading a saved sketch, as `axqa estimate` does first.
fn load(text: &str) -> Result<TreeSketch, String> {
    let _request = span("load");
    let _layer = span("core.io.from_text");
    axqa_core::io::from_text(text).map_err(|e| format!("from_text: {e}"))
}

/// `axqa estimate` against a loaded sketch: parse the twig → EVALQUERY →
/// §4.4 selectivity. `None` is EVALQUERY's empty answer (estimate 0).
fn estimate(
    text: &str,
    sketch: &TreeSketch,
    config: &EvalConfig,
    scratch: &mut EvalScratch,
) -> Result<Option<f64>, String> {
    let _request = span("estimate");
    let query = {
        let _layer = span("query.parse_twig");
        axqa_query::parse_twig(text).map_err(|e| format!("parse_twig: {e}"))?
    };
    let result = {
        let _layer = span("core.eval");
        eval_query_with_scratch(sketch, &query, config, None, scratch)
    };
    Ok(result.map(|result| {
        let _layer = span("core.selectivity");
        estimate_selectivity(&result, &query)
    }))
}

/// A long-lived estimator: the loaded sketch and one reused scratch.
struct Server {
    sketch: TreeSketch,
    scratch: EvalScratch,
}

/// Latencies of successful requests. A run repeats one fixed sweep of
/// requests; a request's slot is its position in the sweep, and every
/// slot keeps the fastest time it took over the sweeps.
#[derive(Default)]
pub(crate) struct Timings {
    /// Fastest time of each slot, ms (infinite until one succeeds).
    fastest: Vec<f64>,
    /// Every successful request's time, ms, in order.
    pub all: Vec<f64>,
}

impl Timings {
    fn record(&mut self, slot: usize, ms: f64) {
        if self.fastest.len() <= slot {
            self.fastest.resize(slot + 1, f64::INFINITY);
        }
        self.fastest[slot] = self.fastest[slot].min(ms);
        self.all.push(ms);
    }

    /// The fastest time of every slot that succeeded at least once, ms.
    pub fn fastest(&self) -> Vec<f64> {
        self.fastest
            .iter()
            .copied()
            .filter(|ms| ms.is_finite())
            .collect()
    }
}

/// Issues the requests of one workload, times each, and checks each
/// output. A request that errs, panics or returns a wrong output is
/// counted in `failed` and its time is discarded.
pub(crate) struct Runner<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    build: BuildConfig,
    eval: EvalConfig,
    server: Option<Server>,
    /// Rounds of the current sweep already run.
    round_in_sweep: usize,
    pub attempted: u64,
    pub failed: u64,
    pub empty_answers: u64,
}

impl<'a> Runner<'a> {
    pub fn new(spec: &'a Spec, inputs: &'a Inputs) -> Runner<'a> {
        Runner {
            spec,
            inputs,
            build: spec.build_config(),
            eval: EvalConfig::default(),
            server: None,
            round_in_sweep: 0,
            attempted: 0,
            failed: 0,
            empty_answers: 0,
        }
    }

    /// One set-up pass: a serving workload loads the reference sketch
    /// into a fresh server; then one untimed summarize (when the workload
    /// summarizes) and the fixed warm-up estimates (when it serves).
    pub fn set_up(&mut self) -> Result<(), String> {
        let inputs = self.inputs;
        let untimed = &mut Timings::default();
        self.server = None;
        if self.spec.serves() {
            self.load_request(&inputs.sketch, 0, untimed);
            if self.server.is_none() {
                return Err("the reference sketch does not load".into());
            }
        }
        if self.spec.summarize {
            self.summarize_request(0, untimed);
        }
        for twig in &inputs.warmup {
            self.estimate_request(twig, 0, untimed);
        }
        Ok(())
    }

    /// One round: a summarize (and, when serving, a reload of its
    /// output), then the round's share of the served twigs. A sweep is
    /// `spec.rounds_per_sweep` rounds and serves every twig once.
    pub fn round(&mut self, timings: &mut Timings) {
        let (round, rounds) = (self.round_in_sweep, self.spec.rounds_per_sweep);
        self.round_in_sweep = (round + 1) % rounds;
        let twigs = &self.inputs.twigs;
        let (first, end) = (
            twigs.len() * round / rounds,
            twigs.len() * (round + 1) / rounds,
        );
        let writes = usize::from(self.spec.summarize) * (1 + usize::from(self.spec.serves()));
        let mut slot = round * writes + first;
        if self.spec.summarize {
            let written = self.summarize_request(slot, timings);
            slot += 1;
            if self.spec.serves() {
                if let Some(text) = written {
                    self.load_request(&text, slot, timings);
                }
                slot += 1;
            }
        }
        for twig in &twigs[first..end] {
            self.estimate_request(twig, slot, timings);
            slot += 1;
        }
    }

    fn summarize_request(&mut self, slot: usize, timings: &mut Timings) -> Option<String> {
        self.attempted += 1;
        let clock = Instant::now();
        let outcome = catch_unwind(|| summarize(&self.inputs.xml, &self.build));
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let problem = match outcome {
            Err(_) => "panicked".to_string(),
            Ok(Err(error)) => error,
            Ok(Ok(summary)) => match self.check_summary(&summary) {
                Ok(()) => {
                    timings.record(slot, ms);
                    return Some(summary.text);
                }
                Err(problem) => problem,
            },
        };
        self.fail(format!("summarize: {problem}"));
        None
    }

    fn check_summary(&self, summary: &Summary) -> Result<(), String> {
        let report = &summary.report;
        if report.sketch.total_elements() != summary.elements as u64 {
            return Err(format!(
                "sketch holds {} elements, the document {}",
                report.sketch.total_elements(),
                summary.elements
            ));
        }
        if report.reached_budget && report.final_bytes > self.spec.budget_bytes() {
            return Err(format!(
                "{} bytes exceed the {}-byte budget",
                report.final_bytes,
                self.spec.budget_bytes()
            ));
        }
        let reloaded = axqa_core::io::from_text(&summary.text)
            .map_err(|e| format!("output does not load: {e}"))?;
        if axqa_core::io::to_text(&reloaded) != summary.text {
            return Err("to_text → from_text → to_text changed the sketch text".into());
        }
        if summary.text != self.inputs.sketch {
            return Err("sketch text differs from the reference build".into());
        }
        Ok(())
    }

    /// Loads `text` and serves from it; the server keeps its scratch.
    fn load_request(&mut self, text: &str, slot: usize, timings: &mut Timings) {
        self.attempted += 1;
        let clock = Instant::now();
        let outcome = catch_unwind(|| load(text));
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(Ok(sketch)) => {
                timings.record(slot, ms);
                match &mut self.server {
                    Some(server) => server.sketch = sketch,
                    None => {
                        self.server = Some(Server {
                            sketch,
                            scratch: EvalScratch::new(),
                        });
                    }
                }
            }
            Ok(Err(error)) => self.fail(format!("load: {error}")),
            Err(_) => self.fail("load: panicked".into()),
        }
    }

    fn estimate_request(&mut self, twig: &Twig, slot: usize, timings: &mut Timings) {
        self.attempted += 1;
        let server = self
            .server
            .as_mut()
            .expect("set-up loads a sketch before the first estimate");
        let eval = &self.eval;
        let clock = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            estimate(&twig.text, &server.sketch, eval, &mut server.scratch)
        }));
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let problem = match outcome {
            Err(_) => "panicked".to_string(),
            Ok(Err(error)) => error,
            Ok(Ok(answer)) => {
                self.empty_answers += u64::from(answer.is_none());
                let value = answer.unwrap_or(0.0);
                if value.to_bits() != twig.reference.to_bits() {
                    format!(
                        "estimate {value} differs from the reference {}",
                        twig.reference
                    )
                } else if twig.positive && value <= 0.0 {
                    "a positive twig got an empty estimate".to_string()
                } else {
                    timings.record(slot, ms);
                    return;
                }
            }
        };
        self.fail(format!("estimate of {:?}: {problem}", twig.text));
    }

    /// Counts a failed request; the first five are printed.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED {problem}");
        }
    }
}
