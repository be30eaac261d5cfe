//! `compare A.json B.json`: B's verdict against A for every (end-to-end
//! metric, workload) pair under the bounds of `BENCHMARK.json`, plus an
//! exact match of every value that must repeat for a seed.

use std::collections::BTreeMap;

use axqa_harness::json::{parse, Json};

/// The printed comparison and whether every pair passed.
#[derive(Debug)]
pub struct Comparison {
    /// One line per checked pair.
    pub text: String,
    /// No metric's median worsened past its bound, every run succeeded,
    /// and every deterministic value matched in every run.
    pub passed: bool,
}

fn object<'j>(json: &'j Json, what: &str) -> Result<&'j BTreeMap<String, Json>, String> {
    match json {
        Json::Object(map) => Ok(map),
        _ => Err(format!("{what} is not a JSON object")),
    }
}

/// The runs of each workload in a results file.
fn workloads<'j>(results: &'j Json, side: &str) -> Result<BTreeMap<&'j str, &'j [Json]>, String> {
    let workloads = results
        .get("workloads")
        .ok_or_else(|| format!("{side} has no workloads"))?;
    object(workloads, side)?
        .iter()
        .map(|(name, runs)| match runs.as_array() {
            Some(runs) if !runs.is_empty() => Ok((name.as_str(), runs)),
            _ => Err(format!("{side} has no runs of {name}")),
        })
        .collect()
}

/// The median of a metric over runs.
fn median(runs: &[Json], name: &str) -> Result<f64, String> {
    let mut values = runs
        .iter()
        .map(|run| {
            run.get("metrics")
                .and_then(|metrics| metrics.get(name))
                .and_then(|metric| metric.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a run has no {name}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    values.sort_by(f64::total_cmp);
    let middle = values.len() / 2;
    Ok(if values.len() % 2 == 1 {
        values[middle]
    } else {
        (values[middle - 1] + values[middle]) / 2.0
    })
}

fn render(value: &Json) -> String {
    match value {
        Json::Number(n) => format!("{n}"),
        Json::String(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// Compares two results files (`run` without `--workload` writes them)
/// under the end-to-end bounds of the `BENCHMARK.json` text `spec`.
pub fn compare(a: &str, b: &str, spec: &str) -> Result<Comparison, String> {
    let (a, b, spec) = (parse(a)?, parse(b)?, parse(spec)?);
    let bounds = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (workloads_a, workloads_b) = (workloads(&a, "A")?, workloads(&b, "B")?);
    if workloads_a.keys().ne(workloads_b.keys()) {
        return Err("A and B ran different workloads".into());
    }
    let mut text = format!(
        "{:<15} {:<18} {:>18} {:>18} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "delta", "bound"
    );
    let mut passed = true;
    for (workload, runs_a) in &workloads_a {
        let runs_b = workloads_b[workload];
        let runs: Vec<&Json> = runs_a.iter().chain(runs_b).collect();
        if runs
            .iter()
            .any(|run| run.get("correct") != Some(&Json::Bool(true)))
        {
            passed = false;
            text += &format!("{workload:<15} a run had failed requests  FAIL\n");
        }
        for bound in bounds {
            let name = bound
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let limit = bound
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower_is_better = bound.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (median(runs_a, name)?, median(runs_b, name)?);
            let delta = (vb - va) / va;
            let worse = if lower_is_better { delta } else { -delta };
            let ok = worse <= limit;
            passed &= ok;
            text += &format!(
                "{workload:<15} {name:<18} {va:>18.4} {vb:>18.4} {:>+8.2}% {:>6.1}%  {}\n",
                100.0 * delta,
                100.0 * limit,
                if ok { "ok" } else { "REGRESSION" }
            );
        }
        let blocks: Vec<&Json> = runs
            .iter()
            .filter_map(|run| run.get("deterministic"))
            .collect();
        let first = blocks
            .first()
            .filter(|_| blocks.len() == runs.len())
            .ok_or("a run has no deterministic block")?;
        for (name, value) in object(first, "deterministic")? {
            let same = blocks.iter().all(|block| block.get(name) == Some(value));
            passed &= same;
            text += &format!(
                "{workload:<15} {name:<18} {:>18} {:>37}  {}\n",
                render(value),
                "every run",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(Comparison { text, passed })
}
