#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
// A binary root: printing to the terminal is its job (the workspace
// table denies it in library code).
#![allow(clippy::print_stdout, clippy::print_stderr)]

//! `cargo xtask` — repository automation.
//!
//! The only subcommand is `lint`, a thin CLI over the [`axqa_lint`]
//! engine (DESIGN.md §8 and §10): the nine analyses clippy cannot make
//! (paper citations, determinism dataflow, crate layering, the API,
//! panic and allocation surfaces, hot-path allocation, dead `pub` fns)
//! and the `lint-baseline.toml` ratchet. The process exits nonzero
//! when any non-baselined finding remains.
//!
//! ```text
//! cargo xtask lint [--format text|json|sarif] [--out PATH] [--sarif PATH]
//!                  [--metrics PATH] [--update-baseline] [--update-surfaces]
//! ```
//!
//! `--out PATH` writes the JSON report to PATH regardless of the
//! chosen display format (CI uploads it as an artifact); `--sarif
//! PATH` does the same for the SARIF 2.1.0 log that CI feeds to
//! GitHub code scanning. `--metrics PATH` drains the lint run's own
//! axqa-obs spans (`lint.tokenize`, `lint.parse`, `lint.callgraph`,
//! `lint.rules`, `lint.fixpoint`) into an `axqa-obs/2` metrics file so
//! lint runtime regressions surface like any other phase.
//! `--update-surfaces` rewrites the API, panic and allocation surface
//! snapshots under `lint/`; `--update-baseline` rewrites
//! `lint-baseline.toml`.

use std::process::ExitCode;

use axqa_lint::engine::{self, UpdateFlags};

/// The lint run's `--metrics` spans carry allocation profiles like
/// every other instrumented binary (DESIGN.md §12).
#[global_allocator]
static ALLOC: axqa_obs::alloc::CountingAlloc = axqa_obs::alloc::CountingAlloc;

const USAGE: &str = "usage: cargo xtask lint [--format text|json|sarif] [--out PATH] \
                     [--sarif PATH] [--metrics PATH] [--update-baseline] \
                     [--update-surfaces]";

#[derive(Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

#[derive(Debug)]
struct Args {
    format: Format,
    out: Option<String>,
    sarif: Option<String>,
    metrics: Option<String>,
    update: UpdateFlags,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        format: Format::Text,
        out: None,
        sarif: None,
        metrics: None,
        update: UpdateFlags::default(),
    };
    let mut iter = argv.iter();
    match iter.next().map(String::as_str) {
        Some("lint") => {}
        Some(other) => return Err(format!("unknown subcommand `{other}`\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    }
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--format" => {
                args.format = match iter.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    Some(other) => {
                        return Err(format!(
                            "unknown format `{other}` (text|json|sarif)\n{USAGE}"
                        ))
                    }
                    None => return Err(format!("--format needs a value\n{USAGE}")),
                };
            }
            "--out" => {
                args.out = Some(
                    iter.next()
                        .ok_or_else(|| format!("--out needs a path\n{USAGE}"))?
                        .clone(),
                );
            }
            "--sarif" => {
                args.sarif = Some(
                    iter.next()
                        .ok_or_else(|| format!("--sarif needs a path\n{USAGE}"))?
                        .clone(),
                );
            }
            "--metrics" => {
                args.metrics = Some(
                    iter.next()
                        .ok_or_else(|| format!("--metrics needs a path\n{USAGE}"))?
                        .clone(),
                );
            }
            "--update-baseline" => args.update.baseline = true,
            "--update-surfaces" => args.update.surfaces = true,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    // Record the engine's own spans when metrics are requested.
    let recorder = args.metrics.as_ref().map(|_| {
        let recorder = axqa_obs::Recorder::new();
        recorder.install();
        recorder
    });

    let root = engine::workspace_root()?;
    let outcome = engine::run(&root, args.update)?;

    if let (Some(path), Some(recorder)) = (&args.metrics, &recorder) {
        let snapshot = recorder.drain();
        std::fs::write(path, axqa_obs::export::metrics_json(&snapshot))
            .map_err(|e| format!("write {path}: {e}"))?;
        axqa_obs::uninstall();
    }

    match args.format {
        Format::Text => print!("{}", engine::render_text(&outcome)),
        Format::Json => print!("{}", engine::render_json(&outcome)),
        Format::Sarif => print!("{}", axqa_lint::sarif::render_sarif(&outcome)),
    }
    if let Some(path) = &args.out {
        std::fs::write(path, engine::render_json(&outcome))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &args.sarif {
        std::fs::write(path, axqa_lint::sarif::render_sarif(&outcome))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    for path in &outcome.wrote {
        println!("wrote {path}");
    }
    Ok(outcome.gate_passes())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xtask: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let args = parse_args(&argv(&[
            "lint",
            "--format",
            "json",
            "--out",
            "lint-findings.json",
            "--sarif",
            "lint-findings.sarif",
            "--metrics",
            "lint-metrics.json",
            "--update-baseline",
            "--update-surfaces",
        ]))
        .unwrap();
        assert_eq!(args.format, Format::Json);
        assert_eq!(args.out.as_deref(), Some("lint-findings.json"));
        assert_eq!(args.sarif.as_deref(), Some("lint-findings.sarif"));
        assert_eq!(args.metrics.as_deref(), Some("lint-metrics.json"));
        assert!(args.update.baseline);
        assert!(args.update.surfaces);
    }

    #[test]
    fn parses_sarif_format() {
        let args = parse_args(&argv(&["lint", "--format", "sarif"])).unwrap();
        assert_eq!(args.format, Format::Sarif);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse_args(&argv(&[])).is_err());
        assert!(parse_args(&argv(&["frobnicate"])).is_err());
        assert!(parse_args(&argv(&["lint", "--format", "xml"])).is_err());
        assert!(parse_args(&argv(&["lint", "--nope"])).is_err());
        assert!(parse_args(&argv(&["lint", "--out"])).is_err());
        assert!(parse_args(&argv(&["lint", "--sarif"])).is_err());
        assert!(parse_args(&argv(&["lint", "--metrics"])).is_err());
        // `--update-surfaces` is the only surface update flag.
        for old in [
            "--update-api-surface",
            "--update-panic-surface",
            "--update-alloc-surface",
        ] {
            assert!(parse_args(&argv(&["lint", old])).is_err(), "{old}");
        }
    }

    #[test]
    fn defaults_are_text_and_check_only() {
        let args = parse_args(&argv(&["lint"])).unwrap();
        assert_eq!(args.format, Format::Text);
        assert!(args.out.is_none());
        assert!(args.sarif.is_none());
        assert!(args.metrics.is_none());
        assert!(!args.update.baseline);
        assert!(!args.update.surfaces);
    }
}
