//! `bbmark` — run, trace, calibrate and compare the benchmark.
//!
//! ```text
//! bbmark run [--workload W] --seed S [--seconds T] [--trace 0|1]
//!            [--smoke] [--repeat N] [--out FILE]
//! bbmark trace [--workload W] [--seed S] [--spans FILE]
//! bbmark calibrate [--workload W] [--seed S]
//! bbmark compare A.json B.json
//! ```
//!
//! `run` without `--workload` runs all four. Every run prints its
//! metrics by name with units, then — as the last line of stdout — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only when every answer of every run checked out
//! and the emitted metrics are exactly those `BENCHMARK.json` declares
//! — a metric that could not be measured is withheld, so it fails that
//! check rather than being printed as 0.

use std::path::PathBuf;
use std::process::ExitCode;

use bbmark::report::{compare, Manifest, RunFile};
use bbmark::run::{calibrate, run, Opts};
use bbmark::workload::{Spec, WORKLOADS};

#[global_allocator]
static ALLOC: bbmark::trace::CountingAlloc = bbmark::trace::CountingAlloc;

/// Share by which a per-layer metric must move for `compare` to call
/// it better or worse; they carry no bound of their own.
const LAYER_BOUND: f64 = 0.10;

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            None if self.0.iter().any(|a| a == key) => Err(format!("`{key}` needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("`{key} {v}` is not valid")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    /// Refuses flags the subcommand does not know, instead of guessing.
    fn only(&self, valued: &[&str], flags: &[&str]) -> Result<(), String> {
        let mut it = self.0.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                it.next();
            } else if a.starts_with("--") && !flags.contains(&a.as_str()) {
                return Err(format!("unknown flag `{a}`"));
            }
        }
        Ok(())
    }

    fn workloads(&self) -> Result<Vec<String>, String> {
        match self.value("--workload") {
            Some(w) if Spec::named(w, false).is_some() => Ok(vec![w.to_string()]),
            Some(w) => Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}")),
            None => Ok(WORKLOADS.iter().map(ToString::to_string).collect()),
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let result = match sub.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "calibrate" => cmd_calibrate(&args),
        "compare" => cmd_compare(&args),
        _ => {
            Err("usage: bbmark <run|trace|calibrate|compare> ... (see benchmark/README.md)".into())
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bbmark: {msg}");
            ExitCode::from(64)
        }
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    args.only(
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--repeat",
            "--out",
        ],
        &["--smoke"],
    )?;
    let manifest = Manifest::load()?;
    let smoke = args.flag("--smoke");
    let seed: u64 = args.parsed("--seed")?.ok_or("`run` needs --seed")?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("`--trace {other}`: 0 or 1")),
    };
    let seconds: f64 =
        args.parsed("--seconds")?
            .unwrap_or(if smoke { 4.0 } else { manifest.run_seconds });
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    let repeat: u64 = args.parsed("--repeat")?.unwrap_or(1);
    let mut file = RunFile::default();
    let mut ok = true;
    for r in 0..repeat {
        for workload in args.workloads()? {
            let opts = Opts {
                workload,
                seed: seed + r,
                seconds,
                trace,
                smoke,
            };
            let outcome = run(&opts).map_err(|e| format!("{}: {e}", opts.workload))?;
            let problems = manifest.check(&outcome);
            for p in &problems {
                eprintln!("bbmark: self-check: {p}");
            }
            ok &= outcome.correct && problems.is_empty();
            print!("{}", outcome.table());
            println!("{}", outcome.result_line());
            file.runs.push(outcome);
        }
    }
    if let Some(path) = args.value("--out") {
        std::fs::write(path, serde::json::to_string_pretty(&file))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(ok)
}

fn cmd_trace(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed", "--spans"], &[])?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let events = bbmark::layers::TRACE_EVENTS;
    let spans = args.value("--spans").map(PathBuf::from);
    for workload in args.workloads()? {
        let spec = Spec::named(&workload, false).expect("validated");
        let scratch = bbmark::run::TempDir::new("trace").map_err(|e| e.to_string())?;
        let layers = bbmark::trace::layers(&spec, seed, events, scratch.path(), spans.as_deref())
            .map_err(|e| format!("{workload}: {e}"))?;
        drop(scratch);
        println!(
            "== {workload} seed {seed}: {events} events traced, overhead {:.1} % ==",
            100.0 * layers.overhead_frac
        );
        println!(
            "  {:<24} {:>10} {:>14} {:>12}",
            "layer.op", "calls", "self ns (p50)", "allocs/call"
        );
        for (name, s) in &layers.stat {
            println!(
                "  {name:<24} {:>10} {:>14.0} {:>12.3}",
                s.calls, s.self_ns_median, s.self_allocs_mean
            );
        }
    }
    Ok(true)
}

fn cmd_calibrate(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed"], &[])?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    for workload in args.workloads()? {
        print!(
            "{}",
            calibrate(&workload, seed).map_err(|e| format!("{workload}: {e}"))?
        );
    }
    Ok(true)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("usage: bbmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde::json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let manifest = Manifest::load()?;
    let (table, any_worse) = compare(&manifest, &load(a)?, &load(b)?, LAYER_BOUND);
    print!("{table}");
    Ok(!any_worse)
}
