//! What a run reports: named metrics with units, the contract's result
//! line, the self-check against `BENCHMARK.json`, and the comparison of
//! two sets of runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use serde::json::Value;
use serde::{Deserialize, Serialize};

use crate::stats;

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The value, as measured.
    pub value: f64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Seed the traffic was generated from.
    pub seed: u64,
    /// Per-layer (traced) run rather than end-to-end.
    pub trace: bool,
    /// Measuring time asked for, seconds.
    pub seconds: f64,
    /// Shrunk domain and phases: not for claims.
    pub smoke: bool,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Requests attempted in the checked phases.
    pub attempted: u64,
    /// Failures and mismatches among them.
    pub failed: u64,
    /// Every answer checked out and every invariant held.
    pub correct: bool,
    /// Why the run's numbers should not be trusted (validity guards);
    /// empty for a valid run.
    pub invalid: Vec<String>,
    /// Context: environment, frozen constants, side observations.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric that was measured. A value that was withheld
    /// (`None`: too few samples for the percentile, nothing to divide
    /// by) or is not a number is **not** emitted — a zero would read as
    /// the best latency there is — and the run is marked invalid; the
    /// self-check against `BENCHMARK.json` then fails it.
    pub fn put(&mut self, name: &str, unit: &str, value: impl Into<Option<f64>>) {
        match value.into().filter(|v| v.is_finite()) {
            Some(value) => self.metrics.push(Metric {
                name: name.into(),
                unit: unit.into(),
                value,
            }),
            None => self
                .invalid
                .push(format!("`{name}` was not measured: too few samples")),
        }
    }

    /// The contract's last stdout line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table: every metric by name with its unit.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} {} ({} s{}) ==\n",
            self.workload,
            self.seed,
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            },
            self.seconds,
            if self.smoke {
                ", SMOKE: not for claims"
            } else {
                ""
            }
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        if self.invalid.is_empty() {
            out.push_str("  valid: yes\n");
        }
        for r in &self.invalid {
            let _ = writeln!(out, "  INVALID: {r}");
        }
        out
    }
}

/// A float with all its digits. Finite: [`Outcome::put`] admits nothing
/// else, and JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// `end_to_end` metrics.
    pub end_to_end: Vec<Declared>,
    /// `per_layer` metrics.
    pub per_layer: Vec<Declared>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

impl Manifest {
    /// Loads `BENCHMARK.json` from the working directory (how the
    /// acceptance driver runs us) or from beside the benchmark's own
    /// directory (how `cargo test` does).
    ///
    /// # Errors
    ///
    /// A message naming what is missing or malformed.
    pub fn load() -> Result<Manifest, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")),
        ];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or("BENCHMARK.json not found")?;
        let v = serde::json::parse(&text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            let Value::Arr(items) = v.field(key).map_err(|e| e.to_string())? else {
                return Err(format!("`{key}` is not an array"));
            };
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| match m.field(k) {
                        Ok(Value::Str(s)) => Ok(s.clone()),
                        _ => Err(format!("`{key}` entry lacks `{k}`")),
                    };
                    Ok(Declared {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.field("bound").ok().and_then(|b| b.as_f64().ok()),
                    })
                })
                .collect()
        };
        let Value::Arr(workloads) = v.field("workloads").map_err(|e| e.to_string())? else {
            return Err("`workloads` is not an array".into());
        };
        Ok(Manifest {
            workloads: workloads
                .iter()
                .filter_map(|w| match w.field("name") {
                    Ok(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
            run_seconds: v
                .field("run_seconds")
                .and_then(Value::as_f64)
                .map_err(|e| e.to_string())?,
        })
    }

    /// The self-check: the outcome must carry every metric declared for
    /// its mode exactly once, with the declared unit, and nothing else.
    /// Returns the discrepancies.
    #[must_use]
    pub fn check(&self, outcome: &Outcome) -> Vec<String> {
        let declared = if outcome.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut problems = Vec::new();
        if !self.workloads.contains(&outcome.workload) {
            problems.push(format!("workload `{}` is not declared", outcome.workload));
        }
        for d in declared {
            let hits: Vec<&Metric> = outcome
                .metrics
                .iter()
                .filter(|m| m.name == d.name)
                .collect();
            match hits.as_slice() {
                [] => problems.push(format!("declared metric `{}` was not emitted", d.name)),
                [m] if m.unit != d.unit => problems.push(format!(
                    "metric `{}` emitted in `{}`, declared in `{}`",
                    d.name, m.unit, d.unit
                )),
                [_] => {}
                _ => problems.push(format!("metric `{}` emitted {} times", d.name, hits.len())),
            }
        }
        for m in &outcome.metrics {
            if !declared.iter().any(|d| d.name == m.name) {
                problems.push(format!("emitted metric `{}` is not declared", m.name));
            }
        }
        problems
    }
}

/// How a metric of set B stands against set A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// Medians within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either set's own spread exceeds the bound: no call.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides one metric: `a` and `b` are each set's values, `bound` the
/// share of A's median by which B may be worse.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    // A single run has no spread to judge; it can still be compared.
    let wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) || ma == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = if higher_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// A file of outcomes, as `run --out` writes it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunFile {
    /// All runs, in execution order.
    pub runs: Vec<Outcome>,
}

/// `bbmark compare A.json B.json`: one row per workload × metric with
/// each side's median and quartiles and the verdict. Per-layer metrics
/// have no bound; they are judged against `layer_bound`. Runs a
/// validity guard marked invalid are left out, and listed: their
/// numbers were measured under conditions that void them. Returns the
/// table and whether any end-to-end metric came out worse.
#[must_use]
pub fn compare(manifest: &Manifest, a: &RunFile, b: &RunFile, layer_bound: f64) -> (String, bool) {
    type Key = (String, String);
    let mut out = String::new();
    let mut gather = |side: &str, f: &RunFile| -> BTreeMap<Key, Vec<f64>> {
        let mut map: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
        for run in &f.runs {
            if let Some(why) = run.invalid.first() {
                let _ = writeln!(
                    out,
                    "{side}: left out invalid run {} seed {}: {why}",
                    run.workload, run.seed
                );
                continue;
            }
            for m in &run.metrics {
                map.entry((run.workload.clone(), m.name.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
        map
    };
    let (ma, mb) = (gather("A", a), gather("B", b));
    let _ = writeln!(
        out,
        "{:<14} {:<34} {:>12} {:>22} {:>12} {:>22}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]"
    );
    let mut any_worse = false;
    let quart = |v: &[f64]| match stats::quartiles(v) {
        Some([q1, _, q3]) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[n<2]".into(),
    };
    for w in &manifest.workloads {
        for (decl, gate) in manifest
            .end_to_end
            .iter()
            .map(|d| (d, true))
            .chain(manifest.per_layer.iter().map(|d| (d, false)))
        {
            let key = (w.clone(), decl.name.clone());
            let (Some(va), Some(vb)) = (ma.get(&key), mb.get(&key)) else {
                continue;
            };
            let v = verdict(
                va,
                vb,
                decl.higher_is_better,
                decl.bound.unwrap_or(layer_bound),
            );
            any_worse |= gate && v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<34} {:>12.4} {:>22} {:>12.4} {:>22}  {}",
                w,
                decl.name,
                stats::median(va).unwrap_or(f64::NAN),
                quart(va),
                stats::median(vb).unwrap_or(f64::NAN),
                quart(vb),
                v.label()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let lower = [80.0, 81.0, 79.0, 80.5, 80.0];
        // Lower is better (a latency): B at 80 vs A at 100 with a 10 % bound.
        assert_eq!(verdict(&tight_a, &lower, false, 0.10), Verdict::Better);
        assert_eq!(verdict(&lower, &tight_a, false, 0.10), Verdict::Worse);
        // Higher is better (a throughput): the same numbers flip.
        assert_eq!(verdict(&tight_a, &lower, true, 0.10), Verdict::Worse);
        // Inside the bound: same.
        let near = [104.0, 105.0, 103.0, 104.5, 104.0];
        assert_eq!(verdict(&tight_a, &near, false, 0.10), Verdict::Same);
        // A set whose own quartiles are further apart than the bound
        // cannot support a verdict, whatever the medians say.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&tight_a, &noisy, false, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[], &lower, false, 0.10), Verdict::Unresolved);
        // One run a side: comparable, no spread to disqualify it.
        assert_eq!(verdict(&[100.0], &[50.0], false, 0.10), Verdict::Better);
    }

    #[test]
    fn an_unmeasured_value_is_withheld_not_zero() {
        let mut o = Outcome::default();
        o.put("a_us", "us", 1.5);
        o.put("b_us", "us", None);
        o.put("c_us", "us", f64::NAN);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_us"]);
        assert_eq!(o.invalid.len(), 2);
        assert!(!o.result_line().contains("b_us"));
    }

    #[test]
    fn compare_leaves_invalid_runs_out() {
        let decl = Declared {
            name: "lat_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(0.10),
        };
        let manifest = Manifest {
            workloads: vec!["w".into()],
            end_to_end: vec![decl],
            per_layer: Vec::new(),
            run_seconds: 1.0,
        };
        let run = |value: f64, invalid: &[&str]| {
            let mut o = Outcome {
                workload: "w".into(),
                invalid: invalid.iter().map(ToString::to_string).collect(),
                ..Outcome::default()
            };
            o.put("lat_us", "us", value);
            o
        };
        let a = RunFile {
            runs: vec![run(100.0, &[])],
        };
        // The one run that would make B worse was taken on a busy box.
        let b = RunFile {
            runs: vec![run(101.0, &[]), run(500.0, &["3 cores busy at start"])],
        };
        let (table, any_worse) = compare(&manifest, &a, &b, 0.10);
        assert!(!any_worse, "{table}");
        assert!(table.contains("B: left out invalid run w"), "{table}");
        assert!(table.contains("same"), "{table}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            workload: "rate_churn".into(),
            attempted: 10,
            correct: true,
            ..Outcome::default()
        };
        o.put("setup_s", "s", 0.5);
        o.put("sat_decisions_per_s", "1/s", 120000.0);
        let v = serde::json::parse(&o.result_line()).unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.field("metrics").unwrap();
        assert_eq!(
            m.field("setup_s").unwrap().field("value").unwrap().as_f64(),
            Ok(0.5)
        );
        assert_eq!(
            m.field("sat_decisions_per_s")
                .unwrap()
                .field("unit")
                .unwrap(),
            &Value::Str("1/s".into())
        );
    }
}
