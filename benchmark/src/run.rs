//! One run of one workload against a real daemon process: set-up,
//! timed phases, correctness checks, validity guards, metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::affinity::{self, Partition};
use crate::driver::{Driver, Pace, Phase};
use crate::proc::{self, Host, Usage};
use crate::report::Outcome;
use crate::stats;
use crate::verify;
use crate::workload::{Service, Spec};

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// Measuring time, split evenly over the timed phases.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of end-to-end.
    pub trace: bool,
    /// Shrunk domain, for tests: not for claims.
    pub smoke: bool,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One set-up: daemon spawned, handshake read, population admitted.
struct Setup {
    host: Host,
    driver: Driver,
    fill: Phase,
    /// Spawn → last fill answer, seconds.
    secs: f64,
    /// Daemon RSS growth over the fill per resident flow, bytes.
    rss_per_flow: f64,
    /// After `host`, so the daemon is gone before its journal is.
    data_dir: Option<TempDir>,
}

/// A scratch directory of this call's own beside the running binary —
/// so everything the benchmark writes stays inside the build directory
/// of its checkout — deleted when dropped, whichever way its user
/// returns.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory. Process id plus a counter name it, so
    /// concurrent callers (the smoke tests share one process) never
    /// get, or delete, each other's.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut dir = std::env::current_exe()?;
        dir.pop();
        dir.push(format!(
            "bbmark-tmp-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// Where it is.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(spec: &Spec, opts: &Opts, cores: Option<&Partition>) -> io::Result<Setup> {
    let data_dir = if spec.durable {
        Some(TempDir::new("data")?)
    } else {
        None
    };
    let t0 = Instant::now();
    let host = Host::spawn(
        spec.name,
        opts.smoke,
        data_dir.as_ref().map(TempDir::path),
        cores.map(|p| &p.daemon),
    )?;
    let before = host.usage()?;
    let mut driver = Driver::connect(spec, opts.seed, &host.ready.addr)?;
    let fill = driver.fill()?;
    let secs = t0.elapsed().as_secs_f64();
    let after = host.usage()?;
    let resident = driver.resident().max(1);
    Ok(Setup {
        host,
        driver,
        fill,
        secs,
        rss_per_flow: after.rss_bytes.saturating_sub(before.rss_bytes) as f64 / resident as f64,
        data_dir,
    })
}

/// CPU the daemon burned between two samples, microseconds.
fn cpu_us(a: &Usage, b: &Usage) -> f64 {
    (b.utime_us - a.utime_us) + (b.stime_us - a.stime_us)
}

/// Runs the workload and reports. Infrastructure failures (spawn,
/// socket) are errors; wrong answers are counted in the outcome.
///
/// # Errors
///
/// Spawn, socket, or `/proc` failures.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    let spec = Spec::named(&opts.workload, opts.smoke)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown workload"))?;
    let mut out = Outcome {
        workload: spec.name.into(),
        seed: opts.seed,
        trace: opts.trace,
        seconds: opts.seconds,
        smoke: opts.smoke,
        ..Outcome::default()
    };
    // Generator on the first core, daemon on the rest (see
    // `affinity`); undone on every way out so the next run, and the
    // verification threads, see all cores again.
    let cores = partition();
    environment_notes(&spec, cores.as_ref(), &mut out);
    let result = if opts.trace {
        crate::layers::run(&spec, opts, cores.as_ref(), &mut out)
    } else {
        end_to_end(&spec, opts, cores.as_ref(), &mut out)
    };
    if let Some(p) = &cores {
        affinity::set(&p.all)?;
    }
    result.map(|()| out)
}

/// Splits the allowed cores and pins this thread to the generator's.
/// `None` — nothing pinned — with a single core, or where the kernel
/// refuses (a restricted cpuset): the run proceeds and says so.
fn partition() -> Option<Partition> {
    affinity::get()
        .ok()
        .and_then(Partition::of)
        .filter(|p| affinity::set(&p.generator).is_ok())
}

fn environment_notes(spec: &Spec, cores: Option<&Partition>, out: &mut Outcome) {
    // Counted from the start-up mask: this thread is already pinned, and
    // `available_parallelism` would answer 1.
    let nproc = cores.map_or_else(
        || std::thread::available_parallelism().map_or(1, usize::from),
        |p| p.all.iter().map(|w| w.count_ones() as usize).sum(),
    );
    let load = proc::loadavg_1m();
    // The load average remembers the previous run for a minute; what
    // matters is what else is running now.
    let busy = proc::busy_cores(Duration::from_millis(200));
    out.notes.push(format!(
        "daemon in its own process (workers=2 io_threads=1 queue_depth=1024, telemetry on); \
         generator: 1 process, 1 netpoll thread, 2 connections, window {}; loopback TCP; {}",
        crate::workload::WINDOW,
        if cores.is_some() {
            "generator pinned to the first core, daemon to the others"
        } else {
            "nothing pinned (one core, or affinity refused)"
        }
    ));
    out.notes.push(format!(
        "nproc {nproc}, build profile {}, git rev {}, loadavg(1m) {load:.2}, busy cores at start {busy:.2}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev()
    ));
    out.notes.push(format!(
        "frozen: r_fixed {}/s, {} pods x {} hops at {} b/s, {:.0} Erlangs/pod",
        spec.r_fixed,
        spec.pods,
        crate::workload::HOPS,
        spec.capacity.as_bps(),
        spec.erlangs_per_pod
    ));
    if spec.durable {
        let dir = std::env::current_exe().unwrap_or_default();
        out.notes.push(format!(
            "journal on {} (wal_flush 5 ms, snapshot_every {})",
            proc::fs_type(dir.parent().unwrap_or(&dir)),
            crate::workload::SNAPSHOT_EVERY
        ));
    }
    if busy > nproc as f64 / 2.0 {
        out.invalid.push(format!(
            "{busy:.2} cores busy at start > nproc/2 = {:.1}",
            nproc as f64 / 2.0
        ));
    }
}

/// The checkout's revision, when it is a git checkout at all (the
/// acceptance driver's is not).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn end_to_end(
    spec: &Spec,
    opts: &Opts,
    cores: Option<&Partition>,
    out: &mut Outcome,
) -> io::Result<()> {
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut secs = Vec::new();
    let mut rss = Vec::new();
    let mut live = None;
    // Rehearsal journals are kept until this function returns: freeing
    // their blocks makes ext4 commit, and an fsync behind that commit
    // stalls the daemon's `append` for tens of milliseconds.
    let mut spent: Vec<Option<TempDir>> = Vec::new();
    for i in 0..setups {
        let s = setup(spec, opts, cores)?;
        secs.push(s.secs);
        rss.push(s.rss_per_flow);
        if i + 1 < setups {
            // A rehearsal: its only product is the timing.
            let Setup { host, data_dir, .. } = s;
            host.kill();
            spent.push(data_dir);
        } else {
            live = Some(s);
        }
    }
    let Setup {
        host,
        mut driver,
        fill,
        data_dir,
        ..
    } = live.expect("at least one set-up");
    // Declared before the daemon, so dropped after it on every way out.
    spent.push(data_dir);

    let half = opts.seconds / 2.0;
    let mut fixed = driver.phase(Pace::Open { speed: 1.0 }, half)?;
    let cpu0 = host.usage()?;
    let sat = driver.phase(Pace::Closed, half)?;
    let cpu1 = host.usage()?;

    // A value that was not measured — a window too thin for its
    // percentile, a phase that answered nothing — is `None` and is not
    // emitted: the self-check then fails the run instead of a zero
    // passing for the best latency there is.
    let sat_rate = stats::median(&sat.latency.rates());
    out.put("setup_s", "s", stats::median(&secs));
    out.put("setup_p50_us", "us", fixed.latency.quantile_us(0.50));
    out.put("setup_p95_us", "us", fixed.latency.quantile_us(0.95));
    out.put("sat_decisions_per_s", "1/s", sat_rate);
    out.put(
        "cpu_us_per_decision",
        "us",
        (sat.answered > 0).then(|| cpu_us(&cpu0, &cpu1) / sat.answered as f64),
    );
    out.put("rss_bytes_per_flow", "B", stats::median(&rss));

    out.notes.push(format!(
        "fixed: {} REQs, {} refused ({:.2} %); sat: {} REQs, {} refused ({:.2} %); \
         set-ups {secs:.3?} s",
        fixed.answered,
        fixed.refused,
        100.0 * fixed.refused as f64 / fixed.answered.max(1) as f64,
        sat.answered,
        sat.refused,
        100.0 * sat.refused as f64 / sat.answered.max(1) as f64,
    ));
    guard_open_loop("fixed", &fixed, out);
    if let Some(rate) = sat_rate.filter(|r| *r < 1.3 * spec.r_fixed) {
        out.invalid.push(format!(
            "sat_decisions_per_s {rate:.0} < 1.3 x r_fixed {}: the fixed rate is capacity-bound",
            spec.r_fixed
        ));
    }

    out.attempted = fill.sent + fixed.sent + sat.sent;
    out.failed = fill.failures.total() + fixed.failures.total() + sat.failures.total();
    if out.failed > 0 {
        out.notes.push(format!(
            "FAILURES: fill {:?}, fixed {:?}, sat {:?}",
            fill.failures, fixed.failures, sat.failures
        ));
    }
    finish(spec, opts, cores, host, driver, out)
}

/// Marks the run invalid when the generator itself ran late in an
/// open-loop phase: then latencies measure the generator.
pub(crate) fn guard_open_loop(name: &str, phase: &Phase, out: &mut Outcome) {
    let lags = &phase.send_lag_ns;
    let us = |ns: u32| f64::from(ns) / 1e3;
    let (Some(mid), Some(max)) = (lags.get(lags.len() / 2), lags.last()) else {
        return;
    };
    let p99 = stats::percentile_sorted(lags, 0.99).map(us);
    out.notes.push(format!(
        "`{name}`: the generator sent its {} REQs late by p50 {:.0} us, p99 {} us, max {:.0} us",
        lags.len(),
        us(*mid),
        p99.map_or_else(|| "(too few)".into(), |l| format!("{l:.0}")),
        us(*max)
    ));
    if let Some(lag_us) = p99.filter(|l| *l > 1_000.0) {
        out.invalid.push(format!(
            "client.send_lag_p99_us {lag_us:.0} > 1000 in `{name}`"
        ));
    }
}

/// The closing checks shared by both modes: the decisions themselves
/// (serial replay, or the class invariants), then the daemon's own
/// final accounting against the client's.
pub(crate) fn finish(
    spec: &Spec,
    opts: &Opts,
    cores: Option<&Partition>,
    host: Host,
    mut driver: Driver,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut problems: Vec<String> = Vec::new();
    if let Some(p) = cores {
        // Timing is over; the replay threads may use every core.
        affinity::set(&p.all)?;
    }
    let expect_resident = match spec.service {
        Service::PerFlow(_) => {
            let replay = verify::replay(spec, opts.seed, &driver.log());
            out.failed += replay.mismatches;
            problems.extend(replay.examples.iter().cloned());
            out.notes.push(format!(
                "verified {} DECs flow for flow against a serial broker: {} mismatches",
                replay.compared, replay.mismatches
            ));
            replay.resident
        }
        Service::Class(_) => {
            // Joins acknowledged minus leaves sent must be the members
            // the daemon's class directory counts. DRQs are not
            // acknowledged before they commit, so give the workers a
            // moment to drain their queues.
            let want = driver.resident();
            let mut members = 0;
            for _ in 0..100 {
                members = host.stats()?.classes.iter().map(|(_, u)| u.members).sum();
                if members == want {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            if members != want {
                problems.push(format!(
                    "class directory counts {members} members, client holds {want}"
                ));
            }
            out.failed += driver.leave_all()?.total();
            // Every leave's grant was reported drained, so nothing may
            // stay reserved: the full residual is back.
            let mut left = (u64::MAX, u64::MAX);
            for _ in 0..100 {
                let classes = host.stats()?.classes;
                left = classes
                    .iter()
                    .fold((0, 0), |(m, r), (_, u)| (m + u.members, r + u.reserved_bps));
                if left == (0, 0) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            if left != (0, 0) {
                problems.push(format!(
                    "after the final drain {} members and {} b/s stay reserved",
                    left.0, left.1
                ));
            }
            out.notes.push(format!(
                "class invariants: {want} members matched the directory; after every member \
                 left, {} members and {} b/s remained",
                left.0, left.1
            ));
            0
        }
    };
    drop(driver);
    let report = host.shutdown()?;
    let field = |k: &str| {
        report
            .field(k)
            .and_then(serde::json::Value::as_u64)
            .unwrap_or(u64::MAX)
    };
    if field("resident_flows") != expect_resident {
        problems.push(format!(
            "daemon reports {} resident flows at shutdown, expected {expect_resident}",
            field("resident_flows")
        ));
    }
    out.failed += problems.len() as u64;
    for p in problems {
        out.notes.push(format!("CHECK FAILED: {p}"));
    }
    out.correct = out.failed == 0;
    Ok(())
}

/// Calibration runs per workload; the constants to freeze come from
/// their medians.
const CALIBRATION_RUNS: u64 = 3;

/// The calibrate-then-freeze procedure's measuring half: per workload,
/// three fresh daemons, each filled, saturated for ten seconds and —
/// where the workload has a knee bracket — searched with six probes of
/// four seconds. Prints the medians and the constants they imply; a
/// person copies those into [`Spec::named`] and re-measures the bounds.
///
/// # Errors
///
/// Spawn or socket failures.
pub fn calibrate(workload: &str, seed: u64) -> io::Result<String> {
    use std::fmt::Write as _;
    let spec = Spec::named(workload, false)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown workload"))?;
    let cores = partition();
    let mut sats = Vec::new();
    let mut knees = Vec::new();
    let mut text = format!("== calibrate {workload} ==\n");
    for r in 0..CALIBRATION_RUNS {
        let opts = Opts {
            workload: workload.into(),
            seed: seed + r,
            seconds: 0.0,
            trace: false,
            smoke: false,
        };
        let Setup {
            host,
            mut driver,
            data_dir,
            ..
        } = setup(&spec, &opts, cores.as_ref())?;
        let sat = driver.phase(Pace::Closed, 10.0)?;
        let rate = stats::median(&sat.latency.rates()).unwrap_or(0.0);
        sats.push(rate);
        let _ = write!(text, "  run {r}: sat {rate:.0}/s");
        if spec.knee_bracket.1 > 0.0 {
            let (knee, at_end) = crate::layers::knee(&spec, &mut driver, 6, 4.0)?;
            knees.push(knee);
            let _ = write!(
                text,
                ", knee {knee:.0}/s{}",
                if at_end {
                    " (AT AN END OF THE BRACKET)"
                } else {
                    ""
                }
            );
        }
        text.push('\n');
        drop(driver);
        host.kill();
        drop(data_dir);
    }
    if let Some(p) = &cores {
        affinity::set(&p.all)?;
    }
    let sat = stats::median(&sats).unwrap_or(0.0);
    let base = stats::median(&knees).unwrap_or(sat);
    let r_fixed = (0.5 * base / 1e3).floor() * 1e3;
    let _ = writeln!(
        text,
        "  median sat {sat:.0}/s; freeze r_fixed = 0.5 x {base:.0} rounded down to 1k = {r_fixed:.0}/s \
         (currently {})",
        spec.r_fixed
    );
    if let Some(knee) = stats::median(&knees) {
        let _ = writeln!(
            text,
            "  median knee {knee:.0}/s; freeze bracket ({:.0}, {:.0}), r_over {:.0}/s \
             (currently {:?}, {})",
            0.5 * knee,
            1.5 * knee,
            2.0 * knee,
            spec.knee_bracket,
            spec.r_over
        );
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_directories_are_per_call_and_go_on_drop() {
        let (a, b) = (TempDir::new("t").unwrap(), TempDir::new("t").unwrap());
        assert_ne!(a.path(), b.path());
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists() && b.path().is_dir());
    }
}
