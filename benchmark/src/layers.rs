//! The per-layer run (`--trace 1`): the traced in-process replay, plus
//! read-only observation of an untraced daemon — `GET /stats` and
//! `/proc/<pid>` sampled at phase ends — plus the phases that only one
//! workload has (`knee` and `overload` on `rate_churn`, `restart` on
//! `durable_churn`).

use std::io;
use std::time::{Duration, Instant};

use bb_core::cops::Decision;
use bb_core::signaling::Reject;
use bb_server::{CopsClient, StatsSnapshot};
use bb_telemetry::histogram::HistogramSnapshot;

use crate::affinity::Partition;
use crate::driver::{Driver, Pace, Phase, Seen};
use crate::proc::Host;
use crate::report::Outcome;
use crate::run::{finish, guard_open_loop, Opts, TempDir};
use crate::stats;
use crate::trace::{self, Layers};
use crate::workload::{Spec, TraceGen, CONNS, SLO_P99_US};

/// Events the traced replay pushes through the layers after the fill.
/// Fixed: `ns` and `allocs` taken over different event counts are not
/// comparable between commits.
pub const TRACE_EVENTS: u64 = 200_000;

/// The same for `--smoke`, where the layers are a debug build.
const SMOKE_TRACE_EVENTS: u64 = 20_000;

/// Resident flows re-requested after the `restart` phase's crash.
const RESTART_PROBES: usize = 2_000;

/// Layer operations whose self time a `REQ` waits for, in order: what
/// `residual.unattributed_us` subtracts from the measured set-up p50.
const BLOCKING: [&str; 9] = [
    "cops.encode_request",
    "frame.next_frame",
    "cops.decode_frame",
    "cops.decode_request",
    "shard.commit",
    "durable.append",
    "telemetry.record",
    "cops.encode_decision",
    "cops.decode_decision",
];

/// Bisection for the knee: the highest rate in `[lo, hi]` whose probe
/// passes, to within `(hi - lo) / 2^probes`. Returns the knee and
/// whether it sits on an end of the bracket (no probe passed, or none
/// failed) — a bracket that needs re-freezing.
pub fn bisect(
    bracket: (f64, f64),
    probes: u32,
    mut passes: impl FnMut(f64) -> io::Result<bool>,
) -> io::Result<(f64, bool)> {
    let (mut lo, mut hi) = bracket;
    let (mut any_pass, mut any_fail) = (false, false);
    for _ in 0..probes {
        let mid = (lo + hi) / 2.0;
        if passes(mid)? {
            lo = mid;
            any_pass = true;
        } else {
            hi = mid;
            any_fail = true;
        }
    }
    Ok((lo, !(any_pass && any_fail)))
}

/// A knee probe passes with zero failures, p99 inside the limit, and no
/// more requests in flight at the end than the limit's worth of
/// arrivals — a longer queue is a backlog that was still growing.
fn probe_passes(phase: &Phase, rate: f64) -> bool {
    let p99 = phase.latency.overall_us(0.99);
    phase.failures.total() == 0
        && p99.is_some_and(|p| p <= SLO_P99_US)
        && (phase.backlog as f64) <= rate * SLO_P99_US / 1e6
}

/// Runs the knee search against a filled daemon: `probes` open-loop
/// probes of `probe_s` seconds each.
///
/// # Errors
///
/// Socket failures.
pub fn knee(
    spec: &Spec,
    driver: &mut Driver,
    probes: u32,
    probe_s: f64,
) -> io::Result<(f64, bool)> {
    bisect(spec.knee_bracket, probes, |rate| {
        let phase = driver.phase(
            Pace::Open {
                speed: rate / spec.r_fixed,
            },
            probe_s,
        )?;
        Ok(probe_passes(&phase, rate))
    })
}

/// Count-weighted mean of a histogram's growth between two snapshots.
fn mean_between(a: &HistogramSnapshot, b: &HistogramSnapshot) -> f64 {
    let n = b.count.saturating_sub(a.count);
    if n == 0 {
        return 0.0;
    }
    b.sum_ns.saturating_sub(a.sum_ns) as f64 / n as f64
}

/// Sum of a per-shard counter.
fn shards(s: &StatsSnapshot, f: impl Fn(&bb_telemetry::registry::ShardSnapshot) -> u64) -> u64 {
    s.metrics.shards.iter().map(f).sum()
}

/// Per-shard histograms merged.
fn merged(
    s: &StatsSnapshot,
    f: impl Fn(&bb_telemetry::registry::ShardSnapshot) -> &HistogramSnapshot,
) -> HistogramSnapshot {
    let mut all = HistogramSnapshot::default();
    for shard in &s.metrics.shards {
        all.merge(f(shard));
    }
    all
}

/// The per-layer run of one workload.
///
/// # Errors
///
/// Spawn, socket, `/proc`, or journal I/O failures.
pub fn run(
    spec: &Spec,
    opts: &Opts,
    cores: Option<&Partition>,
    out: &mut Outcome,
) -> io::Result<()> {
    let daemon_cores = cores.map(|p| &p.daemon);
    // Both directories go when this function returns, not before:
    // deleting journals while a daemon is being timed stalls its fsyncs
    // behind the filesystem's own commit.
    let scratch = TempDir::new("trace")?;
    let data_dir = if spec.durable {
        Some(TempDir::new("data")?)
    } else {
        None
    };
    let data_path = data_dir.as_ref().map(TempDir::path);

    // (a) One untraced daemon, observed from outside. Before the
    // traced replay, not after: the replay keeps this thread's core
    // busy for ten seconds, and the scheduler makes a thread with that
    // history wait at its next wake-ups — the open loop then sent 1 %
    // of its first seconds' REQs over a millisecond late.
    let host = Host::spawn(spec.name, opts.smoke, data_path, daemon_cores)?;
    let mut driver = Driver::connect(spec, opts.seed, &host.ready.addr)?;
    let fill = driver.fill()?;
    let quarter = opts.seconds / 4.0;
    let (s0, u0) = (host.stats()?, host.usage()?);
    let mut fixed = driver.phase(Pace::Open { speed: 1.0 }, quarter)?;
    let sat = driver.phase(Pace::Closed, quarter)?;
    let (s1, u1) = (host.stats()?, host.usage()?);
    guard_open_loop("fixed", &fixed, out);
    out.attempted = fill.sent + fixed.sent + sat.sent;
    out.failed = fill.failures.total() + fixed.failures.total() + sat.failures.total();
    let decisions = (fixed.answered + sat.answered).max(1) as f64;

    // Zero stands for "this workload has no such phase"; a phase that
    // ran and could not measure its number reports `None`.
    let mut knee_per_s = 0.0;
    let mut overload = (0.0, Some(0.0));
    let mut recovery_s = 0.0;
    let mut host = host;
    if spec.knee_bracket.1 > 0.0 {
        // Half the budget: four probes, then a fifth of it overloaded.
        let (k, at_end) = knee(spec, &mut driver, 4, opts.seconds / 10.0)?;
        knee_per_s = k;
        if at_end {
            out.invalid.push(format!(
                "knee {k:.0}/s sits on an end of the frozen bracket {:?}",
                spec.knee_bracket
            ));
        }
        let over = driver.phase(
            Pace::Open {
                speed: spec.r_over / spec.r_fixed,
            },
            opts.seconds / 10.0,
        )?;
        overload = (
            over.good as f64 / over.elapsed_s.max(1e-9),
            over.latency.overall_us(0.99),
        );
        out.notes.push(format!(
            "overload at {}/s: {} sent, {} answered (not shed), {} shed",
            spec.r_over, over.sent, over.good, over.failures.overloaded
        ));
    }
    let s_end = host.stats()?;
    if let Some(dir) = data_path {
        // Crash and recover. Everything acknowledged is older than one
        // group-commit interval by now, so all of it must survive.
        std::thread::sleep(Duration::from_millis(50));
        let sample = resident_sample(spec, opts.seed, &driver);
        let t0 = Instant::now();
        host.kill();
        host = Host::spawn(spec.name, opts.smoke, Some(dir), daemon_cores)?;
        let mut client = CopsClient::connect(&host.ready.addr)?;
        client.set_timeout(Some(Duration::from_secs(5)))?;
        let mut lost = 0u64;
        for (i, req) in sample.iter().enumerate() {
            let answer = client.request(req)?;
            if i == 0 {
                recovery_s = t0.elapsed().as_secs_f64();
            }
            let survived = matches!(
                answer,
                Decision::Reject {
                    cause: Reject::DuplicateFlow,
                    ..
                }
            );
            lost += u64::from(!survived);
        }
        out.failed += lost;
        out.notes.push(format!(
            "restart: {} journal records replayed, {} flows recovered, {} of {} probed residents lost",
            host.ready.replayed_records,
            host.ready.recovered_flows,
            lost,
            sample.len()
        ));
    }

    let seen = Observed {
        decisions,
        ctx_switches: u1.ctx_switches.saturating_sub(u0.ctx_switches) as f64 / decisions,
        cpu_sys_us: (u1.stime_us - u0.stime_us) / decisions,
        knee_per_s,
        overload,
        recovery_s,
    };
    finish(spec, opts, cores, host, driver, out)?;

    // (b) The traced replay, in this process, once no daemon runs.
    let events = if opts.smoke {
        SMOKE_TRACE_EVENTS
    } else {
        TRACE_EVENTS
    };
    let layers = trace::layers(spec, opts.seed, events, scratch.path(), None)?;
    emit(out, spec, &layers, &mut fixed, [&s0, &s1, &s_end], &seen);
    out.notes.push(format!(
        "traced replay: {} events after the fill, tracing overhead {:.1} %",
        layers.events,
        100.0 * layers.overhead_frac
    ));
    Ok(())
}

/// Up to [`RESTART_PROBES`] requests, spread over the trace, whose
/// flows the client holds as resident.
fn resident_sample(
    spec: &Spec,
    seed: u64,
    driver: &Driver,
) -> Vec<bb_core::signaling::FlowRequest> {
    let mut sample = Vec::new();
    for (conn, (consumed, flows)) in driver.log().into_iter().enumerate() {
        let resident: Vec<_> = TraceGen::new(spec, seed, conn)
            .take(consumed as usize)
            .filter(|ev| {
                let f = &flows[ev.flow as usize];
                ev.arrival && matches!(f.seen, Seen::Admit { .. }) && !f.left
            })
            .collect();
        let step = (resident.len() * CONNS / RESTART_PROBES).max(1);
        sample.extend(
            resident
                .iter()
                .step_by(step)
                .map(|ev| spec.request(conn, ev)),
        );
    }
    sample
}

/// What only this run's outside observation knows.
struct Observed {
    /// `REQ`s answered in `fixed` + `sat`: the base of every ratio.
    decisions: f64,
    ctx_switches: f64,
    cpu_sys_us: f64,
    knee_per_s: f64,
    /// Goodput per second, p99 in microseconds.
    overload: (f64, Option<f64>),
    recovery_s: f64,
}

/// Emits every per-layer metric: the traced replay's `layers`, the
/// daemon's `/stats` growth between `s0` (after the fill) and `s1`
/// (after `sat`), its totals at `s_end`, and `seen`.
fn emit(
    out: &mut Outcome,
    spec: &Spec,
    layers: &Layers,
    fixed: &mut Phase,
    [s0, s1, s_end]: [&StatsSnapshot; 3],
    seen: &Observed,
) {
    let decisions = seen.decisions;
    let per_k = |n: u64| n as f64 * 1e3 / decisions;
    let stat = |name: &str| layers.stat.get(name).copied().unwrap_or_default();
    let ns = |out: &mut Outcome, name: &str| {
        out.put(&format!("{name}.ns"), "ns", stat(name).self_ns_median);
    };
    let ns_allocs = |out: &mut Outcome, name: &str| {
        ns(out, name);
        out.put(
            &format!("{name}.allocs"),
            "count",
            stat(name).self_allocs_mean,
        );
    };
    let delta = |f: &dyn Fn(&bb_telemetry::registry::ShardSnapshot) -> u64| {
        shards(s1, f).saturating_sub(shards(s0, f))
    };

    // frame, cops
    ns_allocs(out, "frame.next_frame");
    ns_allocs(out, "cops.decode_frame");
    ns_allocs(out, "cops.decode_request");
    ns(out, "cops.encode_request");
    ns_allocs(out, "cops.encode_decision");
    ns(out, "cops.decode_decision");
    ns(out, "cops.encode_delete");
    ns(out, "cops.decode_delete");

    // summary, shard fast path
    ns(out, "summary.read_rate");
    ns(out, "summary.try_publish");
    ns_allocs(out, "shard.fast_decide");
    out.put(
        "server.fast_hit_frac",
        "ratio",
        delta(&|s| s.path_cache_hits) as f64 / decisions,
    );
    out.put(
        "server.seqlock_retries",
        "count",
        delta(&|s| s.seqlock_retries) as f64,
    );
    out.put(
        "server.decide_batch_mean",
        "count",
        mean_between(
            &s0.metrics.conns.decide_batch,
            &s1.metrics.conns.decide_batch,
        ),
    );

    // shard/admission locked path
    ns_allocs(out, "shard.decide");
    out.put(
        "server.decide_mean_ns",
        "ns",
        mean_between(&merged(s0, |s| &s.decide_ns), &merged(s1, |s| &s.decide_ns)),
    );
    out.put(
        "server.plan_retries_per_k",
        "1/k",
        per_k(delta(&|s| s.plan_retries)),
    );

    // shard/mib/store commit
    ns_allocs(out, "shard.commit");
    ns_allocs(out, "shard.release");
    out.put(
        "server.commit_mean_ns",
        "ns",
        mean_between(&merged(s0, |s| &s.commit_ns), &merged(s1, |s| &s.commit_ns)),
    );

    // contingency
    ns(out, "shard.tick");
    ns(out, "shard.edge_buffer_empty");
    out.put("server.grants_per_k", "1/k", per_k(delta(&|s| s.grants)));
    out.put(
        "server.grant_resets_per_k",
        "1/k",
        per_k(delta(&|s| s.grant_resets)),
    );
    out.put(
        "server.grant_expiries_per_k",
        "1/k",
        per_k(delta(&|s| s.grant_expiries)),
    );

    // durable
    ns_allocs(out, "durable.encode_record");
    out.put("durable.encode_record.bytes", "B", layers.record_bytes);
    ns_allocs(out, "durable.append");
    ns(out, "durable.flush");
    ns(out, "durable.rotate");
    out.put(
        "durable.recover.ns_per_record",
        "ns",
        layers.recover_ns_per_record,
    );
    let fsync = merged(s1, |s| &s.wal_fsync_ns);
    out.put(
        "server.wal_fsync_p99_us",
        "us",
        if spec.durable {
            fsync.quantile_ns(0.99).map(|ns| ns as f64 / 1e3)
        } else {
            Some(0.0)
        },
    );

    // netpoll, conn, server hand-off
    ns(out, "netpoll.wake_to_wait");
    out.put(
        "server.ctx_switches_per_decision",
        "count",
        seen.ctx_switches,
    );
    out.put("server.cpu_sys_us_per_decision", "us", seen.cpu_sys_us);
    out.put(
        "server.batch_frames_mean",
        "count",
        mean_between(
            &s0.metrics.conns.batch_frames,
            &s1.metrics.conns.batch_frames,
        ),
    );
    out.put(
        "server.queue_peak",
        "count",
        s_end
            .metrics
            .shards
            .iter()
            .map(|s| s.queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    out.put(
        "server.shed_total",
        "count",
        s_end.metrics.overloaded as f64,
    );
    let p50 = fixed.latency.quantile_us(0.50);
    let decide = if stat("shard.decide").calls > stat("shard.fast_decide").calls / 2 {
        stat("shard.fast_decide").self_ns_median + stat("shard.decide").self_ns_median
    } else {
        stat("shard.fast_decide").self_ns_median
    };
    // `frame.next_frame` and `cops.decode_frame` run twice per REQ:
    // once in the daemon, once in the generator reading the DEC.
    let blocking: f64 = BLOCKING
        .iter()
        .map(|name| match *name {
            "frame.next_frame" | "cops.decode_frame" => 2.0 * stat(name).self_ns_median,
            _ => stat(name).self_ns_median,
        })
        .sum::<f64>()
        + decide;
    out.put(
        "residual.unattributed_us",
        "us",
        p50.map(|p50| p50 - blocking / 1e3),
    );

    // telemetry
    ns(out, "telemetry.record");
    ns(out, "telemetry.snapshot");

    // harness
    let lag = stats::percentile_sorted(&fixed.send_lag_ns, 0.99);
    out.put(
        "client.send_lag_p99_us",
        "us",
        lag.map(|ns| f64::from(ns) / 1e3),
    );
    out.put(
        "client.setup_p999_us",
        "us",
        fixed.latency.overall_us(0.999),
    );
    out.put(
        "workload.generate.ns_per_event",
        "ns",
        layers.generate_ns_per_event,
    );
    out.put("trace.overhead_frac", "ratio", layers.overhead_frac);

    // phases only one workload has (zero elsewhere)
    out.put("server.setup_p50_us", "us", p50);
    out.put("setup_p99_us", "us", fixed.latency.quantile_us(0.99));
    out.put("knee_per_s", "1/s", seen.knee_per_s);
    out.put("overload_goodput_per_s", "1/s", seen.overload.0);
    out.put("overload_p99_us", "us", seen.overload.1);
    out.put("recovery_s", "s", seen.recovery_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_converges_on_the_threshold() {
        // A system whose true knee is 117k/s, searched in [58k, 176k].
        let mut asked = Vec::new();
        let (knee, at_end) = bisect((58_000.0, 176_000.0), 6, |rate| {
            asked.push(rate);
            Ok(rate <= 117_000.0)
        })
        .unwrap();
        assert_eq!(asked.len(), 6);
        assert_eq!(asked[0], 117_000.0);
        assert!(!at_end);
        // Resolution after six probes: (176k - 58k) / 64.
        assert!(knee <= 117_000.0 && 117_000.0 - knee < 118_000.0 / 64.0 + 1.0);
    }

    #[test]
    fn a_knee_on_the_bracket_end_is_flagged() {
        // Everything passes: the knee is at or above the upper end.
        let (knee, at_end) = bisect((10.0, 20.0), 4, |_| Ok(true)).unwrap();
        assert!(at_end && knee > 19.0);
        // Nothing passes: at or below the lower end.
        let (knee, at_end) = bisect((10.0, 20.0), 4, |_| Ok(false)).unwrap();
        assert!(at_end);
        assert_eq!(knee, 10.0);
        // A probe's I/O error aborts the search.
        assert!(bisect((10.0, 20.0), 4, |_| Err(io::ErrorKind::BrokenPipe.into())).is_err());
    }

    #[test]
    fn histogram_growth_mean_ignores_what_came_before() {
        let h = bb_telemetry::histogram::LogHistogram::new();
        h.record(1_000);
        let before = h.snapshot();
        h.record(200);
        h.record(400);
        assert_eq!(mean_between(&before, &h.snapshot()), 300.0);
        assert_eq!(mean_between(&before, &before), 0.0);
    }
}
