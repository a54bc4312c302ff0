//! `bbmark-host` — the daemon under test, in its own process.
//!
//! A thin wrapper over the public `BbServer::start`: the topology and
//! class set come from the named workload, the tuning is fixed
//! (`workers = 2, io_threads = 1, queue_depth = 1024`, telemetry on),
//! both listeners bind ephemeral ports. Readiness is one JSON line on
//! stdout ([`bbmark::proc::Ready`]); when stdin closes — the runner
//! finished, or died — the daemon shuts down cleanly and prints its
//! `ServerReport` as a second JSON line.
//!
//! ```text
//! bbmark-host --workload NAME [--smoke] [--data-dir PATH]
//! ```

use std::io::Read;

use bb_server::{BbServer, DurableOptions, ServerConfig};
use bbmark::proc::Ready;
use bbmark::workload::{Spec, CONNS, SNAPSHOT_EVERY};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut data_dir = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--data-dir" => data_dir = it.next().cloned(),
            "--smoke" => smoke = true,
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    let Some(spec) = workload.as_deref().and_then(|w| Spec::named(w, smoke)) else {
        fail("need --workload <rate_churn|mixed_churn|class_churn|durable_churn>")
    };
    if spec.durable != data_dir.is_some() {
        fail("--data-dir is required by, and only by, a durable workload");
    }
    let config = ServerConfig {
        workers: CONNS,
        io_threads: 1,
        queue_depth: 1024,
        broker: spec.broker_config(),
        stats_addr: Some("127.0.0.1:0".into()),
        durable: data_dir.map(|dir| DurableOptions {
            data_dir: dir.into(),
            snapshot_every: SNAPSHOT_EVERY,
            ..DurableOptions::default()
        }),
        ..ServerConfig::default()
    };
    let (topo, routes) = spec.topology();
    let server = match BbServer::start("127.0.0.1:0", &topo, &routes, &config) {
        Ok(s) => s,
        Err(e) => fail(&format!("start: {e}")),
    };
    let stats = server.stats_snapshot();
    let ready = Ready {
        addr: server.local_addr().to_string(),
        stats_addr: server
            .stats_addr()
            .expect("telemetry is configured on")
            .to_string(),
        pid: std::process::id(),
        recovered_flows: stats.metrics.shards.iter().map(|s| s.interned_flows).sum(),
        replayed_records: stats
            .metrics
            .shards
            .iter()
            .map(|s| s.recovery_replayed_records)
            .sum(),
    };
    println!("{}", serde::json::to_string(&ready));

    // Block until the runner closes our stdin (or dies: the pipe's
    // write end goes with it).
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    println!("{}", serde::json::to_string(&server.shutdown()));
}

fn fail(msg: &str) -> ! {
    eprintln!("bbmark-host: {msg}");
    std::process::exit(64);
}
