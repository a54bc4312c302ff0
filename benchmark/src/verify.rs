//! Correctness of the daemon's answers.
//!
//! Per-flow admission depends only on the order of commits on each
//! shard, and a connection *is* a shard's order (see
//! [`crate::driver`]). So the check regenerates each connection's trace
//! from the seed, feeds exactly the events the driver acted on to a
//! serial [`Broker`], and compares every `DEC` flow for flow. Class
//! service grants contingency by the daemon's wall clock, which no
//! replay can reproduce; [`crate::run`] checks its invariants instead.

use bb_core::broker::Broker;
use bb_core::signaling::Reject;
use bb_core::PathId;
use qos_units::Time;

use crate::driver::{Flow, Seen};
use crate::workload::{flow_id, Spec, TraceGen};

/// Outcome of the serial replay.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Replay {
    /// `DEC`s compared.
    pub compared: u64,
    /// `DEC`s that differ from the serial broker's answer.
    pub mismatches: u64,
    /// Flows the serial broker holds at the end.
    pub resident: u64,
    /// The first few mismatches, for the report.
    pub examples: Vec<String>,
}

/// Replays every connection's acted-on events (`log[c]` = events
/// consumed and the flow table, from [`crate::driver::Driver::log`])
/// through serial brokers, one thread per connection — the pods of two
/// connections share no link, so their brokers are independent.
#[must_use]
pub fn replay(spec: &Spec, seed: u64, log: &[(u64, &[Flow])]) -> Replay {
    let parts: Vec<Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = log
            .iter()
            .enumerate()
            .map(|(c, (consumed, flows))| {
                scope.spawn(move || replay_conn(spec, seed, c, *consumed, flows))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut total = Replay::default();
    for p in parts {
        total.compared += p.compared;
        total.mismatches += p.mismatches;
        total.resident += p.resident;
        total.examples.extend(p.examples);
    }
    total.examples.truncate(5);
    total
}

fn replay_conn(spec: &Spec, seed: u64, conn: usize, consumed: u64, flows: &[Flow]) -> Replay {
    let (topo, routes) = spec.topology();
    let mut broker = Broker::new(topo, spec.broker_config());
    let paths: Vec<PathId> = routes.iter().map(|r| broker.register_route(r)).collect();
    let mut out = Replay::default();
    for ev in TraceGen::new(spec, seed, conn).take(consumed as usize) {
        let flow = &flows[ev.flow as usize];
        if !ev.arrival {
            if matches!(flow.seen, Seen::Admit { .. }) && flow.left && !flow.leaked {
                // Unknown only after a counted mismatch on this flow.
                let _ = broker.release(Time::ZERO, flow_id(conn, ev.flow));
            }
            continue;
        }
        // A shed or unanswered request never reached a broker; it was
        // already counted as a failure.
        if matches!(
            flow.seen,
            Seen::None | Seen::Lost | Seen::Deny(Reject::Overloaded)
        ) {
            continue;
        }
        let mut req = spec.request(conn, &ev);
        req.path = paths[usize::from(ev.pod)];
        let expected = match broker.request(Time::ZERO, &req) {
            Ok(res) => Seen::Admit {
                rate_bps: res.rate.as_bps(),
                delay_ns: res.delay.as_nanos(),
            },
            Err(cause) => Seen::Deny(cause),
        };
        out.compared += 1;
        if expected != flow.seen {
            out.mismatches += 1;
            if out.examples.len() < 5 {
                out.examples.push(format!(
                    "conn {conn} flow {} pod {}: daemon {:?}, serial {:?}",
                    ev.flow, ev.pod, flow.seen, expected
                ));
            }
        }
    }
    out.resident = broker.flows().len() as u64;
    out
}
