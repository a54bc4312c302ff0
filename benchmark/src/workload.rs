//! The four workloads: what the daemon is configured with, what traffic
//! it is offered, and the constants frozen at calibration.
//!
//! Every workload is a seeded birth–death flow process: Poisson
//! arrivals, exponential holds, offered Erlangs close to the domain's
//! capacity so a few percent of requests are legitimately refused and
//! every admitted flow is later released. The process is generated as
//! its jump chain (next event is an arrival with probability
//! λ/(λ+nμ), else the departure of a uniformly drawn present flow),
//! which is the same law as `workload::FlowProcess` without a
//! departure heap, so generating an event costs tens of nanoseconds
//! and can happen inside a timed phase.

use bb_core::admission::aggregate::ClassSpec;
use bb_core::broker::BrokerConfig;
use bb_core::contingency::ContingencyPolicy;
use bb_core::signaling::{FlowRequest, ServiceKind};
use bb_core::PathId;
use netsim::topology::{LinkId, SchedulerSpec, Topology, TopologyBuilder};
use qos_units::{Bits, Nanos, Rate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vtrs::packet::FlowId;
use vtrs::profile::TrafficProfile;

/// Workload names, in report order. Final: later PRs compare by name.
pub const WORKLOADS: [&str; 4] = ["rate_churn", "mixed_churn", "class_churn", "durable_churn"];

/// Generator connections. Pod `p` belongs to connection `p % CONNS`,
/// and the daemon runs `CONNS` shard workers with shard = `p % CONNS`,
/// so one connection's order is one shard's commit order.
pub const CONNS: usize = 2;

/// What the requests of a workload ask for.
#[derive(Debug, Clone)]
pub enum Service {
    /// Per-flow service; each request draws its `d_req` from the list.
    PerFlow(Vec<Nanos>),
    /// Class service; each request joins one of the classes.
    Class(Vec<ClassSpec>),
}

/// One workload: daemon configuration, traffic law, frozen constants.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// Link-disjoint pods (one path each).
    pub pods: usize,
    /// Capacity of every link.
    pub capacity: Rate,
    /// Hops alternate CsVc / VtEdf instead of CsVc only.
    pub mixed: bool,
    /// What requests ask for.
    pub service: Service,
    /// Daemon journals to a data directory.
    pub durable: bool,
    /// Offered Erlangs per pod: the stationary number of flows the
    /// process keeps present on each path.
    pub erlangs_per_pod: f64,
    /// Frozen open-loop request rate of the `fixed` phase, REQ/s.
    pub r_fixed: f64,
    /// Frozen knee bracket `[lo, hi]` in REQ/s (`rate_churn` only).
    pub knee_bracket: (f64, f64),
    /// Frozen overload rate in REQ/s (`rate_churn` only).
    pub r_over: f64,
}

/// Hops per pod chain.
pub const HOPS: usize = 5;
/// Closed-loop window per connection in `sat` and `fill`.
pub const WINDOW: usize = 32;
/// Latency limit a knee probe must hold at p99, microseconds.
pub const SLO_P99_US: f64 = 10_000.0;
/// Journal records between snapshots in `durable_churn`, per shard. At
/// the frozen rates a 20 s run journals about 0.25M records per shard by
/// the end of `fixed` and 1.2M by the end of `sat`: each shard rotates
/// exactly once, inside the closed-loop phase, whose window absorbs the
/// stall. (A rotation inside `fixed` holds the shard's write lock for
/// longer than its 1024-deep queue lasts at the fixed rate, and sheds.)
pub const SNAPSHOT_EVERY: u64 = 1_000_000;

impl Spec {
    /// The named workload; `smoke` shrinks the domain and the rate so a
    /// debug-build daemon keeps up (results not for claims).
    #[must_use]
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let tight: Vec<Nanos> = (0..16)
            .map(|i| Nanos::from_millis(1_000 + 40 * i))
            .collect();
        let classes: Vec<ClassSpec> = (0..8)
            .map(|i| ClassSpec {
                id: i + 1,
                d_req: Nanos::from_millis(75 + 5 * u64::from(i)),
                cd: Nanos::from_millis(2),
            })
            .collect();
        let rate_like = |name: &'static str, durable: bool| Spec {
            name,
            pods: 64,
            capacity: Rate::from_mbps(45),
            mixed: false,
            service: Service::PerFlow(vec![Nanos::from_millis(2_440)]),
            durable,
            erlangs_per_pod: 2_790.0,
            // Half the calibrated knee (126k/s) without the journal.
            // With it the rule would give 47k/s too (sat 94.7k/s), but
            // the group-commit fsync is taken under the lock `append`
            // needs: a rare 40 ms ext4 stall then outlasts the 22 ms a
            // 1024-deep shard queue holds at that rate, and the daemon
            // sheds (2 runs in 10). At 16k/s the queue holds 64 ms.
            // Same events in the same order either way; only the
            // clock of `fixed` differs.
            r_fixed: if durable { 16_000.0 } else { 47_000.0 },
            knee_bracket: if durable {
                (0.0, 0.0)
            } else {
                (63_000.0, 189_000.0)
            },
            r_over: if durable { 0.0 } else { 252_000.0 },
        };
        let mut spec = match name {
            "rate_churn" => rate_like("rate_churn", false),
            "durable_churn" => rate_like("durable_churn", true),
            "mixed_churn" => Spec {
                name: "mixed_churn",
                pods: 64,
                capacity: Rate::from_bps(1_500_000),
                mixed: true,
                service: Service::PerFlow(tight),
                durable: false,
                erlangs_per_pod: 76.0,
                r_fixed: 28_000.0,
                knee_bracket: (0.0, 0.0),
                r_over: 0.0,
            },
            "class_churn" => Spec {
                name: "class_churn",
                pods: 64,
                capacity: Rate::from_mbps(45),
                mixed: true,
                service: Service::Class(classes),
                durable: false,
                erlangs_per_pod: 840.0,
                r_fixed: 17_000.0,
                knee_bracket: (0.0, 0.0),
                r_over: 0.0,
            },
            _ => return None,
        };
        if smoke {
            spec.pods = 8;
            spec.erlangs_per_pod = spec.erlangs_per_pod.min(300.0);
            if !spec.mixed {
                // 306 of the 16 kb/s flows per pod: the 300 offered
                // Erlangs still meet a capacity limit.
                spec.capacity = Rate::from_bps(4_900_000);
            }
            spec.r_fixed = 1_500.0;
            if spec.knee_bracket.1 > 0.0 {
                spec.knee_bracket = (1_000.0, 9_000.0);
                spec.r_over = 12_000.0;
            }
        }
        Some(spec)
    }

    /// The routed topology: `pods` chains of [`HOPS`] links.
    #[must_use]
    pub fn topology(&self) -> (Topology, Vec<Vec<LinkId>>) {
        // 1500 B packets as in the paper — except under class service,
        // where the first member of a macroflow must fit its whole
        // budget at no more than its peak rate: q·L/P of 1500 B packets
        // over three rate-based hops would alone be 0.56 s.
        let max_packet = match self.service {
            Service::PerFlow(_) => Bits::from_bytes(1500),
            Service::Class(_) => Bits::from_bytes(125),
        };
        if !self.mixed {
            return Topology::pod_chains(
                self.pods,
                HOPS,
                self.capacity,
                Nanos::ZERO,
                SchedulerSpec::CsVc,
                max_packet,
            );
        }
        let mut b = TopologyBuilder::new();
        let mut routes = Vec::with_capacity(self.pods);
        for p in 0..self.pods {
            let nodes: Vec<_> = (0..=HOPS)
                .map(|i| b.node_in_pod(format!("p{p}n{i}"), p))
                .collect();
            routes.push(
                (0..HOPS)
                    .map(|i| {
                        let sched = if i % 2 == 0 {
                            SchedulerSpec::CsVc
                        } else {
                            SchedulerSpec::VtEdf
                        };
                        b.link(
                            nodes[i],
                            nodes[i + 1],
                            self.capacity,
                            Nanos::ZERO,
                            sched,
                            max_packet,
                        )
                    })
                    .collect(),
            );
        }
        (b.build(), routes)
    }

    /// Broker configuration: the class set and contingency policy.
    #[must_use]
    pub fn broker_config(&self) -> BrokerConfig {
        match &self.service {
            Service::PerFlow(_) => BrokerConfig::default(),
            Service::Class(classes) => BrokerConfig {
                contingency: ContingencyPolicy::Bounding,
                classes: classes.clone(),
                ..BrokerConfig::default()
            },
        }
    }

    /// Number of request variants (delay values or classes).
    #[must_use]
    pub fn variants(&self) -> usize {
        match &self.service {
            Service::PerFlow(d) => d.len(),
            Service::Class(c) => c.len(),
        }
    }

    /// Whether a departure is answered with a `DEC` (class leaves are).
    #[must_use]
    pub fn leave_is_answered(&self) -> bool {
        matches!(self.service, Service::Class(_))
    }

    /// Stationary flows offered on one connection's pods.
    #[must_use]
    pub fn fill_per_conn(&self) -> u32 {
        (self.erlangs_per_pod * self.pods as f64 / CONNS as f64).round() as u32
    }

    /// The wire request of an arrival event on connection `conn`.
    #[must_use]
    pub fn request(&self, conn: usize, ev: &Ev) -> FlowRequest {
        let (d_req, service) = match &self.service {
            Service::PerFlow(d) => (d[usize::from(ev.variant)], ServiceKind::PerFlow),
            Service::Class(c) => {
                let class = &c[usize::from(ev.variant)];
                (class.d_req, ServiceKind::Class(class.id))
            }
        };
        FlowRequest {
            flow: flow_id(conn, ev.flow),
            profile: profile(),
            d_req,
            service,
            path: PathId(u64::from(ev.pod)),
        }
    }
}

/// The wire flow id of a connection's `idx`-th arrival.
#[must_use]
pub fn flow_id(conn: usize, idx: u32) -> FlowId {
    FlowId(((conn as u64) << 32) | u64::from(idx))
}

/// The audio-like flow every request declares: 16 kb/s token rate,
/// 64 kb/s peak, 2000 B bucket, 125 B packets (the load generator's
/// "type 0").
#[must_use]
pub fn profile() -> TrafficProfile {
    TrafficProfile::new(
        Bits::from_bytes(2_000),
        Rate::from_bps(16_000),
        Rate::from_bps(64_000),
        Bits::from_bytes(125),
    )
    .expect("well-formed profile")
}

/// One event of a connection's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    /// Virtual time in nanoseconds since the end of the fill; at the
    /// frozen `r_fixed` virtual time is wall time.
    pub at_ns: u64,
    /// Arrival index of the flow on this connection.
    pub flow: u32,
    /// Pod (= global path id) of the flow.
    pub pod: u16,
    /// Delay value or class drawn for the flow.
    pub variant: u8,
    /// Arrival (`REQ`) or departure (`DRQ`).
    pub arrival: bool,
}

/// Seeded, endless event trace of one connection.
#[derive(Debug, Clone)]
pub struct TraceGen {
    rng: SmallRng,
    pods: Vec<u16>,
    variants: u8,
    fill_left: u32,
    /// Arrivals per virtual nanosecond.
    lambda: f64,
    /// Departures per present flow per virtual nanosecond.
    mu: f64,
    now_ns: f64,
    next_flow: u32,
    /// Flows that arrived and have not departed, with their pods.
    /// Refused flows are present too; the driver skips their `DRQ`.
    present: Vec<(u32, u16, u8)>,
}

impl TraceGen {
    /// The trace of connection `conn` of a workload under `seed`.
    #[must_use]
    pub fn new(spec: &Spec, seed: u64, conn: usize) -> TraceGen {
        let pods: Vec<u16> = (0..spec.pods)
            .filter(|p| p % CONNS == conn)
            .map(|p| p as u16)
            .collect();
        let fill = spec.fill_per_conn();
        let lambda = spec.r_fixed / CONNS as f64 / 1e9;
        // Workloads differ in everything else, so one seed may feed
        // all of them; `durable_churn` must replay `rate_churn`'s
        // events, so the name is not mixed in. (λ and μ scale together
        // with `r_fixed`, so every draw decides the same way.)
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn as u64);
        TraceGen {
            rng: SmallRng::seed_from_u64(stream),
            pods,
            variants: spec.variants() as u8,
            fill_left: fill,
            lambda,
            mu: lambda / f64::from(fill),
            now_ns: 0.0,
            next_flow: 0,
            present: Vec::with_capacity(fill as usize * 2),
        }
    }

    fn arrival(&mut self) -> Ev {
        let pod = self.pods[self.rng.gen_range(0..self.pods.len())];
        let variant = if self.variants > 1 {
            self.rng.gen_range(0..self.variants)
        } else {
            0
        };
        let flow = self.next_flow;
        self.next_flow += 1;
        self.present.push((flow, pod, variant));
        Ev {
            at_ns: self.now_ns as u64,
            flow,
            pod,
            variant,
            arrival: true,
        }
    }
}

impl Iterator for TraceGen {
    type Item = Ev;

    fn next(&mut self) -> Option<Ev> {
        if self.fill_left > 0 {
            self.fill_left -= 1;
            return Some(self.arrival());
        }
        let depart_rate = self.mu * self.present.len() as f64;
        let total = self.lambda + depart_rate;
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.now_ns += -u.ln() / total;
        if self.rng.gen_range(0.0..total) < self.lambda {
            return Some(self.arrival());
        }
        let i = self.rng.gen_range(0..self.present.len());
        let (flow, pod, variant) = self.present.swap_remove(i);
        Some(Ev {
            at_ns: self.now_ns as u64,
            flow,
            pod,
            variant,
            arrival: false,
        })
    }
}

/// The first `n` events of every connection as text, for the
/// determinism test and for eyeballing a trace.
#[must_use]
pub fn trace_text(spec: &Spec, seed: u64, n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for conn in 0..CONNS {
        for ev in TraceGen::new(spec, seed, conn).take(n) {
            let kind = if ev.arrival { "REQ" } else { "DRQ" };
            let _ = writeln!(
                out,
                "{conn} {} {kind} {} {} {}",
                ev.at_ns, ev.flow, ev.pod, ev.variant
            );
        }
    }
    out
}
