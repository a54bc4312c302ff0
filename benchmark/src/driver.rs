//! The load generator: one thread, one [`netpoll::Poller`], one TCP
//! connection per shard, playing each connection's [`TraceGen`] either
//! on the wall clock (open loop) or as fast as a fixed window of
//! outstanding requests allows (closed loop).
//!
//! Order is what makes the run checkable: a connection sends its events
//! strictly in trace order, a `DRQ` only after its flow's `DEC` came
//! back, so the daemon's per-shard commit order is the trace order and
//! [`crate::verify`] can replay it through a serial broker.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use bb_core::cops::{self, Decision};
use bb_core::signaling::Reject;
use bb_server::FrameReader;
use netpoll::{Event, Interest, Poller, Token};

use crate::stats::Windows;
use crate::timer::TimerFd;
use crate::workload::{flow_id, Ev, Spec, TraceGen, CONNS, WINDOW};

const TOKEN_TIMER: Token = Token(CONNS);

/// How long a phase waits for the last answers after it stops sending
/// before the missing ones are counted as timeouts.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What the daemon answered a flow's `REQ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// No answer yet (or never sent).
    None,
    /// Admitted with this reservation.
    Admit {
        /// Reserved rate, b/s.
        rate_bps: u64,
        /// Delay parameter, ns.
        delay_ns: u64,
    },
    /// Refused with this cause.
    Deny(Reject),
    /// Sent, and given up on when its phase's drain timed out.
    Lost,
}

/// Client-side record of one flow.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// The `REQ`'s answer.
    pub seen: Seen,
    /// When the pending `REQ` was due, ns since the driver was created.
    due_ns: u64,
    /// A `DRQ` was sent.
    pub left: bool,
    /// The `DRQ` was shed at a full queue, so the daemon still holds
    /// the flow (overload phases only).
    pub leaked: bool,
}

/// Failures by kind. Anything here is a wrong or missing answer; a
/// legitimate admission refusal is not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// `REQ`s or `DRQ`s shed with `Overloaded`.
    pub overloaded: u64,
    /// Messages still unanswered when a phase gave up waiting.
    pub timeouts: u64,
    /// Answers that fit no outstanding message, or undecodable frames.
    pub protocol: u64,
}

impl Failures {
    /// All failures.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.overloaded + self.timeouts + self.protocol
    }
}

/// How a phase paces its sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Open loop: virtual time advances `speed` times as fast as the
    /// wall clock (1.0 = the workload's frozen `r_fixed`).
    Open {
        /// Ratio of the phase's request rate to `r_fixed`.
        speed: f64,
    },
    /// Closed loop with [`WINDOW`] answered messages outstanding per
    /// connection.
    Closed,
}

/// What one phase measured.
#[derive(Debug)]
pub struct Phase {
    /// `REQ` latencies by completion window.
    pub latency: Windows,
    /// `REQ`s sent.
    pub sent: u64,
    /// `REQ`s answered (admits and refusals, sheds included).
    pub answered: u64,
    /// `REQ`s answered with anything but `Overloaded`.
    pub good: u64,
    /// Legitimate refusals among them.
    pub refused: u64,
    /// Failures that occurred in this phase.
    pub failures: Failures,
    /// Open loop: how late each `REQ` left, ns, sorted ascending.
    pub send_lag_ns: Vec<u32>,
    /// `REQ`s due but unanswered at the instant sending stopped.
    pub backlog: u64,
    /// Wall time from the first send to the stop of sending, seconds.
    pub elapsed_s: f64,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    gen: TraceGen,
    next: Option<Ev>,
    /// Virtual time of the last event acted on.
    virt_ns: u64,
    /// Events taken from the trace and acted on (sent or skipped).
    consumed: u64,
    out: Vec<u8>,
    out_pos: usize,
    /// Sent messages whose `DEC` has not arrived.
    outstanding: usize,
    /// Departures are answered with a `DEC` (class leaves).
    leave_answered: bool,
    flows: Vec<Flow>,
}

/// The generator, connected to one daemon.
pub struct Driver {
    spec: Spec,
    conns: Vec<Conn>,
    poller: Poller,
    timer: TimerFd,
    epoch: Instant,
}

impl Driver {
    /// Connects both connections to the daemon at `addr` and positions
    /// each at the start of its trace.
    ///
    /// # Errors
    ///
    /// Connect or registration failures.
    pub fn connect(spec: &Spec, seed: u64, addr: &str) -> io::Result<Driver> {
        let poller = Poller::new()?;
        let timer = TimerFd::new()?;
        poller.register(timer.fd(), TOKEN_TIMER, Interest::READ)?;
        let mut conns = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            // Edge-triggered, so standing write interest costs one
            // event per not-writable → writable transition, no more.
            poller.register(stream.as_raw_fd(), Token(c), Interest::BOTH)?;
            conns.push(Conn {
                stream,
                reader: FrameReader::new(),
                gen: TraceGen::new(spec, seed, c),
                next: None,
                virt_ns: 0,
                consumed: 0,
                out: Vec::with_capacity(64 * 1024),
                out_pos: 0,
                outstanding: 0,
                leave_answered: spec.leave_is_answered(),
                flows: Vec::new(),
            });
        }
        Ok(Driver {
            spec: spec.clone(),
            conns,
            poller,
            timer,
            epoch: Instant::now(),
        })
    }

    /// Per connection: events consumed and the flow table, for
    /// [`crate::verify`].
    #[must_use]
    pub fn log(&self) -> Vec<(u64, &[Flow])> {
        self.conns
            .iter()
            .map(|c| (c.consumed, c.flows.as_slice()))
            .collect()
    }

    /// Flows admitted and not yet asked to leave.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.conns
            .iter()
            .flat_map(|c| &c.flows)
            .filter(|f| matches!(f.seen, Seen::Admit { .. }) && (!f.left || f.leaked))
            .count() as u64
    }

    /// Pre-admits the stationary population: plays each connection's
    /// fill prefix closed-loop and waits for every answer.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn fill(&mut self) -> io::Result<Phase> {
        self.run(Pace::Closed, None)
    }

    /// Plays the trace for `secs` seconds at the given pace, then waits
    /// for the outstanding answers.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn phase(&mut self, pace: Pace, secs: f64) -> io::Result<Phase> {
        self.run(pace, Some(secs))
    }

    /// Asks every resident flow to leave (closed loop) and waits for
    /// the answers; afterwards the daemon should hold nothing. Returns
    /// what went wrong on the way.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn leave_all(&mut self) -> io::Result<Failures> {
        let mut cursor = vec![0usize; self.conns.len()];
        let deadline = Instant::now() + DRAIN_TIMEOUT * 4;
        let mut events = Vec::new();
        let mut scratch = Scratch::new(self.now_ns(), 1, 1);
        loop {
            let mut pending = false;
            for (c, conn) in self.conns.iter_mut().enumerate() {
                let answered = conn.leave_answered;
                while cursor[c] < conn.flows.len() && (!answered || conn.outstanding < WINDOW) {
                    let f = &mut conn.flows[cursor[c]];
                    if matches!(f.seen, Seen::Admit { .. }) && !f.left {
                        f.left = true;
                        conn.out
                            .extend_from_slice(&cops::encode_delete(flow_id(c, cursor[c] as u32)));
                        conn.outstanding += usize::from(answered);
                    }
                    cursor[c] += 1;
                }
                conn.flush()?;
                pending |= cursor[c] < conn.flows.len()
                    || conn.outstanding > 0
                    || conn.out_pos < conn.out.len();
            }
            if !pending || Instant::now() >= deadline {
                let left: usize = self.conns.iter().map(|c| c.outstanding).sum();
                scratch.failures.timeouts += left as u64;
                return Ok(scratch.failures);
            }
            self.poller
                .wait(&mut events, Some(Duration::from_millis(50)))?;
            self.receive(&events, &mut scratch)?;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `until = None` plays exactly the fill prefix.
    fn run(&mut self, pace: Pace, until: Option<f64>) -> io::Result<Phase> {
        let secs = until.unwrap_or(0.0);
        let windows = (secs.floor() as usize).max(2);
        let start_ns = self.now_ns();
        let mut scratch = Scratch::new(start_ns, windows, (secs * 1e9 / windows as f64) as u64);
        let stop_ns = start_ns + (secs * 1e9) as u64;
        let fill_target = u64::from(self.spec.fill_per_conn());
        let virt0: Vec<u64> = self.conns.iter().map(|c| c.virt_ns).collect();
        let mut sending = true;
        let mut drain_deadline = 0u64;
        let mut events: Vec<Event> = Vec::new();
        let mut phase_end_ns = start_ns;
        loop {
            let now = self.now_ns();
            if sending {
                let over = match until {
                    Some(_) => now >= stop_ns,
                    None => self.conns.iter().all(|c| c.consumed >= fill_target),
                };
                if over {
                    sending = false;
                    phase_end_ns = now;
                    drain_deadline = now + DRAIN_TIMEOUT.as_nanos() as u64;
                    scratch.backlog = self.conns.iter().map(|c| c.outstanding as u64).sum();
                }
            }
            let mut next_due = u64::MAX;
            if sending {
                let limit = until.map_or(fill_target, |_| u64::MAX);
                for (c, virt0) in virt0.iter().enumerate() {
                    let due = self.pump(c, pace, start_ns, *virt0, now, limit, &mut scratch);
                    next_due = next_due.min(due);
                }
            }
            for conn in &mut self.conns {
                conn.flush()?;
            }
            if !sending {
                let idle = self
                    .conns
                    .iter()
                    .all(|c| c.outstanding == 0 && c.out_pos >= c.out.len());
                if idle {
                    break;
                }
                if now >= drain_deadline {
                    for conn in &mut self.conns {
                        scratch.failures.timeouts += conn.outstanding as u64;
                        conn.outstanding = 0;
                        // A departure must not wait forever on these.
                        for f in conn.flows.iter_mut().filter(|f| f.seen == Seen::None) {
                            f.seen = Seen::Lost;
                        }
                    }
                    break;
                }
            }
            // Sleep until a reply is readable or the next send is due.
            let mut timeout = Duration::from_millis(20);
            if sending {
                let wake = next_due.min(stop_ns);
                if wake != u64::MAX {
                    let after = Duration::from_nanos(wake.saturating_sub(self.now_ns()));
                    if after < timeout {
                        self.timer.arm(after)?;
                        timeout = Duration::from_millis(50);
                    }
                }
            }
            self.poller.wait(&mut events, Some(timeout))?;
            self.receive(&events, &mut scratch)?;
        }
        scratch.send_lag_ns.sort_unstable();
        Ok(Phase {
            latency: scratch.latency,
            sent: scratch.sent,
            answered: scratch.answered,
            good: scratch.good,
            refused: scratch.refused,
            failures: scratch.failures,
            send_lag_ns: scratch.send_lag_ns,
            backlog: scratch.backlog,
            elapsed_s: (phase_end_ns - start_ns) as f64 / 1e9,
        })
    }

    /// Sends every event of connection `c` that the pace allows right
    /// now. Returns when the connection's next send is due (ns since
    /// the driver's epoch; `u64::MAX` when it waits on an answer).
    #[allow(clippy::too_many_arguments)]
    fn pump(
        &mut self,
        c: usize,
        pace: Pace,
        start_ns: u64,
        virt0: u64,
        now: u64,
        limit: u64,
        scratch: &mut Scratch,
    ) -> u64 {
        let conn = &mut self.conns[c];
        let answered_leave = conn.leave_answered;
        loop {
            if conn.consumed >= limit {
                return u64::MAX;
            }
            let ev = match conn.next {
                Some(ev) => ev,
                None => {
                    let ev = conn.gen.next().expect("the trace is endless");
                    conn.next = Some(ev);
                    ev
                }
            };
            let due = match pace {
                Pace::Open { speed } => {
                    let due = start_ns + ((ev.at_ns - virt0) as f64 / speed) as u64;
                    if due > now {
                        return due;
                    }
                    due
                }
                Pace::Closed => now,
            };
            let expects_answer = ev.arrival || answered_leave;
            if pace == Pace::Closed && expects_answer && conn.outstanding >= WINDOW {
                return u64::MAX;
            }
            if ev.arrival {
                debug_assert_eq!(ev.flow as usize, conn.flows.len());
                conn.flows.push(Flow {
                    seen: Seen::None,
                    due_ns: due,
                    left: false,
                    leaked: false,
                });
                let req = self.spec.request(c, &ev);
                conn.out.extend_from_slice(&cops::encode_request(&req));
                conn.outstanding += 1;
                scratch.sent += 1;
                if matches!(pace, Pace::Open { .. }) {
                    scratch
                        .send_lag_ns
                        .push(u32::try_from(now - due).unwrap_or(u32::MAX));
                }
            } else {
                let flow = &mut conn.flows[ev.flow as usize];
                match flow.seen {
                    // Its DEC is still in flight: a DRQ now could
                    // overtake the commit. Wait for the answer.
                    Seen::None => return u64::MAX,
                    Seen::Deny(_) | Seen::Lost => {}
                    Seen::Admit { .. } => {
                        flow.left = true;
                        conn.out
                            .extend_from_slice(&cops::encode_delete(flow_id(c, ev.flow)));
                        conn.outstanding += usize::from(answered_leave);
                    }
                }
            }
            conn.next = None;
            conn.virt_ns = ev.at_ns;
            conn.consumed += 1;
        }
    }

    /// Drains every readable connection and books the answers.
    fn receive(&mut self, events: &[Event], scratch: &mut Scratch) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        for ev in events {
            if ev.token == TOKEN_TIMER {
                self.timer.clear();
                continue;
            }
            let c = ev.token.0;
            if !ev.readable {
                continue;
            }
            loop {
                match self.conns[c].stream.read(&mut chunk) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        let now = self.now_ns();
                        let conn = &mut self.conns[c];
                        conn.reader.extend(&chunk[..n]);
                        loop {
                            match conn.reader.next_frame() {
                                Ok(Some(mut wire)) => {
                                    let decision = cops::decode_frame(&mut wire)
                                        .and_then(|f| cops::decode_decision(&f));
                                    match decision {
                                        Ok(d) => conn.book(c, d, now, scratch),
                                        Err(_) => scratch.failures.protocol += 1,
                                    }
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    return Err(io::Error::new(io::ErrorKind::InvalidData, e))
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

/// Per-phase accumulators.
struct Scratch {
    start_ns: u64,
    latency: Windows,
    sent: u64,
    answered: u64,
    good: u64,
    refused: u64,
    failures: Failures,
    send_lag_ns: Vec<u32>,
    backlog: u64,
}

impl Scratch {
    fn new(start_ns: u64, windows: usize, width_ns: u64) -> Scratch {
        Scratch {
            start_ns,
            latency: Windows::new(windows, width_ns),
            sent: 0,
            answered: 0,
            good: 0,
            refused: 0,
            failures: Failures::default(),
            send_lag_ns: Vec::new(),
            backlog: 0,
        }
    }
}

impl Conn {
    /// Writes as much of the out buffer as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Books one decoded `DEC` against the flow it names.
    fn book(&mut self, c: usize, decision: Decision, now: u64, scratch: &mut Scratch) {
        let (id, seen) = match decision {
            Decision::Install(res) => {
                // The generator is the edge conditioner too: a join or
                // leave came with contingency bandwidth, the (empty)
                // edge buffer has nothing to flush, so report it
                // drained and let the broker reset the grant (§4.2.1).
                if !res.contingency.is_zero() {
                    let at = qos_units::Time::from_nanos(now);
                    self.out
                        .extend_from_slice(&cops::encode_buffer_empty(res.conditioned_flow, at));
                }
                (
                    res.flow,
                    Seen::Admit {
                        rate_bps: res.rate.as_bps(),
                        delay_ns: res.delay.as_nanos(),
                    },
                )
            }
            Decision::Reject { flow, cause } => (flow, Seen::Deny(cause)),
            Decision::UnknownFlow { .. } => {
                scratch.failures.protocol += 1;
                return;
            }
        };
        let idx = (id.0 & 0xffff_ffff) as usize;
        let Some(flow) = self.flows.get_mut(idx).filter(|_| id.0 >> 32 == c as u64) else {
            scratch.failures.protocol += 1;
            return;
        };
        if flow.seen == Seen::None {
            // The answer to the flow's REQ.
            flow.seen = seen;
            self.outstanding -= 1;
            scratch.answered += 1;
            match seen {
                Seen::Deny(Reject::Overloaded) => scratch.failures.overloaded += 1,
                Seen::Deny(_) => {
                    scratch.good += 1;
                    scratch.refused += 1;
                }
                Seen::Admit { .. } => scratch.good += 1,
                Seen::None | Seen::Lost => unreachable!("a DEC is an admit or a refusal"),
            }
            scratch
                .latency
                .record(now - scratch.start_ns, now.saturating_sub(flow.due_ns));
        } else if flow.left {
            // The answer to its DRQ: a class leave's revised
            // reservation, or (any service) a shed at a full queue.
            self.outstanding -= usize::from(self.leave_answered);
            if seen == Seen::Deny(Reject::Overloaded) {
                flow.leaked = true;
                scratch.failures.overloaded += 1;
            }
        } else {
            scratch.failures.protocol += 1;
        }
    }
}
