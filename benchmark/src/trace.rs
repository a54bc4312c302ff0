//! The traced replay: a workload's events pushed in-process, on one
//! thread, through the layers' public functions in the order the daemon
//! calls them, one span per call.
//!
//! Spans are recorded from *outside* the layers — around each call, in
//! this file — so tracing needs nothing from the code under test. A
//! span has a name, start, end, the heap allocations made between them,
//! and its parent: the span of the request that caused it. A layer's
//! **self time** is its span minus what its children cover. Spans stay
//! in memory until the replay ends. The same replay runs a second time
//! with tracing off; the difference in wall time is the tracing
//! overhead, reported rather than assumed small.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bb_core::cops;
use bb_core::shard::{build_shards, BrokerShard, FastDecideHandle};
use bb_core::signaling::Reservation;
use bb_core::PathId;
use bb_durable::{encode_record, ShardStore, WalRecord};
use bb_server::FrameReader;
use bb_telemetry::MetricsRegistry;
use netpoll::{Interest, Poller, Token, Waker};
use qos_units::Time;

use crate::stats;
use crate::workload::{flow_id, Ev, Spec, TraceGen, CONNS};

/// Heap allocations made by this process so far (all threads).
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter increment per
/// allocation. Installed as the global allocator by the `bbmark`
/// binary only — never in the daemon under test.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System` unchanged; the counter
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc` and `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The parent of a span no request caused (timer sweeps, probes).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// Index of the causing request's span, or [`NO_PARENT`].
    pub parent: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Heap allocations between start and end.
    pub allocs: u32,
}

/// In-memory span recorder. With `on = false` every call runs bare.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Span names, indexed by [`Span::name`].
    pub names: Vec<&'static str>,
    /// All spans: a request's root first, then its children.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // Same call site, same literal: the pointer test almost always
        // decides, and keeps the lookup out of the overhead.
        let same = |n: &&'static str| std::ptr::eq(n.as_ptr(), name.as_ptr()) || **n == *name;
        match self.names.iter().position(same) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a request's root span; children name it as their parent.
    fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent: NO_PARENT,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs: ALLOCS.load(Ordering::Relaxed) as u32,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a root span opened with [`Tracer::open`].
    fn close(&mut self, idx: u32) {
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
            span.allocs = (ALLOCS.load(Ordering::Relaxed) as u32).wrapping_sub(span.allocs);
        }
    }

    /// Runs `f` as one span under `parent`.
    fn call<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let name = self.name_id(name);
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let allocs = (ALLOCS.load(Ordering::Relaxed) - a0) as u32;
        self.spans.push(Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            allocs,
        });
        out
    }

    /// Per name: self times in ns, self allocations, and calls.
    #[must_use]
    pub fn summarize(&self) -> BTreeMap<&'static str, LayerStat> {
        // What each span's children cover, to subtract from the parent.
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u32; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = child_ns.get_mut(s.parent as usize) {
                *p += s.end_ns - s.start_ns;
                child_allocs[s.parent as usize] += s.allocs;
            }
        }
        let mut samples: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = samples.entry(self.names[usize::from(s.name)]).or_default();
            entry
                .0
                .push((s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64);
            entry.1 += u64::from(s.allocs.saturating_sub(child_allocs[i]));
        }
        samples
            .into_iter()
            .map(|(name, (ns, allocs))| {
                let stat = LayerStat {
                    calls: ns.len() as u64,
                    self_ns_median: stats::median(&ns).unwrap_or(0.0),
                    self_allocs_mean: allocs as f64 / ns.len().max(1) as f64,
                };
                (name, stat)
            })
            .collect()
    }

    /// Writes every span as one text line: `name parent start end allocs`.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# index name parent start_ns end_ns allocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i} {} {parent} {} {} {}",
                self.names[usize::from(s.name)],
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        w.flush()
    }
}

/// One layer operation's numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Calls recorded.
    pub calls: u64,
    /// Median self time per call, ns.
    pub self_ns_median: f64,
    /// Mean self heap allocations per call.
    pub self_allocs_mean: f64,
}

/// The layers of one in-process daemon image.
struct Image {
    shards: Vec<BrokerShard>,
    fast: Vec<FastDecideHandle>,
    metrics: MetricsRegistry,
    stores: Option<Vec<ShardStore>>,
    /// Server- and client-side stream reassembly.
    readers: (FrameReader, FrameReader),
    /// Per connection: flows the image holds (by arrival index).
    held: Vec<Vec<bool>>,
    /// Journal records appended, and their encoded bytes.
    journaled: (u64, u64),
}

impl Image {
    fn new(spec: &Spec, data_dir: Option<&Path>) -> io::Result<Image> {
        let (topo, routes) = spec.topology();
        let shards = build_shards(&topo, &spec.broker_config(), &routes, CONNS);
        let stores = match data_dir {
            None => None,
            Some(dir) => {
                let mut stores = Vec::new();
                for (i, shard) in shards.iter().enumerate() {
                    let (store, _) = ShardStore::open(&dir.join(format!("shard-{i}")))
                        .map_err(io::Error::other)?;
                    store
                        .commit_recovery(&shard.export_image(), Time::ZERO)
                        .map_err(io::Error::other)?;
                    stores.push(store);
                }
                Some(stores)
            }
        };
        for s in &shards {
            s.broker().warm_summaries();
        }
        let fast = shards.iter().map(BrokerShard::fast_handle).collect();
        Ok(Image {
            shards,
            fast,
            metrics: MetricsRegistry::new(CONNS),
            stores,
            readers: (FrameReader::new(), FrameReader::new()),
            held: vec![Vec::new(); CONNS],
            journaled: (0, 0),
        })
    }

    /// One event through every layer, in the daemon's order: generator
    /// encode → server frame, decode, decide, commit, journal,
    /// telemetry, encode → generator frame and decode.
    fn event(&mut self, spec: &Spec, t: &mut Tracer, conn: usize, ev: &Ev, now: Time) {
        let shard = usize::from(ev.pod) % CONNS;
        let root = t.open(if ev.arrival { "request" } else { "delete" });
        let id = flow_id(conn, ev.flow);
        let reply = if ev.arrival {
            let req = spec.request(conn, ev);
            let wire = t.call("cops.encode_request", root, || cops::encode_request(&req));
            let frame = deliver(t, root, &mut self.readers.0, &wire);
            let req = t
                .call("cops.decode_request", root, || cops::decode_request(&frame))
                .expect("own encoding");
            let t0 = Instant::now();
            let fast = t.call("shard.fast_decide", root, || {
                self.fast[shard]
                    .begin(req.path, req.service)
                    .map(|group| group.decide(&req))
            });
            let plan = match fast {
                Some(plan) => plan,
                None => t.call("shard.decide", root, || self.shards[shard].decide(&req)),
            };
            let decide_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            let decision = t.call("shard.commit", root, || {
                self.shards[shard].commit(now, &plan)
            });
            let commit_ns = t1.elapsed().as_nanos() as u64;
            if let Some(stores) = &self.stores {
                let record = WalRecord::Admit {
                    now,
                    request: plan.request.clone(),
                };
                journal(t, root, &stores[shard], &record, &mut self.journaled);
            }
            t.call("telemetry.record", root, || {
                let m = self.metrics.shard(shard);
                m.record_decide_ns(decide_ns);
                m.record_commit_ns(commit_ns);
                m.record_decision_ns(decide_ns + commit_ns);
                match &decision {
                    Ok(_) => m.record_admit(),
                    Err(cause) => m.record_reject(*cause),
                }
                self.metrics.record_setup_ns(decide_ns + commit_ns);
            });
            let held = &mut self.held[conn];
            debug_assert_eq!(held.len(), ev.flow as usize);
            held.push(decision.is_ok());
            Some(t.call("cops.encode_decision", root, || match &decision {
                Ok(res) => cops::encode_decision_install(res),
                Err(cause) => cops::encode_decision_reject(id, *cause),
            }))
        } else if self.held[conn][ev.flow as usize] {
            self.held[conn][ev.flow as usize] = false;
            let wire = t.call("cops.encode_delete", root, || cops::encode_delete(id));
            let frame = deliver(t, root, &mut self.readers.0, &wire);
            let flow = t
                .call("cops.decode_delete", root, || cops::decode_delete(&frame))
                .expect("own encoding");
            let updated: Option<Reservation> = t
                .call("shard.release", root, || {
                    self.shards[shard].release(now, flow)
                })
                .expect("the image holds the flow");
            if let Some(stores) = &self.stores {
                let record = WalRecord::Release { now, flow };
                journal(t, root, &stores[shard], &record, &mut self.journaled);
            }
            t.call("telemetry.record", root, || {
                self.metrics.shard(shard).record_release();
            });
            updated.map(|res| {
                t.call("cops.encode_decision", root, || {
                    cops::encode_decision_install(&res)
                })
            })
        } else {
            None
        };
        let mut report = None;
        if let Some(wire) = reply {
            let frame = deliver(t, root, &mut self.readers.1, &wire);
            let decision = t
                .call("cops.decode_decision", root, || {
                    cops::decode_decision(&frame)
                })
                .expect("own encoding");
            if let cops::Decision::Install(res) = decision {
                if !res.contingency.is_zero() {
                    report = Some(res.conditioned_flow);
                }
            }
        }
        t.close(root);
        // The edge's buffer-empty feedback for a grant: its own message,
        // after the request that caused the grant was answered.
        if let Some(macroflow) = report {
            let root = t.open("report");
            let wire = cops::encode_buffer_empty(macroflow, now);
            let frame = deliver(t, root, &mut self.readers.0, &wire);
            let (macroflow, at) = cops::decode_buffer_empty(&frame).expect("own encoding");
            t.call("shard.edge_buffer_empty", root, || {
                self.shards[shard].edge_buffer_empty(at, macroflow)
            });
            t.close(root);
        }
        // The worker drives contingency timers after each batch.
        if self.shards[shard]
            .next_expiry()
            .is_some_and(|due| due <= now)
        {
            t.call("shard.tick", NO_PARENT, || self.shards[shard].tick(now));
            if let Some(stores) = &self.stores {
                let record = WalRecord::Tick { now };
                journal(t, NO_PARENT, &stores[shard], &record, &mut self.journaled);
            }
        }
    }
}

/// One message across the wire: the receiver reassembles the stream
/// into a frame and parses the frame's header and objects.
fn deliver(t: &mut Tracer, root: u32, reader: &mut FrameReader, wire: &[u8]) -> cops::Frame {
    let mut frame = t
        .call("frame.next_frame", root, || {
            reader.extend(wire);
            reader.next_frame()
        })
        .expect("well-formed stream")
        .expect("a whole frame was written");
    t.call("cops.decode_frame", root, || cops::decode_frame(&mut frame))
        .expect("own encoding")
}

/// `append` encodes internally, so its codec share is measured by
/// encoding once more beside it (a probe: not on the blocking path).
fn journal(
    t: &mut Tracer,
    parent: u32,
    store: &ShardStore,
    record: &WalRecord,
    journaled: &mut (u64, u64),
) {
    let bytes = t.call("durable.encode_record", NO_PARENT, || encode_record(record));
    journaled.0 += 1;
    journaled.1 += bytes.len() as u64;
    t.call("durable.append", parent, || store.append(record))
        .expect("journal append");
}

/// The two connections' traces merged by virtual time.
struct Merged {
    gens: Vec<TraceGen>,
    heads: Vec<Option<Ev>>,
}

impl Merged {
    fn new(spec: &Spec, seed: u64) -> Merged {
        let mut gens: Vec<TraceGen> = (0..CONNS).map(|c| TraceGen::new(spec, seed, c)).collect();
        let heads = gens.iter_mut().map(Iterator::next).collect();
        Merged { gens, heads }
    }

    fn next(&mut self) -> (usize, Ev) {
        let conn = (0..CONNS)
            .min_by_key(|c| self.heads[*c].map_or(u64::MAX, |e| e.at_ns))
            .expect("at least one connection");
        let ev = self.heads[conn].take().expect("the trace is endless");
        self.heads[conn] = self.gens[conn].next();
        (conn, ev)
    }
}

/// What the traced replay found.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per layer operation.
    pub stat: BTreeMap<&'static str, LayerStat>,
    /// (traced − untraced) / untraced wall time of the replayed events.
    pub overhead_frac: f64,
    /// Mean encoded journal record, bytes.
    pub record_bytes: f64,
    /// Recovery (open + replay) per journal record, ns.
    pub recover_ns_per_record: f64,
    /// [`TraceGen::next`], ns per event.
    pub generate_ns_per_event: f64,
    /// Events replayed under tracing.
    pub events: u64,
}

/// How long the interval between group commits is, in virtual time.
const FLUSH_EVERY_NS: u64 = 5_000_000;

/// Replays the fill untraced and the next `events` events of the
/// workload through a fresh image. Returns the wall time of the event
/// part and the image.
fn replay(
    spec: &Spec,
    seed: u64,
    events: u64,
    t: &mut Tracer,
    data_dir: Option<&Path>,
) -> io::Result<(f64, Image)> {
    let mut image = Image::new(spec, data_dir)?;
    let mut merged = Merged::new(spec, seed);
    let mut quiet = Tracer::new(false);
    for _ in 0..u64::from(spec.fill_per_conn()) * CONNS as u64 {
        let (conn, ev) = merged.next();
        image.event(spec, &mut quiet, conn, &ev, Time::ZERO);
    }
    let t0 = Instant::now();
    let mut last_flush = 0;
    for _ in 0..events {
        let (conn, ev) = merged.next();
        image.event(spec, t, conn, &ev, Time::from_nanos(ev.at_ns));
        if let Some(stores) = &image.stores {
            if ev.at_ns - last_flush >= FLUSH_EVERY_NS {
                last_flush = ev.at_ns;
                for store in stores {
                    t.call("durable.flush", NO_PARENT, || store.flush())
                        .map_err(io::Error::other)?;
                }
            }
        }
    }
    Ok((t0.elapsed().as_secs_f64(), image))
}

/// The traced replay of one workload: `events` events after the fill,
/// traced and untraced, plus the probes of operations that sit inside
/// other layers' calls or off the request path. `spans_out`, when
/// given, receives every span as text.
///
/// # Errors
///
/// Journal I/O failures (`durable_churn`) or the span dump's.
pub fn layers(
    spec: &Spec,
    seed: u64,
    events: u64,
    scratch: &Path,
    spans_out: Option<&Path>,
) -> io::Result<Layers> {
    let dir = |tag: &str| spec.durable.then(|| scratch.join(tag));
    let (bare_s, _) = replay(
        spec,
        seed,
        events,
        &mut Tracer::new(false),
        dir("bare").as_deref(),
    )?;
    let mut tracer = Tracer::new(true);
    let traced_dir = dir("traced");
    let (traced_s, image) = replay(spec, seed, events, &mut tracer, traced_dir.as_deref())?;
    let mut out = Layers {
        overhead_frac: (traced_s - bare_s) / bare_s,
        events,
        ..Layers::default()
    };

    // Probes: operations nested inside a layer's own calls (the seqlock
    // cell under the decide, the codec under `append`) or driven by
    // other threads (snapshots, rotation, the cross-thread wake).
    let broker = image.shards[0].broker();
    let table = broker.summary_table();
    let retries = AtomicU64::new(0);
    for row in 0..table.len() {
        let cell = table.cell(row).expect("row in range");
        tracer.call("summary.read_rate", NO_PARENT, || cell.read_rate(&retries));
        let fresh = broker.path_summary(PathId(row as u64));
        tracer.call("summary.try_publish", NO_PARENT, || {
            cell.try_publish(&fresh)
        });
    }
    for _ in 0..64 {
        tracer.call("telemetry.snapshot", NO_PARENT, || image.metrics.snapshot());
    }
    let mut poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(waker.fd(), Token(0), Interest::READ)?;
    let mut ready = Vec::new();
    for _ in 0..256 {
        tracer.call("netpoll.wake_to_wait", NO_PARENT, || {
            waker.wake();
            poller.wait(&mut ready, None)
        })?;
        waker.drain();
    }
    if let (Some(stores), Some(dir)) = (&image.stores, &traced_dir) {
        out.record_bytes = image.journaled.1 as f64 / image.journaled.0.max(1) as f64;
        // Recovery: open the directory cold and replay its journal —
        // the fill and every replayed event — into fresh shards.
        for store in stores {
            store.flush().map_err(io::Error::other)?;
        }
        let t0 = Instant::now();
        let (topo, routes) = spec.topology();
        let mut fresh = build_shards(&topo, &spec.broker_config(), &routes, CONNS);
        let mut records = 0u64;
        for (i, shard) in fresh.iter_mut().enumerate() {
            let (_, outcome) =
                ShardStore::open(&dir.join(format!("shard-{i}"))).map_err(io::Error::other)?;
            records += bb_durable::replay(shard, &outcome).total();
        }
        out.recover_ns_per_record = t0.elapsed().as_nanos() as f64 / records.max(1) as f64;
        drop(fresh);
        for (shard, store) in image.shards.iter().zip(stores) {
            tracer
                .call("durable.rotate", NO_PARENT, || {
                    store.rotate(&shard.export_image(), Time::ZERO)
                })
                .map_err(io::Error::other)?;
        }
    }
    drop(image);

    let n = 1_000_000u32;
    let t0 = Instant::now();
    let last = TraceGen::new(spec, seed, 0).take(n as usize).last();
    out.generate_ns_per_event = t0.elapsed().as_nanos() as f64 / f64::from(n);
    std::hint::black_box(last);

    out.stat = tracer.summarize();
    if let Some(path) = spans_out {
        tracer.dump(path)?;
    }
    Ok(out)
}
