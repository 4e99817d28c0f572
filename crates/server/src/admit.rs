//! Frame admission: the one path every ingest frame takes from a wire
//! plane into the shard queues, and the ack table that releases what
//! the shards made of it.
//!
//! Both planes drive the same [`Stage`]. [`Stage::push`] splits a
//! frame by route, records the frame's highest timestamp per touched
//! shard, and — under durable acks — registers the frame's
//! [`FrameAck`] before any shard can vote on it. [`Stage::flush`] then
//! hands each touched shard exactly one [`ShardCmd::Ingest`] carrying
//! every staged event routed there, applies the backpressure policy,
//! and settles every admission counter (`events`, `acks_deferred`,
//! `shed`, `admit_us`) at one site. Each wire plane keeps only two things:
//!
//! * **how it waits** — a full shard queue hands the unsent remainder
//!   back ([`Flush::Parked`]); the JSONL thread blocks on it
//!   ([`Stage::resume`] with `block`), the reactor drops read interest
//!   and retries on its tick;
//! * **how it renders a reply** — a JSONL line or an `FNB1` frame
//!   ([`Replies`]).
//!
//! Policy: under [`Backpressure::Block`] nothing is ever dropped. Under
//! [`Backpressure::Shed`] a plane stages one frame per flush, and the
//! flush checks every target queue before sending anything: if any is
//! full the frame is shed whole. The check-then-send window is best
//! effort — a frame that passes the check may wait briefly on a queue
//! that filled meanwhile — but a frame is never half-shed.

use crate::config::Backpressure;
use crate::metrics::ServerMetrics;
use crate::proto;
use crate::server::{ConnCtx, ShardCmd};
use crossbeam::channel::{Sender, TrySendError};
use fenestra_base::record::Event;
use fenestra_base::time::Timestamp;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ----- acks -----------------------------------------------------------------

/// Where (and how) a held frame's acknowledgement is delivered. The two
/// wire planes share one ack table — and therefore one FIFO, vote, and
/// failure machinery — but render resolutions differently: the JSONL
/// plane sends pre-built reply lines to its writer thread, the binary
/// plane sends encoded `Ack`/`Err` frames to the reactor that owns the
/// connection.
pub(crate) enum AckSink {
    /// JSONL: the connection writer's line channel, plus the ack line
    /// built at admission.
    Line {
        /// The connection's outbound line channel.
        tx: Sender<String>,
        /// The success line (`{"ok":true,…}`), pre-rendered.
        line: String,
    },
    /// Binary: the owning reactor's outbound byte lane, plus the ack
    /// identity to encode on resolution.
    Bin {
        /// Queue-and-wake handle addressing the connection.
        out: crate::reactor::OutHandle,
        /// Per-connection sequence number of the frame's last event.
        seq: u64,
        /// Events in the frame.
        count: u64,
    },
}

impl AckSink {
    /// Deliver the success acknowledgement.
    fn send_ok(&self) {
        match self {
            AckSink::Line { tx, line } => {
                let _ = tx.send(line.clone());
            }
            AckSink::Bin { out, seq, count } => {
                out.send(fenestra_wire::binary::encode_ack(*seq, *count));
            }
        }
    }

    /// Deliver a failure resolution carrying `msg`.
    fn send_err(&self, msg: &str) {
        match self {
            AckSink::Line { tx, .. } => {
                let _ = tx.send(proto::error(msg));
            }
            AckSink::Bin { out, seq, .. } => {
                out.send(fenestra_wire::binary::encode_err(*seq, msg));
            }
        }
    }
}

/// One ingest frame's acknowledgement, shared by every shard the frame
/// touched. Under durable acks (`--fsync always` with a WAL) the ack
/// is released only after each touched shard **votes**: its group
/// commit covered the frame's part — with `--max-lateness-ms > 0`,
/// only once the shard's watermark passed the part (see the crate docs,
/// "Ack semantics and durability").
pub(crate) struct FrameAck {
    /// Connection the ack belongs to (release is FIFO per connection).
    conn: u64,
    sink: AckSink,
    /// Touched shards that have not voted yet. At zero the frame is
    /// complete and its ack can go out (in per-connection order).
    remaining: AtomicUsize,
    /// Set by any shard whose WAL append/sync failed: the frame is not
    /// durable, so completion sends an error instead of the ack.
    failed: AtomicBool,
    /// Set by the sync-replica gate when the frame was locally durable
    /// but not confirmed by enough followers within `--sync-timeout-ms`
    /// (and `--sync-fallback` was off). Distinguishes the error line:
    /// the events *are* on the leader's disk, just not replicated.
    pub(crate) sync_failed: AtomicBool,
    /// Completion latch, read by the per-connection FIFO drain.
    done: AtomicBool,
}

impl FrameAck {
    /// A fresh frame ack awaiting `remaining` shard votes.
    pub(crate) fn new(conn: u64, sink: AckSink, remaining: usize) -> FrameAck {
        FrameAck {
            conn,
            sink,
            remaining: AtomicUsize::new(remaining),
            failed: AtomicBool::new(false),
            sync_failed: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }
}

/// A frame part's ack bookkeeping, carried with the part to its shard.
pub(crate) struct AckPart {
    pub(crate) frame: Arc<FrameAck>,
    /// Highest event timestamp in *this shard's part* (`None` never
    /// occurs for staged parts — empty parts are not sent — but a frame
    /// dropped entirely as late still yields a covered vote).
    pub(crate) max_ts: Option<Timestamp>,
    /// When the frame was staged; the `ack_hold_us` stage measures
    /// from here to the covering vote.
    pub(crate) admitted: Instant,
}

/// Registry of in-flight durable acks, keyed by connection, in socket
/// (admission) order. Shards vote from their own threads; the table
/// sends each connection's acks strictly in admission order — a
/// completed frame waits behind an earlier incomplete one, but one
/// connection's stalled frame never holds up another connection.
pub(crate) struct AckTable {
    conns: Mutex<HashMap<u64, VecDeque<Arc<FrameAck>>>>,
    /// For the `acks_released` counter: every held ack handed to its
    /// sink (ack or failure) counts as one resolved deferral.
    metrics: Arc<ServerMetrics>,
}

impl AckTable {
    pub(crate) fn new(metrics: Arc<ServerMetrics>) -> AckTable {
        AckTable {
            conns: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Whether connection `conn` still has unresolved frames — the
    /// reactor keeps an EOF'd binary connection alive until this says
    /// no, so held acks outlive a client that stops sending.
    pub(crate) fn has_conn(&self, conn: u64) -> bool {
        self.conns
            .lock()
            .expect("ack table lock")
            .contains_key(&conn)
    }

    /// Register a frame in admission order. Must happen before any
    /// shard can vote on it (i.e. before the parts are enqueued).
    pub(crate) fn register(&self, frame: Arc<FrameAck>) {
        let empty = frame.remaining.load(Ordering::Acquire) == 0;
        if empty {
            frame.done.store(true, Ordering::Release);
        }
        let conn = frame.conn;
        self.conns
            .lock()
            .expect("ack table lock")
            .entry(conn)
            .or_default()
            .push_back(frame);
        if empty {
            self.drain(conn);
        }
    }

    /// Remove a just-registered frame that was never admitted (shed, or
    /// turned back at shutdown). Only the registering connection calls
    /// this, and frames register sequentially per connection, so it is
    /// the back entry; anything else is left alone.
    pub(crate) fn unregister_last(&self, frame: &Arc<FrameAck>) {
        let mut map = self.conns.lock().expect("ack table lock");
        if let Some(q) = map.get_mut(&frame.conn) {
            if q.back().is_some_and(|b| Arc::ptr_eq(b, frame)) {
                q.pop_back();
            }
            if q.is_empty() {
                map.remove(&frame.conn);
            }
        }
    }

    /// One shard's verdict on its part of the frame. Exactly one vote
    /// per touched shard; the last vote completes the frame and flushes
    /// the connection's sendable prefix.
    pub(crate) fn vote(&self, frame: &Arc<FrameAck>, durable: bool) {
        if !durable {
            frame.failed.store(true, Ordering::Release);
        }
        if frame.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            frame.done.store(true, Ordering::Release);
            self.drain(frame.conn);
        }
    }

    /// Send the connection's completed-frame prefix, in order.
    fn drain(&self, conn: u64) {
        let mut map = self.conns.lock().expect("ack table lock");
        let Some(q) = map.get_mut(&conn) else { return };
        while q.front().is_some_and(|f| f.done.load(Ordering::Acquire)) {
            let f = q.pop_front().expect("checked front");
            self.metrics.acks_released.fetch_add(1, Ordering::Relaxed);
            if f.sync_failed.load(Ordering::Acquire) {
                f.sink.send_err(
                    "sync replication timed out; events durable locally but not \
                     confirmed by enough replicas",
                );
            } else if f.failed.load(Ordering::Acquire) {
                f.sink.send_err("WAL append failed; events not durable");
            } else {
                f.sink.send_ok();
            }
        }
        if q.is_empty() {
            map.remove(&conn);
        }
    }

    /// Shutdown sweep: every frame still registered (admitted behind
    /// the shutdown command, so never applied) is failed explicitly —
    /// no ack is left hanging, and no sink is left alive to wedge a
    /// connection's writer thread.
    pub(crate) fn fail_all(&self, msg: &str) {
        let mut map = self.conns.lock().expect("ack table lock");
        for (_, q) in map.drain() {
            for f in q {
                self.metrics.acks_released.fetch_add(1, Ordering::Relaxed);
                f.sink.send_err(msg);
            }
        }
    }
}

// ----- staging --------------------------------------------------------------

/// A frame's identity on its connection, as its replies name it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameId {
    /// Per-connection sequence number of the frame's last event.
    pub(crate) seq: u64,
    /// Events in the frame.
    pub(crate) count: u64,
    /// A JSONL plain event line, acked without a `count`.
    pub(crate) single: bool,
}

/// How a wire plane renders admission replies.
pub(crate) trait Replies {
    /// The sink a held (durable) frame's ack resolves into.
    fn held(&self, f: FrameId) -> AckSink;
    /// Immediate ack: the frame entered every queue it routes to.
    fn ack(&mut self, f: FrameId);
    /// The frame was shed whole under [`Backpressure::Shed`].
    fn shed(&mut self, f: FrameId);
    /// The shard queues are gone: the server is shutting down. `seq` is
    /// the last staged frame's.
    fn down(&mut self, seq: u64);
}

/// What a flush left for the calling plane.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Every staged frame is settled: admitted or shed, replies out.
    Done,
    /// A shard queue was full; the unsent parts wait in the stage for
    /// [`Stage::resume`].
    Parked,
    /// Shard channels disconnected: the server is shutting down.
    Down,
}

/// Frames staged for one flush, split by route. One stage per
/// connection; it holds either frames being staged or, after a flush
/// hit a full queue, the parked remainder — never both. Coalescing
/// many frames into one part per shard (the reactor stages a whole
/// socket drain) lets one group commit cover more events at the same
/// queue depth; each frame keeps its own [`FrameAck`] and contributes
/// one [`AckPart`] per shard it touched.
pub(crate) struct Stage {
    /// Per shard: events routed there since the last flush.
    parts: Vec<Vec<Event>>,
    /// Per shard: one ack part per held frame that touched it.
    acks: Vec<Vec<AckPart>>,
    /// Staged frames in order, with their held ack if any.
    frames: Vec<(FrameId, Option<Arc<FrameAck>>)>,
    /// When the first frame was staged (the `admit_us` sample spans
    /// staging, hand-off, and any wait on a full queue).
    t_first: Option<Instant>,
    /// Built commands a full queue turned back, in send order.
    parked: VecDeque<(usize, ShardCmd)>,
}

impl Stage {
    pub(crate) fn new(shards: usize) -> Stage {
        Stage {
            parts: vec![Vec::new(); shards],
            acks: (0..shards).map(|_| Vec::new()).collect(),
            frames: Vec::new(),
            t_first: None,
            parked: VecDeque::new(),
        }
    }

    /// Whether a flush is waiting on a full shard queue.
    pub(crate) fn is_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Stage one frame of connection `conn` (`id.count` is
    /// `events.len()`): route its events, and under durable acks
    /// register its [`FrameAck`] — in staging order, so held acks keep
    /// their per-connection FIFO order. An empty durable frame
    /// registers with no parts and completes at once, but still queues
    /// behind earlier frames' acks.
    pub(crate) fn push(
        &mut self,
        ctx: &ConnCtx,
        conn: u64,
        id: FrameId,
        events: Vec<Event>,
        out: &impl Replies,
    ) {
        debug_assert!(!self.is_parked(), "staging into a parked stage");
        debug_assert_eq!(id.count, events.len() as u64);
        let now = Instant::now();
        self.t_first.get_or_insert(now);
        let shards = self.parts.len();
        let mut max_ts: Vec<Option<Timestamp>> = vec![None; shards];
        for ev in events {
            let i = if shards == 1 {
                0
            } else {
                ctx.router.route(&ev) as usize
            };
            max_ts[i] = max_ts[i].max(Some(ev.ts));
            self.parts[i].push(ev);
        }
        let held = ctx.durable_acks.then(|| {
            let targets = max_ts.iter().flatten().count();
            let f = Arc::new(FrameAck::new(conn, out.held(id), targets));
            ctx.ack_table.register(f.clone());
            for (i, max_ts) in max_ts.into_iter().enumerate() {
                if max_ts.is_some() {
                    self.acks[i].push(AckPart {
                        frame: f.clone(),
                        max_ts,
                        admitted: now,
                    });
                }
            }
            f
        });
        self.frames.push((id, held));
    }

    /// Hand the stage to the shards: one [`ShardCmd::Ingest`] per
    /// touched shard, never blocking. Under `Shed` a full target sheds
    /// the staged frame whole before anything is sent; otherwise a full
    /// queue parks the unsent remainder. A parked stage stays parked.
    pub(crate) fn flush(&mut self, ctx: &ConnCtx, out: &mut impl Replies) -> Flush {
        if self.is_parked() {
            return Flush::Parked;
        }
        if self.frames.is_empty() {
            return Flush::Done;
        }
        let enqueued = Instant::now();
        for (i, part) in self.parts.iter_mut().enumerate() {
            if !part.is_empty() {
                let cmd = ShardCmd::Ingest {
                    evs: std::mem::take(part),
                    acks: std::mem::take(&mut self.acks[i]),
                    enqueued,
                };
                self.parked.push_back((i, cmd));
            }
        }
        if ctx.backpressure == Backpressure::Shed
            && self.parked.iter().any(|(i, _)| {
                let tx = &ctx.shard_txs[*i];
                tx.capacity().is_some_and(|cap| tx.len() >= cap)
            })
        {
            debug_assert_eq!(self.frames.len(), 1, "Shed flushes one frame at a time");
            self.parked.clear();
            return self.settle(ctx, out, false);
        }
        self.resume(ctx, false, out)
    }

    /// Send the parked remainder: `block` waits for queue space (the
    /// JSONL thread), otherwise a still-full queue leaves the stage
    /// parked (the reactor's retry tick).
    pub(crate) fn resume(&mut self, ctx: &ConnCtx, block: bool, out: &mut impl Replies) -> Flush {
        while let Some((i, cmd)) = self.parked.pop_front() {
            let tx = &ctx.shard_txs[i];
            let sent = if block {
                tx.send(cmd).map_err(|e| TrySendError::Disconnected(e.0))
            } else {
                tx.try_send(cmd)
            };
            match sent {
                Ok(()) => {
                    // Server-level HWM (max across shards) and this
                    // shard's own depth/HWM (`gauges.queue_hwm`).
                    let depth = tx.len() as u64;
                    ctx.metrics.observe_queue_depth(depth);
                    ctx.obs.shards[i].observe_queue_depth(depth);
                }
                Err(TrySendError::Full(cmd)) => {
                    self.parked.push_front((i, cmd));
                    return Flush::Parked;
                }
                Err(TrySendError::Disconnected(_)) => {
                    // Shutdown: turn the held acks back so no sink
                    // outlives the connection; counters stay untouched.
                    self.parked.clear();
                    self.unregister(ctx);
                    let seq = self.frames.last().map_or(0, |(f, _)| f.seq);
                    self.frames.clear();
                    self.t_first = None;
                    out.down(seq);
                    return Flush::Down;
                }
            }
        }
        self.settle(ctx, out, true)
    }

    /// Every admission counter, at one site, then the replies in frame
    /// order: immediate acks for admitted non-durable frames (held ones
    /// resolve through the ack table), a shed reply per shed frame.
    fn settle(&mut self, ctx: &ConnCtx, out: &mut impl Replies, admitted: bool) -> Flush {
        let m = &ctx.metrics;
        let events: u64 = self.frames.iter().map(|(f, _)| f.count).sum();
        if admitted {
            let held = self.frames.iter().filter(|(_, h)| h.is_some()).count();
            m.events.fetch_add(events, Ordering::Relaxed);
            m.acks_deferred.fetch_add(held as u64, Ordering::Relaxed);
        } else {
            m.shed.fetch_add(events, Ordering::Relaxed);
            self.unregister(ctx);
        }
        if let Some(t) = self.t_first.take() {
            ctx.obs.admit_us.record(t.elapsed().as_micros() as u64);
        }
        for (id, held) in self.frames.drain(..) {
            if !admitted {
                out.shed(id);
            } else if held.is_none() {
                out.ack(id);
            }
        }
        Flush::Done
    }

    /// Withdraw the staged frames' held acks, newest first (each is the
    /// connection's back entry in turn).
    fn unregister(&self, ctx: &ConnCtx) {
        for (_, held) in self.frames.iter().rev() {
            if let Some(f) = held {
                ctx.ack_table.unregister_last(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{self, Receiver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const WAL_ERR: &str = "WAL append failed; events not durable";
    const SYNC_ERR: &str = "sync replication timed out; events durable locally but not \
                            confirmed by enough replicas";

    fn table() -> (AckTable, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::default());
        (AckTable::new(metrics.clone()), metrics)
    }

    fn frame(conn: u64, tx: &Sender<String>, name: &str, parts: usize) -> Arc<FrameAck> {
        let sink = AckSink::Line {
            tx: tx.clone(),
            line: name.to_string(),
        };
        Arc::new(FrameAck::new(conn, sink, parts))
    }

    fn drained(rx: &Receiver<String>) -> Vec<String> {
        rx.try_iter().collect()
    }

    #[test]
    fn release_waits_for_the_last_vote_and_keeps_fifo() {
        let (t, metrics) = table();
        let (tx, rx) = channel::unbounded();
        let a = frame(1, &tx, "a", 2);
        let b = frame(1, &tx, "b", 1);
        let c = frame(1, &tx, "c", 0);
        for f in [&a, &b, &c] {
            t.register(f.clone());
        }
        t.vote(&b, true);
        t.vote(&a, true);
        assert!(drained(&rx).is_empty(), "a still owes a vote");
        assert!(t.has_conn(1));
        t.vote(&a, false);
        assert_eq!(
            drained(&rx),
            [proto::error(WAL_ERR), "b".into(), "c".into()]
        );
        assert!(!t.has_conn(1), "an empty queue leaves the table");
        assert_eq!(metrics.acks_released.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn unregister_last_only_removes_the_back_entry() {
        let (t, _) = table();
        let (tx, rx) = channel::unbounded();
        let a = frame(7, &tx, "a", 1);
        let b = frame(7, &tx, "b", 1);
        t.register(a.clone());
        t.register(b.clone());
        t.unregister_last(&a);
        t.unregister_last(&b);
        t.vote(&b, true);
        assert!(drained(&rx).is_empty(), "withdrawn b never resolves");
        t.vote(&a, true);
        assert_eq!(drained(&rx), ["a"]);
        assert!(!t.has_conn(7));
    }

    #[test]
    fn fail_all_resolves_every_registered_frame_once() {
        let (t, metrics) = table();
        let (tx, rx) = channel::unbounded();
        let (tx2, rx2) = channel::unbounded();
        let a = frame(1, &tx, "a", 1);
        let b = frame(2, &tx2, "b", 3);
        t.register(a.clone());
        t.register(b.clone());
        t.fail_all("server shutting down");
        let down = || proto::error("server shutting down");
        assert_eq!(drained(&rx), [down()]);
        assert_eq!(drained(&rx2), [down()]);
        // Late votes after the sweep resolve nothing a second time.
        t.vote(&a, true);
        for _ in 0..3 {
            t.vote(&b, true);
        }
        assert!(drained(&rx).is_empty() && drained(&rx2).is_empty());
        assert!(!t.has_conn(1) && !t.has_conn(2));
        assert_eq!(metrics.acks_released.load(Ordering::Relaxed), 2);
    }

    /// One modelled frame: what the table must eventually say for it.
    struct Model {
        ack: Arc<FrameAck>,
        name: String,
        votes_left: usize,
        failed: bool,
        sync_failed: bool,
    }

    impl Model {
        fn expected(&self) -> String {
            if self.sync_failed {
                proto::error(SYNC_ERR)
            } else if self.failed {
                proto::error(WAL_ERR)
            } else {
                self.name.clone()
            }
        }
    }

    /// Seeded interleavings of registrations, votes (ok, WAL failure,
    /// sync timeout), sheds, and stray withdrawals over three
    /// connections, frames touching 0–3 shards. After every step each
    /// connection has received exactly its completed prefix, in order,
    /// whatever the other connections are doing.
    #[test]
    fn random_vote_interleavings_release_fifo_exactly_once() {
        const CONNS: u64 = 3;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, metrics) = table();
            let chans: Vec<(Sender<String>, Receiver<String>)> =
                (0..CONNS).map(|_| channel::unbounded()).collect();
            let mut frames: Vec<Vec<Model>> = (0..CONNS).map(|_| Vec::new()).collect();
            let mut released = vec![0usize; CONNS as usize];
            let mut lines = 0u64;
            let mut made = 0u64;
            let target = rng.gen_range(5u64..40);
            let check = |frames: &[Vec<Model>], released: &mut [usize], lines: &mut u64| {
                for (c, (_, rx)) in chans.iter().enumerate() {
                    for line in rx.try_iter() {
                        let f = frames[c]
                            .get(released[c])
                            .unwrap_or_else(|| panic!("seed {seed}: extra line {line}"));
                        assert_eq!(f.votes_left, 0, "seed {seed}: released before last vote");
                        assert_eq!(line, f.expected(), "seed {seed}");
                        released[c] += 1;
                        *lines += 1;
                    }
                    let prefix = frames[c].iter().take_while(|f| f.votes_left == 0).count();
                    assert_eq!(
                        released[c], prefix,
                        "seed {seed} conn {c}: not the done prefix"
                    );
                    let open = released[c] < frames[c].len();
                    assert_eq!(t.has_conn(c as u64), open, "seed {seed} conn {c}");
                }
            };
            loop {
                let pending: Vec<(usize, usize)> = (0..CONNS as usize)
                    .flat_map(|c| (0..frames[c].len()).map(move |i| (c, i)))
                    .filter(|&(c, i)| frames[c][i].votes_left > 0)
                    .collect();
                if made == target && pending.is_empty() {
                    break;
                }
                let roll = rng.gen_range(0u32..10);
                if made < target && (pending.is_empty() || roll < 4) {
                    let c = rng.gen_range(0..CONNS) as usize;
                    let parts = rng.gen_range(0usize..=3);
                    let name = format!("c{c}f{made}");
                    let ack = frame(c as u64, &chans[c].0, &name, parts);
                    t.register(ack.clone());
                    made += 1;
                    if parts > 0 && rng.gen_bool(0.15) {
                        // Shed right after registering: withdrawn whole.
                        t.unregister_last(&ack);
                    } else {
                        frames[c].push(Model {
                            ack,
                            name,
                            votes_left: parts,
                            failed: false,
                            sync_failed: false,
                        });
                    }
                } else if roll == 4 {
                    // A stray withdrawal of a non-back frame is a no-op.
                    let c = rng.gen_range(0..CONNS) as usize;
                    let q = &frames[c][released[c]..];
                    if q.len() > 1 {
                        t.unregister_last(&q[0].ack);
                    }
                } else if !pending.is_empty() {
                    let (c, i) = pending[rng.gen_range(0..pending.len())];
                    let f = &mut frames[c][i];
                    let durable = rng.gen_bool(0.9);
                    if f.votes_left == 1 && durable && rng.gen_bool(0.1) {
                        // The sync gate's timeout verdict.
                        f.ack.sync_failed.store(true, Ordering::Release);
                        f.sync_failed = true;
                        f.votes_left -= 1;
                        let ack = f.ack.clone();
                        t.vote(&ack, false);
                    } else {
                        f.failed |= !durable;
                        f.votes_left -= 1;
                        let ack = f.ack.clone();
                        t.vote(&ack, durable);
                    }
                }
                check(&frames, &mut released, &mut lines);
                if made == target && rng.gen_bool(0.05) {
                    // Shutdown sweep mid-flight: everything still held
                    // fails once; later votes resolve nothing.
                    t.fail_all("server shutting down");
                    for (c, (_, rx)) in chans.iter().enumerate() {
                        let got: Vec<String> = rx.try_iter().collect();
                        let want = frames[c].len() - released[c];
                        assert_eq!(got.len(), want, "seed {seed} conn {c}");
                        assert!(got
                            .iter()
                            .all(|l| *l == proto::error("server shutting down")));
                        lines += want as u64;
                        assert!(!t.has_conn(c as u64));
                    }
                    for q in &frames {
                        for f in q {
                            for _ in 0..f.votes_left {
                                t.vote(&f.ack, true);
                            }
                        }
                    }
                    assert!(chans.iter().all(|(_, rx)| rx.is_empty()), "seed {seed}");
                    break;
                }
            }
            assert!(chans.iter().all(|(_, rx)| rx.is_empty()), "seed {seed}");
            assert_eq!(
                metrics.acks_released.load(Ordering::Relaxed),
                lines,
                "seed {seed}"
            );
        }
    }
}
