//! The threaded TCP server.
//!
//! Threading model: N **shard threads** (one per `--shards`) each own
//! one [`Engine`] partition and consume their own bounded
//! command queue (FIFO per shard, so a `shutdown` command naturally
//! drains every ingest admitted before it on that shard). Events route
//! to exactly one shard by a deterministic hash of their entity key
//! (see [`fenestra_core::ShardRouter`]); batch frames are split by
//! route and acked only when **every** touched shard's group commit
//! covers its part. The epoll reactor pool (`src/reactor.rs`) accepts
//! every socket and serves binary-plane connections itself; a JSONL
//! connection is handed to a **reader thread** (socket lines →
//! commands) and a **writer thread** (outbound channel → socket), so
//! slow clients never stall the engines. Both planes admit ingest
//! through `src/admit.rs`; under [`Backpressure::Block`] a full shard
//! queue holds back the *sending* connection only.
//!
//! Queries fan out across shards and merge. `stats` is served
//! **lock-light** on the connection thread: shard loops and WAL
//! writers publish counters, gauges, and stage-latency histograms
//! into per-shard atomics ([`fenestra_obs::ShardObs`]) that the stats
//! builder — and the optional Prometheus listener
//! (`--metrics-addr`) — merely load and merge. Metrics reads never
//! enqueue through the ingest path; the explicit `{"cmd":"sync"}`
//! command is the processing barrier `stats` used to double as. With
//! one shard, query byte layout and the on-disk WAL/snapshot format
//! are identical to the pre-sharding server.

use crate::admit::{AckPart, AckSink, AckTable, Flush, FrameId, Replies, Stage};
use crate::config::{Backpressure, ServerConfig};
use crate::metrics::{plan_cache, ServerMetrics};
use crate::proto::{self, Request};
use crossbeam::channel::{self, Receiver, Sender};
use fenestra_base::error::{Error, Result};
use fenestra_base::record::Event;
use fenestra_base::symbol::Symbol;
use fenestra_base::time::{Duration, Interval, Timestamp};
use fenestra_base::value::Value;
use fenestra_core::shard::{merge_rows, partial_select};
use fenestra_core::{Engine, EngineConfig, EngineMetrics, QueryResult, ShardRouter, Watch};
use fenestra_obs::{PipelineObs, ShardObs};
use fenestra_query::{
    Bindings, CacheStats, CachedPlan, PhysicalPlan, PlanCache, Query, QueryOptions, WindowPhys,
};
use fenestra_replica::{
    load_epoch, now_us, serve_follower, store_epoch, AckTracker, FollowerClient, LeaderConfig,
    ReplPaths, DEAD_SESSION_HEARTBEATS, HEARTBEAT_MS,
};
use fenestra_temporal::wal_file::{
    list_segment_gens, recover_shards, segment_path, shard_segment_path, shard_snapshot_path,
};
use fenestra_temporal::{FsyncPolicy, Provenance, TemporalStore, WalWriter, WalWriterStats};
use fenestra_wire::repl::{redirect_line, ReplFrame, ShardPosition};
use serde_json::{Map, Value as Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

// ----- sync-replica ack gate ------------------------------------------------

/// One shard's hand-off to the sync gate: every ack part the shard's
/// group commit just covered locally, plus the WAL position that commit
/// reached. The parts are releasable once ≥ `--sync-replicas` follower
/// sessions claim fsynced coverage of `(gen, offset)` — generation
/// first, then byte offset (see [`AckTracker::covering`]).
struct SyncWait {
    shard: u32,
    gen: u64,
    offset: u64,
    parts: Vec<AckPart>,
    /// When the shard handed the wait over; the timeout and the
    /// `sync_wait_us` histogram both measure from here.
    since: Instant,
}

/// Commands consumed by the sync-gate thread.
enum GateMsg {
    /// Park these locally-durable parts until followers cover them.
    Wait(SyncWait),
    /// A follower's coverage advanced (sent by the [`AckTracker`]
    /// notify hook): re-check the parked waits now instead of on the
    /// next timeout tick. This is what makes the gate event-driven —
    /// without it, every sync-replicated ack ate up to a full polling
    /// interval of pure wakeup latency.
    Poke,
    /// Shutdown barrier: resolve every parked wait (followers keep
    /// acking during the drain — shipping is still running), confirm,
    /// and exit. Terminal: no `Wait` is accepted after it, and none can
    /// arrive — the shard threads have already drained.
    Flush(Sender<()>),
}

/// Everything the sync-gate thread owns. One gate serves all shards:
/// waits resolve in FIFO order per shard (coverage is monotone, so the
/// front wait always resolves first), and a resolved wait votes its
/// parts exactly like the async path would have.
struct SyncGateCtx {
    rx: Receiver<GateMsg>,
    /// Follower coverage, fed by the leader's per-session ack readers.
    tracker: Arc<AckTracker>,
    /// `--sync-replicas`: how many sessions must cover a position.
    replicas: u32,
    /// `--sync-timeout-ms`: how long a wait may park before degrading.
    timeout: std::time::Duration,
    /// `--sync-fallback`: on timeout, ack anyway (counted) instead of
    /// failing the frame.
    fallback: bool,
    table: Arc<AckTable>,
    obs: Arc<PipelineObs>,
}

/// The sync-gate thread: park covered-locally parts and release (or
/// time out) in per-shard FIFO order. Event-driven: coverage advances
/// arrive as [`GateMsg::Poke`] from the ack tracker's notify hook, so
/// the only timed wake-up left is each front wait's *own* timeout
/// deadline — an idle gate sleeps, a busy gate wakes exactly when a
/// follower acks or a wait expires.
fn sync_gate_loop(ctx: SyncGateCtx) {
    let mut queues: Vec<VecDeque<SyncWait>> = Vec::new();
    let mut open = true;
    loop {
        let busy = queues.iter().any(|q| !q.is_empty());
        if !busy && !open {
            return;
        }
        let msg = if !open {
            // Channel gone but waits remain: poll coverage until the
            // timeouts clear them. (Unreachable in practice — the
            // notify hook keeps a sender alive — but harmless.)
            thread::sleep(std::time::Duration::from_millis(2));
            None
        } else if busy {
            // Sleep until the earliest front-wait deadline; a Poke or
            // a new Wait cuts the sleep short.
            let next_deadline = queues
                .iter()
                .filter_map(|q| q.front())
                .map(|w| (w.since + ctx.timeout).saturating_duration_since(Instant::now()))
                .min()
                .unwrap_or(std::time::Duration::from_millis(1));
            match ctx.rx.recv_timeout(next_deadline) {
                Ok(m) => Some(m),
                Err(channel::RecvTimeoutError::Timeout) => None,
                Err(channel::RecvTimeoutError::Disconnected) => {
                    open = false;
                    None
                }
            }
        } else {
            match ctx.rx.recv() {
                Ok(m) => Some(m),
                Err(_) => {
                    open = false;
                    continue;
                }
            }
        };
        match msg {
            Some(GateMsg::Poke) => {}
            Some(GateMsg::Wait(w)) => {
                if queues.len() <= w.shard as usize {
                    queues.resize_with(w.shard as usize + 1, VecDeque::new);
                }
                ctx.obs
                    .repl
                    .sync_waiting
                    .fetch_add(w.parts.len() as u64, Ordering::Relaxed);
                queues[w.shard as usize].push_back(w);
            }
            Some(GateMsg::Flush(done)) => {
                while queues.iter().any(|q| !q.is_empty()) {
                    gate_pass(&ctx, &mut queues);
                    thread::sleep(std::time::Duration::from_millis(2));
                }
                let _ = done.send(());
                return;
            }
            None => {}
        }
        gate_pass(&ctx, &mut queues);
    }
}

/// One resolution pass: release each shard queue's covered prefix,
/// degrade (fallback-ack or fail) anything past its timeout.
fn gate_pass(ctx: &SyncGateCtx, queues: &mut [VecDeque<SyncWait>]) {
    let robs = &ctx.obs.repl;
    for (shard, q) in queues.iter_mut().enumerate() {
        while let Some(front) = q.front() {
            let covered =
                ctx.tracker.covering(shard as u32, front.gen, front.offset) >= ctx.replicas;
            if !covered && front.since.elapsed() < ctx.timeout {
                break; // FIFO: later waits target later positions.
            }
            let w = q.pop_front().expect("checked front");
            let n = w.parts.len() as u64;
            robs.sync_waiting.fetch_sub(n, Ordering::Relaxed);
            robs.sync_wait_us
                .record(w.since.elapsed().as_micros() as u64);
            if covered || ctx.fallback {
                if covered {
                    robs.sync_acks_ok.fetch_add(n, Ordering::Relaxed);
                } else {
                    robs.sync_acks_fallback.fetch_add(n, Ordering::Relaxed);
                }
                let now = Instant::now();
                for p in w.parts {
                    if let Some(s) = ctx.obs.shards.get(shard) {
                        s.ack_hold_us
                            .record(now.saturating_duration_since(p.admitted).as_micros() as u64);
                    }
                    ctx.table.vote(&p.frame, true);
                }
            } else {
                robs.sync_acks_timeout.fetch_add(n, Ordering::Relaxed);
                for p in w.parts {
                    p.frame.sync_failed.store(true, Ordering::Release);
                    ctx.table.vote(&p.frame, false);
                }
            }
        }
    }
}

// ----- shard commands -------------------------------------------------------

/// One shard's history span list, ids already resolved.
type HistorySpans = Vec<(Interval, Value, Provenance)>;

/// Commands consumed by a shard thread.
pub(crate) enum ShardCmd {
    /// This shard's part of one or more ingest frames, built only by
    /// [`Stage::flush`]: one part per touched shard per flush, with one
    /// [`AckPart`] per held frame. The shard greedily coalesces
    /// consecutive parts into one group commit and votes the attached
    /// acks once its WAL fsync covers them. `enqueued` is when the
    /// flush built the part (the `queue_wait_us` stage).
    Ingest {
        evs: Vec<Event>,
        acks: Vec<AckPart>,
        enqueued: Instant,
    },
    /// Single-shard deployments: execute the compiled plan through the
    /// full legacy path, returning the exact reply line
    /// (byte-identical to the unsharded server). The plan arrives
    /// pre-compiled from the connection thread's shared [`PlanCache`].
    QueryPlan {
        plan: Arc<CachedPlan>,
        reply: Sender<String>,
    },
    /// Fan-out select: run with `limit`/`count` stripped and entity
    /// ids resolved; the connection thread merges across shards.
    QueryRows {
        q: Arc<Query>,
        reply: Sender<std::result::Result<Vec<Bindings>, String>>,
    },
    /// Fan-out history: every shard that knows the entity replies
    /// `Some`; the connection thread merges the timelines by span
    /// start (ties broken by shard id, then in-shard order).
    QueryHistory {
        entity: Symbol,
        attr: Symbol,
        reply: Sender<Option<HistorySpans>>,
    },
    /// Fan-out windowed aggregation: this shard's slice of the fact
    /// stream a [`WindowPhys`] scans, ts-ordered; the connection
    /// thread merges the slices and runs the window operator once.
    QueryFacts {
        w: Arc<WindowPhys>,
        reply: Sender<std::result::Result<Vec<Event>, String>>,
    },
    /// Register a standing query on this shard; deltas for this
    /// shard's partition of the rows go to `sink`. Watches of the
    /// same statement share one plan (the cache hands out `Arc`s).
    Watch {
        name: String,
        plan: Arc<CachedPlan>,
        sink: Sender<String>,
    },
    /// Processing barrier: replies once every command admitted before
    /// it on this shard's FIFO queue has been applied. `stats` reads
    /// atomics on the connection thread and proves nothing; `sync`
    /// proves everything.
    Sync {
        done: Sender<()>,
    },
    Snapshot,
    /// Horizon GC pass (`--gc-horizon-ms`), on the snapshot cadence.
    Gc,
    /// Follower: append leader-shipped raw WAL frames expected at
    /// exactly `(gen, offset)` of this shard's local segment, apply the
    /// contained ops to the store, and reply the new offset, frame/op
    /// counts for the replication counters, and whether the append was
    /// fsynced (policy `always`) — only then may the follower claim the
    /// position as *covered* to the leader's sync-ack gate. The local
    /// WAL stays a byte mirror of the leader's.
    ReplicaApply {
        gen: u64,
        offset: u64,
        bytes: Vec<u8>,
        reply: Sender<Result<(u64, u64, u64, bool)>>,
    },
    /// Follower: wholesale re-bootstrap from a leader snapshot (empty
    /// bytes = start this shard empty), restarting the local WAL with a
    /// fresh segment at `gen`.
    ReplicaBootstrap {
        gen: u64,
        bytes: Vec<u8>,
        reply: Sender<Result<()>>,
    },
    /// Follower: mirror the leader's rotation — checkpoint into a fresh
    /// segment at exactly `new_gen` (which must be the successor of the
    /// local generation; frames arrive in order, so the old segment is
    /// fully applied by now).
    ReplicaRotate {
        new_gen: u64,
        reply: Sender<Result<()>>,
    },
    /// Replication: this shard's durable position — current segment
    /// generation and byte length. `(0, 0)` without a WAL.
    ReplicaPosition {
        reply: Sender<(u64, u64)>,
    },
    /// Drain, flush, persist, vote every held ack, then confirm.
    Shutdown {
        done: Sender<()>,
    },
}

/// Send one request to every shard, then wait for every reply, in
/// shard order. `cmd` wraps each shard's reply channel. `None` when any
/// shard thread is gone — after every shard that did take the request
/// has replied.
pub(crate) fn fan_out<T>(
    txs: &[Sender<ShardCmd>],
    mut cmd: impl FnMut(Sender<T>) -> ShardCmd,
) -> Option<Vec<T>> {
    let rxs: Vec<_> = txs
        .iter()
        .map(|tx| {
            let (reply, rx) = channel::bounded(1);
            tx.send(cmd(reply)).ok().map(|()| rx)
        })
        .collect();
    let replies: Vec<Option<T>> = rxs
        .into_iter()
        .map(|rx| rx.and_then(|rx| rx.recv().ok()))
        .collect();
    replies.into_iter().collect()
}

// ----- replication role -----------------------------------------------------

/// Replication role state, shared by the connection threads, the shard
/// threads, and the follower loop. Present only when `--follow` or
/// `--replicate` is configured; a plain server carries `None` and pays
/// nothing.
struct ReplState {
    /// The node's fencing epoch. Bumped (and persisted) at promotion;
    /// the replication listener fences sessions against it.
    epoch: Arc<AtomicU64>,
    /// True while this node is a read-only follower: ingest is
    /// redirected, local checkpoints and GC are suppressed (the
    /// leader's stream drives both), and `{"cmd":"promote"}` is legal.
    following: AtomicBool,
    /// The leader's replication address (`--follow`), echoed in ingest
    /// redirect errors.
    leader: Option<String>,
    /// Promotion request latch, set by `{"cmd":"promote"}`; the
    /// follower loop observes it within one tick.
    promote: AtomicBool,
    /// Promotion completion latch: the epoch is persisted and every
    /// shard has checkpointed under it.
    promoted: AtomicBool,
}

impl ReplState {
    fn is_following(&self) -> bool {
        self.following.load(Ordering::SeqCst)
    }
}

/// Shared context for connection threads and the reactor pool.
pub(crate) struct ConnCtx {
    pub(crate) shard_txs: Vec<Sender<ShardCmd>>,
    pub(crate) router: Arc<ShardRouter>,
    pub(crate) ack_table: Arc<AckTable>,
    coord: Arc<ShutdownCoord>,
    pub(crate) backpressure: Backpressure,
    /// `--fsync always` with a WAL: acks are deferred until every
    /// touched shard's group commit covers the frame.
    pub(crate) durable_acks: bool,
    /// Cap on one frame's payload (binary) or one line (JSONL).
    pub(crate) max_frame_bytes: usize,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) obs: Arc<PipelineObs>,
    /// Statement-keyed compiled-plan cache, shared by every connection
    /// (and every plane): queries, watches, and `EXPLAIN` all go
    /// through it, so repeated statements compile once.
    pub(crate) plans: Arc<PlanCache>,
    repl: Option<Arc<ReplState>>,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// The server entry point; see [`Server::start`].
pub struct Server;

/// A running server: bound address, shutdown trigger, join.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    replicate_addr: Option<SocketAddr>,
    metrics: Arc<ServerMetrics>,
    obs: Arc<PipelineObs>,
    shutdown: Arc<AtomicBool>,
    coord: Arc<ShutdownCoord>,
    shard_threads: Vec<JoinHandle<()>>,
    reactor_threads: Vec<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    repl_thread: Option<JoinHandle<()>>,
    follower_thread: Option<JoinHandle<()>>,
    sync_thread: Option<JoinHandle<()>>,
}

/// Coordinates the one graceful shutdown: broadcast `Shutdown` to all
/// shards, wait until each has drained/persisted/voted, then fail any
/// never-applied leftovers and stop the listener. Idempotent — late
/// callers wait for the first to finish.
struct ShutdownCoord {
    shard_txs: Vec<Sender<ShardCmd>>,
    ack_table: Arc<AckTable>,
    /// The sync gate's queue, when `--sync-replicas` is on: after the
    /// shards drain, the gate is flushed (waits resolve by coverage or
    /// timeout, with shipping still live) before leftovers are failed.
    sync_tx: Option<Sender<GateMsg>>,
    shutdown: Arc<AtomicBool>,
    started: AtomicBool,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    replicate_addr: Option<SocketAddr>,
}

impl ShutdownCoord {
    fn trigger(&self) {
        if self.started.swap(true, Ordering::SeqCst) {
            // Another caller is already draining; wait it out so "bye"
            // (sent after trigger returns) still means drained.
            while !self.shutdown.load(Ordering::SeqCst) {
                thread::sleep(std::time::Duration::from_millis(1));
            }
            return;
        }
        let _ = fan_out(&self.shard_txs, |done| ShardCmd::Shutdown { done });
        // Give parked sync waits their last chance to resolve — the
        // replication listener is still shipping, so followers can
        // still cover them — before anything is failed wholesale.
        if let Some(tx) = &self.sync_tx {
            let (dtx, drx) = channel::bounded(1);
            if tx.send(GateMsg::Flush(dtx)).is_ok() {
                let _ = drx.recv();
            }
        }
        // Frames admitted behind the shutdown command were never
        // applied; resolve their acks explicitly rather than hanging.
        self.ack_table.fail_all("server shutting down");
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loops so they notice the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(maddr) = self.metrics_addr {
            let _ = TcpStream::connect(maddr);
        }
        if let Some(raddr) = self.replicate_addr {
            let _ = TcpStream::connect(raddr);
        }
    }
}

impl Server {
    /// Bind the listener, start the shard/listener/snapshot threads,
    /// and return a handle. Events, queries, watches, stats, and
    /// shutdown all arrive over the one listener (see [`crate::proto`]).
    pub fn start(config: ServerConfig) -> Result<ServerHandle> {
        let ServerConfig {
            addr,
            queue_capacity,
            backpressure,
            batch_max,
            snapshot_path,
            snapshot_every,
            engine: engine_cfg,
            setup,
            wal_path,
            fsync,
            shards,
            gc_horizon,
            metrics_addr,
            slow_ms,
            replicate_addr,
            follow,
            promote_after,
            sync_replicas,
            sync_timeout,
            sync_fallback,
            max_frame_bytes,
            reactors,
        } = config;
        let shards = shards.max(1);
        let durable_acks = wal_path.is_some() && fsync == FsyncPolicy::Always;
        if sync_replicas > 0 && replicate_addr.is_none() {
            return Err(Error::Invalid(
                "--sync-replicas needs --replicate: follower coverage is measured on the \
                 shipping sessions"
                    .into(),
            ));
        }
        if sync_replicas > 0 && !durable_acks {
            return Err(Error::Invalid(
                "--sync-replicas needs durable acks (--wal with --fsync always): a sync \
                 ack strengthens the durable ack, it cannot replace it"
                    .into(),
            ));
        }
        if follow.is_some() && (wal_path.is_none() || snapshot_path.is_none()) {
            return Err(Error::Invalid(
                "--follow needs --wal and --snapshot: a follower mirrors the leader's \
                 on-disk layout"
                    .into(),
            ));
        }
        if replicate_addr.is_some() && wal_path.is_none() {
            return Err(Error::Invalid(
                "--replicate needs --wal: followers are shipped the on-disk segments".into(),
            ));
        }
        let listener = TcpListener::bind(&addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::default());
        let obs = Arc::new(PipelineObs::new(shards as usize));
        let metrics_listener = match &metrics_addr {
            Some(maddr) => Some(TcpListener::bind(maddr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let repl_listener = match &replicate_addr {
            Some(raddr) => Some(TcpListener::bind(raddr)?),
            None => None,
        };
        let replicate_addr = match &repl_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        // Only a WAL drains the journal; without one, journaling would
        // keep every transition in memory for the life of the server.
        let engine_cfg = EngineConfig {
            journal: engine_cfg.journal && wal_path.is_some(),
            ..engine_cfg
        };
        let mut engines: Vec<Engine> = (0..shards).map(|_| Engine::new(engine_cfg)).collect();
        for (i, engine) in engines.iter_mut().enumerate() {
            engine.set_obs(obs.shards[i].clone());
        }
        // With a durable WAL configured, boot is a recovery: each
        // shard's latest snapshot plus its WAL tail, all shards
        // replayed in parallel, installed *before* `setup` so the
        // hook's declarations land on top of the recovered state. A
        // `--shards` value contradicting the on-disk layout is
        // rejected here, before anything is written.
        // The fencing epoch survives a crash two ways: the sidecar
        // written at promotion, and the stamp in every later snapshot.
        // Boot takes the max — whichever persisted first.
        let mut boot_epoch = wal_path.as_deref().map_or(0, load_epoch);
        let mut durabilities: Vec<Option<Durability>> = Vec::with_capacity(shards as usize);
        let epoch = Arc::new(AtomicU64::new(0));
        match &wal_path {
            Some(base) => {
                let t0 = std::time::Instant::now();
                let recs = recover_shards(snapshot_path.as_deref(), Some(base), shards)?;
                let mut ops = 0u64;
                let mut discarded_bytes = 0u64;
                let mut discarded_ops = 0u64;
                for (i, rec) in recs.into_iter().enumerate() {
                    ops += rec.snapshot_ops + rec.wal_ops;
                    discarded_bytes += rec.discarded_bytes;
                    discarded_ops += rec.discarded_ops;
                    boot_epoch = boot_epoch.max(rec.epoch);
                    let resumed = rec.resumed();
                    engines[i].restore_state(rec.store)?;
                    let seg = if shards == 1 {
                        segment_path(base, rec.wal_gen)
                    } else {
                        shard_segment_path(base, i as u32, rec.wal_gen)
                    };
                    // `open` re-truncates the same torn bytes `recover`
                    // already counted, so its torn count is not added.
                    let (mut writer, _torn) = WalWriter::open(&seg, fsync)?;
                    writer.set_obs(obs.shards[i].wal.clone());
                    durabilities.push(Some(Durability {
                        writer,
                        base: base.clone(),
                        gen: rec.wal_gen,
                        snapshot_path: snapshot_path.clone(),
                        metrics: metrics.clone(),
                        obs: obs.shards[i].clone(),
                        rotated_stats: WalWriterStats::default(),
                        published: WalWriterStats::default(),
                        boot_resumed: resumed,
                        shard: i as u32,
                        shards_total: shards,
                        epoch: epoch.clone(),
                    }));
                }
                metrics.recovered_ops.store(ops, Ordering::Relaxed);
                metrics
                    .wal_discarded_bytes
                    .store(discarded_bytes, Ordering::Relaxed);
                metrics
                    .wal_discarded_ops
                    .store(discarded_ops, Ordering::Relaxed);
                metrics
                    .recovery_ms
                    .store(t0.elapsed().as_millis() as u64, Ordering::Relaxed);
            }
            None => durabilities.extend((0..shards).map(|_| None)),
        }
        epoch.store(boot_epoch, Ordering::SeqCst);
        obs.repl.epoch.store(boot_epoch, Ordering::Relaxed);
        let repl = if follow.is_some() || replicate_addr.is_some() {
            obs.repl
                .following
                .store(u64::from(follow.is_some()), Ordering::Relaxed);
            Some(Arc::new(ReplState {
                epoch: epoch.clone(),
                following: AtomicBool::new(follow.is_some()),
                leader: follow.clone(),
                promote: AtomicBool::new(false),
                promoted: AtomicBool::new(false),
            }))
        } else {
            None
        };
        if let Some(setup) = &setup {
            for engine in &mut engines {
                setup(engine);
            }
        }
        // Derive the routing keys from the registered rules. Rules
        // whose matches can cross entities are rejected here, with the
        // shard count that would accept them.
        let mut router = ShardRouter::new(shards);
        for rule in engines[0].state_rules() {
            router.observe_rule(rule)?;
        }
        let router = Arc::new(router);

        let shutdown = Arc::new(AtomicBool::new(false));
        let ack_table = Arc::new(AckTable::new(metrics.clone()));
        // Follower durable-coverage registry, fed by the shipping
        // sessions' ack readers. Cheap when idle; the gate below is the
        // only reader.
        let ack_tracker = Arc::new(AckTracker::new());
        let (sync_tx, sync_thread) = if sync_replicas > 0 {
            let (tx, rx) = channel::unbounded();
            // Event-driven gate: follower coverage advances poke the
            // gate awake instead of it polling on a fixed tick.
            let poke = tx.clone();
            ack_tracker.set_notify(move || {
                let _ = poke.send(GateMsg::Poke);
            });
            let gctx = SyncGateCtx {
                rx,
                tracker: ack_tracker.clone(),
                replicas: sync_replicas,
                timeout: std::time::Duration::from_millis(sync_timeout.as_millis().max(1)),
                fallback: sync_fallback,
                table: ack_table.clone(),
                obs: obs.clone(),
            };
            let t = thread::Builder::new()
                .name("fenestra-sync-gate".into())
                .spawn(move || sync_gate_loop(gctx))?;
            (Some(tx), Some(t))
        } else {
            (None, None)
        };
        let per_shard_capacity = (queue_capacity / shards as usize).max(1);
        let mut shard_txs = Vec::with_capacity(shards as usize);
        let mut shard_threads = Vec::with_capacity(shards as usize);
        for (i, (engine, durability)) in engines.into_iter().zip(durabilities).enumerate() {
            let (tx, rx) = channel::bounded(per_shard_capacity);
            shard_txs.push(tx);
            let ctx = ShardCtx {
                id: i as u32,
                shards_total: shards,
                engine,
                rx,
                snapshot_path: snapshot_path.clone(),
                durability,
                batch_max,
                gc_horizon,
                metrics: metrics.clone(),
                obs: obs.shards[i].clone(),
                slow_ms,
                ack_table: ack_table.clone(),
                repl: repl.clone(),
                sync_tx: sync_tx.clone(),
            };
            shard_threads.push(
                thread::Builder::new()
                    .name(format!("fenestra-shard-{i}"))
                    .spawn(move || shard_loop(ctx))?,
            );
        }

        let coord = Arc::new(ShutdownCoord {
            shard_txs: shard_txs.clone(),
            ack_table: ack_table.clone(),
            sync_tx: sync_tx.clone(),
            shutdown: shutdown.clone(),
            started: AtomicBool::new(false),
            addr,
            metrics_addr,
            replicate_addr,
        });

        // The front door: an epoll reactor pool replaces the old
        // accept thread. Reactor 0 owns the listener; connections are
        // classified by their first bytes — binary-magic connections
        // stay on the reactors, anything else gets the classic
        // thread-per-connection JSONL loop (see [`crate::reactor`]).
        let plans = Arc::new(PlanCache::default());
        let reactor_pool = {
            let ctx = Arc::new(ConnCtx {
                shard_txs: shard_txs.clone(),
                router,
                ack_table,
                coord: coord.clone(),
                backpressure,
                durable_acks,
                max_frame_bytes,
                metrics: metrics.clone(),
                obs: obs.clone(),
                plans: plans.clone(),
                repl: repl.clone(),
                shutdown: shutdown.clone(),
            });
            crate::reactor::start(listener, ctx, crate::reactor::auto_reactors(reactors))?
        };

        // Prometheus exposition listener: plain HTTP, one thread,
        // served from atomics — a scrape can never block or slow the
        // ingest path.
        let metrics_thread = match metrics_listener {
            Some(l) => {
                let metrics = metrics.clone();
                let obs = obs.clone();
                let plans = plans.clone();
                let stop = shutdown.clone();
                Some(
                    thread::Builder::new()
                        .name("fenestra-metrics".into())
                        .spawn(move || metrics_loop(l, metrics, obs, plans, stop))?,
                )
            }
            None => None,
        };

        // Replication listener: each accepted follower gets its own
        // shipping session streaming committed segment bytes off disk
        // (see `fenestra_replica::serve_follower`). Shipping never
        // touches the shard threads — it reads what the group commits
        // already made durable.
        let repl_thread = match repl_listener {
            Some(l) => {
                let cfg = LeaderConfig {
                    paths: ReplPaths {
                        wal_base: wal_path.clone().expect("--replicate requires --wal"),
                        snapshot: snapshot_path.clone(),
                        shards,
                    },
                    epoch: epoch.clone(),
                    obs: obs.repl.clone(),
                    shutdown: shutdown.clone(),
                    poll: std::time::Duration::from_millis(20),
                    heartbeat: std::time::Duration::from_millis(HEARTBEAT_MS),
                    acks: ack_tracker.clone(),
                };
                let stop = shutdown.clone();
                Some(
                    thread::Builder::new()
                        .name("fenestra-repl".into())
                        .spawn(move || {
                            for stream in l.incoming() {
                                if stop.load(Ordering::SeqCst) {
                                    break;
                                }
                                let Ok(stream) = stream else { continue };
                                let cfg = cfg.clone();
                                let _ = thread::Builder::new().name("fenestra-ship".into()).spawn(
                                    move || {
                                        if let Err(e) = serve_follower(stream, cfg) {
                                            eprintln!("fenestrad: replication session ended: {e}");
                                        }
                                    },
                                );
                            }
                        })?,
                )
            }
            None => None,
        };

        // Follower loop: connect to the leader, stream frames into the
        // shard threads, reconnect (with resume positions) on any
        // session failure, and handle promotion.
        let follower_thread = match &follow {
            Some(leader) => {
                let rt = FollowerRuntime {
                    leader: leader.clone(),
                    shards,
                    shard_txs: shard_txs.clone(),
                    repl: repl.clone().expect("--follow implies replication state"),
                    obs: obs.clone(),
                    shutdown: shutdown.clone(),
                    wal_base: wal_path.clone().expect("--follow requires --wal"),
                    promote_after,
                };
                Some(
                    thread::Builder::new()
                        .name("fenestra-follow".into())
                        .spawn(move || follower_loop(rt))?,
                )
            }
            None => None,
        };

        // Snapshot/GC cadence: the snapshot tick also runs GC when a
        // horizon is configured; a horizon without periodic snapshots
        // gets its own ticker at the horizon interval.
        let tick = match (snapshot_every, gc_horizon) {
            (Some(every), _) => Some((every, true)),
            (None, Some(horizon)) => Some((horizon, false)),
            (None, None) => None,
        };
        if let Some((every, with_snapshot)) = tick {
            let txs = shard_txs;
            let stop = shutdown.clone();
            let gc = gc_horizon.is_some();
            thread::Builder::new()
                .name("fenestra-snapshot".into())
                .spawn(move || loop {
                    thread::sleep(std::time::Duration::from_millis(every.as_millis().max(1)));
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    for tx in &txs {
                        if with_snapshot && tx.send(ShardCmd::Snapshot).is_err() {
                            return;
                        }
                        if gc && tx.send(ShardCmd::Gc).is_err() {
                            return;
                        }
                    }
                })?;
        }

        Ok(ServerHandle {
            addr,
            metrics_addr,
            replicate_addr,
            metrics,
            obs,
            shutdown,
            coord,
            shard_threads,
            reactor_threads: reactor_pool.threads,
            metrics_thread,
            repl_thread,
            follower_thread,
            sync_thread,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (resolves port `0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus listener address, when
    /// [`crate::ServerConfig::metrics_addr`] was configured (resolves
    /// port `0` to the real port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The bound replication listener address, when
    /// [`crate::ServerConfig::replicate_addr`] was configured (resolves
    /// port `0` to the real port). Followers point `--follow` here.
    pub fn replicate_addr(&self) -> Option<SocketAddr> {
        self.replicate_addr
    }

    /// Live server counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Live pipeline instrumentation: stage histograms and per-shard
    /// gauges. Reads are relaxed atomic loads — cheap enough for a
    /// benchmark to snapshot mid-run.
    pub fn pipeline_obs(&self) -> &Arc<PipelineObs> {
        &self.obs
    }

    /// True once the shard threads have drained (e.g. a client issued
    /// the wire-level `shutdown` command).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: drain every shard queue, flush the engines,
    /// write the snapshots (if configured), resolve every held ack,
    /// stop the threads. Same path as the wire-level `shutdown`
    /// command. Idempotent.
    pub fn shutdown(&mut self) {
        self.coord.trigger();
        self.join();
    }

    /// Wait for the shard and reactor threads to exit (e.g. after a
    /// client issued the `shutdown` command).
    pub fn join(&mut self) {
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.repl_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.follower_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.sync_thread.take() {
            let _ = t.join();
        }
    }
}

// ----- shard threads --------------------------------------------------------

/// A shard thread's durable-log state: the open segment writer plus
/// everything the snapshot-coordinated rotation needs. With one shard
/// total, file names are the legacy `base.gen` / bare snapshot path;
/// with N, `base-{shard}-{gen}.seg` / `snapshot.shard{i}`, and the
/// snapshot header carries the shard identity recovery validates.
struct Durability {
    writer: WalWriter,
    /// Segment base path.
    base: PathBuf,
    gen: u64,
    snapshot_path: Option<PathBuf>,
    metrics: Arc<ServerMetrics>,
    /// This shard's instrumentation: the WAL writer feeds
    /// `wal_append_us`/`fsync_us` into `obs.wal`, and every
    /// `publish_stats` refreshes the `wal_segment_bytes` gauge.
    obs: Arc<ShardObs>,
    /// Counters accumulated by writers of already-rotated segments
    /// (each `WalWriter` counts from zero).
    rotated_stats: WalWriterStats,
    /// Totals already folded into the shared metrics. N shards share
    /// the counters, so publication adds deltas instead of storing.
    published: WalWriterStats,
    /// Whether boot recovery replayed anything — if so, the loop
    /// checkpoints immediately so the next boot starts from a snapshot
    /// instead of re-replaying the same tail.
    boot_resumed: bool,
    shard: u32,
    shards_total: u32,
    /// The node's fencing epoch, stamped into every checkpoint snapshot
    /// so recovery can restore it even if the sidecar file is lost.
    epoch: Arc<AtomicU64>,
}

impl Durability {
    fn segment(&self, gen: u64) -> PathBuf {
        if self.shards_total == 1 {
            segment_path(&self.base, gen)
        } else {
            shard_segment_path(&self.base, self.shard, gen)
        }
    }

    /// This shard's snapshot file (see [`snapshot_file`]).
    fn snapshot_file(&self) -> Option<PathBuf> {
        let snap = self.snapshot_path.as_ref()?;
        Some(snapshot_file(snap, self.shard, self.shards_total))
    }

    /// Refresh the segment-inventory gauges from the directory listing:
    /// current generation, oldest retained generation, and how many
    /// segment files this shard still holds on disk.
    fn refresh_wal_inventory(&self) {
        let shard = (self.shards_total > 1).then_some(self.shard);
        let gens = list_segment_gens(&self.base, shard);
        self.obs.wal_gen.store(self.gen, Ordering::Relaxed);
        self.obs
            .wal_oldest_gen
            .store(gens.first().copied().unwrap_or(self.gen), Ordering::Relaxed);
        self.obs
            .wal_segments
            .store((gens.len() as u64).max(1), Ordering::Relaxed);
    }

    /// Fold this writer's counter growth into the shared metrics.
    fn publish_stats(&mut self) {
        let s = self.writer.stats();
        let total = WalWriterStats {
            appends: self.rotated_stats.appends + s.appends,
            bytes: self.rotated_stats.bytes + s.bytes,
            fsyncs: self.rotated_stats.fsyncs + s.fsyncs,
        };
        let m = &self.metrics;
        m.wal_appends
            .fetch_add(total.appends - self.published.appends, Ordering::Relaxed);
        m.wal_bytes
            .fetch_add(total.bytes - self.published.bytes, Ordering::Relaxed);
        m.fsyncs
            .fetch_add(total.fsyncs - self.published.fsyncs, Ordering::Relaxed);
        self.published = total;
        self.obs
            .wal_segment_bytes
            .store(self.writer.segment_len(), Ordering::Relaxed);
    }

    /// Append the ops the engine applied since the last drain — the
    /// **group commit**: one frame (and, under `always`, one fsync) for
    /// however many events the batch covered. Returns `Some(ops)` on
    /// success (0 when the journal was empty), `None` if the append
    /// failed — held acks must then report the failure, not ack.
    fn drain(&mut self, engine: &mut Engine) -> Option<usize> {
        let ops = engine.take_journal();
        let mut appended = Some(ops.len());
        if !ops.is_empty() {
            if let Err(e) = self.writer.append(&ops) {
                eprintln!(
                    "fenestrad: WAL append to {} failed: {e}",
                    self.writer.path().display()
                );
                appended = None;
            }
        }
        self.publish_stats();
        appended
    }

    /// Drain, make the open segment durable, and — when a snapshot path
    /// is configured — rotate: start segment `gen+1` empty, write a
    /// compact snapshot stamped `wal_gen = gen+1` (and, sharded, with
    /// this shard's identity), then delete segment `gen`. Every crash
    /// window recovers. Returns whether the drain and sync both
    /// succeeded (the durability outcome held acks depend on; rotation
    /// failures only delay compaction, never durability).
    fn checkpoint(&mut self, engine: &mut Engine) -> bool {
        let committed = self.drain(engine).is_some();
        if let Err(e) = self.writer.sync() {
            eprintln!(
                "fenestrad: WAL sync of {} failed: {e}",
                self.writer.path().display()
            );
            self.publish_stats();
            return false;
        }
        self.publish_stats();
        let Some(snap) = self.snapshot_path.clone() else {
            return committed; // Nothing to rotate against; the segment just grows.
        };
        let next_gen = self.gen + 1;
        let next_path = self.segment(next_gen);
        let next_writer = match WalWriter::create(&next_path, self.writer.policy()) {
            Ok(mut w) => {
                // Rotation replaces the writer; the stage histograms
                // must keep accumulating across segments.
                w.set_obs(self.obs.wal.clone());
                w
            }
            Err(e) => {
                eprintln!(
                    "fenestrad: starting WAL segment {} failed: {e}",
                    next_path.display()
                );
                return committed;
            }
        };
        let saved = fenestra_temporal::persist::save_compact_stamped(
            &engine.store(),
            snapshot_file(&snap, self.shard, self.shards_total),
            next_gen,
            (self.shards_total > 1).then_some((self.shard, self.shards_total)),
            self.epoch.load(Ordering::SeqCst),
        );
        if let Err(e) = saved {
            // The snapshot still names the old generation; keep
            // appending to the old segment and retry next checkpoint.
            eprintln!("fenestrad: snapshot to {} failed: {e}", snap.display());
            return committed;
        }
        let old_path = self.segment(self.gen);
        self.rotated_stats.appends += self.writer.stats().appends;
        self.rotated_stats.bytes += self.writer.stats().bytes;
        self.rotated_stats.fsyncs += self.writer.stats().fsyncs;
        self.writer = next_writer;
        self.gen = next_gen;
        if let Err(e) = std::fs::remove_file(&old_path) {
            eprintln!(
                "fenestrad: removing rotated WAL segment {} failed: {e}",
                old_path.display()
            );
        }
        self.refresh_wal_inventory();
        committed
    }
}

/// Everything one shard thread owns.
struct ShardCtx {
    id: u32,
    shards_total: u32,
    engine: Engine,
    rx: Receiver<ShardCmd>,
    snapshot_path: Option<PathBuf>,
    durability: Option<Durability>,
    batch_max: usize,
    gc_horizon: Option<Duration>,
    metrics: Arc<ServerMetrics>,
    obs: Arc<ShardObs>,
    slow_ms: Option<u64>,
    ack_table: Arc<AckTable>,
    /// Replication role, when replication is configured at all. While
    /// `repl.is_following()` the shard is a mirror: its WAL and
    /// snapshots are driven by shipped leader frames, so local drains,
    /// checkpoints, and GC are suppressed.
    repl: Option<Arc<ReplState>>,
    /// `--sync-replicas` gate: locally-covered ack parts are handed
    /// here (with the WAL position the covering commit reached) instead
    /// of being voted directly.
    sync_tx: Option<Sender<GateMsg>>,
}

fn shard_loop(ctx: ShardCtx) {
    let ShardCtx {
        id,
        shards_total,
        mut engine,
        rx,
        snapshot_path,
        mut durability,
        batch_max,
        gc_horizon,
        metrics,
        obs,
        slow_ms,
        ack_table,
        repl,
        sync_tx,
    } = ctx;
    let is_following = || repl.as_ref().is_some_and(|r| r.is_following());
    if let Some(d) = durability.as_mut() {
        if is_following() {
            // A follower's WAL is a byte mirror of the leader's: the
            // local journal from `setup`/recovery is discarded (the
            // shipped stream is the only writer), and no checkpoint is
            // taken — rotating locally would fork the generation
            // lineage the leader's `Rotate` frames advance.
            let _ = engine.take_journal();
            d.refresh_wal_inventory();
        } else if d.boot_resumed {
            // Fold the replayed tail into a fresh snapshot so the next
            // boot recovers from there, not from the same tail again.
            let _ = d.checkpoint(&mut engine);
            d.refresh_wal_inventory();
        } else {
            // First boot: persist whatever `setup` journaled (schema,
            // rule side effects) before the first event.
            let _ = d.drain(&mut engine);
            d.refresh_wal_inventory();
        }
    }
    let mut watches: Vec<(Watch, Sender<String>)> = Vec::new();
    // Durable-mode ack parts held until this shard's events are
    // actually covered by a fsynced WAL frame, in admission order.
    let mut pending: VecDeque<AckPart> = VecDeque::new();
    // Highest event timestamp applied on this shard (the GC horizon's
    // reference point).
    let mut last_ts: u64 = 0;
    // A non-ingest command pulled off the queue while coalescing an
    // ingest batch; handled on the next iteration (FIFO preserved).
    let mut deferred_cmd: Option<ShardCmd> = None;
    loop {
        let cmd = match deferred_cmd.take() {
            Some(cmd) => cmd,
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            },
        };
        let mut quit = false;
        // Whether this command may have changed queryable state. Pure
        // reads (`Query*`, `Stats*`) and checkpoints leave it false, so
        // standing watches are not re-polled on their account.
        let mut poll = false;
        match cmd {
            ShardCmd::Ingest {
                evs,
                acks: ack,
                enqueued,
            } => {
                let dequeued = Instant::now();
                obs.queue_wait_us
                    .record(dequeued.saturating_duration_since(enqueued).as_micros() as u64);
                // Group commit: greedily drain the queue into one event
                // batch (up to `batch_max` events), apply it in one
                // engine pass, append ONE WAL frame, fsync once, and
                // poll watches once — instead of once per part.
                let mut batch = evs;
                let mut acks: VecDeque<AckPart> = ack.into_iter().collect();
                while batch.len() < batch_max {
                    match rx.try_recv() {
                        Ok(ShardCmd::Ingest {
                            evs,
                            acks: ack,
                            enqueued,
                        }) => {
                            obs.queue_wait_us.record(
                                dequeued.saturating_duration_since(enqueued).as_micros() as u64,
                            );
                            batch.extend(evs);
                            acks.extend(ack);
                        }
                        Ok(other) => {
                            deferred_cmd = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                let n = batch.len() as u64;
                last_ts = last_ts.max(batch.iter().map(|e| e.ts.millis()).max().unwrap_or(0));
                let late = engine.push_batch(batch);
                let applied = Instant::now();
                if late > 0 {
                    // Deferred or not, the ack means "accepted", not
                    // "applied": events beyond the lateness bound are
                    // discarded and become visible here.
                    metrics.late_dropped.fetch_add(late, Ordering::Relaxed);
                }
                if n > 0 {
                    metrics.observe_ingest_batch(n);
                }
                let committed = match durability.as_mut() {
                    Some(d) => match d.drain(&mut engine) {
                        Some(ops) => {
                            if ops > 0 && n > 1 {
                                metrics.group_commits.fetch_add(1, Ordering::Relaxed);
                            }
                            true
                        }
                        None => false,
                    },
                    None => true,
                };
                // Durable-ack mode: the group fsync covers exactly the
                // events that have drained out of the reorder buffer —
                // vote every held part whose events all have. Parts
                // still (partly) in the buffer stay held until a later
                // batch advances this shard's watermark past them. On
                // append failure, report instead of lying about
                // durability.
                if committed {
                    pending.extend(acks);
                    let sync = sync_target(&sync_tx, id, durability.as_ref());
                    release_covered(&mut pending, &engine, &ack_table, &obs, sync.as_ref());
                } else {
                    for p in pending.drain(..).chain(acks) {
                        ack_table.vote(&p.frame, false);
                    }
                }
                obs.held_acks.store(pending.len() as u64, Ordering::Relaxed);
                obs.observe_queue_depth(rx.len() as u64);
                obs.state_facts
                    .store(engine.store().open_fact_count() as u64, Ordering::Relaxed);
                if let Some(ms) = slow_ms {
                    let done = Instant::now();
                    let total_us = done.saturating_duration_since(dequeued).as_micros() as u64;
                    if total_us >= ms.saturating_mul(1000) {
                        let mut o = Map::new();
                        o.insert("slow_op".into(), Json::from("ingest"));
                        o.insert("shard".into(), Json::from(id));
                        o.insert("events".into(), Json::from(n));
                        o.insert("late".into(), Json::from(late));
                        o.insert(
                            "apply_us".into(),
                            Json::from(
                                applied.saturating_duration_since(dequeued).as_micros() as u64
                            ),
                        );
                        o.insert(
                            "commit_us".into(),
                            Json::from(done.saturating_duration_since(applied).as_micros() as u64),
                        );
                        o.insert("total_us".into(), Json::from(total_us));
                        o.insert("held_acks".into(), Json::from(pending.len() as u64));
                        eprintln!("{}", Json::Object(o));
                    }
                }
                poll = n > late;
            }
            ShardCmd::QueryPlan { plan, reply } => {
                let line = match engine.execute_plan(&plan, QueryOptions::default()) {
                    Ok(res) => proto::query_reply(&res, Some(&engine.store())),
                    Err(e) => proto::error(&e.to_string()),
                };
                let _ = reply.send(line);
            }
            ShardCmd::QueryRows { q, reply } => {
                let res = partial_select(&engine.store(), &q, QueryOptions::default())
                    .map_err(|e| e.to_string());
                let _ = reply.send(res);
            }
            ShardCmd::QueryFacts { w, reply } => {
                let res = w.collect_facts(&engine.store()).map_err(|e| e.to_string());
                let _ = reply.send(res);
            }
            ShardCmd::QueryHistory {
                entity,
                attr,
                reply,
            } => {
                let store = engine.store();
                let spans = store.lookup_entity(entity).map(|e| {
                    store
                        .history(e, attr)
                        .into_iter()
                        .map(|(iv, v, prov)| {
                            let v = match v {
                                Value::Id(id) => store
                                    .entity_name(id)
                                    .map(Value::Str)
                                    .unwrap_or(Value::Id(id)),
                                other => other,
                            };
                            (iv, v, prov)
                        })
                        .collect::<Vec<_>>()
                });
                let _ = reply.send(spans);
            }
            ShardCmd::Watch { name, plan, sink } => {
                watches.push((Watch::from_plan(name.as_str(), plan), sink));
                // Poll so the new watch delivers its initial rows.
                poll = true;
            }
            ShardCmd::Sync { done } => {
                // FIFO queue: everything admitted before this command
                // has been applied (and, durable, drained to the WAL)
                // by the time we reply.
                let _ = done.send(());
            }
            ShardCmd::Snapshot => {
                if is_following() {
                    // A follower's snapshots/rotations are driven by the
                    // leader's `Rotate` frames; a locally-initiated
                    // checkpoint would fork the generation lineage.
                } else {
                    match durability.as_mut() {
                        Some(d) => {
                            if d.checkpoint(&mut engine) {
                                let sync = sync_target(&sync_tx, id, Some(&*d));
                                release_covered(
                                    &mut pending,
                                    &engine,
                                    &ack_table,
                                    &obs,
                                    sync.as_ref(),
                                );
                            } else {
                                for p in pending.drain(..) {
                                    ack_table.vote(&p.frame, false);
                                }
                            }
                        }
                        None => snapshot(&engine, &snapshot_path, id, shards_total),
                    }
                }
            }
            ShardCmd::Gc => {
                if let Some(horizon) = gc_horizon {
                    if !is_following() && last_ts > horizon.as_millis() {
                        let removed = engine.gc(Timestamp::new(last_ts - horizon.as_millis()));
                        if removed > 0 {
                            metrics
                                .gc_removed
                                .fetch_add(removed as u64, Ordering::Relaxed);
                        }
                    }
                }
            }
            ShardCmd::ReplicaApply {
                gen,
                offset,
                bytes,
                reply,
            } => {
                let res = replica_apply(&mut engine, durability.as_mut(), gen, offset, &bytes);
                if matches!(&res, Ok((_, _, ops, _)) if *ops > 0) {
                    poll = true;
                    obs.state_facts
                        .store(engine.store().open_fact_count() as u64, Ordering::Relaxed);
                }
                let _ = reply.send(res);
            }
            ShardCmd::ReplicaBootstrap { gen, bytes, reply } => {
                let res = replica_bootstrap(&mut engine, durability.as_mut(), gen, &bytes);
                if res.is_ok() {
                    poll = true;
                    obs.state_facts
                        .store(engine.store().open_fact_count() as u64, Ordering::Relaxed);
                }
                let _ = reply.send(res);
            }
            ShardCmd::ReplicaRotate { new_gen, reply } => {
                let _ = reply.send(replica_rotate(&mut engine, durability.as_mut(), new_gen));
            }
            ShardCmd::ReplicaPosition { reply } => {
                let pos = durability
                    .as_ref()
                    .map_or((0, 0), |d| (d.gen, d.writer.segment_len()));
                let _ = reply.send(pos);
            }
            ShardCmd::Shutdown { done } => {
                // FIFO queue: every part admitted before this command
                // has already been applied. Flush and persist —
                // `finish` drains the reorder buffer, so every still-
                // held ack part is coverable by the final checkpoint.
                engine.finish();
                let committed = if is_following() {
                    // Mirror discipline holds through shutdown: sync the
                    // shipped bytes, but take no checkpoint — a snapshot
                    // stamped mid-segment would double-replay the
                    // shipped frames (they recover from offset 0).
                    let _ = engine.take_journal();
                    match durability.as_mut() {
                        Some(d) => d.writer.sync().is_ok(),
                        None => true,
                    }
                } else {
                    match durability.as_mut() {
                        Some(d) => d.checkpoint(&mut engine),
                        None => {
                            snapshot(&engine, &snapshot_path, id, shards_total);
                            true
                        }
                    }
                };
                if committed {
                    let sync = sync_target(&sync_tx, id, durability.as_ref());
                    release_covered(&mut pending, &engine, &ack_table, &obs, sync.as_ref());
                }
                obs.held_acks.store(0, Ordering::Relaxed);
                // After `finish` the buffer is empty, so a successful
                // checkpoint covered everything; anything left (only on
                // failure) is voted down — no ack is left hanging.
                for p in pending.drain(..) {
                    ack_table.vote(&p.frame, false);
                }
                // finish() may have drained buffered events into state.
                poll = true;
                quit = true;
                let _ = done.send(());
            }
        }
        // Push view updates for whatever the command changed; drop
        // watches whose connection has gone away. Skipped entirely when
        // no state-mutating command ran since the last poll.
        if poll && !watches.is_empty() {
            let store = engine.store();
            watches.retain_mut(|(w, sink)| {
                w.poll(&store)
                    .iter()
                    .all(|d| sink.send(proto::delta_line(d, Some(&store))).is_ok())
            });
        }
        if quit {
            break;
        }
    }
}

/// The sync gate hand-off target for a shard's release pass: the WAL
/// position its covering group commit just reached (current generation,
/// committed byte length). `None` when the gate is off — startup
/// validation guarantees a WAL exists whenever it is on.
fn sync_target(
    sync_tx: &Option<Sender<GateMsg>>,
    shard: u32,
    durability: Option<&Durability>,
) -> Option<(Sender<GateMsg>, u32, u64, u64)> {
    let tx = sync_tx.as_ref()?;
    let d = durability?;
    Some((tx.clone(), shard, d.gen, d.writer.segment_len()))
}

/// Release every held part whose events have all drained out of this
/// shard's reorder buffer (and were hence covered by the WAL commit
/// that just succeeded) — including parts dropped entirely as late,
/// which left nothing behind to persist. Without a sync target the
/// release is a success vote right here; with one (`--sync-replicas`),
/// the locally-covered parts are parked at the gate until enough
/// follower sessions durably cover `(gen, offset)`. Votes can complete
/// in any order; the [`AckTable`] serializes each connection's ack
/// lines into admission order. With `max_lateness == 0` the buffer is
/// always empty after a push, so every held part releases immediately.
fn release_covered(
    pending: &mut VecDeque<AckPart>,
    engine: &Engine,
    table: &AckTable,
    obs: &ShardObs,
    sync: Option<&(Sender<GateMsg>, u32, u64, u64)>,
) {
    if pending.is_empty() {
        return;
    }
    let low = engine.buffered_low_ts();
    let now = Instant::now();
    let mut covered_parts = Vec::new();
    let mut keep = VecDeque::new();
    for p in pending.drain(..) {
        let covered = match (p.max_ts, low) {
            (None, _) | (_, None) => true,
            (Some(max_ts), Some(low)) => max_ts < low,
        };
        if covered {
            covered_parts.push(p);
        } else {
            keep.push_back(p);
        }
    }
    *pending = keep;
    if covered_parts.is_empty() {
        return;
    }
    if let Some((tx, shard, gen, offset)) = sync {
        let wait = SyncWait {
            shard: *shard,
            gen: *gen,
            offset: *offset,
            parts: covered_parts,
            since: now,
        };
        match tx.send(GateMsg::Wait(wait)) {
            Ok(()) => return,
            Err(e) => {
                // The gate is gone (shutdown already flushed it):
                // degrade to the local release rather than hanging the
                // connection's ack queue.
                let GateMsg::Wait(w) = e.0 else {
                    return;
                };
                covered_parts = w.parts;
            }
        }
    }
    for p in covered_parts {
        obs.ack_hold_us
            .record(now.saturating_duration_since(p.admitted).as_micros() as u64);
        table.vote(&p.frame, true);
    }
}

// ----- follower apply path --------------------------------------------------
//
// The follower's WAL is a *byte mirror* of the leader's: shipped raw
// frames are the only thing ever appended, at exactly the offset the
// leader said they sit at. Any mismatch (gen skew, offset skew, failed
// op) is returned as an error; the follower loop then tears the
// session down and reconnects with fresh resume positions — the leader
// re-bootstraps whatever cannot be resumed, so every failure mode
// self-heals at the cost of a snapshot ship.

/// Append a run of leader-shipped raw WAL frames and apply the decoded
/// ops. Returns `(new_offset, frames, ops, synced)` for the resume
/// position, the replication counters, and the durable-coverage claim
/// (`synced` is true only under `--fsync always`, where `append_raw`
/// fsyncs before returning).
fn replica_apply(
    engine: &mut Engine,
    durability: Option<&mut Durability>,
    gen: u64,
    offset: u64,
    bytes: &[u8],
) -> Result<(u64, u64, u64, bool)> {
    let d = durability.ok_or_else(|| Error::Invalid("replica apply needs a WAL".into()))?;
    if gen != d.gen {
        return Err(Error::Invalid(format!(
            "shipped frames for gen {gen} but the local segment is gen {}",
            d.gen
        )));
    }
    let local = d.writer.segment_len();
    if offset != local {
        return Err(Error::Invalid(format!(
            "shipped frames at offset {offset} but the local segment holds {local} bytes"
        )));
    }
    // `append_raw` refuses anything that is not a clean run of
    // CRC-valid frames, fsyncs per policy, and hands back the decoded
    // ops — the disk write and the apply see the same bytes.
    let tail = d.writer.append_raw(bytes)?;
    let apply_res = {
        let store = engine.shared_store();
        let mut guard = store.write().expect("store lock");
        tail.ops.iter().try_for_each(|op| guard.apply(op))
    };
    // `apply` re-journals every op (it drives the same mutations ingest
    // does); the shipped bytes are already in the local segment, so the
    // journal copy is discarded to keep the byte mirror exact.
    let _ = engine.take_journal();
    apply_res?;
    d.publish_stats();
    let synced = d.writer.policy() == FsyncPolicy::Always;
    Ok((
        d.writer.segment_len(),
        tail.frames,
        tail.ops.len() as u64,
        synced,
    ))
}

/// Wholesale re-bootstrap from a leader snapshot: mirror the snapshot
/// bytes (empty = start this shard empty), install the state, and
/// restart the local WAL with a fresh, empty segment at `gen`.
fn replica_bootstrap(
    engine: &mut Engine,
    durability: Option<&mut Durability>,
    gen: u64,
    bytes: &[u8],
) -> Result<()> {
    let d = durability.ok_or_else(|| Error::Invalid("replica bootstrap needs a WAL".into()))?;
    let snap = d.snapshot_file();
    let store = if bytes.is_empty() {
        if let Some(p) = &snap {
            let _ = std::fs::remove_file(p);
        }
        TemporalStore::new()
    } else {
        let p = snap
            .as_ref()
            .ok_or_else(|| Error::Invalid("bootstrap snapshot needs --snapshot".into()))?;
        // Keep the leader's serialization verbatim on disk, then load
        // it — a crash right after this point recovers exactly like the
        // leader would.
        fenestra_temporal::persist::write_atomic(p, bytes)?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| Error::Corrupt("bootstrap snapshot is not UTF-8".into()))?;
        fenestra_temporal::persist::from_json_with_meta(text)?.store
    };
    engine.restore_state(store)?;
    let _ = engine.take_journal();
    // Replace the local segment lineage with the leader's: every local
    // segment goes, and a fresh one starts at the shipped generation.
    let shard = (d.shards_total > 1).then_some(d.shard);
    for old_gen in list_segment_gens(&d.base, shard) {
        let _ = std::fs::remove_file(d.segment(old_gen));
    }
    let path = d.segment(gen);
    let mut writer = WalWriter::create(&path, d.writer.policy())?;
    writer.set_obs(d.obs.wal.clone());
    // Fold the replaced writer's counters into the rotated totals so
    // `publish_stats`' delta subtraction never underflows.
    let s = d.writer.stats();
    d.rotated_stats.appends += s.appends;
    d.rotated_stats.bytes += s.bytes;
    d.rotated_stats.fsyncs += s.fsyncs;
    d.writer = writer;
    d.gen = gen;
    d.publish_stats();
    d.refresh_wal_inventory();
    Ok(())
}

/// Mirror the leader's segment rotation: sync the finished segment,
/// start the successor, write a local checkpoint snapshot stamped with
/// the new generation (the follower's own serialization — semantically
/// equal to the leader's), and delete the finished segment.
fn replica_rotate(
    engine: &mut Engine,
    durability: Option<&mut Durability>,
    new_gen: u64,
) -> Result<()> {
    let d = durability.ok_or_else(|| Error::Invalid("replica rotate needs a WAL".into()))?;
    if new_gen != d.gen + 1 {
        return Err(Error::Invalid(format!(
            "rotation to gen {new_gen} but the local segment is gen {} (want its successor)",
            d.gen
        )));
    }
    let _ = engine.take_journal();
    d.writer.sync()?;
    let next_path = d.segment(new_gen);
    let mut next_writer = WalWriter::create(&next_path, d.writer.policy())?;
    next_writer.set_obs(d.obs.wal.clone());
    if let Some(p) = d.snapshot_file() {
        fenestra_temporal::persist::save_compact_stamped(
            &engine.store(),
            p,
            new_gen,
            (d.shards_total > 1).then_some((d.shard, d.shards_total)),
            d.epoch.load(Ordering::SeqCst),
        )?;
    }
    let old_path = d.segment(d.gen);
    let s = d.writer.stats();
    d.rotated_stats.appends += s.appends;
    d.rotated_stats.bytes += s.bytes;
    d.rotated_stats.fsyncs += s.fsyncs;
    d.writer = next_writer;
    d.gen = new_gen;
    let _ = std::fs::remove_file(&old_path);
    d.publish_stats();
    d.refresh_wal_inventory();
    Ok(())
}

// ----- follower loop --------------------------------------------------------

/// Everything the follower thread owns: the leader address, the shard
/// queues it feeds shipped frames into, and the shared role state.
struct FollowerRuntime {
    leader: String,
    shards: u32,
    shard_txs: Vec<Sender<ShardCmd>>,
    repl: Arc<ReplState>,
    obs: Arc<PipelineObs>,
    shutdown: Arc<AtomicBool>,
    wal_base: PathBuf,
    promote_after: Option<Duration>,
}

/// Each shard's durable position (current generation, segment length),
/// fresh from the shard threads — the resume positions a reconnect
/// offers the leader. `None` when a shard thread is gone (shutdown).
fn shard_positions(rt: &FollowerRuntime) -> Option<Vec<ShardPosition>> {
    let positions = fan_out(&rt.shard_txs, |reply| ShardCmd::ReplicaPosition { reply })?;
    let at = |(shard, (gen, offset))| ShardPosition { shard, gen, offset };
    Some((0..).zip(positions).map(at).collect())
}

/// The follower thread: connect to the leader, dispatch shipped frames
/// to the shard threads, ack applied-and-durable positions, and
/// reconnect with fresh resume positions on any session failure. Exits
/// for good at shutdown or promotion.
fn follower_loop(rt: FollowerRuntime) {
    let robs = rt.obs.repl.clone();
    // Auto-promotion (`--promote-after-ms`) arms only once the leader
    // has been heard from: promoting a follower that never synced would
    // serve whatever partial state it booted with.
    let mut last_contact: Option<Instant> = None;
    let mut backoff_ms = 50u64;
    while !rt.shutdown.load(Ordering::SeqCst) {
        if rt.repl.promote.load(Ordering::SeqCst) {
            if promote(&rt) {
                return;
            }
            // Plain sleep: `sleep_checked` returns immediately while
            // the promote latch is set, and the retry cadence must not
            // be a hot loop.
            thread::sleep(std::time::Duration::from_millis(200));
            continue;
        }
        if let (Some(after), Some(t)) = (rt.promote_after, last_contact) {
            if t.elapsed() >= std::time::Duration::from_millis(after.as_millis()) {
                eprintln!(
                    "fenestrad: no leader contact for {}ms; promoting",
                    after.as_millis()
                );
                if promote(&rt) {
                    return;
                }
                thread::sleep(std::time::Duration::from_millis(200));
                continue;
            }
        }
        let Some(resume) = shard_positions(&rt) else {
            return;
        };
        let my_epoch = rt.repl.epoch.load(Ordering::SeqCst);
        let mut client = match FollowerClient::connect(
            &rt.leader,
            my_epoch,
            rt.shards,
            resume,
            std::time::Duration::from_millis(100),
        ) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "fenestrad: connecting to leader {} failed: {e} (retrying in {backoff_ms}ms)",
                    rt.leader
                );
                sleep_checked(&rt, backoff_ms);
                backoff_ms = (backoff_ms * 2).min(2000);
                continue;
            }
        };
        // The handshake guarantees the leader's epoch is ≥ ours; adopt
        // (and persist) a higher one so our next Hello survives a
        // leader restart.
        if client.epoch > my_epoch {
            if let Err(e) = store_epoch(&rt.wal_base, client.epoch) {
                eprintln!(
                    "fenestrad: persisting adopted epoch {} failed: {e}",
                    client.epoch
                );
            }
            rt.repl.epoch.store(client.epoch, Ordering::SeqCst);
            robs.epoch.store(client.epoch, Ordering::Relaxed);
        }
        let Ok(mut acks) = client.ack_sender() else {
            robs.reconnects.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        last_contact = Some(Instant::now());
        backoff_ms = 50;
        // Liveness deadline for the session itself: the leader
        // heartbeats every `HEARTBEAT_MS` even when idle, so a socket
        // this quiet for several intervals is half-open (leader power
        // loss, a dropped route — nothing that produces a FIN). Tear it
        // down and reconnect rather than trusting a dead TCP session.
        let dead_after =
            std::time::Duration::from_millis(HEARTBEAT_MS.saturating_mul(DEAD_SESSION_HEARTBEATS));
        let mut last_frame = Instant::now();
        // One session: frames dispatch to shard threads in arrival
        // order; any error breaks out and reconnects.
        loop {
            if rt.shutdown.load(Ordering::SeqCst) {
                client.shutdown();
                return;
            }
            if rt.repl.promote.load(Ordering::SeqCst) {
                client.shutdown();
                if promote(&rt) {
                    return;
                }
                // Retry from the outer loop (its promote-latch check
                // runs first and paces the retries).
                break;
            }
            if let (Some(after), Some(t)) = (rt.promote_after, last_contact) {
                if t.elapsed() >= std::time::Duration::from_millis(after.as_millis()) {
                    client.shutdown();
                    eprintln!(
                        "fenestrad: no leader contact for {}ms; promoting",
                        after.as_millis()
                    );
                    if promote(&rt) {
                        return;
                    }
                    break;
                }
            }
            let frame = match client.recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    // Quiet tick: re-check the flags, and give up on a
                    // session that has out-quieted the heartbeat
                    // cadence — it is half-open, not idle.
                    if last_frame.elapsed() >= dead_after {
                        eprintln!(
                            "fenestrad: no leader traffic for {}ms (heartbeat every {}ms); \
                             reconnecting",
                            dead_after.as_millis(),
                            HEARTBEAT_MS
                        );
                        client.shutdown();
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    eprintln!("fenestrad: replication session to {} ended: {e}", rt.leader);
                    break;
                }
            };
            last_frame = Instant::now();
            last_contact = Some(Instant::now());
            robs.last_leader_contact_ms
                .store(now_us() / 1000, Ordering::Relaxed);
            match frame {
                ReplFrame::Frames {
                    shard,
                    gen,
                    offset,
                    epoch: _,
                    sent_at_us,
                    bytes,
                } => {
                    let t0 = Instant::now();
                    let nbytes = bytes.len() as u64;
                    let (reply, rx) = channel::bounded(1);
                    let sent = rt.shard_txs.get(shard as usize).is_some_and(|tx| {
                        tx.send(ShardCmd::ReplicaApply {
                            gen,
                            offset,
                            bytes,
                            reply,
                        })
                        .is_ok()
                    });
                    if !sent {
                        return; // shard threads are gone: shutdown
                    }
                    match rx.recv() {
                        Ok(Ok((new_offset, frames, ops, synced))) => {
                            robs.applied_frames.fetch_add(frames, Ordering::Relaxed);
                            robs.applied_ops.fetch_add(ops, Ordering::Relaxed);
                            robs.applied_bytes.fetch_add(nbytes, Ordering::Relaxed);
                            robs.apply_us.record(t0.elapsed().as_micros() as u64);
                            let pos = ShardPosition {
                                shard,
                                gen,
                                offset: new_offset,
                            };
                            if acks.send(pos, sent_at_us).is_err() {
                                break;
                            }
                            // The coverage claim the leader's sync gate
                            // votes on — only when the local append was
                            // actually fsynced.
                            if synced && acks.send_covered(pos, sent_at_us).is_err() {
                                break;
                            }
                        }
                        Ok(Err(e)) => {
                            // Position skew or a failed op: resync via
                            // reconnect (the leader re-bootstraps what
                            // cannot resume).
                            eprintln!("fenestrad: replica apply failed: {e}; resyncing");
                            break;
                        }
                        Err(_) => return,
                    }
                }
                ReplFrame::Snapshot {
                    shard,
                    gen,
                    epoch: _,
                    bytes,
                } => {
                    let (reply, rx) = channel::bounded(1);
                    let sent = rt.shard_txs.get(shard as usize).is_some_and(|tx| {
                        tx.send(ShardCmd::ReplicaBootstrap { gen, bytes, reply })
                            .is_ok()
                    });
                    if !sent {
                        return;
                    }
                    match rx.recv() {
                        Ok(Ok(())) => {
                            let pos = ShardPosition {
                                shard,
                                gen,
                                offset: 0,
                            };
                            // Durable by construction: the snapshot was
                            // written atomically (file fsynced) and the
                            // fresh segment is empty.
                            if acks.send(pos, 0).is_err() || acks.send_covered(pos, 0).is_err() {
                                break;
                            }
                        }
                        Ok(Err(e)) => {
                            eprintln!("fenestrad: replica bootstrap failed: {e}; resyncing");
                            break;
                        }
                        Err(_) => return,
                    }
                }
                ReplFrame::Rotate {
                    shard,
                    new_gen,
                    epoch: _,
                } => {
                    let (reply, rx) = channel::bounded(1);
                    let sent = rt.shard_txs.get(shard as usize).is_some_and(|tx| {
                        tx.send(ShardCmd::ReplicaRotate { new_gen, reply }).is_ok()
                    });
                    if !sent {
                        return;
                    }
                    match rx.recv() {
                        Ok(Ok(())) => {
                            let pos = ShardPosition {
                                shard,
                                gen: new_gen,
                                offset: 0,
                            };
                            // Durable by construction: rotation synced
                            // the finished segment and checkpointed
                            // before replying.
                            if acks.send(pos, 0).is_err() || acks.send_covered(pos, 0).is_err() {
                                break;
                            }
                        }
                        Ok(Err(e)) => {
                            eprintln!("fenestrad: replica rotation failed: {e}; resyncing");
                            break;
                        }
                        Err(_) => return,
                    }
                }
                ReplFrame::Heartbeat {
                    epoch: _,
                    positions,
                } => {
                    // The leader's write positions against ours: the
                    // per-shard byte-lag gauges. Cross-generation lag
                    // approximates to the leader's in-segment offset
                    // (the old segment's residue ships imminently).
                    let Some(local) = shard_positions(&rt) else {
                        return;
                    };
                    for p in positions {
                        let Some(l) = local.get(p.shard as usize) else {
                            continue;
                        };
                        let lag = if p.gen == l.gen {
                            p.offset.saturating_sub(l.offset)
                        } else {
                            p.offset
                        };
                        if let Some(s) = rt.obs.shards.get(p.shard as usize) {
                            s.repl_lag_bytes.store(lag, Ordering::Relaxed);
                        }
                    }
                }
                other => {
                    eprintln!("fenestrad: unexpected replication frame: {other:?}");
                    break;
                }
            }
        }
        robs.reconnects.fetch_add(1, Ordering::Relaxed);
        sleep_checked(&rt, backoff_ms);
        backoff_ms = (backoff_ms * 2).min(2000);
    }
}

/// Sleep `ms`, waking early at shutdown or promotion.
fn sleep_checked(rt: &FollowerRuntime, ms: u64) {
    let deadline = Instant::now() + std::time::Duration::from_millis(ms);
    while Instant::now() < deadline {
        if rt.shutdown.load(Ordering::SeqCst) || rt.repl.promote.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Fenced failover. Ordering is the point:
///
/// 1. **Persist the bumped epoch** (the sidecar write — atomic rename
///    plus parent-directory fsync — is the durable fence: after it, a
///    restart of this node still outranks the old leader). If this
///    fails, promotion **aborts with no role change**: flipping to
///    leader on an epoch that could evaporate at the next power cut
///    would let a rebooted pair resurrect the old epoch and un-fence
///    the demoted leader. Returns `false`; the caller retries.
/// 2. Publish it in memory.
/// 3. **Leave follower mode** — the shard threads' checkpoint arms are
///    gated on `is_following`, so this must precede step 4.
/// 4. Checkpoint every shard: each snapshot is stamped with the new
///    epoch and rotation starts a fresh generation — a new lineage the
///    demoted leader's frames can never splice into.
fn promote(rt: &FollowerRuntime) -> bool {
    let robs = rt.obs.repl.clone();
    let new_epoch = rt.repl.epoch.load(Ordering::SeqCst) + 1;
    if let Err(e) = store_epoch(&rt.wal_base, new_epoch) {
        eprintln!(
            "fenestrad: persisting promotion epoch {new_epoch} failed: {e}; \
             promotion aborted, still following (will retry)"
        );
        return false;
    }
    rt.repl.epoch.store(new_epoch, Ordering::SeqCst);
    robs.epoch.store(new_epoch, Ordering::Relaxed);
    rt.repl.following.store(false, Ordering::SeqCst);
    robs.following.store(0, Ordering::Relaxed);
    for tx in &rt.shard_txs {
        let _ = tx.send(ShardCmd::Snapshot);
    }
    // Barrier: promotion reports complete only once every shard has
    // checkpointed under the new epoch.
    let _ = fan_out(&rt.shard_txs, |done| ShardCmd::Sync { done });
    rt.repl.promoted.store(true, Ordering::SeqCst);
    eprintln!("fenestrad: promoted to leader at epoch {new_epoch}");
    true
}

/// A shard's snapshot file: the bare `path` with one shard,
/// `path.shard{i}` with N.
fn snapshot_file(path: &Path, shard: u32, shards_total: u32) -> PathBuf {
    if shards_total == 1 {
        path.to_path_buf()
    } else {
        shard_snapshot_path(path, shard)
    }
}

/// Non-durable snapshot write: the compact state at `path` with one
/// shard, shard-stamped `path.shard{i}` files with N.
fn snapshot(engine: &Engine, path: &Option<PathBuf>, shard: u32, shards_total: u32) {
    let Some(p) = path else { return };
    let res = fenestra_temporal::persist::save_compact_stamped(
        &engine.store(),
        snapshot_file(p, shard, shards_total),
        0,
        (shards_total > 1).then_some((shard, shards_total)),
        0,
    );
    if let Err(e) = res {
        eprintln!("fenestrad: snapshot to {} failed: {e}", p.display());
    }
}

// ----- connection threads ---------------------------------------------------

/// Outcome of one capped line read.
enum LineRead {
    /// Clean end of stream (a trailing unterminated line is yielded
    /// first, matching `BufRead::lines`).
    Eof,
    /// One line is in the buffer (terminator stripped).
    Line,
    /// The line exceeded `--max-frame-bytes`; it was consumed and
    /// discarded through its terminator, so the stream stays in sync.
    TooLong,
}

/// Read one `\n`-terminated line into `out` without ever buffering
/// more than `cap` bytes of it — the JSONL half of the
/// `--max-frame-bytes` guard. Unlike the binary plane (where an
/// oversize declared length poisons the framing), a too-long line has
/// a self-evident resynchronization point: the next newline.
fn read_line_capped<R: BufRead>(
    r: &mut R,
    out: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    out.clear();
    loop {
        let (found, used) = {
            let buf = r.fill_buf()?;
            if buf.is_empty() {
                return Ok(if out.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if out.len() + pos > cap {
                        (Some(LineRead::TooLong), pos + 1)
                    } else {
                        out.extend_from_slice(&buf[..pos]);
                        (Some(LineRead::Line), pos + 1)
                    }
                }
                None => {
                    if out.len() + buf.len() > cap {
                        out.clear();
                        // Oversize: skip the rest of the line.
                        let skipped = skip_to_newline(r)?;
                        return Ok(if skipped {
                            LineRead::TooLong
                        } else {
                            LineRead::Eof
                        });
                    }
                    out.extend_from_slice(buf);
                    (None, buf.len())
                }
            }
        };
        r.consume(used);
        if let Some(res) = found {
            return Ok(res);
        }
    }
}

/// Discard bytes through the next `\n`. Returns false on EOF.
fn skip_to_newline<R: BufRead>(r: &mut R) -> std::io::Result<bool> {
    loop {
        let (end, used) = {
            let buf = r.fill_buf()?;
            if buf.is_empty() {
                return Ok(false);
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => (true, pos + 1),
                None => (false, buf.len()),
            }
        };
        r.consume(used);
        if end {
            return Ok(true);
        }
    }
}

/// The classic JSONL connection loop, fed by the reactor once a
/// connection's first bytes rule out the binary magic. `prefix` is
/// whatever the reactor already read during detection; it is replayed
/// ahead of the socket so no byte is lost.
pub(crate) fn handle_conn(stream: TcpStream, ctx: Arc<ConnCtx>, conn_id: u64, prefix: Vec<u8>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // All outbound lines — acks, replies, watch deltas — funnel
    // through one channel so a single writer owns the socket and the
    // per-connection ordering is explicit. The writer coalesces: one
    // blocking recv, then a greedy sweep of whatever else is queued,
    // one write + flush for the lot — under held-ack bursts (a group
    // commit releasing dozens of acks at once) that is one syscall
    // pair instead of one per line.
    let (mut out_tx, out_rx) = channel::unbounded::<String>();
    let writer = {
        let metrics = ctx.metrics.clone();
        thread::spawn(move || {
            let mut w = BufWriter::new(write_half);
            let mut batch = String::new();
            while let Ok(first) = out_rx.recv() {
                batch.clear();
                batch.push_str(&first);
                batch.push('\n');
                while batch.len() < 1 << 20 {
                    match out_rx.try_recv() {
                        Ok(line) => {
                            batch.push_str(&line);
                            batch.push('\n');
                        }
                        Err(_) => break,
                    }
                }
                metrics
                    .bytes_out
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                if w.write_all(batch.as_bytes())
                    .and_then(|()| w.flush())
                    .is_err()
                {
                    break;
                }
            }
        })
    };

    let mut reader = BufReader::new(std::io::Cursor::new(prefix).chain(stream));
    let mut raw = Vec::new();
    let mut seq = 0u64;
    let mut stage = Stage::new(ctx.shard_txs.len());
    loop {
        let line = match read_line_capped(&mut reader, &mut raw, ctx.max_frame_bytes) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                let _ = out_tx.send(proto::error(&format!(
                    "frame too large: line exceeds max-frame-bytes {}; line discarded",
                    ctx.max_frame_bytes
                )));
                continue;
            }
            Ok(LineRead::Line) => match std::str::from_utf8(&raw) {
                Ok(s) => s,
                Err(_) => break,
            },
            Err(_) => break,
        };
        ctx.metrics
            .bytes_in
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let req = match proto::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                // Unknown `cmd`/`op` values get the structured reply
                // (error + `supported` list); everything else the
                // plain error line.
                let reply =
                    proto::unknown_reply(line).unwrap_or_else(|| proto::error(&e.to_string()));
                let _ = out_tx.send(reply);
                continue;
            }
        };
        // A follower is read-only: ingest is redirected to the leader
        // (queries, watches, and stats all serve locally). Checked per
        // line, not per connection — the answer flips at promotion.
        if matches!(req, Request::Event(_) | Request::Batch(_)) {
            if let Some(r) = ctx.repl.as_ref().filter(|r| r.is_following()) {
                let leader = r.leader.as_deref().unwrap_or("");
                let _ = out_tx.send(redirect_line(leader).trim_end().to_string());
                continue;
            }
        }
        match req {
            Request::Event(ev) => {
                seq += 1;
                if !admit_line(&ctx, &mut stage, &mut out_tx, conn_id, seq, vec![ev], true) {
                    break;
                }
            }
            Request::Batch(evs) => {
                seq += evs.len() as u64;
                if !admit_line(&ctx, &mut stage, &mut out_tx, conn_id, seq, evs, false) {
                    break;
                }
            }
            Request::Query { text } => {
                ctx.metrics.queries.fetch_add(1, Ordering::Relaxed);
                handle_query(&ctx, &out_tx, &text);
            }
            Request::Stats => {
                // Lock-light: built here, on the connection thread,
                // from published atomics. No shard round-trip — a
                // stats poller can never slow or stall ingest.
                let _ = out_tx.send(build_stats(
                    &ctx.metrics,
                    &ctx.obs,
                    &ctx.plans.stats(),
                    ctx.repl.is_some(),
                ));
            }
            Request::Sync => {
                fan_out_sync(&ctx, &out_tx);
            }
            Request::Watch { name, text } => match compile_cached(&ctx, &text) {
                Ok(plan) if !plan.is_watchable() => {
                    let _ = out_tx.send(proto::error(
                        "history queries cannot be watched; watch a select query",
                    ));
                }
                Ok(plan) => {
                    ctx.metrics.watches.fetch_add(1, Ordering::Relaxed);
                    let _ = out_tx.send(proto::watch_ack(&name));
                    for tx in &ctx.shard_txs {
                        let cmd = ShardCmd::Watch {
                            name: name.clone(),
                            plan: plan.clone(),
                            sink: out_tx.clone(),
                        };
                        if tx.send(cmd).is_err() {
                            let _ = out_tx.send(proto::error("server shutting down"));
                            break;
                        }
                    }
                }
                Err(e) => {
                    let _ = out_tx.send(proto::error(&e.to_string()));
                }
            },
            Request::Promote => {
                let line = match &ctx.repl {
                    None => proto::error("not a follower: replication is not configured"),
                    Some(r) if !r.is_following() => {
                        proto::error("not a follower: this node is already the leader")
                    }
                    Some(r) => {
                        // Latch the request; the follower thread
                        // observes it within one tick and runs the
                        // fenced promotion sequence.
                        r.promote.store(true, Ordering::SeqCst);
                        let deadline = Instant::now() + std::time::Duration::from_secs(30);
                        loop {
                            if r.promoted.load(Ordering::SeqCst) {
                                let mut m = Map::new();
                                m.insert("ok".into(), Json::Bool(true));
                                m.insert("promoted".into(), Json::Bool(true));
                                m.insert(
                                    "epoch".into(),
                                    Json::from(r.epoch.load(Ordering::SeqCst)),
                                );
                                break Json::Object(m).to_string();
                            }
                            if Instant::now() >= deadline || ctx.shutdown.load(Ordering::SeqCst) {
                                break proto::error("promotion did not complete");
                            }
                            thread::sleep(std::time::Duration::from_millis(2));
                        }
                    }
                };
                let _ = out_tx.send(line);
            }
            Request::Shutdown => {
                // Drains every shard (all parts admitted before this
                // line on this connection are covered by FIFO shard
                // queues), resolves every held ack, then confirms.
                ctx.coord.trigger();
                let _ = out_tx.send(proto::bye());
                break;
            }
        }
    }
    drop(out_tx);
    let _ = writer.join();
}

/// Admit one JSONL ingest frame ending at `seq` (`single`: a plain
/// event line): stage it alone and flush, waiting out a full shard
/// queue (the `Block` policy, or a `Shed` frame that won the
/// check-then-send race). Returns `false` once the server is shutting
/// down.
fn admit_line(
    ctx: &ConnCtx,
    stage: &mut Stage,
    out: &mut Sender<String>,
    conn: u64,
    seq: u64,
    evs: Vec<Event>,
    single: bool,
) -> bool {
    let id = FrameId {
        seq,
        count: evs.len() as u64,
        single,
    };
    stage.push(ctx, conn, id, evs, out);
    let mut flushed = stage.flush(ctx, out);
    if flushed == Flush::Parked {
        flushed = stage.resume(ctx, true, out);
    }
    flushed != Flush::Down
}

/// JSONL replies: lines on the connection's writer channel.
impl Replies for Sender<String> {
    fn held(&self, f: FrameId) -> AckSink {
        AckSink::Line {
            tx: self.clone(),
            line: ack_line(f),
        }
    }

    fn ack(&mut self, f: FrameId) {
        let _ = self.send(ack_line(f));
    }

    fn shed(&mut self, f: FrameId) {
        let _ = self.send(proto::shed(f.seq, f.count));
    }

    fn down(&mut self, _seq: u64) {
        let _ = self.send(proto::error("server shutting down"));
    }
}

/// A plain event line is acked by `seq` alone, a batch frame with its
/// `count`.
fn ack_line(f: FrameId) -> String {
    if f.single {
        proto::ack(f.seq)
    } else {
        proto::ack_batch(f.seq, f.count)
    }
}

/// Compile `text` through the shared plan cache, recording compile
/// latency into the plan histograms on a miss.
fn compile_cached(ctx: &ConnCtx, text: &str) -> Result<Arc<CachedPlan>> {
    let (plan, hit) = ctx.plans.get_or_compile(text)?;
    if !hit {
        ctx.obs.plan.compile_us.record(plan.compile_us);
    }
    Ok(plan)
}

/// One `query` request end to end: strip the `EXPLAIN` prefix, compile
/// through the shared plan cache (the cache key is the inner
/// statement, so explaining a query warms its plan), then either
/// render the plan trees or execute — a single shard through the
/// byte-identical legacy path, N shards by physical-operator fan-out.
fn handle_query(ctx: &ConnCtx, out_tx: &Sender<String>, text: &str) {
    let (explain, stmt) = fenestra_query::strip_explain(text);
    let plan = match compile_cached(ctx, stmt) {
        Ok(plan) => plan,
        Err(e) => {
            let _ = out_tx.send(proto::error(&e.to_string()));
            return;
        }
    };
    let line = if explain {
        let (logical, physical) = fenestra_query::render_explain(&plan, ctx.shard_txs.len());
        proto::explain_reply(plan.dialect, &logical, &physical, &plan.rules)
    } else {
        let t0 = Instant::now();
        let line = dispatch_plan(ctx, &plan);
        ctx.obs.plan.exec_us.record(t0.elapsed().as_micros() as u64);
        line
    };
    let _ = out_tx.send(line);
}

/// Execute a compiled plan and build the reply line. One shard uses
/// the legacy in-shard path (byte-identical to the unsharded server);
/// N shards fan out by the plan's physical operator.
fn dispatch_plan(ctx: &ConnCtx, plan: &Arc<CachedPlan>) -> String {
    if ctx.shard_txs.len() == 1 {
        let (rtx, rrx) = channel::bounded(1);
        if ctx.shard_txs[0]
            .send(ShardCmd::QueryPlan {
                plan: plan.clone(),
                reply: rtx,
            })
            .is_err()
        {
            return proto::error("server shutting down");
        }
        return rrx
            .recv()
            .unwrap_or_else(|_| proto::error("server shutting down"));
    }
    match &plan.physical {
        PhysicalPlan::Select { query } => fan_out_rows(ctx, query),
        PhysicalPlan::History { entity, attr } => fan_out_history(ctx, *entity, *attr),
        PhysicalPlan::WindowAgg(w) => fan_out_window(ctx, w),
    }
}

/// Fan a select out to every shard and merge via [`merge_rows`].
fn fan_out_rows(ctx: &ConnCtx, q: &Arc<Query>) -> String {
    let replies = fan_out(&ctx.shard_txs, |reply| ShardCmd::QueryRows {
        q: q.clone(),
        reply,
    });
    let Some(replies) = replies else {
        return proto::error("server shutting down");
    };
    match replies
        .into_iter()
        .collect::<std::result::Result<Vec<_>, _>>()
    {
        Ok(parts) => proto::query_reply(&QueryResult::Rows(merge_rows(q, parts)), None),
        Err(msg) => proto::error(&msg),
    }
}

/// Fan a history query out to every shard and merge every timeline
/// that knows the entity, ordered by span start with ties broken by
/// shard id then in-shard order (see
/// [`fenestra_core::shard::merge_history`]).
fn fan_out_history(ctx: &ConnCtx, entity: Symbol, attr: Symbol) -> String {
    let replies = fan_out(&ctx.shard_txs, |reply| ShardCmd::QueryHistory {
        entity,
        attr,
        reply,
    });
    let Some(replies) = replies else {
        return proto::error("server shutting down");
    };
    let parts: Vec<HistorySpans> = replies.into_iter().flatten().collect();
    if parts.is_empty() {
        return proto::error(&Error::Invalid(format!("unknown entity `{entity}`")).to_string());
    }
    // Ids were resolved shard-side; no store needed here.
    let spans = fenestra_core::shard::merge_history(parts);
    proto::query_reply(&QueryResult::History(spans), None)
}

/// Fan a windowed aggregation out: every shard scans its slice of the
/// fact stream (ts-ordered), the slices merge into one ordered stream
/// (shard id then in-shard order break ts ties), and the window
/// operator runs once over the merged stream.
fn fan_out_window(ctx: &ConnCtx, w: &Arc<WindowPhys>) -> String {
    let replies = fan_out(&ctx.shard_txs, |reply| ShardCmd::QueryFacts {
        w: w.clone(),
        reply,
    });
    let Some(replies) = replies else {
        return proto::error("server shutting down");
    };
    let batches = match replies.into_iter().collect() {
        Ok(batches) => batches,
        Err(msg) => return proto::error(&msg),
    };
    match w.aggregate(WindowPhys::merge_fact_batches(batches)) {
        Ok(rows) => proto::query_reply(&QueryResult::Rows(rows), None),
        Err(e) => proto::error(&e.to_string()),
    }
}

/// Build the `stats` reply from published atomics only — engine
/// counters merged across shards, the shared server counters, merged
/// stage-latency histograms, and a per-shard breakdown (counters,
/// gauges, stages). No locks beyond relaxed loads, no shard
/// round-trip; see `fenestra-wire`'s stats schema docs.
pub(crate) fn build_stats(
    metrics: &ServerMetrics,
    obs: &PipelineObs,
    plans: &CacheStats,
    repl: bool,
) -> String {
    let mut merged = EngineMetrics::default();
    let mut per_shard = Vec::with_capacity(obs.shards.len());
    for (i, sh) in obs.shards.iter().enumerate() {
        let engine = sh.engine.load();
        merged.merge(&engine);
        let mut obj = Map::new();
        obj.insert("shard".into(), Json::from(i as u32));
        obj.insert("engine".into(), engine.readings().json());
        // Also among the gauges; this copy is part of the reply's
        // established shape.
        obj.insert(
            "held_acks".into(),
            Json::from(sh.held_acks.load(Ordering::Relaxed)),
        );
        obj.insert("gauges".into(), sh.gauges().json());
        obj.insert("stages".into(), sh.stages().json());
        per_shard.push(Json::Object(obj));
    }
    let mut plan_obj = Map::new();
    plan_obj.insert("cache".into(), plan_cache(plans).json());
    obs.plan.readings().write_json(&mut plan_obj);
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(true));
    obj.insert("engine".into(), merged.readings().json());
    obj.insert("server".into(), metrics.readings().json());
    obj.insert("stages".into(), obs.merged_stages().json());
    obj.insert("plans".into(), Json::Object(plan_obj));
    obj.insert("shards".into(), Json::Array(per_shard));
    // Present only when replication is configured, so a plain server's
    // stats schema is unchanged.
    if repl {
        obj.insert("replication".into(), obs.repl.readings().json());
    }
    Json::Object(obj).to_string()
}

/// Fan the `sync` barrier out to every shard and confirm once each has
/// replied — proving every command admitted before the barrier (on any
/// shard, by FIFO queues) has been applied.
fn fan_out_sync(ctx: &ConnCtx, out_tx: &Sender<String>) {
    let line = match fan_out(&ctx.shard_txs, |done| ShardCmd::Sync { done }) {
        Some(_) => proto::synced(),
        None => proto::error("server shutting down"),
    };
    let _ = out_tx.send(line);
}

// ----- Prometheus listener --------------------------------------------------

/// Accept loop for the `--metrics-addr` listener. Scrapes are served
/// serially on this one thread: each render is a pass over atomics, so
/// there is nothing worth parallelizing, and a scraper can never
/// amplify into many engine-side threads.
fn metrics_loop(
    listener: TcpListener,
    metrics: Arc<ServerMetrics>,
    obs: Arc<PipelineObs>,
    plans: Arc<PlanCache>,
    shutdown: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        serve_metrics_conn(stream, &metrics, &obs, &plans.stats());
    }
}

/// One minimal HTTP exchange: `GET /metrics` returns the Prometheus
/// text exposition, anything else a 404. Hand-rolled on purpose — no
/// HTTP dependency for one GET route. A read timeout bounds how long a
/// wedged scraper can hold the (single) metrics thread.
fn serve_metrics_conn(
    stream: TcpStream,
    metrics: &ServerMetrics,
    obs: &PipelineObs,
    plans: &CacheStats,
) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers; the reply does not depend on any of them.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut w = BufWriter::new(stream);
    if method == "GET" && path.trim_end_matches('/') == "/metrics" {
        let body = crate::prom::render_prometheus(metrics, obs, plans);
        let _ = write!(
            w,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
    } else {
        let body = "not found; try GET /metrics\n";
        let _ = write!(
            w,
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
    }
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `writeln!` in one write: on a raw socket `writeln!` sends the
    /// newline as a second segment, which the client's Nagle holds
    /// until the server's delayed ACK.
    macro_rules! send {
        ($stream:expr, $($fmt:tt)*) => {
            (&$stream)
                .write_all(format!("{}\n", format_args!($($fmt)*)).as_bytes())
                .unwrap()
        };
    }

    fn lines(stream: &TcpStream) -> impl Iterator<Item = String> + '_ {
        BufReader::new(stream.try_clone().unwrap())
            .lines()
            .map_while(|l| l.ok())
    }

    #[test]
    fn stats_shutdown_round_trip() {
        let mut handle = Server::start(ServerConfig::new("127.0.0.1:0")).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);

        send!(input, r#"{{"stream":"s","ts":1,"x":2}}"#);
        let ack = rx.next().unwrap();
        assert!(ack.contains(r#""seq":1"#), "got: {ack}");

        send!(input, r#"{{"cmd":"stats"}}"#);
        let stats = rx.next().unwrap();
        let v: serde_json::Value = serde_json::from_str(&stats).unwrap();
        assert!(v.get("engine").is_some() && v.get("server").is_some());

        send!(input, r#"{{"cmd":"shutdown"}}"#);
        let bye = rx.next().unwrap();
        assert!(bye.contains("bye"), "got: {bye}");
        handle.join();
    }

    #[test]
    fn wal_restart_recovers_state_and_rotates_segments() {
        let dir = std::env::temp_dir().join(format!("fenestra-srv-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.json");
        let wal = dir.join("log");
        let config = || {
            ServerConfig::new("127.0.0.1:0")
                .snapshot_path(&snap)
                .wal_path(&wal)
                .setup(|engine| {
                    engine.declare_attr("room", fenestra_temporal::AttrSchema::one());
                    engine
                        .add_rules_text("rule mv:\n on s\n replace $(visitor).room = room")
                        .unwrap();
                })
        };

        let mut handle = Server::start(config()).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);
        for ts in 1..=5 {
            send!(
                input,
                r#"{{"stream":"s","ts":{ts},"visitor":"v{ts}","room":"lab"}}"#
            );
            assert!(rx.next().unwrap().contains(r#""ok":true"#));
        }
        send!(input, r#"{{"cmd":"shutdown"}}"#);
        rx.next().unwrap();
        handle.join();
        // Shutdown checkpointed: snapshot exists, gen 0 rotated away.
        assert!(snap.exists());
        assert!(!segment_path(&wal, 0).exists());

        // Restart over the same state directory and query it.
        let mut handle = Server::start(config()).unwrap();
        assert!(
            handle.metrics().recovered_ops.load(Ordering::Relaxed) > 0,
            "restart must replay the snapshot"
        );
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);
        send!(
            input,
            r#"{{"cmd":"query","q":"select ?v where {{ ?v room \"lab\" }}"}}"#
        );
        let reply = rx.next().unwrap();
        for v in ["v1", "v2", "v3", "v4", "v5"] {
            assert!(reply.contains(v), "missing {v} in: {reply}");
        }
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_lines_get_errors_not_disconnects() {
        let mut handle = Server::start(ServerConfig::new("127.0.0.1:0")).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);

        send!(input, "this is not json");
        assert!(rx.next().unwrap().contains(r#""ok":false"#));
        send!(input, r#"{{"cmd":"nope"}}"#);
        assert!(rx.next().unwrap().contains("unknown command"));
        // Connection still works afterwards.
        send!(input, r#"{{"stream":"s","ts":1}}"#);
        assert!(rx.next().unwrap().contains(r#""ok":true"#));

        handle.shutdown();
    }

    #[test]
    fn sharded_server_spreads_events_and_merges_queries() {
        let dir = std::env::temp_dir().join(format!("fenestra-srv-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.json");
        let wal = dir.join("log");
        let config = || {
            ServerConfig::new("127.0.0.1:0")
                .shards(4)
                .snapshot_path(&snap)
                .wal_path(&wal)
                .setup(|engine| {
                    engine
                        .add_rules_text("rule mv:\n on s\n replace $(visitor).room = room")
                        .unwrap();
                })
        };

        let mut handle = Server::start(config()).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);
        for ts in 1..=16 {
            send!(
                input,
                r#"{{"stream":"s","ts":{ts},"visitor":"v{ts}","room":"lab"}}"#
            );
            assert!(rx.next().unwrap().contains(r#""ok":true"#));
        }
        // Fan-out select sees every entity regardless of its shard.
        send!(
            input,
            r#"{{"cmd":"query","q":"select ?v where {{ ?v room \"lab\" }}"}}"#
        );
        let reply = rx.next().unwrap();
        for v in (1..=16).map(|i| format!("v{i}")) {
            assert!(reply.contains(&v), "missing {v} in: {reply}");
        }
        // Count merges globally, not per shard.
        send!(
            input,
            r#"{{"cmd":"query","q":"select count ?v where {{ ?v room \"lab\" }}"}}"#
        );
        let reply = rx.next().unwrap();
        assert!(reply.contains(r#""count":16"#), "got: {reply}");
        // Stats aggregate across shards and break them out.
        send!(input, r#"{{"cmd":"stats"}}"#);
        let stats = rx.next().unwrap();
        let v: serde_json::Value = serde_json::from_str(&stats).unwrap();
        let shard_events = |s: &Json| {
            s.get("engine")
                .and_then(|e| e.get("events"))
                .and_then(Json::as_u64)
        };
        assert_eq!(shard_events(&v), Some(16), "got: {stats}");
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards.len(), 4);
        let spread: u64 = shards.iter().map(|s| shard_events(s).unwrap()).sum();
        assert_eq!(spread, 16);
        assert!(
            shards.iter().filter(|s| shard_events(s) > Some(0)).count() > 1,
            "16 distinct keys should span more than one shard: {stats}"
        );

        send!(input, r#"{{"cmd":"shutdown"}}"#);
        assert!(rx.next().unwrap().contains("bye"));
        handle.join();
        // Shard-addressed on-disk layout, one snapshot per shard.
        for i in 0..4 {
            assert!(
                shard_snapshot_path(&snap, i).exists(),
                "missing shard {i} snapshot"
            );
        }
        assert!(!snap.exists(), "no legacy snapshot in sharded mode");

        // Restarting with a contradicting shard count is refused.
        let err = Server::start(
            ServerConfig::new("127.0.0.1:0")
                .shards(2)
                .snapshot_path(&snap)
                .wal_path(&wal),
        );
        assert!(err.is_err(), "shard-count mismatch must be rejected");

        // Restarting with the matching count recovers everything.
        let mut handle = Server::start(config()).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);
        send!(
            input,
            r#"{{"cmd":"query","q":"select count ?v where {{ ?v room \"lab\" }}"}}"#
        );
        assert!(rx.next().unwrap().contains(r#""count":16"#));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_entity_rules_are_rejected_at_startup_when_sharded() {
        let err = Server::start(ServerConfig::new("127.0.0.1:0").shards(4).setup(|engine| {
            engine
                .add_rules_text("rule pin:\n on s\n replace @global.last = visitor")
                .unwrap();
        }));
        let msg = match err {
            Err(e) => e.to_string(),
            Ok(_) => panic!("fixed-entity rule must be rejected with --shards 4"),
        };
        assert!(msg.contains("--shards 1"), "no remedy in: {msg}");
    }

    #[test]
    fn shutdown_mid_batch_leaves_no_ack_hanging() {
        // Satellite: deterministic drain under sharding. Durable acks
        // (`--fsync always` + WAL) with a lateness bound hold acks in
        // the reorder buffer; a shutdown arriving mid-stream must
        // release every one of them (covered by the final checkpoint)
        // before the bye — none hanging, per-connection order intact.
        let dir = std::env::temp_dir().join(format!("fenestra-srv-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let engine_cfg = fenestra_core::EngineConfig {
            max_lateness: Duration::millis(60_000),
            ..Default::default()
        };
        let mut handle = Server::start(
            ServerConfig::new("127.0.0.1:0")
                .shards(4)
                .engine(engine_cfg)
                .snapshot_path(dir.join("state.json"))
                .wal_path(dir.join("log"))
                .setup(|engine| {
                    engine
                        .add_rules_text("rule mv:\n on s\n replace $(visitor).room = room")
                        .unwrap();
                }),
        )
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let input = stream.try_clone().unwrap();
        let mut rx = lines(&stream);
        // A multi-shard batch frame plus single events, all of which
        // sit in reorder buffers (lateness 60s, no watermark advance):
        // every ack is held when the shutdown arrives.
        send!(
            input,
            r#"{{"op":"ingest","events":[{{"stream":"s","ts":1000,"visitor":"a","room":"r"}},{{"stream":"s","ts":1001,"visitor":"b","room":"r"}},{{"stream":"s","ts":1002,"visitor":"c","room":"r"}},{{"stream":"s","ts":1003,"visitor":"d","room":"r"}}]}}"#
        );
        for ts in 2000..2006 {
            send!(
                input,
                r#"{{"stream":"s","ts":{ts},"visitor":"v{ts}","room":"r"}}"#
            );
        }
        send!(input, r#"{{"cmd":"shutdown"}}"#);
        // Exactly 7 acks (batch + 6 singles), in admission order, all
        // before the bye.
        let batch_ack = rx.next().unwrap();
        assert!(
            batch_ack.contains(r#""seq":4"#) && batch_ack.contains(r#""count":4"#),
            "got: {batch_ack}"
        );
        for seq in 5..=10 {
            let ack = rx.next().unwrap();
            assert!(
                ack.contains(r#""ok":true"#) && ack.contains(&format!(r#""seq":{seq}"#)),
                "seq {seq} got: {ack}"
            );
        }
        let bye = rx.next().unwrap();
        assert!(bye.contains("bye"), "got: {bye}");
        assert!(rx.next().is_none(), "no lines after bye");
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
