//! Server configuration.

use fenestra_base::time::Duration;
use fenestra_core::{Engine, EngineConfig};
use fenestra_temporal::FsyncPolicy;
use std::path::PathBuf;

/// Engine initialization hook (see [`ServerConfig::setup`]). Runs once
/// per shard engine, so it must be `Fn`, not `FnOnce`: every shard
/// needs the same attributes, rules, and watches.
pub type SetupFn = Box<dyn Fn(&mut Engine) + Send + Sync>;

/// What to do when the ingest queue is full and a connection keeps
/// sending events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the sending connection until the engine catches up
    /// (lossless; slow consumers slow their producers).
    #[default]
    Block,
    /// Drop the event, count it, and tell the client
    /// (`{"ok":false,"seq":N,"error":"shed: …"}`).
    Shed,
}

/// Configuration for [`crate::Server::start`].
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:7878"`. Use port `0` for an
    /// ephemeral port (tests); the bound address is available from
    /// [`crate::ServerHandle::local_addr`].
    pub addr: String,
    /// Ingest command queue capacity (events admitted but not yet
    /// applied by the engine thread).
    pub queue_capacity: usize,
    /// Policy when the ingest queue is full.
    pub backpressure: Backpressure,
    /// Ingest group-commit cap: after taking one ingest command off the
    /// queue, the engine thread greedily drains up to this many events
    /// into one batch — applied together, appended to the WAL as one
    /// frame, fsynced once, watches polled once. A batch *frame* larger
    /// than the cap is still applied whole (frames are atomic); the cap
    /// bounds coalescing across commands.
    pub batch_max: usize,
    /// If set, the engine state is persisted here (JSON snapshot via
    /// `fenestra_temporal::persist`) on graceful shutdown and, when
    /// [`ServerConfig::snapshot_every`] is also set, periodically.
    pub snapshot_path: Option<PathBuf>,
    /// Periodic snapshot interval (requires `snapshot_path`).
    pub snapshot_every: Option<Duration>,
    /// Engine configuration (semantics, lateness bound, retention…).
    pub engine: EngineConfig,
    /// One-shot hook run against the engine before the listener opens:
    /// declare attributes, load rules, pre-register watches.
    pub setup: Option<SetupFn>,
    /// If set, every applied op batch is appended to a durable
    /// write-ahead log rooted at this path (segments are
    /// `<path>.<generation>`). On boot the server recovers from the
    /// latest snapshot plus the WAL tail; on snapshot the log rotates.
    pub wal_path: Option<PathBuf>,
    /// Fsync policy for the durable WAL (ignored without
    /// [`ServerConfig::wal_path`]). `Always` is the only policy under
    /// which an ack implies the transition survives a crash.
    pub fsync: FsyncPolicy,
    /// Number of keyed engine shards. Events route to a shard by a
    /// deterministic hash of their entity key (the field the stream's
    /// rules name entities by); each shard runs on its own thread with
    /// its own state partition and — with [`ServerConfig::wal_path`] —
    /// its own WAL segments and snapshot file. Query replies do not
    /// depend on the count. `1` (the default) keeps the unsharded
    /// server's on-disk layout; restarting with a different count than the on-disk
    /// state was written with is rejected at startup.
    pub shards: u32,
    /// If set, closed history older than this horizon behind each
    /// shard's latest applied event is garbage-collected on the
    /// snapshot thread's cadence (or, without
    /// [`ServerConfig::snapshot_every`], on its own ticker at this
    /// interval). Reclaimed facts are counted in the `gc_removed`
    /// server stat.
    pub gc_horizon: Option<Duration>,
    /// If set, a second listener serves Prometheus text exposition at
    /// `GET /metrics` on this address (e.g. `"127.0.0.1:9100"`).
    /// Scrapes read atomics only — they never enqueue through the
    /// ingest path. Port `0` binds an ephemeral port (tests); the
    /// bound address is [`crate::ServerHandle::metrics_addr`].
    pub metrics_addr: Option<String>,
    /// If set, any shard ingest command whose apply + WAL commit takes
    /// at least this many milliseconds is logged as one structured
    /// JSONL line on stderr (`{"slow_op":…}`), for tail-latency
    /// forensics without a debugger attached.
    pub slow_ms: Option<u64>,
    /// If set, a replication listener on this address streams committed
    /// WAL segments (and bootstrap snapshots) to warm followers.
    /// Requires [`ServerConfig::wal_path`]: followers tail the on-disk
    /// segments, so there must be some.
    pub replicate_addr: Option<String>,
    /// If set, this server boots as a warm follower of the leader at
    /// this address (`HOST:PORT` of the leader's
    /// [`ServerConfig::replicate_addr`] listener). Followers serve
    /// queries and watches but reject ingest with a redirect error;
    /// promotion (`{"cmd":"promote"}` or
    /// [`ServerConfig::promote_after`]) turns one into a leader.
    /// Requires both [`ServerConfig::wal_path`] and
    /// [`ServerConfig::snapshot_path`].
    pub follow: Option<String>,
    /// If set on a follower, losing contact with the leader for this
    /// long triggers automatic promotion (fenced failover). Off by
    /// default: unattended promotion can split-brain a partitioned
    /// leader, so it is strictly opt-in.
    pub promote_after: Option<Duration>,
    /// Synchronous ack mode: a held durable ack is released only after
    /// the local group-commit fsync **and** at least this many
    /// followers have acked (applied + fsynced) the covering per-shard
    /// WAL bytes. `0` (the default) is today's asynchronous behavior —
    /// an ack means "fsynced on the leader". Requires
    /// [`ServerConfig::replicate_addr`], [`ServerConfig::wal_path`],
    /// and `--fsync always` (durable acks must be on for there to be a
    /// held ack to gate).
    pub sync_replicas: u32,
    /// How long a sync-mode ack may wait for replica coverage before
    /// degrading (see [`ServerConfig::sync_fallback`]).
    pub sync_timeout: Duration,
    /// What a sync-mode ack does when [`ServerConfig::sync_timeout`]
    /// expires without coverage: `false` (default) fails the ack with a
    /// distinct error (the events are durable locally but the client
    /// knows replication did not confirm), `true` releases it on local
    /// durability alone and counts the degradation in
    /// `sync_acks_fallback`.
    pub sync_fallback: bool,
    /// Upper bound on a single wire frame (`--max-frame-bytes`,
    /// default 8 MiB): the payload of a binary frame, or the length of
    /// a JSONL request line. An oversized frame gets a structured wire
    /// error instead of unbounded buffer growth — the binary plane
    /// closes the connection (framing is lost past a refused length
    /// prefix), the JSONL plane skips to the next newline and keeps
    /// serving.
    pub max_frame_bytes: usize,
    /// Reactor (event-loop) threads multiplexing the accept path and
    /// every binary-plane connection. `0` (default) auto-sizes to
    /// `min(4, available cores)`. JSONL connections still get their
    /// own thread after plane detection.
    pub reactors: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            queue_capacity: 1024,
            backpressure: Backpressure::default(),
            batch_max: 512,
            snapshot_path: None,
            snapshot_every: None,
            engine: EngineConfig::default(),
            setup: None,
            wal_path: None,
            fsync: FsyncPolicy::Always,
            shards: 1,
            gc_horizon: None,
            metrics_addr: None,
            slow_ms: None,
            replicate_addr: None,
            follow: None,
            promote_after: None,
            sync_replicas: 0,
            sync_timeout: Duration::millis(1000),
            sync_fallback: false,
            max_frame_bytes: fenestra_wire::binary::DEFAULT_MAX_FRAME,
            reactors: 0,
        }
    }
}

impl ServerConfig {
    /// Config listening on `addr` with defaults elsewhere.
    pub fn new(addr: impl Into<String>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            ..ServerConfig::default()
        }
    }

    /// Set the ingest queue capacity.
    pub fn queue_capacity(mut self, cap: usize) -> ServerConfig {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Set the backpressure policy.
    pub fn backpressure(mut self, bp: Backpressure) -> ServerConfig {
        self.backpressure = bp;
        self
    }

    /// Cap the number of events coalesced into one ingest group commit.
    pub fn batch_max(mut self, cap: usize) -> ServerConfig {
        self.batch_max = cap.max(1);
        self
    }

    /// Persist state to `path` on shutdown (and periodically, if
    /// [`ServerConfig::snapshot_every`] is set).
    pub fn snapshot_path(mut self, path: impl Into<PathBuf>) -> ServerConfig {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Snapshot every `every` (wall-clock), in addition to at shutdown.
    pub fn snapshot_every(mut self, every: Duration) -> ServerConfig {
        self.snapshot_every = Some(every);
        self
    }

    /// Set the engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> ServerConfig {
        self.engine = engine;
        self
    }

    /// Run `f` against every shard engine before the listener opens.
    pub fn setup(mut self, f: impl Fn(&mut Engine) + Send + Sync + 'static) -> ServerConfig {
        self.setup = Some(Box::new(f));
        self
    }

    /// Partition the engine into `n` keyed shards (clamped to ≥ 1).
    pub fn shards(mut self, n: u32) -> ServerConfig {
        self.shards = n.max(1);
        self
    }

    /// GC closed history older than `horizon` behind each shard's
    /// latest applied event.
    pub fn gc_horizon(mut self, horizon: Duration) -> ServerConfig {
        self.gc_horizon = Some(horizon);
        self
    }

    /// Append applied ops to a durable WAL rooted at `path` and recover
    /// from it on boot.
    pub fn wal_path(mut self, path: impl Into<PathBuf>) -> ServerConfig {
        self.wal_path = Some(path.into());
        self
    }

    /// Set the WAL fsync policy (requires [`ServerConfig::wal_path`]).
    pub fn fsync(mut self, policy: FsyncPolicy) -> ServerConfig {
        self.fsync = policy;
        self
    }

    /// Serve Prometheus text exposition at `GET /metrics` on `addr`.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Log shard ingest commands slower than `ms` milliseconds
    /// (apply + WAL commit) as JSONL on stderr.
    pub fn slow_ms(mut self, ms: u64) -> ServerConfig {
        self.slow_ms = Some(ms);
        self
    }

    /// Stream committed WAL segments to followers connecting on `addr`
    /// (requires [`ServerConfig::wal_path`]).
    pub fn replicate_addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.replicate_addr = Some(addr.into());
        self
    }

    /// Boot as a warm follower of the leader replicating on `addr`
    /// (requires [`ServerConfig::wal_path`] and
    /// [`ServerConfig::snapshot_path`]).
    pub fn follow(mut self, addr: impl Into<String>) -> ServerConfig {
        self.follow = Some(addr.into());
        self
    }

    /// Auto-promote a follower after `timeout` without leader contact.
    pub fn promote_after(mut self, timeout: Duration) -> ServerConfig {
        self.promote_after = Some(timeout);
        self
    }

    /// Hold durable acks until `n` followers have acked the covering
    /// WAL bytes (requires [`ServerConfig::replicate_addr`], a WAL,
    /// and `--fsync always`).
    pub fn sync_replicas(mut self, n: u32) -> ServerConfig {
        self.sync_replicas = n;
        self
    }

    /// Bound how long a sync-mode ack waits for replica coverage.
    pub fn sync_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.sync_timeout = timeout;
        self
    }

    /// On sync timeout, release the ack on local durability alone
    /// (counted) instead of failing it.
    pub fn sync_fallback(mut self) -> ServerConfig {
        self.sync_fallback = true;
        self
    }

    /// Cap a single wire frame (binary payload or JSONL line) at
    /// `bytes` (clamped to ≥ 1 KiB so replies still fit).
    pub fn max_frame_bytes(mut self, bytes: usize) -> ServerConfig {
        self.max_frame_bytes = bytes.max(1024);
        self
    }

    /// Use `n` reactor threads for the accept path and binary
    /// connections (`0` = auto-size).
    pub fn reactors(mut self, n: usize) -> ServerConfig {
        self.reactors = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = ServerConfig::new("127.0.0.1:0")
            .queue_capacity(0)
            .batch_max(0)
            .backpressure(Backpressure::Shed)
            .snapshot_path("/tmp/x.json")
            .snapshot_every(Duration::secs(30))
            .wal_path("/tmp/x.wal")
            .fsync(FsyncPolicy::EveryN(8))
            .shards(0)
            .gc_horizon(Duration::secs(60))
            .metrics_addr("127.0.0.1:0")
            .slow_ms(25)
            .replicate_addr("127.0.0.1:0")
            .follow("127.0.0.1:9999")
            .promote_after(Duration::secs(5))
            .sync_replicas(2)
            .sync_timeout(Duration::millis(250))
            .sync_fallback()
            .max_frame_bytes(0)
            .reactors(2);
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.max_frame_bytes, 1024, "frame cap clamps to 1 KiB");
        assert_eq!(cfg.reactors, 2);
        assert_eq!(cfg.sync_replicas, 2);
        assert_eq!(cfg.sync_timeout, Duration::millis(250));
        assert!(cfg.sync_fallback);
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.slow_ms, Some(25));
        assert_eq!(cfg.replicate_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.follow.as_deref(), Some("127.0.0.1:9999"));
        assert_eq!(cfg.promote_after, Some(Duration::secs(5)));
        assert_eq!(cfg.shards, 1, "shard count clamps to at least 1");
        assert_eq!(cfg.gc_horizon, Some(Duration::secs(60)));
        assert_eq!(cfg.queue_capacity, 1, "capacity clamps to at least 1");
        assert_eq!(cfg.batch_max, 1, "batch cap clamps to at least 1");
        assert_eq!(cfg.backpressure, Backpressure::Shed);
        assert!(cfg.snapshot_path.is_some() && cfg.snapshot_every.is_some());
        assert!(cfg.wal_path.is_some());
        assert_eq!(cfg.fsync, FsyncPolicy::EveryN(8));
    }

    #[test]
    fn wal_defaults_off_but_fsync_always() {
        let cfg = ServerConfig::default();
        assert!(cfg.wal_path.is_none(), "durable WAL is opt-in");
        assert_eq!(cfg.shards, 1, "sharding is opt-in (legacy layout)");
        assert!(cfg.gc_horizon.is_none(), "GC is opt-in");
        assert!(cfg.metrics_addr.is_none(), "metrics endpoint is opt-in");
        assert!(cfg.slow_ms.is_none(), "slow-op log is opt-in");
        assert!(cfg.replicate_addr.is_none(), "replication is opt-in");
        assert!(cfg.follow.is_none(), "follower mode is opt-in");
        assert!(cfg.promote_after.is_none(), "auto-promotion is opt-in");
        assert_eq!(cfg.sync_replicas, 0, "sync acks are opt-in (async default)");
        assert_eq!(cfg.sync_timeout, Duration::millis(1000));
        assert!(!cfg.sync_fallback, "sync timeout fails the ack by default");
        assert_eq!(cfg.batch_max, 512, "group commit is on by default");
        assert_eq!(cfg.max_frame_bytes, 8 * 1024 * 1024, "8 MiB frame cap");
        assert_eq!(cfg.reactors, 0, "reactor pool auto-sizes by default");
        assert_eq!(
            cfg.fsync,
            FsyncPolicy::Always,
            "when the WAL is enabled, durability defaults to strict"
        );
    }
}
