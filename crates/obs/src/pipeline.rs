//! Per-shard pipeline instrumentation: stage-latency histograms and
//! gauges threaded through the whole ingest path.
//!
//! One [`ShardObs`] lives per shard and is shared (via `Arc`) by the
//! connection threads (queue depth at enqueue), the shard loop (queue
//! wait, ack hold, gauges), the engine (reorder dwell, late margin,
//! engine-counter gauges), and the WAL writer (append/fsync timing via
//! the embedded [`WalObs`]). Everything inside is atomic: recording
//! never takes a lock, and metrics readers (the `stats` command, the
//! Prometheus endpoint) only do relaxed loads — they never enqueue
//! through the ingest path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde_json::{Map, Value as Json};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Stage names, in pipeline order. Each names a histogram on
/// [`ShardObs`]; the `_us`/`_ms` suffix is the unit.
pub const STAGES: [&str; 6] = [
    "queue_wait_us",
    "reorder_dwell_us",
    "wal_append_us",
    "fsync_us",
    "ack_hold_us",
    "late_margin_ms",
];

/// WAL write-path timing, owned by the shard but updated from inside
/// the WAL writer (which is the only place that knows whether an
/// `append` also fsynced).
#[derive(Debug, Default)]
pub struct WalObs {
    /// Time spent encoding + writing a batch to the segment file (µs),
    /// excluding any fsync the policy triggered.
    pub append_us: Histogram,
    /// Time spent in `fdatasync` (µs), one sample per actual sync.
    pub fsync_us: Histogram,
}

/// Engine counters mirrored into atomics so metrics readers can see
/// them without locking the engine or enqueueing through its queue.
/// The shard loop publishes after every applied batch.
#[derive(Debug, Default)]
pub struct EngineGauges {
    events: AtomicU64,
    late_dropped: AtomicU64,
    rule_fired: AtomicU64,
    transitions: AtomicU64,
    guard_blocked: AtomicU64,
    rule_errors: AtomicU64,
    reason_asserted: AtomicU64,
    reason_retracted: AtomicU64,
    reason_syncs: AtomicU64,
    ttl_expired: AtomicU64,
}

/// A plain copy of the engine counters, for publishing into and
/// loading out of [`EngineGauges`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events admitted past the watermark and applied.
    pub events: u64,
    /// Events dropped as late.
    pub late_dropped: u64,
    /// Rule firings.
    pub rule_fired: u64,
    /// State transitions applied.
    pub transitions: u64,
    /// Rule firings blocked by guards.
    pub guard_blocked: u64,
    /// Rule evaluation errors.
    pub rule_errors: u64,
    /// Reasoner assertions.
    pub reason_asserted: u64,
    /// Reasoner retractions.
    pub reason_retracted: u64,
    /// Reasoner sync passes.
    pub reason_syncs: u64,
    /// Facts expired by TTL.
    pub ttl_expired: u64,
}

impl EngineGauges {
    /// Publish a fresh copy of the counters (relaxed stores).
    pub fn store(&self, c: &EngineCounters) {
        self.events.store(c.events, Ordering::Relaxed);
        self.late_dropped.store(c.late_dropped, Ordering::Relaxed);
        self.rule_fired.store(c.rule_fired, Ordering::Relaxed);
        self.transitions.store(c.transitions, Ordering::Relaxed);
        self.guard_blocked.store(c.guard_blocked, Ordering::Relaxed);
        self.rule_errors.store(c.rule_errors, Ordering::Relaxed);
        self.reason_asserted
            .store(c.reason_asserted, Ordering::Relaxed);
        self.reason_retracted
            .store(c.reason_retracted, Ordering::Relaxed);
        self.reason_syncs.store(c.reason_syncs, Ordering::Relaxed);
        self.ttl_expired.store(c.ttl_expired, Ordering::Relaxed);
    }

    /// Load the last published copy.
    pub fn load(&self) -> EngineCounters {
        EngineCounters {
            events: self.events.load(Ordering::Relaxed),
            late_dropped: self.late_dropped.load(Ordering::Relaxed),
            rule_fired: self.rule_fired.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
            guard_blocked: self.guard_blocked.load(Ordering::Relaxed),
            rule_errors: self.rule_errors.load(Ordering::Relaxed),
            reason_asserted: self.reason_asserted.load(Ordering::Relaxed),
            reason_retracted: self.reason_retracted.load(Ordering::Relaxed),
            reason_syncs: self.reason_syncs.load(Ordering::Relaxed),
            ttl_expired: self.ttl_expired.load(Ordering::Relaxed),
        }
    }
}

/// All observability state for one shard.
#[derive(Debug)]
pub struct ShardObs {
    /// Time a frame part sat in the shard's ingest queue before the
    /// shard loop dequeued it (µs), one sample per queued command.
    pub queue_wait_us: Histogram,
    /// Time an event sat in the reorder buffer before the watermark
    /// released it (µs), one sample per drained event.
    pub reorder_dwell_us: Histogram,
    /// Time from admission to durable-ack release (µs), one sample per
    /// released frame part. Only recorded in durable-ack mode.
    pub ack_hold_us: Histogram,
    /// How late each *dropped* event was: shard watermark minus event
    /// timestamp at admission (ms). `count` here equals the shard's
    /// `late_dropped` counter.
    pub late_margin_ms: Histogram,
    /// WAL write-path timing (shared with the shard's WAL writer).
    pub wal: Arc<WalObs>,
    /// Current ingest-queue depth (refreshed at enqueue and dequeue).
    pub queue_depth: AtomicU64,
    /// High-water mark of this shard's own queue depth.
    pub queue_hwm: AtomicU64,
    /// Current reorder-buffer depth (events admitted, not yet applied).
    pub reorder_depth: AtomicU64,
    /// Watermark lag: max event time seen minus current watermark (ms).
    /// Equals the lateness bound once the stream is flowing.
    pub watermark_lag_ms: AtomicU64,
    /// Durable acks currently held awaiting WAL-covered commit.
    pub held_acks: AtomicU64,
    /// Bytes in the shard's current (unrotated) WAL segment.
    pub wal_segment_bytes: AtomicU64,
    /// The shard's current WAL segment generation.
    pub wal_gen: AtomicU64,
    /// Oldest segment generation still on disk for this shard
    /// (refreshed at boot and checkpoint — a directory scan, not a
    /// per-batch cost). Normally equals `wal_gen`; lower means a
    /// rotation's delete failed or is in flight.
    pub wal_oldest_gen: AtomicU64,
    /// Segment files on disk for this shard (same refresh cadence as
    /// `wal_oldest_gen`). Normally 1.
    pub wal_segments: AtomicU64,
    /// Replication lag for this shard on a follower: leader segment
    /// bytes not yet applied locally (0 on leaders / unreplicated).
    pub repl_lag_bytes: AtomicU64,
    /// Live state size: currently-open facts in the shard's store.
    pub state_facts: AtomicU64,
    /// Engine counters, republished after every applied batch.
    pub engine: EngineGauges,
}

impl Default for ShardObs {
    fn default() -> Self {
        ShardObs {
            queue_wait_us: Histogram::new(),
            reorder_dwell_us: Histogram::new(),
            ack_hold_us: Histogram::new(),
            late_margin_ms: Histogram::new(),
            wal: Arc::new(WalObs::default()),
            queue_depth: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            reorder_depth: AtomicU64::new(0),
            watermark_lag_ms: AtomicU64::new(0),
            held_acks: AtomicU64::new(0),
            wal_segment_bytes: AtomicU64::new(0),
            wal_gen: AtomicU64::new(0),
            wal_oldest_gen: AtomicU64::new(0),
            wal_segments: AtomicU64::new(0),
            repl_lag_bytes: AtomicU64::new(0),
            state_facts: AtomicU64::new(0),
            engine: EngineGauges::default(),
        }
    }
}

impl ShardObs {
    /// The stage histogram named by one of [`STAGES`].
    pub fn stage(&self, name: &str) -> &Histogram {
        match name {
            "queue_wait_us" => &self.queue_wait_us,
            "reorder_dwell_us" => &self.reorder_dwell_us,
            "wal_append_us" => &self.wal.append_us,
            "fsync_us" => &self.wal.fsync_us,
            "ack_hold_us" => &self.ack_hold_us,
            "late_margin_ms" => &self.late_margin_ms,
            other => panic!("unknown stage `{other}`"),
        }
    }

    /// Record the current queue depth, tracking this shard's HWM.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Gauges as a JSON object (no histograms).
    pub fn gauges_json(&self) -> Json {
        let mut obj = Map::new();
        obj.insert(
            "queue_depth".into(),
            Json::from(self.queue_depth.load(Ordering::Relaxed)),
        );
        obj.insert(
            "queue_hwm".into(),
            Json::from(self.queue_hwm.load(Ordering::Relaxed)),
        );
        obj.insert(
            "reorder_depth".into(),
            Json::from(self.reorder_depth.load(Ordering::Relaxed)),
        );
        obj.insert(
            "watermark_lag_ms".into(),
            Json::from(self.watermark_lag_ms.load(Ordering::Relaxed)),
        );
        obj.insert(
            "held_acks".into(),
            Json::from(self.held_acks.load(Ordering::Relaxed)),
        );
        obj.insert(
            "wal_segment_bytes".into(),
            Json::from(self.wal_segment_bytes.load(Ordering::Relaxed)),
        );
        obj.insert(
            "wal_gen".into(),
            Json::from(self.wal_gen.load(Ordering::Relaxed)),
        );
        obj.insert(
            "wal_oldest_gen".into(),
            Json::from(self.wal_oldest_gen.load(Ordering::Relaxed)),
        );
        obj.insert(
            "wal_segments".into(),
            Json::from(self.wal_segments.load(Ordering::Relaxed)),
        );
        obj.insert(
            "repl_lag_bytes".into(),
            Json::from(self.repl_lag_bytes.load(Ordering::Relaxed)),
        );
        obj.insert(
            "state_facts".into(),
            Json::from(self.state_facts.load(Ordering::Relaxed)),
        );
        Json::Object(obj)
    }

    /// All stage histograms as `{stage: {count, p50, …}}`.
    pub fn stages_json(&self) -> Json {
        let mut obj = Map::new();
        for stage in STAGES {
            obj.insert(stage.into(), self.stage(stage).snapshot().json_summary());
        }
        Json::Object(obj)
    }
}

/// Replication observability, shared by the leader's shipping threads
/// and the follower's apply loop (a process is only ever one or the
/// other at a time, so the two halves never contend; after promotion
/// the follower half simply goes quiet). Same discipline as the rest
/// of the pipeline: atomics and lock-free histograms only.
#[derive(Debug, Default)]
pub struct ReplObs {
    /// Leader: follower connections currently being served.
    pub followers: AtomicU64,
    /// Leader: WAL frames shipped to followers (counter).
    pub ship_frames: AtomicU64,
    /// Leader: segment bytes shipped to followers (counter).
    pub ship_bytes: AtomicU64,
    /// Leader: bootstrap snapshots shipped (counter).
    pub snapshots_shipped: AtomicU64,
    /// Both roles: replication messages refused by epoch fencing.
    pub fenced: AtomicU64,
    /// Leader: ship → applied-and-durable-on-follower → ack latency
    /// (µs), from the `sent_at_us` echo in follower acks.
    pub ack_lag_us: Histogram,
    /// Follower: shipped WAL frames applied locally (counter).
    pub applied_frames: AtomicU64,
    /// Follower: ops applied from shipped frames (counter).
    pub applied_ops: AtomicU64,
    /// Follower: shipped segment bytes applied locally (counter).
    pub applied_bytes: AtomicU64,
    /// Follower: time to apply one shipped batch — local WAL append +
    /// fsync + store apply (µs).
    pub apply_us: Histogram,
    /// Follower: reconnects to the leader (counter).
    pub reconnects: AtomicU64,
    /// Leader, sync mode: extra wait between local group-commit fsync
    /// and replica coverage for each released sync ack batch (µs).
    pub sync_wait_us: Histogram,
    /// Leader, sync mode: ack parts released because ≥N followers
    /// covered their WAL bytes (counter).
    pub sync_acks_ok: AtomicU64,
    /// Leader, sync mode: ack parts failed because coverage did not
    /// arrive within `--sync-timeout-ms` (counter).
    pub sync_acks_timeout: AtomicU64,
    /// Leader, sync mode: ack parts released on local durability alone
    /// after the sync timeout, because `--sync-fallback` is set
    /// (counter).
    pub sync_acks_fallback: AtomicU64,
    /// Leader, sync mode: ack parts currently parked awaiting replica
    /// coverage (gauge).
    pub sync_waiting: AtomicU64,
    /// Both roles: the current fencing epoch.
    pub epoch: AtomicU64,
    /// 1 while following (read-only), 0 while leading. Flips at
    /// promotion.
    pub following: AtomicU64,
    /// Follower: unix millis of the last frame or heartbeat from the
    /// leader (0 before first contact). Feeds leader-death detection
    /// and lets dashboards alert on silence.
    pub last_leader_contact_ms: AtomicU64,
}

impl ReplObs {
    /// Everything as one JSON object (counters plus histogram
    /// summaries), the `stats` reply's `replication` section.
    pub fn json(&self) -> Json {
        let g = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
        let mut obj = Map::new();
        obj.insert(
            "role".into(),
            Json::from(if self.following.load(Ordering::Relaxed) == 1 {
                "follower"
            } else {
                "leader"
            }),
        );
        obj.insert("epoch".into(), g(&self.epoch));
        obj.insert("followers".into(), g(&self.followers));
        obj.insert("ship_frames".into(), g(&self.ship_frames));
        obj.insert("ship_bytes".into(), g(&self.ship_bytes));
        obj.insert("snapshots_shipped".into(), g(&self.snapshots_shipped));
        obj.insert("fenced".into(), g(&self.fenced));
        obj.insert(
            "ack_lag_us".into(),
            self.ack_lag_us.snapshot().json_summary(),
        );
        obj.insert("applied_frames".into(), g(&self.applied_frames));
        obj.insert("applied_ops".into(), g(&self.applied_ops));
        obj.insert("applied_bytes".into(), g(&self.applied_bytes));
        obj.insert("apply_us".into(), self.apply_us.snapshot().json_summary());
        obj.insert("reconnects".into(), g(&self.reconnects));
        obj.insert(
            "sync_wait_us".into(),
            self.sync_wait_us.snapshot().json_summary(),
        );
        obj.insert("sync_acks_ok".into(), g(&self.sync_acks_ok));
        obj.insert("sync_acks_timeout".into(), g(&self.sync_acks_timeout));
        obj.insert("sync_acks_fallback".into(), g(&self.sync_acks_fallback));
        obj.insert("sync_waiting".into(), g(&self.sync_waiting));
        obj.insert(
            "last_leader_contact_ms".into(),
            g(&self.last_leader_contact_ms),
        );
        Json::Object(obj)
    }
}

/// Query-planner instrumentation: compile and execution latency of
/// cached plans. Compiles are sampled on plan-cache misses only (hits
/// skip compilation entirely); executions are sampled once per query
/// dispatch, covering shard fan-out and merge.
#[derive(Debug, Default)]
pub struct PlanObs {
    /// Time to parse + plan + lower one statement (µs), one sample per
    /// plan-cache miss.
    pub compile_us: Histogram,
    /// Time to execute one compiled plan end to end (µs), one sample
    /// per query dispatch (fan-out + merge included).
    pub exec_us: Histogram,
}

impl PlanObs {
    /// Both histograms as `{compile_us: {...}, exec_us: {...}}`.
    pub fn json(&self) -> Json {
        let mut obj = Map::new();
        obj.insert(
            "compile_us".into(),
            self.compile_us.snapshot().json_summary(),
        );
        obj.insert("exec_us".into(), self.exec_us.snapshot().json_summary());
        Json::Object(obj)
    }
}

/// Observability for the whole pipeline: one server-level admission
/// histogram plus one [`ShardObs`] per shard.
#[derive(Debug)]
pub struct PipelineObs {
    /// Admission (µs), one sample per flush of a connection's staged
    /// ingest frames: from the first frame staged to the last part
    /// handed to a shard queue, waits on a full queue included — the
    /// "front door" before queue wait. Parsing and decoding happen
    /// before staging and are not included.
    pub admit_us: Histogram,
    /// Binary plane: time to CRC-check and decode one frame out of a
    /// connection's read buffer into events (µs), one sample per
    /// frame. Quiet unless binary clients are connected.
    pub decode_us: Histogram,
    /// Binary plane: time one reactor readiness event took to handle —
    /// read, decode, route, and enqueue everything it made available
    /// (µs), one sample per dispatched readiness event.
    pub reactor_dispatch_us: Histogram,
    /// Per-shard instrumentation, indexed by shard id.
    pub shards: Vec<Arc<ShardObs>>,
    /// Replication instrumentation (quiet when not replicating).
    pub repl: Arc<ReplObs>,
    /// Query-planner instrumentation (compile + exec latency).
    pub plan: Arc<PlanObs>,
}

impl PipelineObs {
    /// Fresh instrumentation for `shards` shards.
    pub fn new(shards: usize) -> PipelineObs {
        PipelineObs {
            admit_us: Histogram::new(),
            decode_us: Histogram::new(),
            reactor_dispatch_us: Histogram::new(),
            shards: (0..shards).map(|_| Arc::new(ShardObs::default())).collect(),
            repl: Arc::new(ReplObs::default()),
            plan: Arc::new(PlanObs::default()),
        }
    }

    /// Merge one stage's snapshots across every shard.
    pub fn merged_stage(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for shard in &self.shards {
            merged.merge(&shard.stage(name).snapshot());
        }
        merged
    }

    /// All stages merged across shards, plus the connection-plane
    /// histograms (`admit_us`, `decode_us`, `reactor_dispatch_us`), as
    /// `{stage: {count, p50, …}}`.
    pub fn merged_stages_json(&self) -> Json {
        let mut obj = Map::new();
        obj.insert("admit_us".into(), self.admit_us.snapshot().json_summary());
        obj.insert("decode_us".into(), self.decode_us.snapshot().json_summary());
        obj.insert(
            "reactor_dispatch_us".into(),
            self.reactor_dispatch_us.snapshot().json_summary(),
        );
        for stage in STAGES {
            obj.insert(stage.into(), self.merged_stage(stage).json_summary());
        }
        Json::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stage_spans_shards() {
        let p = PipelineObs::new(2);
        p.shards[0].queue_wait_us.record(10);
        p.shards[1].queue_wait_us.record(1000);
        let m = p.merged_stage("queue_wait_us");
        assert_eq!(m.count, 2);
        assert_eq!(m.max, 1000);
    }

    #[test]
    fn stage_lookup_covers_all_names() {
        let s = ShardObs::default();
        for stage in STAGES {
            s.stage(stage).record(1);
        }
        let j = s.stages_json();
        for stage in STAGES {
            assert_eq!(
                j.get(stage)
                    .and_then(|v| v.get("count"))
                    .and_then(|v| v.as_u64()),
                Some(1),
                "{stage}"
            );
        }
    }

    #[test]
    fn merged_stages_json_includes_connection_plane() {
        let p = PipelineObs::new(1);
        p.decode_us.record(7);
        p.reactor_dispatch_us.record(9);
        let j = p.merged_stages_json();
        for key in ["admit_us", "decode_us", "reactor_dispatch_us"] {
            assert!(j.get(key).is_some(), "{key}");
        }
        assert_eq!(
            j.get("decode_us")
                .and_then(|v| v.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn engine_gauges_round_trip() {
        let g = EngineGauges::default();
        let c = EngineCounters {
            events: 5,
            late_dropped: 2,
            ttl_expired: 1,
            ..Default::default()
        };
        g.store(&c);
        assert_eq!(g.load(), c);
    }

    #[test]
    fn queue_depth_tracks_hwm() {
        let s = ShardObs::default();
        s.observe_queue_depth(3);
        s.observe_queue_depth(9);
        s.observe_queue_depth(1);
        assert_eq!(s.queue_depth.load(Ordering::Relaxed), 1);
        assert_eq!(s.queue_hwm.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn gauges_json_has_all_keys() {
        let s = ShardObs::default();
        let j = s.gauges_json();
        for key in [
            "queue_depth",
            "queue_hwm",
            "reorder_depth",
            "watermark_lag_ms",
            "held_acks",
            "wal_segment_bytes",
            "wal_gen",
            "wal_oldest_gen",
            "wal_segments",
            "repl_lag_bytes",
            "state_facts",
        ] {
            assert!(j.get(key).is_some(), "{key}");
        }
    }

    #[test]
    fn repl_obs_json_reports_role_and_counters() {
        let r = ReplObs::default();
        let j = r.json();
        assert_eq!(j.get("role").and_then(|v| v.as_str()), Some("leader"));
        r.following.store(1, Ordering::Relaxed);
        r.epoch.store(3, Ordering::Relaxed);
        r.ship_bytes.store(1024, Ordering::Relaxed);
        r.ack_lag_us.record(500);
        r.sync_acks_ok.store(4, Ordering::Relaxed);
        r.sync_wait_us.record(250);
        let j = r.json();
        assert_eq!(j.get("role").and_then(|v| v.as_str()), Some("follower"));
        assert_eq!(j.get("epoch").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(j.get("ship_bytes").and_then(|v| v.as_u64()), Some(1024));
        assert_eq!(
            j.get("ack_lag_us")
                .and_then(|v| v.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(j.get("sync_acks_ok").and_then(|v| v.as_u64()), Some(4));
        for key in ["sync_acks_timeout", "sync_acks_fallback", "sync_waiting"] {
            assert_eq!(j.get(key).and_then(|v| v.as_u64()), Some(0), "{key}");
        }
        assert_eq!(
            j.get("sync_wait_us")
                .and_then(|v| v.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }
}
