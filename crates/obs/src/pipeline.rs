//! Per-shard pipeline instrumentation: stage-latency histograms and
//! gauges threaded through the whole ingest path, declared through the
//! [`metrics!`](crate::metrics) registry.
//!
//! One [`ShardObs`] lives per shard and is shared (via `Arc`) by the
//! connection threads (queue depth at enqueue), the shard loop (queue
//! wait, ack hold, gauges), the engine (reorder dwell, late margin,
//! engine-counter gauges), and the WAL writer (append/fsync timing via
//! the embedded [`WalObs`]). Everything inside is atomic: recording
//! never takes a lock, and metrics readers (the `stats` command, the
//! Prometheus endpoint) only do relaxed loads — they never enqueue
//! through the ingest path.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use serde_json::Value as Json;

use crate::histogram::Histogram;
use crate::registry::Readings;

/// WAL write-path timing, owned by the shard but updated from inside
/// the WAL writer (which is the only place that knows whether an
/// `append` also fsynced). Declared as `wal_append_us` and `fsync_us`
/// in [`ShardObs`]'s `stages`.
#[derive(Debug, Default)]
pub struct WalObs {
    /// Encoding + writing one batch, excluding any fsync (µs).
    pub append_us: Histogram,
    /// One `fdatasync` (µs), one sample per actual sync.
    pub fsync_us: Histogram,
}

crate::metrics! {
    /// Counters describing an engine run. Every field is a monotone
    /// sum, so shard counters aggregate with `merge`.
    pub struct EngineMetrics in "engine" mirrored by
    /// Engine counters mirrored into atomics so metrics readers can see
    /// them without locking the engine or enqueueing through its queue.
    /// The shard loop publishes after every applied batch.
    EngineGauges {
        /// Accepted on time or within the lateness bound.
        events: Counter "Events applied by the engine",
        late_dropped: Counter "Events dropped as late",
        /// Firings whose actions ran.
        rule_fired: Counter "Rule firings",
        transitions: Counter "State transitions applied",
        guard_blocked: Counter "Rule firings blocked by guards",
        /// Store errors included.
        rule_errors: Counter "Rule evaluation errors",
        reason_asserted: Counter "Facts asserted by the reasoner",
        reason_retracted: Counter "Facts retracted by the reasoner",
        reason_syncs: Counter "Reasoner sync passes",
        /// By attribute TTLs.
        ttl_expired: Counter "Open facts expired by TTL",
    }
}

impl EngineMetrics {
    /// Transitions per accepted event (state churn).
    pub fn transitions_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.transitions as f64 / self.events as f64
        }
    }
}

crate::metrics! {
    /// All observability state for one shard.
    pub struct ShardObs {
        fn stages in "stage" {
            /// One sample per queued command.
            queue_wait_us: Histogram
                "Time an ingest command waited in its shard queue before dequeue (microseconds)",
            /// One sample per drained event.
            reorder_dwell_us: Histogram
                "Time an event dwelt in the reorder buffer before the watermark released it (microseconds)",
            wal_append_us: Histogram at wal.append_us
                "Time writing one WAL frame, excluding fsync (microseconds)",
            fsync_us: Histogram at wal.fsync_us "Time in WAL fsync (microseconds)",
            /// One sample per released frame part; only recorded in
            /// durable-ack mode.
            ack_hold_us: Histogram
                "Time from frame admission to durable-ack release (microseconds)",
            /// Shard watermark minus event timestamp at admission.
            /// `count` equals the shard's `late_dropped` counter.
            late_margin_ms: Histogram as "fenestra_late_margin_ms"
                "How far behind the shard watermark each dropped-as-late event arrived (milliseconds)",
        }
        fn gauges in "shard" {
            /// Refreshed at enqueue and dequeue.
            queue_depth: Gauge "Current ingest-queue depth",
            queue_hwm: Gauge "High-water mark of this shard's queue depth",
            reorder_depth: Gauge "Events admitted but still in the reorder buffer",
            /// Equals the lateness bound once the stream is flowing.
            watermark_lag_ms: Gauge "Max event time seen minus current watermark (ms)",
            held_acks: Gauge "Durable acks held awaiting a covering WAL commit",
            wal_segment_bytes: Gauge "Bytes in the current (unrotated) WAL segment",
            wal_gen: Gauge "Current WAL segment generation",
            /// Refreshed at boot and checkpoint (a directory scan, not
            /// a per-batch cost). Normally equals `wal_gen`; lower
            /// means a rotation's delete failed or is in flight.
            wal_oldest_gen: Gauge "Oldest WAL segment generation still on disk",
            /// Same refresh cadence as `wal_oldest_gen`. Normally 1.
            wal_segments: Gauge "WAL segment files on disk for this shard",
            /// Leader segment bytes not yet applied locally; 0 on
            /// leaders and unreplicated servers.
            repl_lag_bytes: Gauge "Follower only: bytes behind the leader's write position",
            state_facts: Gauge "Currently-open facts in the shard's store",
        }
        /// WAL write-path timing (shared with the shard's WAL writer).
        pub wal: Arc<WalObs>,
        /// Engine counters, republished after every applied batch.
        pub engine: EngineGauges,
    }
}

impl ShardObs {
    /// Record the current queue depth, tracking this shard's HWM.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

crate::metrics! {
    /// Replication observability, shared by the leader's shipping
    /// threads and the follower's apply loop (a process is only ever
    /// one or the other at a time, so the two halves never contend;
    /// after promotion the follower half simply goes quiet). Same
    /// discipline as the rest of the pipeline: atomics and lock-free
    /// histograms only.
    pub struct ReplObs {
        fn readings in "repl" {
            role: derived ReplObs::role,
            epoch: Gauge "Current fencing epoch",
            /// Flips at promotion; `stats` shows it as `role`.
            following: Gauge prom_only "1 while this node is a read-only follower, 0 while leading",
            followers: Gauge "Leader: follower connections currently served",
            ship_frames: Counter "Leader: WAL frames shipped to followers",
            ship_bytes: Counter "Leader: WAL segment bytes shipped to followers",
            snapshots_shipped: Counter "Leader: bootstrap snapshots shipped to followers",
            fenced: Counter "Replication messages refused by epoch fencing",
            /// From the `sent_at_us` echo in follower acks.
            ack_lag_us: Histogram
                "Leader: ship to applied-and-durable-on-follower ack latency (microseconds)",
            applied_frames: Counter "Follower: shipped WAL frames applied locally",
            applied_ops: Counter "Follower: ops applied from shipped frames",
            applied_bytes: Counter "Follower: shipped segment bytes applied locally",
            apply_us: Histogram
                "Follower: time to apply one shipped batch, local WAL append + fsync + store apply (microseconds)",
            reconnects: Counter "Follower: reconnects to the leader",
            sync_wait_us: Histogram
                "Leader: time a locally-durable ack waited for follower coverage (microseconds)",
            sync_acks_ok: Counter
                "Leader: held acks released by follower durable coverage (--sync-replicas)",
            sync_acks_timeout: Counter
                "Leader: held acks failed because follower coverage missed --sync-timeout-ms",
            sync_acks_fallback: Counter
                "Leader: held acks released locally-durable-only after a sync timeout (--sync-fallback)",
            sync_waiting: Gauge "Leader: ack parts currently parked awaiting follower coverage",
            /// 0 before first contact. Feeds leader-death detection and
            /// lets dashboards alert on silence.
            last_leader_contact_ms: Gauge
                "Follower: unix millis of the last frame or heartbeat from the leader",
        }
    }
}

impl ReplObs {
    /// `"follower"` or `"leader"`, the `stats` view of `following`.
    fn role(&self) -> Json {
        Json::from(if self.following.load(Ordering::Relaxed) == 1 {
            "follower"
        } else {
            "leader"
        })
    }
}

crate::metrics! {
    /// Query-planner instrumentation: compile and execution latency of
    /// cached plans. Compiles are sampled on plan-cache misses only
    /// (hits skip compilation entirely); executions are sampled once
    /// per executed query, from the dispatch of its burst (every query
    /// line a connection had buffered, sent to the shards together) to
    /// its merged reply. The two stages of an execution are sampled
    /// where they run: one shard's part of a plan on that shard, the
    /// merge and the reply line on the connection.
    pub struct PlanObs {
        fn readings in "plan" {
            compile_us: Histogram
                "Time compiling one statement into a physical plan, recorded on cache misses (microseconds)",
            exec_us: Histogram
                "Time from the dispatch of a query's burst to its merged reply (microseconds)",
            partial_us: Histogram
                "Time one shard spent on its part of one executed plan (microseconds)",
            merge_us: Histogram
                "Time merging one executed plan's shard parts and writing its reply line (microseconds)",
        }
    }
}

crate::metrics! {
    /// Observability for the whole pipeline: the connection-plane
    /// histograms plus one [`ShardObs`] per shard.
    pub struct PipelineObs {
        fn stages in "stage" {
            /// One sample per flush of a connection's staged ingest
            /// frames, waits on a full queue included: the "front door"
            /// before queue wait. Parsing and decoding happen before
            /// staging and are not included.
            admit_us: Histogram
                "Time from staging the first ingest frame of a flush to handing its last part to a shard queue (microseconds)",
            /// Binary plane: CRC check + decode, one sample per frame.
            /// Quiet unless binary clients are connected.
            decode_us: Histogram
                "Time decoding one binary-plane frame out of a connection's read buffer (microseconds)",
            /// Binary plane: read, decode, route, and enqueue everything
            /// one readiness event made available.
            reactor_dispatch_us: Histogram
                "Time one reactor spent servicing a single connection readiness event (microseconds)",
        }
        /// Per-shard instrumentation, indexed by shard id.
        pub shards: Vec<Arc<ShardObs>>,
        /// Replication instrumentation (quiet when not replicating).
        pub repl: Arc<ReplObs>,
        /// Query-planner instrumentation (compile + exec latency).
        pub plan: Arc<PlanObs>,
    }
}

impl PipelineObs {
    /// Fresh instrumentation for `shards` shards.
    pub fn new(shards: usize) -> PipelineObs {
        PipelineObs {
            shards: (0..shards).map(|_| Arc::new(ShardObs::default())).collect(),
            ..PipelineObs::default()
        }
    }

    /// The connection-plane histograms, then every shard stage merged
    /// across shards: the `stats` reply's top-level `stages`.
    pub fn merged_stages(&self) -> Readings {
        let mut shards = self.shards.iter().map(|sh| sh.stages());
        let mut merged = shards.next().unwrap_or_default();
        for stages in shards {
            merged.merge(&stages);
        }
        let mut all = self.stages();
        all.0.extend(merged.0);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(j: &Json, key: &str) -> Option<u64> {
        j.get(key)?.get("count")?.as_u64()
    }

    #[test]
    fn merged_stages_span_shards_and_connection_plane() {
        let p = PipelineObs::new(2);
        p.shards[0].queue_wait_us.record(10);
        p.shards[1].queue_wait_us.record(1000);
        p.shards[1].wal.fsync_us.record(5);
        p.decode_us.record(7);
        let j = p.merged_stages().json();
        assert_eq!(count(&j, "queue_wait_us"), Some(2));
        assert_eq!(
            j.get("queue_wait_us").and_then(|v| v.get("max")),
            Some(&Json::from(1000u64))
        );
        assert_eq!(count(&j, "fsync_us"), Some(1));
        assert_eq!(count(&j, "decode_us"), Some(1));
        assert_eq!(count(&j, "reactor_dispatch_us"), Some(0));
    }

    #[test]
    fn engine_gauges_round_trip() {
        let g = EngineGauges::default();
        let c = EngineMetrics {
            events: 5,
            late_dropped: 2,
            ttl_expired: 1,
            ..Default::default()
        };
        g.store(&c);
        assert_eq!(g.load(), c);
    }

    #[test]
    fn churn() {
        let m = EngineMetrics {
            events: 4,
            transitions: 2,
            ..Default::default()
        };
        assert!((m.transitions_per_event() - 0.5).abs() < 1e-12);
        assert_eq!(EngineMetrics::default().transitions_per_event(), 0.0);
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
}
