//! Server-side observability counters, declared through the
//! [`fenestra_obs::metrics!`] registry.
//!
//! Engine counters live in [`fenestra_core::EngineMetrics`]; these
//! cover the network layer. All fields are atomics so connection
//! threads update them without locks; the `stats` command reads a
//! consistent-enough snapshot.

use fenestra_query::CacheStats;
use serde_json::Value as Json;
use std::sync::atomic::Ordering;

fenestra_obs::metrics! {
    /// Monotonic counters for the server's network layer.
    pub struct ServerMetrics {
        fn readings in "server" {
            connections: Counter "Connections accepted",
            conns_open: Gauge "Connections currently open, either wire plane",
            /// Negotiated via the `FNB1` magic; a subset of `conns_open`.
            conns_binary: Gauge "Open connections that negotiated the binary plane",
            /// Line terminators included.
            bytes_in: Counter "Bytes read off sockets",
            /// Line terminators included.
            bytes_out: Counter "Bytes written to sockets",
            queue_hwm: Gauge "High-water mark of ingest queue depth across shards",
            /// `query` commands, successful or not.
            queries: Counter "Queries served",
            /// By the [`crate::Backpressure::Shed`] policy.
            shed: Counter "Events shed under backpressure",
            events: Counter "Events admitted into the ingest queues",
            watches: Counter "Watches registered",
            /// An ack means *admitted*, not *applied*; this counter is
            /// how admitted-but-discarded events become visible.
            late_dropped: Counter "Admitted events dropped as beyond the lateness bound",
            /// Each is one apply pass + one WAL frame + one fsync under
            /// `always` + one watch poll, however many events it covered.
            ingest_batches: Counter "Group-commit batches applied",
            ingest_batched_events: Counter "Events covered by group-commit batches",
            ingest_batch_max: Gauge "Largest single ingest batch applied",
            ingest_batch_mean: derived ServerMetrics::batch_mean,
            /// True group commits, where the fsync was amortized.
            group_commits: Counter "WAL commits covering more than one event",
            /// Under `--fsync always`: released, in per-connection FIFO
            /// order, once a WAL fsync covers every event of the frame
            /// (with a lateness bound, only after the watermark passes
            /// it). Shed frames are not counted.
            acks_deferred: Counter "Ingest frames admitted with their ack held for durability",
            /// Steady-state, `acks_deferred - acks_released` is the
            /// number of in-flight held acks across all connections.
            acks_released: Counter "Deferred acks resolved (ack or failure line sent)",
            wal_appends: Counter "WAL op batches appended",
            /// Frame headers included.
            wal_bytes: Counter "WAL payload bytes appended",
            fsyncs: Counter "WAL fsync calls issued",
            /// From snapshot + WAL tail.
            recovered_ops: Gauge "Ops replayed during boot recovery",
            recovery_ms: Gauge "Wall-clock milliseconds spent in boot recovery",
            wal_discarded_bytes: Gauge "Torn WAL tail bytes discarded during recovery",
            /// Decoded but unreplayable.
            wal_discarded_ops: Gauge "WAL ops discarded during recovery",
            /// By `--gc-horizon-ms`, summed across shards.
            gc_removed: Counter "Closed facts reclaimed by horizon GC",
        }
    }
}

fenestra_obs::metrics! {
    /// The plan cache's counters, read from [`fenestra_query::PlanCache::stats`].
    pub fn plan_cache(CacheStats) in "plan_cache" {
        hits: Counter "Query statements served by an already-compiled plan",
        misses: Counter "Query statements that ran the planner (parse, rewrite, lower)",
        entries: Gauge "Distinct statements currently held in the plan cache",
    }
}

impl ServerMetrics {
    /// Record an observed ingest queue depth, keeping the maximum.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one applied ingest batch of `events` events.
    pub fn observe_ingest_batch(&self, events: u64) {
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
        self.ingest_batched_events
            .fetch_add(events, Ordering::Relaxed);
        self.ingest_batch_max.fetch_max(events, Ordering::Relaxed);
    }

    /// Mean events per applied batch, to two decimals.
    fn batch_mean(&self) -> Json {
        let batches = self.ingest_batches.load(Ordering::Relaxed);
        let mean = if batches > 0 {
            self.ingest_batched_events.load(Ordering::Relaxed) as f64 / batches as f64
        } else {
            0.0
        };
        serde_json::Number::from_f64((mean * 100.0).round() / 100.0)
            .map(Json::Number)
            .unwrap_or(Json::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hwm_keeps_max() {
        let m = ServerMetrics::default();
        m.observe_queue_depth(3);
        m.observe_queue_depth(9);
        m.observe_queue_depth(5);
        assert_eq!(m.queue_hwm.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn ingest_batch_stats_track_count_sum_max_mean() {
        let m = ServerMetrics::default();
        m.observe_ingest_batch(1);
        m.observe_ingest_batch(7);
        m.observe_ingest_batch(4);
        assert_eq!(m.ingest_batches.load(Ordering::Relaxed), 3);
        assert_eq!(m.ingest_batched_events.load(Ordering::Relaxed), 12);
        assert_eq!(m.ingest_batch_max.load(Ordering::Relaxed), 7);
        let v = m.readings().json();
        assert_eq!(
            v.get("ingest_batch_mean").and_then(|x| x.as_f64()),
            Some(4.0)
        );
    }
}
