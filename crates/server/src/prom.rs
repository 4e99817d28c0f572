//! Prometheus text exposition (format 0.0.4), hand-rolled.
//!
//! One function renders the whole scrape body from published atomics:
//! the server's network counters, per-shard engine counters and
//! pipeline gauges, and every stage-latency histogram with a
//! `shard="N"` label. No HTTP or metrics dependency — the format is a
//! stable line protocol and the server only ever serves one route
//! (`GET /metrics`, see the listener in [`crate::server`]).
//!
//! Histogram buckets follow the log2 layout of
//! [`fenestra_obs::Histogram`]: `le` is each bucket's inclusive upper
//! bound (`2^i - 1`), cumulative as Prometheus requires, truncated at
//! the highest non-empty bucket (the `+Inf` line always closes the
//! series). Scrapes read relaxed atomics only; a scraper can never
//! block ingest.

use crate::metrics::ServerMetrics;
use fenestra_obs::{bucket_upper_bound, HistogramSnapshot, PipelineObs, BUCKETS, STAGES};
use fenestra_query::CacheStats;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Render the complete `/metrics` body.
pub fn render_prometheus(metrics: &ServerMetrics, obs: &PipelineObs, plans: &CacheStats) -> String {
    let mut out = String::with_capacity(16 * 1024);
    server_metrics(&mut out, metrics);
    shard_gauges(&mut out, obs);
    engine_counters(&mut out, obs);
    repl_metrics(&mut out, obs);
    plan_metrics(&mut out, obs, plans);
    histogram(
        &mut out,
        "fenestra_stage_admit_us",
        "Time from staging the first ingest frame of a flush to handing its last part to a shard queue (microseconds)",
        &[(None, obs.admit_us.snapshot())],
    );
    histogram(
        &mut out,
        "fenestra_stage_decode_us",
        "Time decoding one binary-plane frame out of a connection's read buffer (microseconds)",
        &[(None, obs.decode_us.snapshot())],
    );
    histogram(
        &mut out,
        "fenestra_stage_reactor_dispatch_us",
        "Time one reactor spent servicing a single connection readiness event (microseconds)",
        &[(None, obs.reactor_dispatch_us.snapshot())],
    );
    for stage in STAGES {
        let series: Vec<(Option<usize>, HistogramSnapshot)> = obs
            .shards
            .iter()
            .enumerate()
            .map(|(i, sh)| (Some(i), sh.stage(stage).snapshot()))
            .collect();
        let (name, help) = stage_family(stage);
        histogram(&mut out, name, help, &series);
    }
    out
}

/// Metric family name and help text for one [`STAGES`] entry.
fn stage_family(stage: &str) -> (&'static str, &'static str) {
    match stage {
        "queue_wait_us" => (
            "fenestra_stage_queue_wait_us",
            "Time an ingest command waited in its shard queue before dequeue (microseconds)",
        ),
        "reorder_dwell_us" => (
            "fenestra_stage_reorder_dwell_us",
            "Time an event dwelt in the reorder buffer before the watermark released it (microseconds)",
        ),
        "wal_append_us" => (
            "fenestra_stage_wal_append_us",
            "Time writing one WAL frame, excluding fsync (microseconds)",
        ),
        "fsync_us" => (
            "fenestra_stage_fsync_us",
            "Time in WAL fsync (microseconds)",
        ),
        "ack_hold_us" => (
            "fenestra_stage_ack_hold_us",
            "Time from frame admission to durable-ack release (microseconds)",
        ),
        "late_margin_ms" => (
            "fenestra_late_margin_ms",
            "How far behind the shard watermark each dropped-as-late event arrived (milliseconds)",
        ),
        other => panic!("unknown stage `{other}`"),
    }
}

/// One histogram family: HELP/TYPE once, then the cumulative bucket
/// series, `_sum`, and `_count` per labeled shard (or unlabeled, for
/// the server-level `admit_us`).
fn histogram(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(Option<usize>, HistogramSnapshot)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (shard, snap) in series {
        let label = |le: Option<u64>| -> String {
            let mut parts = Vec::new();
            if let Some(s) = shard {
                parts.push(format!("shard=\"{s}\""));
            }
            match le {
                Some(b) => parts.push(format!("le=\"{b}\"")),
                None => {
                    if parts.is_empty() {
                        return String::new();
                    }
                }
            }
            format!("{{{}}}", parts.join(","))
        };
        let inf_label = {
            let mut parts = Vec::new();
            if let Some(s) = shard {
                parts.push(format!("shard=\"{s}\""));
            }
            parts.push("le=\"+Inf\"".to_string());
            format!("{{{}}}", parts.join(","))
        };
        let mut cum = 0u64;
        // The last bucket's upper bound is u64::MAX; fold it into +Inf
        // rather than printing a 20-digit `le`.
        let hi = snap.highest_bucket().map_or(0, |h| h.min(BUCKETS - 2));
        if snap.count > 0 {
            for (i, &b) in snap.buckets.iter().enumerate().take(hi + 1) {
                cum += b;
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cum}",
                    label(Some(bucket_upper_bound(i)))
                );
            }
        }
        let _ = writeln!(out, "{name}_bucket{inf_label} {}", snap.count);
        let _ = writeln!(out, "{name}_sum{} {}", label(None), snap.sum);
        let _ = writeln!(out, "{name}_count{} {}", label(None), snap.count);
    }
}

/// Plan-cache counters and planner latency histograms: how often
/// query compilation is skipped (`fenestra_plan_cache_*`) and what
/// compiling versus dispatching a plan costs
/// (`fenestra_plan_compile_us` / `fenestra_plan_exec_us`).
fn plan_metrics(out: &mut String, obs: &PipelineObs, plans: &CacheStats) {
    family(
        out,
        "fenestra_plan_cache_hits_total",
        "counter",
        "Query statements served by an already-compiled plan",
        plans.hits,
    );
    family(
        out,
        "fenestra_plan_cache_misses_total",
        "counter",
        "Query statements that ran the planner (parse, rewrite, lower)",
        plans.misses,
    );
    family(
        out,
        "fenestra_plan_cache_entries",
        "gauge",
        "Distinct statements currently held in the plan cache",
        plans.entries,
    );
    histogram(
        out,
        "fenestra_plan_compile_us",
        "Time compiling one statement into a physical plan, recorded on cache misses (microseconds)",
        &[(None, obs.plan.compile_us.snapshot())],
    );
    histogram(
        out,
        "fenestra_plan_exec_us",
        "Time executing one compiled plan end to end, fan-out and merge included (microseconds)",
        &[(None, obs.plan.exec_us.snapshot())],
    );
}

/// One unlabeled counter or gauge family with a single sample.
fn family(out: &mut String, name: &str, kind: &str, help: &str, v: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {v}");
}

/// The server's network-layer counters, names suffixed `_total` for
/// the monotone ones.
fn server_metrics(out: &mut String, m: &ServerMetrics) {
    let c = |out: &mut String, name: &str, help: &str, a: &AtomicU64| {
        family(out, name, "counter", help, a.load(Ordering::Relaxed));
    };
    let g = |out: &mut String, name: &str, help: &str, a: &AtomicU64| {
        family(out, name, "gauge", help, a.load(Ordering::Relaxed));
    };
    c(
        out,
        "fenestra_server_connections_total",
        "Connections accepted",
        &m.connections,
    );
    g(
        out,
        "fenestra_server_conns_open",
        "Connections currently open, either wire plane",
        &m.conns_open,
    );
    g(
        out,
        "fenestra_server_conns_binary",
        "Open connections that negotiated the binary plane",
        &m.conns_binary,
    );
    c(
        out,
        "fenestra_server_bytes_in_total",
        "Bytes read off sockets",
        &m.bytes_in,
    );
    c(
        out,
        "fenestra_server_bytes_out_total",
        "Bytes written to sockets",
        &m.bytes_out,
    );
    g(
        out,
        "fenestra_server_queue_hwm",
        "High-water mark of ingest queue depth across shards",
        &m.queue_hwm,
    );
    c(
        out,
        "fenestra_server_queries_total",
        "Queries served",
        &m.queries,
    );
    c(
        out,
        "fenestra_server_shed_total",
        "Events shed under backpressure",
        &m.shed,
    );
    c(
        out,
        "fenestra_server_events_total",
        "Events admitted into the ingest queues",
        &m.events,
    );
    c(
        out,
        "fenestra_server_watches_total",
        "Watches registered",
        &m.watches,
    );
    c(
        out,
        "fenestra_server_late_dropped_total",
        "Admitted events dropped as beyond the lateness bound",
        &m.late_dropped,
    );
    c(
        out,
        "fenestra_server_ingest_batches_total",
        "Group-commit batches applied",
        &m.ingest_batches,
    );
    c(
        out,
        "fenestra_server_ingest_batched_events_total",
        "Events covered by group-commit batches",
        &m.ingest_batched_events,
    );
    g(
        out,
        "fenestra_server_ingest_batch_max",
        "Largest single ingest batch applied",
        &m.ingest_batch_max,
    );
    c(
        out,
        "fenestra_server_group_commits_total",
        "WAL commits covering more than one event",
        &m.group_commits,
    );
    c(
        out,
        "fenestra_server_acks_deferred_total",
        "Ingest frames admitted with their ack held for durability",
        &m.acks_deferred,
    );
    c(
        out,
        "fenestra_server_acks_released_total",
        "Deferred acks resolved (ack or failure line sent)",
        &m.acks_released,
    );
    c(
        out,
        "fenestra_server_wal_appends_total",
        "WAL op batches appended",
        &m.wal_appends,
    );
    c(
        out,
        "fenestra_server_wal_bytes_total",
        "WAL payload bytes appended",
        &m.wal_bytes,
    );
    c(
        out,
        "fenestra_server_fsyncs_total",
        "WAL fsync calls issued",
        &m.fsyncs,
    );
    g(
        out,
        "fenestra_server_recovered_ops",
        "Ops replayed during boot recovery",
        &m.recovered_ops,
    );
    g(
        out,
        "fenestra_server_recovery_ms",
        "Wall-clock milliseconds spent in boot recovery",
        &m.recovery_ms,
    );
    g(
        out,
        "fenestra_server_wal_discarded_bytes",
        "Torn WAL tail bytes discarded during recovery",
        &m.wal_discarded_bytes,
    );
    g(
        out,
        "fenestra_server_wal_discarded_ops",
        "WAL ops discarded during recovery",
        &m.wal_discarded_ops,
    );
    c(
        out,
        "fenestra_server_gc_removed_total",
        "Closed facts reclaimed by horizon GC",
        &m.gc_removed,
    );
}

/// One per-shard metric family: name, help, and the value reader.
type ShardFamily<T> = (&'static str, &'static str, fn(&T) -> u64);

/// Per-shard pipeline gauges, one family per gauge, `shard` labeled.
fn shard_gauges(out: &mut String, obs: &PipelineObs) {
    let families: [ShardFamily<fenestra_obs::ShardObs>; 11] = [
        (
            "fenestra_shard_queue_depth",
            "Current ingest-queue depth",
            |s| s.queue_depth.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_queue_hwm",
            "High-water mark of this shard's queue depth",
            |s| s.queue_hwm.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_reorder_depth",
            "Events admitted but still in the reorder buffer",
            |s| s.reorder_depth.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_watermark_lag_ms",
            "Max event time seen minus current watermark (ms)",
            |s| s.watermark_lag_ms.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_held_acks",
            "Durable acks held awaiting a covering WAL commit",
            |s| s.held_acks.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_wal_segment_bytes",
            "Bytes in the current (unrotated) WAL segment",
            |s| s.wal_segment_bytes.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_state_facts",
            "Currently-open facts in the shard's store",
            |s| s.state_facts.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_wal_gen",
            "Current WAL segment generation",
            |s| s.wal_gen.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_wal_oldest_gen",
            "Oldest WAL segment generation still on disk",
            |s| s.wal_oldest_gen.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_wal_segments",
            "WAL segment files on disk for this shard",
            |s| s.wal_segments.load(Ordering::Relaxed),
        ),
        (
            "fenestra_shard_repl_lag_bytes",
            "Follower only: bytes behind the leader's write position",
            |s| s.repl_lag_bytes.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, get) in families {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (i, sh) in obs.shards.iter().enumerate() {
            let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", get(sh));
        }
    }
}

/// Replication counters and gauges (quiet zeros when not replicating),
/// plus the leader's ack-lag and the follower's apply-latency
/// histograms.
fn repl_metrics(out: &mut String, obs: &PipelineObs) {
    let r = &obs.repl;
    let v = |a: &AtomicU64| a.load(Ordering::Relaxed);
    family(
        out,
        "fenestra_repl_epoch",
        "gauge",
        "Current fencing epoch",
        v(&r.epoch),
    );
    family(
        out,
        "fenestra_repl_following",
        "gauge",
        "1 while this node is a read-only follower, 0 while leading",
        v(&r.following),
    );
    family(
        out,
        "fenestra_repl_followers",
        "gauge",
        "Leader: follower connections currently served",
        v(&r.followers),
    );
    family(
        out,
        "fenestra_repl_ship_frames_total",
        "counter",
        "Leader: WAL frames shipped to followers",
        v(&r.ship_frames),
    );
    family(
        out,
        "fenestra_repl_ship_bytes_total",
        "counter",
        "Leader: WAL segment bytes shipped to followers",
        v(&r.ship_bytes),
    );
    family(
        out,
        "fenestra_repl_snapshots_shipped_total",
        "counter",
        "Leader: bootstrap snapshots shipped to followers",
        v(&r.snapshots_shipped),
    );
    family(
        out,
        "fenestra_repl_fenced_total",
        "counter",
        "Replication messages refused by epoch fencing",
        v(&r.fenced),
    );
    family(
        out,
        "fenestra_repl_applied_frames_total",
        "counter",
        "Follower: shipped WAL frames applied locally",
        v(&r.applied_frames),
    );
    family(
        out,
        "fenestra_repl_applied_ops_total",
        "counter",
        "Follower: ops applied from shipped frames",
        v(&r.applied_ops),
    );
    family(
        out,
        "fenestra_repl_applied_bytes_total",
        "counter",
        "Follower: shipped segment bytes applied locally",
        v(&r.applied_bytes),
    );
    family(
        out,
        "fenestra_repl_reconnects_total",
        "counter",
        "Follower: reconnects to the leader",
        v(&r.reconnects),
    );
    family(
        out,
        "fenestra_repl_last_leader_contact_ms",
        "gauge",
        "Follower: unix millis of the last frame or heartbeat from the leader",
        v(&r.last_leader_contact_ms),
    );
    family(
        out,
        "fenestra_repl_sync_acks_ok_total",
        "counter",
        "Leader: held acks released by follower durable coverage (--sync-replicas)",
        v(&r.sync_acks_ok),
    );
    family(
        out,
        "fenestra_repl_sync_acks_timeout_total",
        "counter",
        "Leader: held acks failed because follower coverage missed --sync-timeout-ms",
        v(&r.sync_acks_timeout),
    );
    family(
        out,
        "fenestra_repl_sync_acks_fallback_total",
        "counter",
        "Leader: held acks released locally-durable-only after a sync timeout (--sync-fallback)",
        v(&r.sync_acks_fallback),
    );
    family(
        out,
        "fenestra_repl_sync_waiting",
        "gauge",
        "Leader: ack parts currently parked awaiting follower coverage",
        v(&r.sync_waiting),
    );
    histogram(
        out,
        "fenestra_repl_sync_wait_us",
        "Leader: time a locally-durable ack waited for follower coverage (microseconds)",
        &[(None, r.sync_wait_us.snapshot())],
    );
    histogram(
        out,
        "fenestra_repl_ack_lag_us",
        "Leader: ship to applied-and-durable-on-follower ack latency (microseconds)",
        &[(None, r.ack_lag_us.snapshot())],
    );
    histogram(
        out,
        "fenestra_repl_apply_us",
        "Follower: time to apply one shipped batch, local WAL append + fsync + store apply (microseconds)",
        &[(None, r.apply_us.snapshot())],
    );
}

/// Per-shard engine counters, `shard` labeled, `_total` suffixed.
fn engine_counters(out: &mut String, obs: &PipelineObs) {
    let counters: Vec<fenestra_obs::EngineCounters> =
        obs.shards.iter().map(|sh| sh.engine.load()).collect();
    let families: [ShardFamily<fenestra_obs::EngineCounters>; 10] = [
        (
            "fenestra_engine_events_total",
            "Events applied by the engine",
            |c| c.events,
        ),
        (
            "fenestra_engine_late_dropped_total",
            "Events dropped as late",
            |c| c.late_dropped,
        ),
        ("fenestra_engine_rule_fired_total", "Rule firings", |c| {
            c.rule_fired
        }),
        (
            "fenestra_engine_transitions_total",
            "State transitions applied",
            |c| c.transitions,
        ),
        (
            "fenestra_engine_guard_blocked_total",
            "Rule firings blocked by guards",
            |c| c.guard_blocked,
        ),
        (
            "fenestra_engine_rule_errors_total",
            "Rule evaluation errors",
            |c| c.rule_errors,
        ),
        (
            "fenestra_engine_reason_asserted_total",
            "Facts asserted by the reasoner",
            |c| c.reason_asserted,
        ),
        (
            "fenestra_engine_reason_retracted_total",
            "Facts retracted by the reasoner",
            |c| c.reason_retracted,
        ),
        (
            "fenestra_engine_reason_syncs_total",
            "Reasoner sync passes",
            |c| c.reason_syncs,
        ),
        (
            "fenestra_engine_ttl_expired_total",
            "Open facts expired by TTL",
            |c| c.ttl_expired,
        ),
    ];
    for (name, help, get) in families {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (i, c) in counters.iter().enumerate() {
            let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", get(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden: exact exposition for one histogram family across two
    /// shards, pinning label syntax, cumulative buckets, log2 `le`
    /// bounds, the empty-series shape, and `_sum`/`_count`.
    #[test]
    fn histogram_exposition_matches_golden() {
        let obs = PipelineObs::new(2);
        // shard 0: values 0, 1, 3 → buckets 0 (le 0), 1 (le 1), 2 (le 3).
        obs.shards[0].queue_wait_us.record(0);
        obs.shards[0].queue_wait_us.record(1);
        obs.shards[0].queue_wait_us.record(3);
        // shard 1: empty.
        let series: Vec<(Option<usize>, HistogramSnapshot)> = obs
            .shards
            .iter()
            .enumerate()
            .map(|(i, sh)| (Some(i), sh.queue_wait_us.snapshot()))
            .collect();
        let mut out = String::new();
        histogram(
            &mut out,
            "fenestra_stage_queue_wait_us",
            "Time an ingest command waited in its shard queue before dequeue (microseconds)",
            &series,
        );
        let golden = "\
# HELP fenestra_stage_queue_wait_us Time an ingest command waited in its shard queue before dequeue (microseconds)
# TYPE fenestra_stage_queue_wait_us histogram
fenestra_stage_queue_wait_us_bucket{shard=\"0\",le=\"0\"} 1
fenestra_stage_queue_wait_us_bucket{shard=\"0\",le=\"1\"} 2
fenestra_stage_queue_wait_us_bucket{shard=\"0\",le=\"3\"} 3
fenestra_stage_queue_wait_us_bucket{shard=\"0\",le=\"+Inf\"} 3
fenestra_stage_queue_wait_us_sum{shard=\"0\"} 4
fenestra_stage_queue_wait_us_count{shard=\"0\"} 3
fenestra_stage_queue_wait_us_bucket{shard=\"1\",le=\"+Inf\"} 0
fenestra_stage_queue_wait_us_sum{shard=\"1\"} 0
fenestra_stage_queue_wait_us_count{shard=\"1\"} 0
";
        assert_eq!(out, golden);
    }

    /// The full render parses line-by-line as Prometheus text: every
    /// non-comment line is `name{labels} value`, every histogram's
    /// `+Inf` bucket equals its `_count`, and every expected family is
    /// present.
    #[test]
    fn full_render_is_parseable_and_consistent() {
        let m = ServerMetrics::default();
        m.events.fetch_add(12, Ordering::Relaxed);
        m.acks_deferred.fetch_add(4, Ordering::Relaxed);
        m.acks_released.fetch_add(4, Ordering::Relaxed);
        let obs = PipelineObs::new(3);
        obs.admit_us.record(7);
        for (i, sh) in obs.shards.iter().enumerate() {
            for stage in STAGES {
                sh.stage(stage).record(1 << i);
            }
            sh.observe_queue_depth(i as u64 + 1);
            // The last bucket folds into +Inf rather than printing
            // le="18446744073709551615".
            sh.wal.fsync_us.record(u64::MAX);
        }
        obs.plan.compile_us.record(40);
        obs.plan.exec_us.record(9);
        let plans = CacheStats {
            hits: 5,
            misses: 2,
            entries: 2,
        };
        let body = render_prometheus(&m, &obs, &plans);
        assert!(!body.contains("18446744073709551615"));
        let mut counts: std::collections::HashMap<String, u64> = Default::default();
        let mut infs: std::collections::HashMap<String, u64> = Default::default();
        for line in body.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("bad value in: {line}"));
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "bad metric name in: {line}"
            );
            if series.contains("le=\"+Inf\"") {
                let base = name
                    .strip_suffix("_bucket")
                    .expect("+Inf outside histogram");
                let key = format!("{base}|{}", series_labels_minus_le(series));
                *infs.entry(key).or_default() = value.parse().unwrap();
            }
            if let Some(base) = name.strip_suffix("_count") {
                let key = format!("{base}|{}", series_labels_minus_le(series));
                *counts.entry(key).or_default() = value.parse().unwrap();
            }
        }
        assert!(!counts.is_empty() && counts.len() == infs.len());
        for (key, n) in &counts {
            assert_eq!(infs.get(key), Some(n), "{key}: +Inf bucket != _count");
        }
        for fam in [
            "fenestra_server_events_total 12",
            "fenestra_server_acks_deferred_total 4",
            "fenestra_server_acks_released_total 4",
            "fenestra_shard_queue_depth{shard=\"2\"} 3",
            "fenestra_shard_queue_hwm{shard=\"1\"} 2",
            "fenestra_engine_events_total{shard=\"0\"} 0",
            "fenestra_stage_admit_us_count 1",
            "fenestra_server_conns_open 0",
            "fenestra_server_conns_binary 0",
            "fenestra_stage_decode_us_count 0",
            "fenestra_stage_reactor_dispatch_us_count 0",
            "fenestra_late_margin_ms_count{shard=\"0\"} 1",
            "fenestra_stage_fsync_us_bucket{shard=\"0\",le=\"+Inf\"} 2",
            "fenestra_plan_cache_hits_total 5",
            "fenestra_plan_cache_misses_total 2",
            "fenestra_plan_cache_entries 2",
            "fenestra_plan_compile_us_count 1",
            "fenestra_plan_exec_us_count 1",
            "fenestra_plan_exec_us_sum 9",
        ] {
            assert!(body.contains(fam), "missing `{fam}` in:\n{body}");
        }
    }

    /// Golden: the plan-cache family block, pinning names, types, and
    /// the histogram shape of the planner latency series.
    #[test]
    fn plan_metrics_exposition_matches_golden() {
        let obs = PipelineObs::new(1);
        // values 0 and 1 → buckets le="0" and le="1", cumulative.
        obs.plan.exec_us.record(0);
        obs.plan.exec_us.record(1);
        let plans = CacheStats {
            hits: 7,
            misses: 3,
            entries: 3,
        };
        let mut out = String::new();
        plan_metrics(&mut out, &obs, &plans);
        let golden = "\
# HELP fenestra_plan_cache_hits_total Query statements served by an already-compiled plan
# TYPE fenestra_plan_cache_hits_total counter
fenestra_plan_cache_hits_total 7
# HELP fenestra_plan_cache_misses_total Query statements that ran the planner (parse, rewrite, lower)
# TYPE fenestra_plan_cache_misses_total counter
fenestra_plan_cache_misses_total 3
# HELP fenestra_plan_cache_entries Distinct statements currently held in the plan cache
# TYPE fenestra_plan_cache_entries gauge
fenestra_plan_cache_entries 3
# HELP fenestra_plan_compile_us Time compiling one statement into a physical plan, recorded on cache misses (microseconds)
# TYPE fenestra_plan_compile_us histogram
fenestra_plan_compile_us_bucket{le=\"+Inf\"} 0
fenestra_plan_compile_us_sum 0
fenestra_plan_compile_us_count 0
# HELP fenestra_plan_exec_us Time executing one compiled plan end to end, fan-out and merge included (microseconds)
# TYPE fenestra_plan_exec_us histogram
fenestra_plan_exec_us_bucket{le=\"0\"} 1
fenestra_plan_exec_us_bucket{le=\"1\"} 2
fenestra_plan_exec_us_bucket{le=\"+Inf\"} 2
fenestra_plan_exec_us_sum 1
fenestra_plan_exec_us_count 2
";
        assert_eq!(out, golden);
    }

    /// Strip the `le` label so bucket series pair with their family's
    /// `_sum`/`_count` (which carry only the shard label).
    fn series_labels_minus_le(series: &str) -> String {
        match series.split_once('{') {
            None => String::new(),
            Some((_, rest)) => rest
                .trim_end_matches('}')
                .split(',')
                .filter(|kv| !kv.starts_with("le="))
                .collect::<Vec<_>>()
                .join(","),
        }
    }
}
