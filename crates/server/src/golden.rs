//! Whole-output goldens for the two metric renderers: the `/metrics`
//! body and the `stats` reply, rendered from one set of values where
//! every atomic and every histogram holds something distinct, with two
//! shards and the replication section on.
//!
//! The `stats` reply is compared byte for byte. The Prometheus body is
//! compared as a multiset of family blocks (each block runs from its
//! `# HELP` line to its last sample, byte-exact), so the order the
//! families are emitted in is free but nothing inside a family is.
//!
//! Run with `FENESTRA_BLESS=1` to rewrite the golden files from the
//! current output.

use crate::cpu::RoleCpu;
use crate::metrics::ServerMetrics;
use crate::prom::render_prometheus;
use crate::server::build_stats;
use fenestra_obs::{Histogram, PipelineObs};
use fenestra_query::CacheStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hands out 1, 2, 3, … so no two metrics share a value.
struct Fill(u64);

impl Fill {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    fn set(&mut self, a: &AtomicU64) {
        a.store(self.next(), Ordering::Relaxed);
    }

    /// Three samples spread over several buckets, distinct per call.
    fn hist(&mut self, h: &Histogram) {
        let n = self.next();
        for v in [n, n * n * 13, n << (n % 23 + 8)] {
            h.record(v);
        }
    }
}

fn filled() -> (ServerMetrics, PipelineObs, CacheStats, RoleCpu) {
    let mut f = Fill(0);
    let m = ServerMetrics::default();
    for a in [
        &m.connections,
        &m.conns_open,
        &m.conns_binary,
        &m.bytes_in,
        &m.bytes_out,
        &m.queue_hwm,
        &m.queries,
        &m.shed,
        &m.events,
        &m.watches,
        &m.late_dropped,
        &m.ingest_batches,
        &m.ingest_batched_events,
        &m.ingest_batch_max,
        &m.group_commits,
        &m.acks_deferred,
        &m.acks_released,
        &m.wal_appends,
        &m.wal_bytes,
        &m.fsyncs,
        &m.recovered_ops,
        &m.recovery_ms,
        &m.wal_discarded_bytes,
        &m.wal_discarded_ops,
        &m.gc_removed,
    ] {
        f.set(a);
    }
    let obs = PipelineObs::new(2);
    for h in [&obs.admit_us, &obs.decode_us, &obs.reactor_dispatch_us] {
        f.hist(h);
    }
    for sh in &obs.shards {
        for a in [
            &sh.queue_depth,
            &sh.queue_hwm,
            &sh.reorder_depth,
            &sh.watermark_lag_ms,
            &sh.held_acks,
            &sh.wal_segment_bytes,
            &sh.wal_gen,
            &sh.wal_oldest_gen,
            &sh.wal_segments,
            &sh.repl_lag_bytes,
            &sh.state_facts,
        ] {
            f.set(a);
        }
        for h in [
            &sh.queue_wait_us,
            &sh.reorder_dwell_us,
            &sh.wal.append_us,
            &sh.wal.fsync_us,
            &sh.ack_hold_us,
            &sh.late_margin_ms,
        ] {
            f.hist(h);
        }
        let mut c = sh.engine.load();
        c.events = f.next();
        c.late_dropped = f.next();
        c.rule_fired = f.next();
        c.transitions = f.next();
        c.guard_blocked = f.next();
        c.rule_errors = f.next();
        c.reason_asserted = f.next();
        c.reason_retracted = f.next();
        c.reason_syncs = f.next();
        c.ttl_expired = f.next();
        sh.engine.store(&c);
    }
    let r = &obs.repl;
    for a in [
        &r.followers,
        &r.ship_frames,
        &r.ship_bytes,
        &r.snapshots_shipped,
        &r.fenced,
        &r.applied_frames,
        &r.applied_ops,
        &r.applied_bytes,
        &r.reconnects,
        &r.sync_acks_ok,
        &r.sync_acks_timeout,
        &r.sync_acks_fallback,
        &r.sync_waiting,
        &r.epoch,
        &r.last_leader_contact_ms,
    ] {
        f.set(a);
    }
    // A flag, not a count: 1 renders `role` as "follower".
    r.following.store(1, Ordering::Relaxed);
    for h in [&r.ack_lag_us, &r.apply_us, &r.sync_wait_us] {
        f.hist(h);
    }
    for h in [&obs.plan.compile_us, &obs.plan.exec_us] {
        f.hist(h);
    }
    let plans = CacheStats {
        hits: f.next(),
        misses: f.next(),
        entries: f.next(),
    };
    let cpu = RoleCpu {
        shard_user_us: f.next(),
        shard_sys_us: f.next(),
        shard_vol_switches: f.next(),
        reader_user_us: f.next(),
        reader_sys_us: f.next(),
        reader_vol_switches: f.next(),
        writer_user_us: f.next(),
        writer_sys_us: f.next(),
        writer_vol_switches: f.next(),
        reactor_user_us: f.next(),
        reactor_sys_us: f.next(),
        reactor_vol_switches: f.next(),
        other_user_us: f.next(),
        other_sys_us: f.next(),
        other_vol_switches: f.next(),
    };
    // Added after the rest, so the earlier values keep their numbers.
    for h in [&obs.plan.partial_us, &obs.plan.merge_us] {
        f.hist(h);
    }
    (m, obs, plans, cpu)
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The golden file's contents, or (under `FENESTRA_BLESS`) `actual`
/// after writing it out as the new golden.
fn golden(name: &str, actual: &str) -> String {
    let path = golden_path(name);
    if std::env::var_os("FENESTRA_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A Prometheus body cut into family blocks, each from its `# HELP`
/// line to its last sample, sorted.
fn family_blocks(body: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().unwrap();
        block.push_str(line);
        block.push('\n');
    }
    blocks.sort();
    blocks
}

#[test]
fn prometheus_body_matches_golden() {
    let (m, obs, plans, cpu) = filled();
    let body = render_prometheus(&m, &obs, &plans, &cpu);
    let want = golden("metrics.prom", &body);
    let (got, want) = (family_blocks(&body), family_blocks(&want));
    for block in &got {
        assert!(want.contains(block), "block not in golden:\n{block}");
    }
    for block in &want {
        assert!(got.contains(block), "golden block not rendered:\n{block}");
    }
    assert_eq!(got, want);
}

#[test]
fn stats_reply_matches_golden() {
    let (m, obs, plans, cpu) = filled();
    let reply = build_stats(&m, &obs, &plans, &cpu, true);
    let want = golden("stats.json", &format!("{reply}\n"));
    assert_eq!(format!("{reply}\n"), want);
}
