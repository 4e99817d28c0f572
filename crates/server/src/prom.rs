//! Prometheus text exposition (format 0.0.4), hand-rolled.
//!
//! One function renders the whole scrape body from published atomics
//! by walking the groups of the [`fenestra_obs::metrics!`] registry:
//! one family per declared metric, named `fenestra_<group>_<key>`
//! (`_total` for counters), per-shard groups with a `shard="N"` label.
//! No HTTP or metrics dependency — the format is a
//! stable line protocol and the server only ever serves one route
//! (`GET /metrics`, see the listener in [`crate::server`]).
//!
//! Histogram buckets follow the log2 layout of
//! [`fenestra_obs::Histogram`]: `le` is each bucket's inclusive upper
//! bound (`2^i - 1`), cumulative as Prometheus requires, truncated at
//! the highest non-empty bucket (the `+Inf` line always closes the
//! series). Scrapes read relaxed atomics only; a scraper can never
//! block ingest.

use crate::cpu::{role_cpu, RoleCpu};
use crate::metrics::{plan_cache, ServerMetrics};
use fenestra_obs::{
    bucket_upper_bound, HistogramSnapshot, Kind, PipelineObs, Reading, Readings, ShardObs, BUCKETS,
};
use fenestra_query::CacheStats;
use std::fmt::Write;

/// One declared group's reads: a single unlabeled entry, or one per
/// shard labeled with the shard id.
type Series = Vec<(Option<usize>, Readings)>;

/// Render the complete `/metrics` body.
pub fn render_prometheus(
    metrics: &ServerMetrics,
    obs: &PipelineObs,
    plans: &CacheStats,
    cpu: &RoleCpu,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    for series in groups(metrics, obs, cpu) {
        families(&mut out, &series);
    }
    plan_metrics(&mut out, obs, plans);
    out
}

/// Every declared group except the planner's, read once.
fn groups(metrics: &ServerMetrics, obs: &PipelineObs, cpu: &RoleCpu) -> [Series; 7] {
    let shards = |read: &dyn Fn(&ShardObs) -> Readings| -> Series {
        obs.shards
            .iter()
            .enumerate()
            .map(|(i, sh)| (Some(i), read(sh)))
            .collect()
    };
    [
        vec![(None, metrics.readings())],
        shards(&ShardObs::gauges),
        shards(&|sh| sh.engine.load().readings()),
        vec![(None, obs.repl.readings())],
        vec![(None, obs.stages())],
        shards(&ShardObs::stages),
        vec![(None, role_cpu(cpu))],
    ]
}

/// The planner's groups: plan-cache counters, then compile/exec latency.
fn plan_groups(obs: &PipelineObs, plans: &CacheStats) -> [Series; 2] {
    [
        vec![(None, plan_cache(plans))],
        vec![(None, obs.plan.readings())],
    ]
}

/// Plan-cache counters and planner latency histograms: how often
/// query compilation is skipped (`fenestra_plan_cache_*`) and what
/// compiling versus dispatching a plan costs
/// (`fenestra_plan_compile_us` / `fenestra_plan_exec_us`).
fn plan_metrics(out: &mut String, obs: &PipelineObs, plans: &CacheStats) {
    for series in plan_groups(obs, plans) {
        families(out, &series);
    }
}

/// One family per declared metric of a group: HELP/TYPE once, then a
/// sample (or a histogram series) per entry of `series`. Derived
/// values have no family.
fn families(out: &mut String, series: &[(Option<usize>, Readings)]) {
    let Some((_, first)) = series.first() else {
        return;
    };
    for (j, (metric, _)) in first.0.iter().enumerate() {
        let Some(name) = metric.family() else {
            continue;
        };
        let kind = match metric.kind {
            Kind::Histogram => {
                let snaps: Vec<(Option<usize>, HistogramSnapshot)> = series
                    .iter()
                    .filter_map(|(shard, r)| match &r.0[j].1 {
                        Reading::Hist(h) => Some((*shard, (**h).clone())),
                        _ => None,
                    })
                    .collect();
                histogram(out, &name, metric.help, &snaps);
                continue;
            }
            Kind::Counter => "counter",
            _ => "gauge",
        };
        let _ = writeln!(out, "# HELP {name} {}", metric.help);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (shard, r) in series {
            if let Reading::Value(v) = r.0[j].1 {
                let _ = writeln!(out, "{name}{} {v}", labels(*shard, None));
            }
        }
    }
}

/// `{shard="N",le="B"}` with whichever labels are present; empty when
/// neither is.
fn labels(shard: Option<usize>, le: Option<&str>) -> String {
    let parts: Vec<String> = [
        shard.map(|s| format!("shard=\"{s}\"")),
        le.map(|b| format!("le=\"{b}\"")),
    ]
    .into_iter()
    .flatten()
    .collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
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
    for &(shard, ref snap) in series {
        let mut cum = 0u64;
        // The last bucket's upper bound is u64::MAX; fold it into +Inf
        // rather than printing a 20-digit `le`.
        let hi = snap.highest_bucket().map_or(0, |h| h.min(BUCKETS - 2));
        if snap.count > 0 {
            for (i, &b) in snap.buckets.iter().enumerate().take(hi + 1) {
                cum += b;
                let le = bucket_upper_bound(i).to_string();
                let _ = writeln!(out, "{name}_bucket{} {cum}", labels(shard, Some(&le)));
            }
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            labels(shard, Some("+Inf")),
            snap.count
        );
        let _ = writeln!(out, "{name}_sum{} {}", labels(shard, None), snap.sum);
        let _ = writeln!(out, "{name}_count{} {}", labels(shard, None), snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
            for stage in [
                &sh.queue_wait_us,
                &sh.reorder_dwell_us,
                &sh.wal.append_us,
                &sh.wal.fsync_us,
                &sh.ack_hold_us,
                &sh.late_margin_ms,
            ] {
                stage.record(1 << i);
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
        let body = render_prometheus(&m, &obs, &plans, &RoleCpu::default());
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
# HELP fenestra_plan_exec_us Time from the dispatch of a query's burst to its merged reply (microseconds)
# TYPE fenestra_plan_exec_us histogram
fenestra_plan_exec_us_bucket{le=\"0\"} 1
fenestra_plan_exec_us_bucket{le=\"1\"} 2
fenestra_plan_exec_us_bucket{le=\"+Inf\"} 2
fenestra_plan_exec_us_sum 1
fenestra_plan_exec_us_count 2
# HELP fenestra_plan_partial_us Time one shard spent on its part of one executed plan (microseconds)
# TYPE fenestra_plan_partial_us histogram
fenestra_plan_partial_us_bucket{le=\"+Inf\"} 0
fenestra_plan_partial_us_sum 0
fenestra_plan_partial_us_count 0
# HELP fenestra_plan_merge_us Time merging one executed plan's shard parts and writing its reply line (microseconds)
# TYPE fenestra_plan_merge_us histogram
fenestra_plan_merge_us_bucket{le=\"+Inf\"} 0
fenestra_plan_merge_us_sum 0
fenestra_plan_merge_us_count 0
";
        assert_eq!(out, golden);
    }

    /// Every family the registry declares has a row in the tutorial's
    /// metrics table.
    #[test]
    fn every_family_is_documented() {
        let tutorial = include_str!("../../../docs/TUTORIAL.md");
        let obs = PipelineObs::new(1);
        let (metrics, plans) = (ServerMetrics::default(), CacheStats::default());
        let mut names = Vec::new();
        for series in groups(&metrics, &obs, &RoleCpu::default())
            .into_iter()
            .chain(plan_groups(&obs, &plans))
        {
            names.extend(series[0].1 .0.iter().filter_map(|(m, _)| m.family()));
        }
        let missing: Vec<&String> = names
            .iter()
            .filter(|name| !tutorial.contains(&format!("`{name}`")))
            .collect();
        assert!(missing.is_empty(), "not in docs/TUTORIAL.md: {missing:?}");
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
