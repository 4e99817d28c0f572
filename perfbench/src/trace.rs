//! The traced run's per-layer numbers.
//!
//! Two sources, both from outside the program:
//!
//! * an in-process **replay** of the run's seeded inputs through each
//!   crate's public functions, in the server's order — decode → route
//!   → `push_batch` → `take_journal` → `WalWriter::append`/`sync` →
//!   `Watch::poll` for ingest, compile → per-shard execute → merge for
//!   queries — with a span around every call;
//! * the server's own `stats` reply at the end of the traced run
//!   (stage histograms, batching and WAL counters).

use crate::gen::{self, GenConfig, Generator, Keys, Move};
use crate::span::Spans;
use crate::workloads::{self, Outcome, Spec, FRAME_EVENTS};
use fenestra_base::record::Event;
use fenestra_base::time::Duration as EventDuration;
use fenestra_core::shard::{merge_history, merge_rows, partial_select};
use fenestra_core::{Engine, EngineConfig, ShardRouter, Watch};
use fenestra_query::{PhysicalPlan, PlanCache, QueryOptions, WindowPhys};
use fenestra_temporal::{FsyncPolicy, TemporalStore, WalOp, WalWriter};
use fenestra_wire::binary::{self, Frame, FrameStatus};
use serde_json::Value as Json;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics: `(name, value, unit)`.
pub type Layer = Vec<(&'static str, f64, &'static str)>;

fn engines(shards: u32, lateness_ms: u64, retention_ms: Option<u64>) -> Vec<Engine> {
    (0..shards)
        .map(|_| {
            let mut e = Engine::new(EngineConfig {
                max_lateness: EventDuration::millis(lateness_ms),
                retention: retention_ms.map(EventDuration::millis),
                ..EngineConfig::default()
            });
            e.add_rules_text(gen::RULES).expect("rules");
            e
        })
        .collect()
}

fn generator(spec: &Spec, seed: u64) -> Generator {
    Generator::new(GenConfig {
        visitors: spec.visitors,
        rooms: spec.rooms,
        keys: Keys::Cycle,
        step_ms: 1,
        jitter_ms: 0,
        seed,
    })
}

fn split(route: &ShardRouter, events: Vec<Event>) -> Vec<Vec<Event>> {
    let mut parts: Vec<Vec<Event>> = vec![Vec::new(); route.shards() as usize];
    for ev in events {
        let s = route.route(&ev) as usize;
        parts[s].push(ev);
    }
    parts
}

fn per(total_ns: u64, n: u64, scale: f64) -> f64 {
    total_ns as f64 / n.max(1) as f64 / scale
}

/// `ingest_durable`'s stream: JSONL decode, route, push, journal, WAL
/// append + sync, in group-commit batches.
fn replay_durable(spec: &Spec, seed: u64, dir: &Path, n: u64, sp: &mut Spans, out: &mut Layer) {
    let route = workloads::router(spec.shards);
    let mut g = generator(spec, seed);
    let lines: Vec<String> = (0..n).map(|_| gen::json_line(&g.next_move())).collect();
    let mut eng = engines(spec.shards, spec.lateness_ms, None);
    let mut wals: Vec<WalWriter> = (0..spec.shards)
        .map(|s| {
            WalWriter::create(
                &dir.join(format!("replay-wal-{s}")),
                FsyncPolicy::OnSnapshot,
            )
            .expect("wal")
        })
        .collect();
    // Batches of the size the server's group commit forms at this
    // workload's offered rate are a handful of events; use 8.
    const BATCH: usize = 8;
    let mut wal_bytes = 0u64;
    let (mut appends, mut syncs) = (0u64, 0u64);
    for (b, chunk) in lines.chunks(BATCH).enumerate() {
        let req = b as u64;
        let (events, _) = sp.time("wire.jsonl_decode", None, req, || {
            chunk
                .iter()
                .map(|l| fenestra_wire::event_from_json(l).expect("decode"))
                .collect::<Vec<_>>()
        });
        let (parts, _) = sp.time("core.route", None, req, || split(&route, events));
        for (s, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            sp.time("core.push_batch", None, req, || eng[s].push_batch(part));
            let (ops, _) = sp.time("core.take_journal", None, req, || eng[s].take_journal());
            let (bytes, _) = sp.time("temporal.wal_append", None, req, || {
                wals[s].append(&ops).expect("append")
            });
            wal_bytes += bytes;
            appends += 1;
            sp.time("temporal.wal_sync", None, req, || {
                wals[s].sync().expect("sync")
            });
            syncs += 1;
        }
    }
    out.push((
        "wire.jsonl_decode_ns",
        per(sp.self_ns("wire.jsonl_decode"), n, 1.0),
        "ns",
    ));
    out.push((
        "temporal.wal_append_us",
        per(sp.self_ns("temporal.wal_append"), appends, 1e3),
        "us",
    ));
    out.push((
        "temporal.wal_sync_us",
        per(sp.self_ns("temporal.wal_sync"), syncs, 1e3),
        "us",
    ));
    out.push((
        "temporal.wal_bytes_per_event",
        wal_bytes as f64 / n.max(1) as f64,
        "B",
    ));
}

/// `ingest_bulk`'s stream: binary decode, route, push, journal, then
/// the journal applied to a fresh store; plus a single-threaded engine
/// on the same events.
fn replay_bulk(spec: &Spec, seed: u64, n: u64, sp: &mut Spans, out: &mut Layer) {
    let route = workloads::router(spec.shards);
    let mut g = generator(spec, seed);
    g.interleave_ranks(spec.shards, |v| route.route(&workloads::visitor_event(v)));
    let preload: Vec<Move> = (0..spec.preload).map(|_| g.next_move()).collect();
    g.switch(spec.keys, spec.jitter_ms);
    let timed: Vec<Move> = (0..n).map(|_| g.next_move()).collect();
    let encode = |moves: &[Move]| -> Vec<Vec<u8>> {
        moves
            .chunks(FRAME_EVENTS)
            .map(|c| {
                binary::encode_batch(gen::STREAM, &c.iter().map(gen::event).collect::<Vec<_>>())
                    .expect("encode")
            })
            .collect()
    };
    let mut eng = engines(spec.shards, spec.lateness_ms, spec.retention_ms);
    // A fresh store replaying the timed journal first needs the
    // preload's entities, so the preload journal is applied untimed.
    let mut stores: Vec<TemporalStore> = (0..spec.shards).map(|_| TemporalStore::new()).collect();
    for (s, part) in split(&route, preload.iter().map(gen::event).collect())
        .into_iter()
        .enumerate()
    {
        eng[s].push_batch(part);
        for op in eng[s].take_journal() {
            let _ = stores[s].apply(&op);
        }
    }
    let frames = encode(&timed);
    let mut per_shard = vec![0u64; spec.shards as usize];
    let mut ops_total = 0u64;
    let mut journal: Vec<Vec<WalOp>> = vec![Vec::new(); spec.shards as usize];
    for (f, frame) in frames.iter().enumerate() {
        let req = f as u64;
        let (events, _) = sp.time("wire.binary_decode", None, req, || {
            let FrameStatus::Ready { end } =
                binary::check_frame(frame, binary::DEFAULT_MAX_FRAME).expect("frame")
            else {
                panic!("incomplete frame")
            };
            match binary::decode_payload(&frame[binary::HEADER_LEN..end]).expect("decode") {
                Frame::Batch { events, .. } => events,
                other => panic!("not a batch: {other:?}"),
            }
        });
        let (parts, _) = sp.time("core.route", None, req, || split(&route, events));
        for (s, part) in parts.into_iter().enumerate() {
            per_shard[s] += part.len() as u64;
            sp.time("core.push_batch", None, req, || eng[s].push_batch(part));
            let (ops, _) = sp.time("core.take_journal", None, req, || eng[s].take_journal());
            ops_total += ops.len() as u64;
            journal[s].extend(ops);
        }
    }
    // The journal ops the pushes produced, applied on their own.
    let mut apply_ns = 0u64;
    let mut replayed = 0u64;
    for (s, ops) in journal.iter().enumerate() {
        let t = Instant::now();
        for op in ops {
            if stores[s].apply(op).is_ok() {
                replayed += 1;
            }
        }
        apply_ns += t.elapsed().as_nanos() as u64;
    }
    let push_ns = per(sp.self_ns("core.push_batch"), n, 1.0);
    let apply_per_op = per(apply_ns, replayed, 1.0);
    let ops_per_event = ops_total as f64 / n.max(1) as f64;
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    let max = *per_shard.iter().max().unwrap_or(&0) as f64;
    // Single-threaded reference on the same stream.
    let mut reference = engines(1, spec.lateness_ms, spec.retention_ms)
        .pop()
        .unwrap();
    reference.push_batch(preload.iter().map(gen::event));
    let evs: Vec<Vec<Event>> = timed
        .chunks(FRAME_EVENTS)
        .map(|c| c.iter().map(gen::event).collect())
        .collect();
    let t = Instant::now();
    for batch in evs {
        reference.push_batch(batch);
        reference.take_journal();
    }
    let ref_rate = n as f64 / t.elapsed().as_secs_f64();
    out.push((
        "wire.binary_decode_ns",
        per(sp.self_ns("wire.binary_decode"), n, 1.0),
        "ns",
    ));
    out.push(("core.route_ns", per(sp.self_ns("core.route"), n, 1.0), "ns"));
    out.push(("core.push_batch_ns", push_ns, "ns"));
    out.push((
        "core.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    ));
    out.push(("core.reference_events_per_s", ref_rate, "1/s"));
    out.push(("temporal.apply_ns", apply_per_op, "ns"));
    out.push((
        "rules.eval_ns",
        (push_ns - apply_per_op * ops_per_event).max(0.0),
        "ns",
    ));
    out.push((
        "temporal.stored_facts",
        eng.iter()
            .map(|e| e.store().stored_fact_count())
            .sum::<usize>() as f64,
        "count",
    ));
}

/// `read_watch_mix`: single-event ingest batches with every watch
/// polled after each, then the statement mix through a plan cache and
/// per-shard execution.
fn replay_mix(
    spec: &Spec,
    seed: u64,
    n_events: u64,
    n_queries: u64,
    sp: &mut Spans,
    out: &mut Layer,
) {
    let route = workloads::router(spec.shards);
    let mut g = generator(spec, seed);
    let mut eng = engines(spec.shards, spec.lateness_ms, None);
    let preload: Vec<Event> = (0..spec.preload)
        .map(|_| gen::event(&g.next_move()))
        .collect();
    for (s, part) in split(&route, preload).into_iter().enumerate() {
        eng[s].push_batch(part);
        eng[s].take_journal();
    }
    let cache = PlanCache::default();
    let mut watches: Vec<Vec<Watch>> = (0..spec.shards)
        .map(|_| {
            let mut w: Vec<Watch> = (0..spec.rooms)
                .map(|r| {
                    let (plan, _) = cache
                        .get_or_compile(&crate::client::room_watch_query(r))
                        .expect("watch");
                    Watch::from_plan(format!("room_{r}").as_str(), plan)
                })
                .collect();
            for v in g.sample_visitors(spec.watched, 1) {
                let (plan, _) = cache
                    .get_or_compile(&crate::client::visitor_watch_query(v))
                    .expect("watch");
                w.push(Watch::from_plan(format!("vis_{v}").as_str(), plan));
            }
            w
        })
        .collect();
    for (s, ws) in watches.iter_mut().enumerate() {
        let store = eng[s].store();
        for w in ws.iter_mut() {
            w.poll(&store);
        }
    }
    let (mut polls, mut useful, mut deltas, mut batches) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..n_events {
        let ev = gen::event(&g.next_move());
        let s = route.route(&ev) as usize;
        sp.time("core.push_batch", None, i, || eng[s].push_batch([ev]));
        eng[s].take_journal();
        batches += 1;
        let store = eng[s].store();
        let (n, _) = sp.time("core.watch_poll", None, i, || {
            let mut n = 0u64;
            for w in watches[s].iter_mut() {
                let d = w.poll(&store).len() as u64;
                polls += 1;
                useful += u64::from(d > 0);
                n += d;
            }
            n
        });
        deltas += n;
    }
    out.push((
        "core.watch_poll_us",
        per(sp.self_ns("core.watch_poll"), batches, 1e3),
        "us",
    ));
    out.push((
        "core.watch_deltas",
        deltas as f64 / batches.max(1) as f64,
        "count",
    ));
    out.push((
        "core.watch_useful_ratio",
        useful as f64 / polls.max(1) as f64,
        "ratio",
    ));

    // The statement mix, as the run's query connection sends it.
    let mut mix = workloads::QueryMix::new(spec, seed);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for q in 0..n_queries {
        let (kind, text) = mix.next(spec);
        let t = Instant::now();
        let (plan, hit) = cache.get_or_compile(&text).expect("compile");
        sp.record(
            if hit { "query.lookup" } else { "query.compile" },
            t,
            Instant::now(),
            None,
            q,
        );
        lookups += 1;
        hits += u64::from(hit);
        let exec_start = Instant::now();
        let parent = sp.record("query.exec", exec_start, exec_start, None, q);
        match &plan.physical {
            PhysicalPlan::Select { query } => {
                let mut parts = Vec::new();
                for e in &eng {
                    let (rows, _) = sp.time("query.shard_exec", Some(parent), q, || {
                        partial_select(&e.store(), query, QueryOptions::default()).expect("select")
                    });
                    parts.push(rows);
                }
                sp.time("query.merge", Some(parent), q, || merge_rows(query, parts));
            }
            PhysicalPlan::History { entity, attr } => {
                let mut parts = Vec::new();
                for e in &eng {
                    let (h, _) = sp.time("query.shard_exec", Some(parent), q, || {
                        let store = e.store();
                        store
                            .lookup_entity(*entity)
                            .map(|id| store.history(id, *attr))
                    });
                    parts.extend(h);
                }
                sp.time("query.merge", Some(parent), q, || merge_history(parts));
            }
            PhysicalPlan::WindowAgg(w) => {
                let mut batches = Vec::new();
                for e in &eng {
                    let (facts, _) = sp.time("query.shard_exec", Some(parent), q, || {
                        w.collect_facts(&e.store()).expect("collect")
                    });
                    batches.push(facts);
                }
                let (merged, _) = sp.time("query.merge", Some(parent), q, || {
                    WindowPhys::merge_fact_batches(batches)
                });
                sp.time("query.aggregate", Some(parent), q, || {
                    w.aggregate(merged).expect("aggregate")
                });
            }
        }
        let end = sp.ns(Instant::now());
        sp.spans[parent].end_ns = end;
        sp.spans[parent].name = exec_span(kind);
    }
    let mean_of = |name: &str| -> f64 {
        let (total, count) = sp
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(t, c), s| (t + s.end_ns - s.start_ns, c + 1));
        per(total, count, 1e3)
    };
    let merge_count = sp.spans.iter().filter(|s| s.name == "query.merge").count() as u64;
    let compile_count = sp
        .spans
        .iter()
        .filter(|s| s.name == "query.compile")
        .count() as u64;
    let lookup_count = sp.spans.iter().filter(|s| s.name == "query.lookup").count() as u64;
    out.push((
        "query.compile_us",
        per(sp.self_ns("query.compile"), compile_count, 1e3),
        "us",
    ));
    out.push((
        "query.lookup_us",
        per(sp.self_ns("query.lookup"), lookup_count, 1e3),
        "us",
    ));
    out.push((
        "query.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    out.push(("query.exec_us.point", mean_of("query.exec.point"), "us"));
    out.push((
        "query.exec_us.occupancy",
        mean_of("query.exec.occupancy"),
        "us",
    ));
    out.push(("query.exec_us.asof", mean_of("query.exec.asof"), "us"));
    out.push(("query.exec_us.history", mean_of("query.exec.history"), "us"));
    out.push(("query.exec_us.window", mean_of("query.exec.window"), "us"));
    out.push((
        "query.merge_us",
        per(sp.self_ns("query.merge"), merge_count, 1e3),
        "us",
    ));
}

fn exec_span(kind: &str) -> &'static str {
    match kind {
        "point" => "query.exec.point",
        "occupancy" => "query.exec.occupancy",
        "asof" => "query.exec.asof",
        "history" => "query.exec.history",
        _ => "query.exec.window",
    }
}

/// The server-side numbers, from the traced run's `stats` reply.
fn server_layer(stats: &Json, mean_ack_us: f64, out: &mut Layer) {
    let stage = |name: &str, q: &str| -> f64 {
        stats
            .get("stages")
            .and_then(|s| s.get(name))
            .and_then(|s| s.get(q))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let plan = |name: &str, q: &str| -> f64 {
        stats
            .get("plans")
            .and_then(|s| s.get(name))
            .and_then(|s| s.get(q))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let server = |k: &str| -> f64 {
        stats
            .get("server")
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.push(("server.admit_us.p50", stage("admit_us", "p50"), "us"));
    out.push(("server.decode_us.p50", stage("decode_us", "p50"), "us"));
    out.push((
        "server.reactor_dispatch_us.p50",
        stage("reactor_dispatch_us", "p50"),
        "us",
    ));
    out.push((
        "server.queue_wait_us.p50",
        stage("queue_wait_us", "p50"),
        "us",
    ));
    out.push((
        "server.queue_wait_us.p99",
        stage("queue_wait_us", "p99"),
        "us",
    ));
    out.push(("server.ack_hold_us.p50", stage("ack_hold_us", "p50"), "us"));
    out.push(("server.ack_hold_us.p99", stage("ack_hold_us", "p99"), "us"));
    out.push((
        "server.reorder_dwell_us.p50",
        stage("reorder_dwell_us", "p50"),
        "us",
    ));
    out.push((
        "server.wal_append_us.p50",
        stage("wal_append_us", "p50"),
        "us",
    ));
    out.push(("server.fsync_us.p50", stage("fsync_us", "p50"), "us"));
    out.push((
        "server.plan_compile_us.p50",
        plan("compile_us", "p50"),
        "us",
    ));
    out.push(("server.plan_exec_us.p50", plan("exec_us", "p50"), "us"));
    out.push(("server.plan_exec_us.p99", plan("exec_us", "p99"), "us"));
    out.push(("server.batch_mean", server("ingest_batch_mean"), "count"));
    out.push((
        "server.fsyncs_per_kevent",
        server("fsyncs") * 1000.0 / server("events").max(1.0),
        "count",
    ));
    // The client's mean ack latency minus the server's stage means:
    // what the stage histograms do not account for (socket, scheduling,
    // client parsing).
    let stages = [
        "admit_us",
        "decode_us",
        "reactor_dispatch_us",
        "queue_wait_us",
        "reorder_dwell_us",
        "wal_append_us",
        "fsync_us",
        "ack_hold_us",
    ];
    // Without durable acks an ack leaves at admission, before the
    // queue, reorder and WAL stages; only the stages before it count.
    let on_ack_path = if stage("fsync_us", "count") > 0.0 {
        stages.len()
    } else {
        3
    };
    let explained: f64 = stages[..on_ack_path].iter().map(|s| stage(s, "mean")).sum();
    out.push(("server.unexplained_us", mean_ack_us - explained, "us"));
}

/// Every per-layer metric for a traced run: the replay of all
/// three workloads' seeded inputs (so each layer is measured whichever
/// workload was traced), the traced run's server `stats`, and the
/// tracing overhead. Returns the metrics and the replay's spans.
pub fn per_layer(
    seed: u64,
    tiny: bool,
    dir: &Path,
    traced: &Outcome,
    untraced: &Outcome,
) -> (Layer, Spans) {
    let mut out = Layer::new();
    let origin = Instant::now();
    let scale = if tiny { 20 } else { 1 };
    let durable = workloads::spec("ingest_durable", tiny).unwrap();
    let bulk = workloads::spec("ingest_bulk", tiny).unwrap();
    let mix = workloads::spec("read_watch_mix", tiny).unwrap();
    let mut sp = Spans::new(origin);
    replay_durable(&durable, seed, dir, 20_000 / scale, &mut sp, &mut out);
    let mut sp_bulk = Spans::new(origin);
    replay_bulk(&bulk, seed, 200_192 / scale, &mut sp_bulk, &mut out);
    let mut sp_mix = Spans::new(origin);
    replay_mix(
        &mix,
        seed,
        4_000 / scale,
        1_500 / scale,
        &mut sp_mix,
        &mut out,
    );
    sp.absorb(sp_bulk);
    sp.absorb(sp_mix);

    let open: f64 = traced
        .stats
        .get("shards")
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| {
                    s.get("gauges")
                        .and_then(|g| g.get("state_facts"))
                        .and_then(Json::as_f64)
                })
                .sum()
        })
        .unwrap_or(0.0);
    out.push(("temporal.open_facts", open, "count"));
    server_layer(&traced.stats, traced.mean_ack_us, &mut out);
    let metric = |o: &Outcome, name: &str| {
        o.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or(0.0)
    };
    let ratio = |name: &str| metric(traced, name) / metric(untraced, name).max(1e-9);
    out.push(("trace.overhead.lat_p50", ratio("lat_p50_us"), "ratio"));
    out.push(("trace.overhead.lat_p95", ratio("lat_p95_us"), "ratio"));
    out.push(("trace.overhead.ops_per_s", ratio("ops_per_s"), "ratio"));
    out.push((
        "trace.overhead.cpu_us_per_op",
        ratio("cpu_us_per_op"),
        "ratio",
    ));
    (out, sp)
}
