//! Ingest-throughput smoke benchmark: what the durable WAL costs, and
//! what group commit buys back.
//!
//! Pumps the same event stream through a real `fenestra-server` (TCP,
//! line protocol, engine thread) under several configurations:
//!
//! * the three fsync policies (no WAL, `every-64`, `always`) with
//!   single-event lines on one connection — the headline numbers;
//! * a client batch-frame sweep (`{"op":"ingest","events":[…]}` with
//!   8/64/512 events per frame) under `fsync always`;
//! * a connection-count sweep (4 and 8 pipelined connections) under
//!   `fsync always`, where group commit coalesces across connections;
//! * a shard-count sweep (1/2/4/8 keyed engine shards) under `fsync
//!   always` with group commit disabled (`batch_max 1`): per-event
//!   durability makes the disk's flush latency the throughput floor,
//!   and per-shard WALs overlap those fsyncs — the one cost that
//!   parallelizes regardless of core count;
//! * a wire-plane A/B at 256 pipelined connections under `fsync
//!   always`: the identical batch workload through the JSONL plane and
//!   the binary plane (`FNB1` length-prefixed CRC-framed batches) of
//!   one listener — the throughput ratio isolates front-door parse +
//!   route cost, since both planes pay the same engine/WAL/fsync bill.
//!
//! Each run reports throughput, ack-latency percentiles (p50/p99 —
//! under `fsync always` an ack is released only after the covering
//! group commit fsyncs, so this is true commit latency), the server's
//! batching counters, and a **stage breakdown**: the pipeline's
//! per-stage latency histograms (admission, queue wait, reorder dwell,
//! WAL append, fsync, ack hold, late margin) merged across shards and
//! summarized as `{count, p50, p90, p99, max, mean}`. Results go to
//! `BENCH_ingest.json` at the repository root, with a before/after
//! comparison against the committed numbers printed to stderr
//! (tolerant of missing or differently-shaped committed files — new
//! runs simply have no baseline).
//!
//! ```text
//! cargo run -p fenestra-bench --release --bin ingest_smoke [-- EVENTS]
//! # or one configuration only, merged into the committed file:
//! cargo run -p fenestra-bench --release --bin ingest_smoke -- \
//!     [EVENTS] --shards 4 [--fsync always]
//! ```
//!
//! This is a smoke benchmark (one run per config, wall-clock): it
//! exists to catch order-of-magnitude regressions and to document the
//! relative cost of each configuration, not to be a rigorous harness.

use fenestra_base::record::Event;
use fenestra_base::time::Duration as EventDuration;
use fenestra_base::value::Value;
use fenestra_server::{Server, ServerConfig};
use fenestra_temporal::{AttrSchema, FsyncPolicy};
use fenestra_wire::binary;
use serde_json::{Map, Number, Value as Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Group-commit cap for the shard sweep: 1, i.e. group commit OFF —
/// every event pays its own WAL append + fsync. The headline runs show
/// group commit amortizing a single WAL's fsyncs to near zero, which
/// leaves a single-WAL server bottlenecked elsewhere; what per-shard
/// WALs add is *independent fsync pipelines*, and this sweep isolates
/// exactly that: under per-event durability the disk's flush latency
/// is the floor, and N shards overlap N flushes (they are I/O waits,
/// so this parallelizes even on one core). One connection,
/// single-event lines: each event routes to exactly one shard, so
/// submission never waits on a straggler shard and the sweep stays
/// apples-to-apples across shard counts.
const SHARD_SWEEP_COMMIT_MAX: usize = 1;

/// Lateness bound for multi-connection runs: pipelined connections
/// race to the queue, so timestamps interleave slightly out of order.
/// The bound (in event-time ms == one unit per event) comfortably
/// covers the in-flight window of a handful of connections. Durable
/// acks inherit it: a frame's ack is held until the watermark passes
/// the frame, so conn-sweep ack latencies include that reorder delay.
const CONN_SWEEP_LATENESS: u64 = 2_000;

/// Frames between mid-stream `sync` probes on multi-connection runs.
/// Each reply proves everything the connection sent before it has been
/// *processed* (applied or counted late) — proof the send window below
/// can trust, where durable acks cannot serve: the last
/// lateness-bound's worth of acks is withheld until the watermark
/// advances, so an ack-based window tight enough to bound skew would
/// deadlock against its own held tail. Sync replies are never
/// watermark-held. Must stay below the window for the straggling
/// connection to keep unblocking itself.
const CONN_SWEEP_SYNC_EVERY: u64 = 64;

struct RunResult {
    label: String,
    events: u64,
    elapsed_ms: f64,
    events_per_sec: f64,
    ack_p50_us: f64,
    ack_p99_us: f64,
    wal_appends: u64,
    wal_bytes: u64,
    fsyncs: u64,
    ingest_batches: u64,
    ingest_batch_max: u64,
    group_commits: u64,
    acks_deferred: u64,
    late_dropped: u64,
    /// Per-stage latency summaries merged across shards
    /// (`{stage: {count, p50, p90, p99, max, mean}}`).
    stages: Json,
}

/// One event line. 100 visitors cycling through 10 rooms, moving to a
/// *new* room on every visit: every event is a real replace
/// (close + assert), the store's hot path.
fn event_json(i: u64) -> String {
    format!(
        r#"{{"stream":"s","ts":{},"visitor":"v{}","room":"r{}"}}"#,
        i + 1,
        i % 100,
        (i / 100) % 10
    )
}

/// One event of the wire-plane A/B workload, as JSONL. All events
/// share one timestamp and each carries a fresh visitor: with lateness
/// 0 every event applies the moment it arrives (constant ts can never
/// be late, distinct visitors can never conflict), so durable acks
/// release continuously with the group-commit fsyncs and the timed
/// window covers the whole live pipeline — no reorder dwell, no
/// end-of-run flush.
fn ab_event_json(i: u64) -> String {
    format!(
        r#"{{"stream":"s","ts":1,"visitor":"v{}","room":"r{}"}}"#,
        i,
        (i / 100) % 10
    )
}

/// The same event as [`ab_event_json`], as the struct the binary codec
/// encodes — the two planes carry an identical workload.
fn ab_event_struct(i: u64) -> Event {
    Event::from_pairs(
        "s",
        1u64,
        [
            ("visitor", Value::str(&format!("v{i}"))),
            ("room", Value::str(&format!("r{}", (i / 100) % 10))),
        ],
    )
}

/// One wire frame covering `n` events starting at logical index
/// `start`: a plain JSONL event when `n == 1`, a batch frame otherwise.
fn frame(start: u64, n: u64) -> String {
    if n == 1 {
        let mut s = event_json(start);
        s.push('\n');
        s
    } else {
        let evs: Vec<String> = (start..start + n).map(event_json).collect();
        format!("{{\"op\":\"ingest\",\"events\":[{}]}}\n", evs.join(","))
    }
}

/// One `GET /metrics` against the run's own listener: assert the body
/// is Prometheus text with shard-labeled stage histograms present.
fn scrape_metrics(maddr: std::net::SocketAddr) {
    use std::io::Read;
    let mut s = TcpStream::connect(maddr).expect("connect /metrics");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read scrape");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "bad scrape status: {}",
        response.lines().next().unwrap_or("")
    );
    for needle in [
        "# TYPE fenestra_stage_queue_wait_us histogram",
        "fenestra_stage_queue_wait_us_count{shard=\"0\"}",
        "fenestra_engine_events_total{shard=\"0\"}",
    ] {
        assert!(response.contains(needle), "scrape missing `{needle}`");
    }
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

fn run(
    label: &str,
    events: u64,
    wal: Option<(&Path, FsyncPolicy)>,
    frame_size: u64,
    connections: u64,
    shards: u32,
    batch_max: usize,
) -> RunResult {
    let mut config = ServerConfig::new("127.0.0.1:0")
        .queue_capacity(4096)
        .batch_max(batch_max)
        .shards(shards)
        .metrics_addr("127.0.0.1:0")
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on s\n replace $(visitor).room = room")
                .unwrap();
        });
    if connections > 1 {
        config.engine.max_lateness = EventDuration::millis(CONN_SWEEP_LATENESS);
    }
    if let Some((base, policy)) = wal {
        config = config.wal_path(base).fsync(policy);
    }
    let mut handle = Server::start(config).expect("start server");
    let addr = handle.local_addr();

    let per_conn_frames = events / (frame_size * connections);
    let per_conn_events = per_conn_frames * frame_size;
    let actual_events = per_conn_events * connections;
    // All reader threads plus the main thread: under `fsync always`
    // with a lateness bound the acks for the last ~bound worth of
    // events are withheld until the watermark passes them, so the main
    // thread must inject the watermark-advancing flush event after the
    // engine has *processed* every connection's frames (each reader's
    // sync barrier proves its connection's) but before the readers
    // can drain their final held acks. Waiting on processing — not
    // just on the senders' writes landing in socket buffers — also
    // keeps the far-future flush from making still-queued events late.
    let all_processed = Arc::new(Barrier::new(connections as usize + 1));
    // Frames *proven processed* per connection, published by each
    // reader as mid-stream sync replies come back. The send window
    // below paces every sender against the minimum across connections.
    let proven: Arc<Vec<AtomicU64>> =
        Arc::new((0..connections).map(|_| AtomicU64::new(0)).collect());
    let expected_syncs = if connections > 1 {
        (per_conn_frames - 1) / CONN_SWEEP_SYNC_EVERY + 1
    } else {
        1
    };

    let t0 = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let all_processed = Arc::clone(&all_processed);
            let proven = Arc::clone(&proven);
            let proven_pub = Arc::clone(&proven);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut input = stream.try_clone().expect("clone stream");
                // Acks drain on a separate thread so the socket buffers
                // never deadlock the sender; it stamps each arrival.
                let reader = std::thread::spawn(move || {
                    let mut recv_at = Vec::with_capacity(per_conn_frames as usize);
                    let mut lines = BufReader::new(stream).lines();
                    let mut syncs_seen = 0u64;
                    while recv_at.len() < per_conn_frames as usize || syncs_seen < expected_syncs {
                        let line = lines
                            .next()
                            .expect("connection closed early")
                            .expect("read reply");
                        assert!(line.contains("\"ok\":true"), "rejected: {line}");
                        if line.contains("\"synced\"") {
                            // Each sync reply proves every frame this
                            // connection sent before it is past the
                            // engine (applied, buffered, or counted
                            // late). The last one is the processing
                            // barrier: held acks for the buffered tail
                            // arrive after it, once the flush below
                            // advances the watermark.
                            syncs_seen += 1;
                            proven_pub[c as usize].store(
                                (syncs_seen * CONN_SWEEP_SYNC_EVERY).min(per_conn_frames),
                                Ordering::Release,
                            );
                            if syncs_seen == expected_syncs && connections > 1 {
                                all_processed.wait();
                            }
                        } else {
                            recv_at.push(Instant::now());
                        }
                    }
                    recv_at
                });
                let mut sent_at = Vec::with_capacity(per_conn_frames as usize);
                // Send window for multi-connection runs, sized well
                // under the lateness bound. Two generator artifacts
                // would otherwise drop events as late and pollute the
                // sweep: claiming timestamps from a shared counter at
                // send time leaves claimed-but-unsent gaps whenever a
                // sender is descheduled between claim and write, so
                // instead connection `c`'s i-th frame takes the
                // interleaved lease (i*connections + c) * frame_size
                // from its own write-time counter; and unbounded
                // pipelining lets a whole connection's stream sit in
                // socket buffers while another's is applied, skewing
                // event time across connections far beyond any fixed
                // bound, so each sender stalls once it runs `window`
                // frames past the *minimum* proven-processed count
                // across all connections. Anything the engine applies
                // was sent, and every sender stays within the window of
                // the straggler, so no applied timestamp can lead a
                // pending one by more than window * connections *
                // frame_size event-time units — under the lateness
                // bound by construction. The straggler itself always
                // unblocks: its own sync replies lift the minimum. One
                // connection reduces to the same monotone, unthrottled
                // stream as before.
                let window = (3 * CONN_SWEEP_LATENESS / 4) / (connections * frame_size);
                for i in 0..per_conn_frames {
                    if connections > 1 {
                        let floor = (i + 1).saturating_sub(window);
                        while proven
                            .iter()
                            .map(|p| p.load(Ordering::Acquire))
                            .min()
                            .unwrap_or(0)
                            < floor
                        {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                    let start = (i * connections + c) * frame_size;
                    let line = frame(start, frame_size);
                    sent_at.push(Instant::now());
                    input.write_all(line.as_bytes()).expect("send frame");
                    if connections > 1
                        && (i + 1) % CONN_SWEEP_SYNC_EVERY == 0
                        && i + 1 < per_conn_frames
                    {
                        writeln!(input, r#"{{"cmd":"sync"}}"#).expect("send sync probe");
                    }
                }
                // Processing barrier: the final sync reply proves every
                // frame this connection sent has been processed by the
                // engine (stats no longer round-trips through the
                // shards).
                writeln!(input, r#"{{"cmd":"sync"}}"#).expect("send sync");
                let recv_at = reader.join().expect("reader thread");
                sent_at
                    .iter()
                    .zip(&recv_at)
                    .map(|(s, r)| *r - *s)
                    .collect::<Vec<Duration>>()
            })
        })
        .collect();
    let _flush_conn = if connections > 1 {
        // Flush the reorder buffers: once the engine has processed
        // every connection's frames, far-future events advance the
        // watermark past everything, draining the buffered tail
        // (applied and WAL'd inside the timed window) and releasing its
        // held acks so the reader threads can finish. One event per
        // workload visitor, because under sharding each shard's
        // watermark advances independently and only events keyed into
        // a shard move it — reusing the workload's own visitors
        // guarantees every shard that buffered anything gets flushed.
        // The flush events' *own* acks stay held — nothing ever passes
        // the watermark beyond them — so only the stats reply is read,
        // and the connection is kept open until shutdown for the
        // unread acks.
        all_processed.wait();
        let stream = TcpStream::connect(addr).expect("connect flush");
        let mut input = stream.try_clone().expect("clone stream");
        let mut lines = BufReader::new(stream.try_clone().expect("clone stream")).lines();
        let ts = actual_events + CONN_SWEEP_LATENESS + 1_000;
        for v in 0..100 {
            writeln!(
                input,
                r#"{{"stream":"s","ts":{ts},"visitor":"v{v}","room":"done"}}"#
            )
            .expect("send flush");
        }
        writeln!(input, r#"{{"cmd":"sync"}}"#).expect("send sync");
        let line = lines.next().expect("flush reply").expect("read reply");
        assert!(line.contains("\"ok\":true"), "rejected: {line}");
        Some(stream)
    } else {
        None
    };
    let mut latencies: Vec<Duration> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("worker thread"));
    }
    let elapsed = t0.elapsed();
    latencies.sort();

    // Scrape the run's own Prometheus listener while the server is
    // still up: guards the exposition wiring under real load (the
    // integration tests do the full parsing).
    if let Some(maddr) = handle.metrics_addr() {
        scrape_metrics(maddr);
    }
    let m = handle.metrics();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let stages = handle.pipeline_obs().merged_stages().json();
    let result = RunResult {
        label: label.to_string(),
        events: actual_events,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        events_per_sec: actual_events as f64 / elapsed.as_secs_f64(),
        ack_p50_us: percentile_us(&latencies, 0.50),
        ack_p99_us: percentile_us(&latencies, 0.99),
        wal_appends: load(&m.wal_appends),
        wal_bytes: load(&m.wal_bytes),
        fsyncs: load(&m.fsyncs),
        ingest_batches: load(&m.ingest_batches),
        ingest_batch_max: load(&m.ingest_batch_max),
        group_commits: load(&m.group_commits),
        acks_deferred: load(&m.acks_deferred),
        late_dropped: load(&m.late_dropped),
        stages,
    };
    handle.shutdown();
    result
}

/// Which wire plane a [`run_plane`] worker speaks.
#[derive(Clone, Copy, PartialEq)]
enum Plane {
    Jsonl,
    Binary,
}

/// Wire-plane A/B at high connection counts: the same batch workload
/// pushed through the JSONL plane and the binary plane (`FNB1` magic,
/// length-prefixed CRC-framed batches) of one listener, under `fsync
/// always`. The [`ab_event_json`] workload (constant timestamp, fresh
/// visitor per event, lateness 0) applies every event on arrival, so
/// the run is one continuous pipeline: frames stream in unpaced from
/// every connection, shards apply and group-commit as they drain, and
/// each frame's durable ack releases with the fsync that covers it.
/// The timer runs from the moment every connection is armed until the
/// last connection has read its last ack and its sync-barrier reply.
/// Both planes pay identical engine/WAL/fsync costs on identical
/// shard parallelism, so the throughput ratio isolates the front
/// door: socket handling, frame parsing, routing, and ack writeback.
fn run_plane(
    label: &str,
    plane: Plane,
    conns: u64,
    frames_per_conn: u64,
    frame_size: u64,
    shards: u32,
    wal_dir: &Path,
) -> RunResult {
    let per_conn_events = frames_per_conn * frame_size;
    let total = conns * per_conn_events;
    // Queue capacity covers the whole run (every frame splits into up
    // to `shards` parts): the two planes react to a full queue
    // differently by design (connection threads block on the channel,
    // the reactor parks the connection and retries on its tick), and
    // either would measure backpressure scheduling, not the front
    // door this sweep isolates.
    let queue = (conns * frames_per_conn * shards as u64 * 2).max(4096) as usize;
    let config = ServerConfig::new("127.0.0.1:0")
        .queue_capacity(queue)
        .batch_max(512)
        .shards(shards)
        .wal_path(wal_dir)
        .fsync(FsyncPolicy::Always)
        // Pin the pool size instead of `--reactors 0` (min(cores, 4)):
        // on a 1-core runner auto picks a single reactor, whose CFS
        // share against 8 shard threads — not the front door — becomes
        // the bottleneck. Four is what auto picks on any 4+ core box.
        .reactors(4)
        .metrics_addr("127.0.0.1:0")
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on s\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let addr = handle.local_addr();

    // Pre-encode every connection's wire bytes: client-side encoding
    // is not the server's front door, so it stays off the clock.
    // Connection `c` owns the disjoint event-index range
    // [c*per_conn_events, (c+1)*per_conn_events) — a fresh visitor per
    // event, one shared timestamp (see [`ab_event_json`]).
    let payloads: Vec<Vec<Vec<u8>>> = (0..conns)
        .map(|c| {
            (0..frames_per_conn)
                .map(|i| {
                    let start = c * per_conn_events + i * frame_size;
                    match plane {
                        Plane::Jsonl => {
                            let evs: Vec<String> =
                                (start..start + frame_size).map(ab_event_json).collect();
                            format!("{{\"op\":\"ingest\",\"events\":[{}]}}\n", evs.join(","))
                                .into_bytes()
                        }
                        Plane::Binary => {
                            let events: Vec<Event> =
                                (start..start + frame_size).map(ab_event_struct).collect();
                            binary::encode_batch("s", &events).expect("encode batch")
                        }
                    }
                })
                .collect()
        })
        .collect();

    // The timer opens once every connection is accepted and armed.
    let start_gate = Arc::new(Barrier::new(conns as usize + 1));

    let workers: Vec<_> = payloads
        .into_iter()
        .map(|frames| {
            let start_gate = Arc::clone(&start_gate);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut input = stream.try_clone().expect("clone stream");
                if plane == Plane::Binary {
                    // Plane negotiation is handshake, not throughput.
                    input.write_all(&binary::MAGIC).expect("send magic");
                }
                let reader = std::thread::spawn(move || {
                    let mut recv_at = Vec::with_capacity(frames_per_conn as usize);
                    let mut synced = false;
                    match plane {
                        Plane::Jsonl => {
                            let mut lines = BufReader::new(stream).lines();
                            while recv_at.len() < frames_per_conn as usize || !synced {
                                let line = lines
                                    .next()
                                    .expect("connection closed early")
                                    .expect("read reply");
                                assert!(line.contains("\"ok\":true"), "rejected: {line}");
                                if line.contains("\"synced\"") {
                                    synced = true;
                                } else {
                                    recv_at.push(Instant::now());
                                }
                            }
                        }
                        Plane::Binary => {
                            let mut r = BufReader::new(stream);
                            while recv_at.len() < frames_per_conn as usize || !synced {
                                let f = binary::read_frame(&mut r, binary::DEFAULT_MAX_FRAME)
                                    .expect("read frame")
                                    .expect("connection closed early");
                                match f {
                                    binary::Frame::Ack { .. } => recv_at.push(Instant::now()),
                                    binary::Frame::Synced => synced = true,
                                    other => panic!("unexpected reply frame: {other:?}"),
                                }
                            }
                        }
                    }
                    recv_at
                });
                let mut sent_at = Vec::with_capacity(frames_per_conn as usize);
                start_gate.wait();
                for bytes in &frames {
                    sent_at.push(Instant::now());
                    input.write_all(bytes).expect("send frame");
                }
                match plane {
                    Plane::Jsonl => writeln!(input, r#"{{"cmd":"sync"}}"#).expect("send sync"),
                    Plane::Binary => input.write_all(&binary::encode_sync()).expect("send sync"),
                }
                let recv_at = reader.join().expect("reader thread");
                sent_at
                    .iter()
                    .zip(&recv_at)
                    .map(|(s, r)| *r - *s)
                    .collect::<Vec<Duration>>()
            })
        })
        .collect();
    start_gate.wait();
    let t0 = Instant::now();

    let mut latencies: Vec<Duration> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("worker thread"));
    }
    let elapsed = t0.elapsed();
    latencies.sort();

    if let Some(maddr) = handle.metrics_addr() {
        scrape_metrics(maddr);
    }
    let m = handle.metrics();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let stages = handle.pipeline_obs().merged_stages().json();
    let result = RunResult {
        label: label.to_string(),
        events: total,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        events_per_sec: total as f64 / elapsed.as_secs_f64(),
        ack_p50_us: percentile_us(&latencies, 0.50),
        ack_p99_us: percentile_us(&latencies, 0.99),
        wal_appends: load(&m.wal_appends),
        wal_bytes: load(&m.wal_bytes),
        fsyncs: load(&m.fsyncs),
        ingest_batches: load(&m.ingest_batches),
        ingest_batch_max: load(&m.ingest_batch_max),
        group_commits: load(&m.group_commits),
        acks_deferred: load(&m.acks_deferred),
        late_dropped: load(&m.late_dropped),
        stages,
    };
    assert_eq!(
        result.late_dropped, 0,
        "{label}: a constant-timestamp workload can never be late"
    );
    handle.shutdown();
    result
}

fn result_json(r: &RunResult) -> Json {
    let float = |f: f64| {
        Json::Number(Number::from_f64((f * 10.0).round() / 10.0).unwrap_or_else(|| 0.into()))
    };
    let mut obj = Map::new();
    obj.insert("events".into(), Json::from(r.events));
    obj.insert("elapsed_ms".into(), float(r.elapsed_ms));
    obj.insert("events_per_sec".into(), float(r.events_per_sec));
    obj.insert("ack_p50_us".into(), float(r.ack_p50_us));
    obj.insert("ack_p99_us".into(), float(r.ack_p99_us));
    obj.insert("wal_appends".into(), Json::from(r.wal_appends));
    obj.insert("wal_bytes".into(), Json::from(r.wal_bytes));
    obj.insert("fsyncs".into(), Json::from(r.fsyncs));
    obj.insert("ingest_batches".into(), Json::from(r.ingest_batches));
    obj.insert("ingest_batch_max".into(), Json::from(r.ingest_batch_max));
    obj.insert("group_commits".into(), Json::from(r.group_commits));
    obj.insert("acks_deferred".into(), Json::from(r.acks_deferred));
    obj.insert("late_dropped".into(), Json::from(r.late_dropped));
    obj.insert("stages".into(), r.stages.clone());
    Json::Object(obj)
}

fn print_run(r: &RunResult) {
    eprintln!(
        "{:<14} {:>9.1} events/s  (ack p50 {:>7.0}us p99 {:>7.0}us, {} fsyncs, {} group commits)",
        r.label, r.events_per_sec, r.ack_p50_us, r.ack_p99_us, r.fsyncs, r.group_commits
    );
}

/// One line per pipeline stage with samples: where the time went.
fn print_stages(r: &RunResult) {
    let Some(stages) = r.stages.as_object() else {
        return;
    };
    for (stage, s) in stages {
        let count = s.get("count").and_then(Json::as_u64).unwrap_or(0);
        if count == 0 {
            continue;
        }
        let q = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
        eprintln!(
            "    {:<18} count {:>7}  p50 {:>7}  p99 {:>9}  max {:>9}",
            stage,
            count,
            q("p50"),
            q("p99"),
            q("max")
        );
    }
}

/// The committed number for `path.to.label.events_per_sec`, if the
/// committed file exists and has that shape (tolerant: any mismatch is
/// just "no baseline").
fn committed_rate(old: &Option<Json>, path: &[&str], label: &str) -> Option<f64> {
    let mut node = old.as_ref()?;
    for key in path {
        node = node.get(key)?;
    }
    node.get(label)?.get("events_per_sec")?.as_f64()
}

fn print_before_after(old: &Option<Json>, path: &[&str], r: &RunResult) {
    match committed_rate(old, path, &r.label) {
        Some(b) if b > 0.0 => eprintln!(
            "{:<14} {:>9.1} -> {:>9.1} events/s  ({:.2}x)",
            r.label,
            b,
            r.events_per_sec,
            r.events_per_sec / b
        ),
        _ => eprintln!("{:<14} (no committed baseline)", r.label),
    }
}

fn main() {
    let mut events: u64 = 20_000;
    let mut only_shards: Option<u32> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                let v = args.next().expect("--shards needs a value");
                only_shards = Some(v.parse().expect("--shards must be an integer"));
            }
            "--fsync" => {
                let v = args.next().expect("--fsync needs a value");
                fsync = v.parse().expect("bad --fsync policy");
            }
            n => events = n.parse().expect("EVENTS must be an integer"),
        }
    }

    let dir = std::env::temp_dir().join(format!("fenestra-ingest-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ingest.json");
    let committed: Option<Json> = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());

    // Single-configuration mode: run one shard count and merge it into
    // the committed file without disturbing the other numbers.
    if let Some(n) = only_shards {
        let label = format!("shards-{n}");
        let r = run(
            &label,
            events,
            Some((&dir.join("only"), fsync)),
            1,
            1,
            n.max(1),
            SHARD_SWEEP_COMMIT_MAX,
        );
        print_run(&r);
        print_before_after(&committed, &["sweeps", "shards"], &r);
        let _ = std::fs::remove_dir_all(&dir);
        let mut root = match committed {
            Some(Json::Object(m)) => m,
            _ => {
                let mut m = Map::new();
                m.insert("benchmark".into(), Json::from("ingest_smoke"));
                m
            }
        };
        let mut sweeps = match root.remove("sweeps") {
            Some(Json::Object(m)) => m,
            _ => Map::new(),
        };
        let mut shards = match sweeps.remove("shards") {
            Some(Json::Object(m)) => m,
            _ => Map::new(),
        };
        shards.insert(label, result_json(&r));
        sweeps.insert("shards".into(), Json::Object(shards));
        root.insert("sweeps".into(), Json::Object(sweeps));
        let mut text = Json::Object(root).to_string();
        text.push('\n');
        std::fs::write(&out, text).expect("write BENCH_ingest.json");
        eprintln!("merged into {}", out.display());
        return;
    }

    // Headline runs: one connection, single-event lines, the three
    // fsync policies. Group commit still engages (the engine coalesces
    // the pipelined queue), which is exactly the production shape.
    eprintln!("-- fsync policies (1 connection, single-event lines) --");
    let main_runs = [
        run("wal-off", events, None, 1, 1, 1, 512),
        run(
            "wal-every-64",
            events,
            Some((&dir.join("every64"), FsyncPolicy::EveryN(64))),
            1,
            1,
            1,
            512,
        ),
        run(
            "wal-always",
            events,
            Some((&dir.join("always"), FsyncPolicy::Always)),
            1,
            1,
            1,
            512,
        ),
    ];
    for r in &main_runs {
        print_run(r);
    }
    eprintln!("wal-always stage breakdown (µs; late_margin in ms):");
    print_stages(&main_runs[2]);

    // Client batch-frame sweep under strict durability.
    eprintln!("-- batch frames (1 connection, fsync always) --");
    let batch_runs: Vec<RunResult> = [8u64, 64, 512]
        .iter()
        .map(|&n| {
            run(
                &format!("batch-{n}"),
                events,
                Some((&dir.join(format!("batch{n}")), FsyncPolicy::Always)),
                n,
                1,
                1,
                512,
            )
        })
        .collect();
    for r in &batch_runs {
        print_run(r);
    }

    // Connection sweep under strict durability: the group commit
    // coalesces across connections.
    eprintln!("-- connections (single-event lines, fsync always) --");
    let conn_runs: Vec<RunResult> = [4u64, 8]
        .iter()
        .map(|&n| {
            run(
                &format!("conns-{n}"),
                events,
                Some((&dir.join(format!("conns{n}")), FsyncPolicy::Always)),
                1,
                n,
                1,
                512,
            )
        })
        .collect();
    for r in &conn_runs {
        print_run(r);
        if r.late_dropped > 0 {
            eprintln!(
                "  {} of {} events dropped late — stage breakdown:",
                r.late_dropped, r.events
            );
            print_stages(r);
        }
    }

    // Shard sweep under per-event durability (group commit off): each
    // event pays a full WAL append + fsync, and per-shard WALs overlap
    // those flushes — see SHARD_SWEEP_COMMIT_MAX for why this is the
    // configuration where shard scaling is actually measurable.
    eprintln!("-- shards (1 connection, per-event commit, fsync always) --");
    let shard_runs: Vec<RunResult> = [1u32, 2, 4, 8]
        .iter()
        .map(|&n| {
            run(
                &format!("shards-{n}"),
                events,
                Some((&dir.join(format!("shards{n}")), FsyncPolicy::Always)),
                1,
                1,
                n,
                SHARD_SWEEP_COMMIT_MAX,
            )
        })
        .collect();
    for r in &shard_runs {
        print_run(r);
    }

    // Wire-plane A/B at 256 pipelined connections: the same batch
    // workload through the JSONL plane and the binary plane of one
    // listener; the ratio isolates front-door (parse + route) cost.
    const AB_CONNS: u64 = 256;
    const AB_FRAMES: u64 = 20;
    const AB_FRAME_SIZE: u64 = 16;
    const AB_SHARDS: u32 = 8;
    eprintln!("-- wire planes (256 connections, 16-event frames, 8 shards, fsync always) --");
    // One run per plane is not a measurement on a shared disk:
    // ambient fsync latency swings a single run by ±40%, easily
    // drowning the front-door difference. Interleave three rounds
    // per plane (J,B,J,B,J,B) so slow-disk minutes hit both planes
    // alike, then score each plane by its median-throughput round.
    const AB_ROUNDS: usize = 3;
    let mut jsonl_rounds = Vec::with_capacity(AB_ROUNDS);
    let mut binary_rounds = Vec::with_capacity(AB_ROUNDS);
    for round in 0..AB_ROUNDS {
        jsonl_rounds.push(run_plane(
            "jsonl-conns-256",
            Plane::Jsonl,
            AB_CONNS,
            AB_FRAMES,
            AB_FRAME_SIZE,
            AB_SHARDS,
            &dir.join(format!("jsonl256-{round}")),
        ));
        binary_rounds.push(run_plane(
            "binary-conns-256",
            Plane::Binary,
            AB_CONNS,
            AB_FRAMES,
            AB_FRAME_SIZE,
            AB_SHARDS,
            &dir.join(format!("bin256-{round}")),
        ));
    }
    let median = |mut rounds: Vec<RunResult>| -> RunResult {
        rounds.sort_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec));
        rounds.remove(rounds.len() / 2)
    };
    let plane_runs = [median(jsonl_rounds), median(binary_rounds)];
    for r in &plane_runs {
        print_run(r);
    }
    eprintln!("binary-conns-256 decode/dispatch breakdown (µs):");
    print_stages(&plane_runs[1]);
    let plane_ratio = plane_runs[1].events_per_sec / plane_runs[0].events_per_sec;
    let _ = std::fs::remove_dir_all(&dir);

    let mut root = Map::new();
    root.insert("benchmark".into(), Json::from("ingest_smoke"));
    root.insert("events".into(), Json::from(events));
    let mut by_label = Map::new();
    for r in &main_runs {
        by_label.insert(r.label.clone(), result_json(r));
    }
    root.insert("runs".into(), Json::Object(by_label));
    let mut sweeps = Map::new();
    let mut batch = Map::new();
    for r in &batch_runs {
        batch.insert(r.label.clone(), result_json(r));
    }
    sweeps.insert("batch_frames".into(), Json::Object(batch));
    let mut conns = Map::new();
    for r in &conn_runs {
        conns.insert(r.label.clone(), result_json(r));
    }
    sweeps.insert("connections".into(), Json::Object(conns));
    let mut shards_obj = Map::new();
    for r in &shard_runs {
        shards_obj.insert(r.label.clone(), result_json(r));
    }
    sweeps.insert("shards".into(), Json::Object(shards_obj));
    let mut planes = Map::new();
    for r in &plane_runs {
        planes.insert(r.label.clone(), result_json(r));
    }
    planes.insert(
        "binary_vs_jsonl".into(),
        Json::Number(
            Number::from_f64((plane_ratio * 100.0).round() / 100.0).unwrap_or_else(|| 0.into()),
        ),
    );
    sweeps.insert("planes".into(), Json::Object(planes));
    root.insert("sweeps".into(), Json::Object(sweeps));

    // Before/after against the committed numbers (CI surfaces this as
    // a non-gating signal).
    if committed.is_some() {
        eprintln!("-- before/after vs committed BENCH_ingest.json --");
        for r in &main_runs {
            print_before_after(&committed, &["runs"], r);
        }
        for r in &shard_runs {
            print_before_after(&committed, &["sweeps", "shards"], r);
        }
    }
    let off = main_runs[0].events_per_sec;
    let always = main_runs[2].events_per_sec;
    eprintln!(
        "wal-always runs at {:.1}% of wal-off ({:.1}x slowdown)",
        always / off * 100.0,
        off / always
    );
    let (s1, s4) = (shard_runs[0].events_per_sec, shard_runs[2].events_per_sec);
    eprintln!(
        "shards-4 runs at {:.2}x shards-1 under fsync always",
        s4 / s1
    );
    eprintln!("binary plane runs at {plane_ratio:.2}x the JSONL plane at {AB_CONNS} connections");

    let mut text = Json::Object(root).to_string();
    text.push('\n');
    std::fs::write(&out, text).expect("write BENCH_ingest.json");
    eprintln!("wrote {}", out.display());
}
