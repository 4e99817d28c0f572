//! End-to-end exercise of `fenestrad`'s wire protocol: concurrent
//! ingest over two connections, live + historical queries mid-stream,
//! watch pushes, stats, graceful shutdown, and snapshot replay.

use fenestra::base::time::Duration;
use fenestra::core::EngineConfig;
use fenestra::server::{Server, ServerConfig};
use fenestra::temporal::AttrSchema;
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One protocol client: line-oriented send/receive with a read
/// timeout so a protocol bug fails the test instead of hanging it.
struct Client {
    out: TcpStream,
    lines: std::io::Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let out = TcpStream::connect(addr).expect("connect");
        out.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let lines = BufReader::new(out.try_clone().unwrap()).lines();
        Client { out, lines }
    }

    fn send(&mut self, line: &str) {
        // One write: `writeln!` sends the newline as a second segment,
        // which this client's Nagle holds until the server's ACK.
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Json {
        let line = self
            .lines
            .next()
            .expect("connection closed early")
            .expect("read");
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad reply `{line}`: {e}"))
    }

    /// Round-trip one request.
    fn call(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }

    /// Read replies until `pred` matches, returning the skipped lines
    /// and the match (acks and watch pushes interleave on one socket).
    fn recv_until(&mut self, pred: impl Fn(&Json) -> bool) -> (Vec<Json>, Json) {
        let mut skipped = Vec::new();
        for _ in 0..1000 {
            let v = self.recv();
            if pred(&v) {
                return (skipped, v);
            }
            skipped.push(v);
        }
        panic!("no matching reply in 1000 lines; skipped: {skipped:?}");
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn event(ts: u64, visitor: &str, room: &str) -> String {
    format!(r#"{{"stream":"sensors","ts":{ts},"visitor":"{visitor}","room":"{room}"}}"#)
}

#[test]
fn fenestrad_end_to_end() {
    let dir = std::env::temp_dir().join(format!("fenestrad-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("state.json");

    // A one-hour lateness bound keeps the two connections' interleaved
    // timestamps safe; "drain" events far in the future advance the
    // watermark deterministically when the test needs visibility.
    let config = ServerConfig::new("127.0.0.1:0")
        .engine(EngineConfig {
            max_lateness: Duration::hours(1),
            ..EngineConfig::default()
        })
        .snapshot_path(&snapshot)
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let addr = handle.local_addr();

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);

    // Register a watch before any data exists: ack, no initial rows.
    let ack = a.call(r#"{"cmd":"watch","name":"lab","q":"select ?v where { ?v room \"lab\" }"}"#);
    assert_eq!(ack.get("watch").and_then(Json::as_str), Some("lab"));

    // Concurrent ingest: 150 events per connection. The `a*` visitors
    // start in the lobby and move to the lab; the `b*` visitors stay
    // in the lobby.
    let send_phase = |client: &mut Client, prefix: &str, lab_after: usize| {
        for i in 0..150usize {
            let room = if i < lab_after { "lobby" } else { "lab" };
            client.send(&event(1000 + i as u64, &format!("{prefix}{}", i % 5), room));
        }
        let mut top_seq = 0;
        for _ in 0..150 {
            let v = client.recv();
            assert!(ok(&v), "ingest rejected: {v}");
            top_seq = v.get("seq").and_then(Json::as_u64).unwrap();
        }
        top_seq
    };
    let b_thread = std::thread::spawn({
        let mut b2 = Client::connect(addr);
        move || {
            send_phase(&mut b2, "b", usize::MAX);
            b2
        }
    });
    let a_seq = send_phase(&mut a, "a", 75);
    let _b2 = b_thread.join().unwrap();
    assert_eq!(a_seq, 150, "per-connection sequence numbers");

    // Advance the watermark past the phase-1 events; the five `a*`
    // visitors enter the watched lab view.
    a.send(&event(4_000_000, "alice", "attic"));
    let mut deltas = Vec::new();
    while deltas.len() < 5 {
        let (skipped, v) = a.recv_until(|v| v.get("watch").is_some() || ok(v));
        assert!(skipped.is_empty(), "unexpected replies: {skipped:?}");
        if v.get("watch").is_some() {
            deltas.push(v);
        }
    }
    for d in &deltas {
        assert_eq!(d.get("sign").and_then(Json::as_i64), Some(1), "{d}");
        let who = d
            .get("row")
            .and_then(|r| r.get("v"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(who.starts_with('a'), "only a* reached the lab: {d}");
    }

    // Live query from the other connection: lab occupancy is visible.
    let v = b.call(r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#);
    assert!(ok(&v), "{v}");
    assert_eq!(v.get("rows").and_then(Json::as_array).unwrap().len(), 5);

    // Historical query mid-stream: at t=1050 everyone was in the lobby.
    let v = b.call(r#"{"cmd":"query","q":"select ?v where { ?v room \"lobby\" } asof 1050"}"#);
    assert_eq!(v.get("rows").and_then(Json::as_array).unwrap().len(), 10);

    // Timeline of one entity over the wire.
    let v = b.call(r#"{"cmd":"query","q":"history a0 room"}"#);
    let spans = v.get("history").and_then(Json::as_array).unwrap();
    assert!(spans.len() >= 2, "lobby then lab: {v}");

    // A later correction pushes a0 out of the watched view (sign −1).
    let v = b.call(&event(4_000_100, "a0", "lobby"));
    assert!(ok(&v));
    let v = b.call(&event(8_000_000, "alice", "attic"));
    assert!(ok(&v));
    let (_skipped, d) = a.recv_until(|v| v.get("watch").is_some());
    assert_eq!(d.get("sign").and_then(Json::as_i64), Some(-1), "{d}");
    assert_eq!(
        d.get("row").and_then(|r| r.get("v")).and_then(Json::as_str),
        Some("a0")
    );

    // Sync: the processing barrier (stats reads atomics and is not
    // one); its reply proves every prior event has been applied.
    let v = b.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    // Stats: engine and server counters over the wire.
    let v = b.call(r#"{"cmd":"stats"}"#);
    assert!(ok(&v), "{v}");
    let engine = v.get("engine").unwrap();
    let server = v.get("server").unwrap();
    assert_eq!(engine.get("events").and_then(Json::as_u64), Some(303));
    assert_eq!(server.get("events").and_then(Json::as_u64), Some(303));
    assert_eq!(server.get("connections").and_then(Json::as_u64), Some(3));
    assert_eq!(server.get("watches").and_then(Json::as_u64), Some(1));
    assert_eq!(server.get("queries").and_then(Json::as_u64), Some(3));
    assert!(server.get("bytes_in").and_then(Json::as_u64).unwrap() > 0);
    assert!(server.get("bytes_out").and_then(Json::as_u64).unwrap() > 0);

    // Graceful shutdown over the wire: drains, snapshots, exits.
    let v = b.call(r#"{"cmd":"shutdown"}"#);
    assert!(v.get("bye").is_some(), "{v}");
    handle.join();

    // The snapshot replays into an equivalent store: a0 ended in the
    // lobby, a1..a4 in the lab.
    let store = fenestra::temporal::persist::load(&snapshot).expect("snapshot loads");
    let q = match fenestra::query::parse_query(r#"select ?v where { ?v room "lab" }"#).unwrap() {
        fenestra::query::ParsedQuery::Select(q) => q,
        _ => unreachable!(),
    };
    let rows = fenestra::query::execute(&store, &q).unwrap();
    assert_eq!(rows.len(), 4, "a0 left the lab before shutdown");
    assert!(!store.wal().is_empty(), "snapshot carries the WAL");

    std::fs::remove_dir_all(&dir).ok();
}

/// Many connections ingesting concurrently — a mix of single-event
/// lines and `{"op":"ingest","events":[…]}` batch frames — land every
/// event exactly once, per-connection sequence numbers count events
/// (not frames), and the group-commit counters show up in `stats`.
#[test]
fn concurrent_ingest_mixes_batch_and_single_frames() {
    const THREADS: usize = 4;
    const EVENTS: usize = 120; // per connection; divisible by the batch size
    const BATCH: usize = 12;

    let config = ServerConfig::new("127.0.0.1:0")
        .engine(EngineConfig {
            max_lateness: Duration::hours(1),
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let addr = handle.local_addr();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut last_seq = 0;
                if t % 2 == 0 {
                    // Single-event lines, pipelined.
                    for i in 0..EVENTS {
                        c.send(&event(1000 + i as u64, &format!("t{t}v{i}"), "hall"));
                    }
                    for _ in 0..EVENTS {
                        let v = c.recv();
                        assert!(ok(&v), "ingest rejected: {v}");
                        last_seq = v.get("seq").and_then(Json::as_u64).unwrap();
                    }
                } else {
                    // Batch frames, pipelined.
                    for chunk in 0..EVENTS / BATCH {
                        let evs: Vec<String> = (0..BATCH)
                            .map(|j| {
                                let i = chunk * BATCH + j;
                                event(1000 + i as u64, &format!("t{t}v{i}"), "hall")
                            })
                            .collect();
                        c.send(&format!(
                            r#"{{"op":"ingest","events":[{}]}}"#,
                            evs.join(",")
                        ));
                    }
                    for _ in 0..EVENTS / BATCH {
                        let v = c.recv();
                        assert!(ok(&v), "batch rejected: {v}");
                        assert_eq!(
                            v.get("count").and_then(Json::as_u64),
                            Some(BATCH as u64),
                            "{v}"
                        );
                        last_seq = v.get("seq").and_then(Json::as_u64).unwrap();
                    }
                }
                assert_eq!(last_seq, EVENTS as u64, "seq counts events, not frames");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let total = (THREADS * EVENTS) as u64;
    let mut c = Client::connect(addr);
    // Advance the watermark so everything is visible to queries.
    let v = c.call(&event(4_000_000, "drain", "attic"));
    assert!(ok(&v));
    // `stats` is lock-light and not a barrier; `sync` is — its reply
    // proves every shard has processed everything admitted above.
    let v = c.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    let v = c.call(r#"{"cmd":"stats"}"#);
    assert!(ok(&v), "{v}");
    let server = v.get("server").unwrap();
    let engine = v.get("engine").unwrap();
    assert_eq!(
        server.get("events").and_then(Json::as_u64),
        Some(total + 1),
        "every event admitted exactly once: {server}"
    );
    assert_eq!(server.get("late_dropped").and_then(Json::as_u64), Some(0));
    assert_eq!(engine.get("events").and_then(Json::as_u64), Some(total + 1));
    // Batch accounting: every admitted event went through a batch, and
    // at least the client batch frames were applied whole.
    let batches = server.get("ingest_batches").and_then(Json::as_u64).unwrap();
    let batched = server
        .get("ingest_batched_events")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(batched, total + 1, "{server}");
    assert!(batches >= 1 && batches <= batched, "{server}");
    assert!(
        server
            .get("ingest_batch_max")
            .and_then(Json::as_u64)
            .unwrap()
            >= BATCH as u64,
        "a client batch frame is applied whole: {server}"
    );
    assert!(
        server
            .get("ingest_batch_mean")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0,
        "{server}"
    );
    for key in ["group_commits", "acks_deferred"] {
        assert!(server.get(key).is_some(), "missing {key}: {server}");
    }

    // Spot-check: batched and single-frame events produced the same
    // kind of state — all distinct visitors are in the hall.
    let v = c.call(r#"{"cmd":"query","q":"select ?v where { ?v room \"hall\" }"}"#);
    assert!(ok(&v), "{v}");
    assert_eq!(
        v.get("rows").and_then(Json::as_array).unwrap().len(),
        THREADS * EVENTS,
        "one row per distinct visitor"
    );

    handle.shutdown();
}

/// Durable-ack mode (WAL + `always` fsync) with a lateness bound: an
/// ack is withheld until the watermark passes its events (a buffered
/// event has produced no WAL ops, so no fsync covers it yet), and the
/// per-connection ack stream stays in admission order — an empty batch
/// frame's ack must not overtake the held ack of an earlier frame.
#[test]
fn durable_acks_release_in_order_once_covered() {
    let dir = std::env::temp_dir().join(format!("fenestrad-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = ServerConfig::new("127.0.0.1:0")
        .wal_path(dir.join("log")) // fsync defaults to `always`
        .engine(EngineConfig {
            max_lateness: Duration::millis(5_000),
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let mut c = Client::connect(handle.local_addr());

    // Frame 1 buffers inside the lateness bound: its ack is held.
    c.send(&event(10_000, "a", "lobby"));
    // Frame 2 is an empty batch: trivially durable, but its ack must
    // still wait behind frame 1's.
    c.send(r#"{"op":"ingest","events":[]}"#);
    // Frame 3 advances the watermark past frame 1 (to 15_000),
    // releasing acks 1 then 2; frame 3 itself is now the buffered one.
    c.send(&event(20_000, "b", "hall"));

    let v1 = c.recv();
    assert_eq!(v1.get("seq").and_then(Json::as_u64), Some(1), "{v1}");
    assert!(
        v1.get("count").is_none(),
        "event ack first, empty-frame ack must not overtake it: {v1}"
    );
    let v2 = c.recv();
    assert_eq!(v2.get("count").and_then(Json::as_u64), Some(0), "{v2}");
    assert_eq!(v2.get("seq").and_then(Json::as_u64), Some(1), "{v2}");

    // Shutdown drains the reorder buffer and checkpoints, releasing
    // frame 3's held ack before the bye — still in order.
    c.send(r#"{"cmd":"shutdown"}"#);
    let v3 = c.recv();
    assert_eq!(v3.get("seq").and_then(Json::as_u64), Some(2), "{v3}");
    let v4 = c.recv();
    assert!(v4.get("bye").is_some(), "{v4}");
    handle.join();
    assert_eq!(
        handle
            .metrics()
            .acks_deferred
            .load(std::sync::atomic::Ordering::Relaxed),
        3,
        "all three admitted frames deferred their acks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Held acks release in admission order *per connection*, not
/// globally: the stream-head frame's ack can stay held for a long time
/// (nothing has passed the watermark beyond it), and a frame another
/// connection admits behind it — here one dropped as late, which left
/// nothing behind to persist — must still ack promptly instead of
/// queueing behind the head forever.
#[test]
fn held_ack_on_one_connection_does_not_starve_others() {
    let dir = std::env::temp_dir().join(format!("fenestrad-starve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = ServerConfig::new("127.0.0.1:0")
        .wal_path(dir.join("log")) // fsync defaults to `always`
        .engine(EngineConfig {
            max_lateness: Duration::millis(5_000),
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let mut a = Client::connect(handle.local_addr());
    let mut b = Client::connect(handle.local_addr());

    // Conn A pushes the stream head: the event buffers at 10_000 with
    // the watermark at 5_000, so its ack is held. The sync round-trip
    // (sync replies are never held) proves the engine has processed
    // the event before conn B sends anything.
    a.send(&event(10_000, "a", "lobby"));
    let s = a.call(r#"{"cmd":"sync"}"#);
    assert_eq!(
        s.get("synced").and_then(Json::as_bool),
        Some(true),
        "expected the sync reply (the event ack must still be held): {s}"
    );

    // Conn B's event is beyond the lateness bound: dropped as late, no
    // journal ops, nothing left to make durable. Its ack must arrive
    // even though conn A's earlier ack is still held.
    b.send(&event(100, "b", "hall"));
    let vb = b.recv();
    assert!(ok(&vb), "{vb}");
    assert_eq!(vb.get("seq").and_then(Json::as_u64), Some(1), "{vb}");

    // Shutdown drains the buffer and checkpoints, releasing conn A's
    // held ack; the bye still follows it into conn B's stream.
    b.send(r#"{"cmd":"shutdown"}"#);
    let bye = b.recv();
    assert!(bye.get("bye").is_some(), "{bye}");
    let va = a.recv();
    assert_eq!(va.get("seq").and_then(Json::as_u64), Some(1), "{va}");
    handle.join();

    let m = handle.metrics();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&m.acks_deferred), 2, "both admitted frames deferred");
    assert_eq!(load(&m.late_dropped), 1, "conn B's event was late");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scrape the optional `/metrics` listener during a durable-ack run:
/// the reply is Prometheus 0.0.4 text exposition, every sample line
/// parses, per-shard stage histograms are present, and the counters
/// obey cross-family invariants (`acks_released <= acks_deferred <=
/// events admitted` once a `sync` has settled the sole connection).
#[test]
fn metrics_listener_serves_parseable_prometheus_text() {
    let dir = std::env::temp_dir().join(format!("fenestrad-prom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = ServerConfig::new("127.0.0.1:0")
        .metrics_addr("127.0.0.1:0")
        .shards(2)
        .wal_path(dir.join("log")) // fsync defaults to `always`
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let maddr = handle.metrics_addr().expect("metrics listener bound");
    let mut c = Client::connect(handle.local_addr());

    // 16 durable single-event frames across many entity keys, so both
    // shards see traffic; all acks release (lateness 0), then sync
    // settles the deferred/released counters.
    const N: u64 = 16;
    for i in 0..N {
        let v = c.call(&event(1000 + i, &format!("v{i}"), "hall"));
        assert!(ok(&v), "{v}");
    }
    let v = c.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    // Plain HTTP GET against the second listener.
    let mut m = TcpStream::connect(maddr).expect("connect metrics");
    m.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    write!(m, "GET /metrics HTTP/1.1\r\nHost: fenestra\r\n\r\n").unwrap();
    let mut response = String::new();
    use std::io::Read;
    m.read_to_string(&mut response).expect("read response");

    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus content type: {head}"
    );

    // Every sample line parses as `name{labels} value` with an
    // unsigned integer value.
    let mut samples = std::collections::BTreeMap::new();
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line}"));
        let value: u64 = value
            .parse()
            .unwrap_or_else(|e| panic!("bad value in `{line}`: {e}"));
        samples.insert(series.to_string(), value);
    }
    let get = |series: &str| {
        *samples
            .get(series)
            .unwrap_or_else(|| panic!("missing series {series} in:\n{body}"))
    };

    // Per-shard stage histograms exist for both shards, and each
    // family's +Inf bucket equals its _count.
    for shard in 0..2 {
        for stage in ["queue_wait_us", "wal_append_us", "fsync_us", "ack_hold_us"] {
            let inf = get(&format!(
                "fenestra_stage_{stage}_bucket{{shard=\"{shard}\",le=\"+Inf\"}}"
            ));
            let count = get(&format!(
                "fenestra_stage_{stage}_count{{shard=\"{shard}\"}}"
            ));
            assert_eq!(
                inf, count,
                "+Inf bucket is the total: {stage} shard {shard}"
            );
            assert!(count > 0, "shard {shard} saw {stage} samples");
        }
    }

    // Cross-family invariants after the sync settled the connection.
    let admitted = get("fenestra_server_events_total");
    let deferred = get("fenestra_server_acks_deferred_total");
    let released = get("fenestra_server_acks_released_total");
    assert_eq!(admitted, N);
    assert!(
        released <= deferred,
        "released {released} <= deferred {deferred}"
    );
    assert!(
        deferred <= admitted + 1,
        "one deferral per frame: {deferred}"
    );
    assert_eq!(released, deferred, "every held ack released (lateness 0)");
    assert_eq!(
        get("fenestra_engine_events_total{shard=\"0\"}")
            + get("fenestra_engine_events_total{shard=\"1\"}"),
        N,
        "shard engine counters sum to the admitted total"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the (since fixed) `ingest_smoke --conns 4/8`
/// late-drop anomaly: connections that claim timestamps from a shared
/// counter at *send* time but deliver independently can fall behind
/// the watermark that the fastest connection drives forward; once
/// claim-to-apply skew exceeds the lateness bound, the slow
/// connection's whole backlog is dropped as late. The lateness-margin
/// histogram attributes the drops and measures how far past the bound
/// they were. The bench generator now avoids the artifact (interleaved
/// write-time timestamp leases plus a sync-proven send window pacing
/// every sender against the straggling connection); this test keeps
/// pinning the server-side mechanism it exposed — late events are
/// acked, then dropped, with their margins attributed per stage and
/// per shard.
#[test]
fn skewed_connection_drops_attributed_with_lateness_margins() {
    let config = ServerConfig::new("127.0.0.1:0")
        .engine(EngineConfig {
            max_lateness: Duration::millis(2_000), // the smoke test's bound
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let mut fast = Client::connect(handle.local_addr());
    let mut slow = Client::connect(handle.local_addr());

    // The "fast" connection races ahead: its latest claim (ts 10_000)
    // drives the watermark to 8_000. The sync proves it was applied.
    let v = fast.call(&event(10_000, "f", "hall"));
    assert!(ok(&v), "{v}");
    let v = fast.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    // The "slow" connection now delivers timestamps it claimed long
    // ago — 7_000 and 5_000 ms behind the watermark, far beyond the
    // 2_000 ms bound. Both are admitted (acked) but dropped as late.
    for ts in [1_000u64, 3_000] {
        let v = slow.call(&event(ts, "s", "hall"));
        assert!(ok(&v), "late events are acked, then dropped: {v}");
    }
    let v = slow.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    let v = slow.call(r#"{"cmd":"stats"}"#);
    assert!(ok(&v), "{v}");
    let server = v.get("server").unwrap();
    assert_eq!(
        server.get("late_dropped").and_then(Json::as_u64),
        Some(2),
        "the slow connection's backlog was dropped: {server}"
    );
    // The margin histogram counts exactly the drops and records how
    // far behind the watermark each was (7_000 and 5_000 ms).
    let margins = v
        .get("stages")
        .and_then(|s| s.get("late_margin_ms"))
        .unwrap_or_else(|| panic!("no late_margin_ms in {v}"));
    assert_eq!(
        margins.get("count").and_then(Json::as_u64),
        Some(2),
        "{margins}"
    );
    assert_eq!(
        margins.get("max").and_then(Json::as_u64),
        Some(7_000),
        "worst margin is the oldest claim: {margins}"
    );
    assert!(
        margins.get("p50").and_then(Json::as_u64).unwrap() >= 5_000,
        "median margin far beyond the 2_000 ms bound: {margins}"
    );

    // Per-shard attribution: the single shard owns both drops.
    let shards = v.get("shards").and_then(Json::as_array).unwrap();
    assert_eq!(
        shards[0]
            .get("engine")
            .and_then(|e| e.get("late_dropped"))
            .and_then(Json::as_u64),
        Some(2),
        "{v}"
    );

    handle.shutdown();
}

/// The binary plane shares the JSONL listener: a connection whose
/// first four bytes are the `FNB1` magic speaks length-prefixed
/// CRC-framed record batches, everything else falls through to JSONL
/// untouched. Both planes' events land in one store, binary acks
/// carry event-counting sequence numbers exactly like JSONL `seq`,
/// and the binary `Sync` barrier round-trips.
#[test]
fn binary_and_jsonl_planes_share_one_listener() {
    use fenestra::prelude::{Event, Value};
    use fenestra::wire::binary::{self, Frame};

    let config = ServerConfig::new("127.0.0.1:0")
        .engine(EngineConfig {
            max_lateness: Duration::hours(1),
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let mut handle = Server::start(config).expect("start server");
    let addr = handle.local_addr();

    // A JSONL client, deliberately concurrent with the binary one.
    let mut j = Client::connect(addr);

    // The binary client: magic first, then pipelined batches.
    let mut b = TcpStream::connect(addr).expect("connect binary");
    b.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    b.write_all(&binary::MAGIC).unwrap();
    let mk = |lo: u64, n: usize| -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::from_pairs(
                    "sensors",
                    lo + i as u64,
                    [
                        ("visitor", Value::str(&format!("bin{i}"))),
                        ("room", Value::str("vault")),
                    ],
                )
            })
            .collect()
    };
    b.write_all(&binary::encode_batch("sensors", &mk(1_000, 8)).unwrap())
        .unwrap();
    b.write_all(&binary::encode_batch("sensors", &mk(2_000, 8)).unwrap())
        .unwrap();

    // JSONL ingest interleaves on the same listener, unaffected.
    for i in 0..8u64 {
        let v = j.call(&event(1_500 + i, &format!("jso{i}"), "vault"));
        assert!(ok(&v), "{v}");
    }

    // Binary acks count events (not frames), like the JSONL `seq`.
    let ack = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("first ack");
    assert_eq!(ack, Frame::Ack { seq: 8, count: 8 });
    let ack = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("second ack");
    assert_eq!(ack, Frame::Ack { seq: 16, count: 8 });

    // The binary barrier: Sync → Synced proves both batches applied.
    b.write_all(&binary::encode_sync()).unwrap();
    let f = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("synced");
    assert_eq!(f, Frame::Synced);

    // The plane gauges see one connection per plane (plus client `j`).
    let v = j.call(r#"{"cmd":"stats"}"#);
    assert!(ok(&v), "{v}");
    let server = v.get("server").unwrap();
    assert_eq!(
        server.get("conns_binary").and_then(Json::as_u64),
        Some(1),
        "{server}"
    );
    assert_eq!(
        server.get("conns_open").and_then(Json::as_u64),
        Some(2),
        "{server}"
    );

    // State equivalence across planes, observed through JSONL: one
    // store holds both planes' visitors.
    let v = j.call(&event(4_000_000, "drain", "attic"));
    assert!(ok(&v));
    let v = j.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");
    let v = j.call(r#"{"cmd":"query","q":"select ?v where { ?v room \"vault\" }"}"#);
    assert!(ok(&v), "{v}");
    assert_eq!(
        v.get("rows").and_then(Json::as_array).unwrap().len(),
        16,
        "8 binary + 8 JSONL visitors in one store: {v}"
    );

    handle.shutdown();
}

/// A binary frame whose declared length exceeds `--max-frame-bytes`
/// is answered with a structured `Err` frame and the connection is
/// closed — after an oversize or corrupt header the frame boundary is
/// unknowable, so resync is impossible by design.
#[test]
fn binary_oversize_frame_gets_structured_error_then_close() {
    use fenestra::wire::binary::{self, Frame};
    use std::io::Write as _;

    let config = ServerConfig::new("127.0.0.1:0").max_frame_bytes(1024);
    let mut handle = Server::start(config).expect("start server");

    let mut b = TcpStream::connect(handle.local_addr()).expect("connect binary");
    b.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    b.write_all(&binary::MAGIC).unwrap();
    // A hand-built header declaring a 2 MiB payload; the server must
    // reject it from the length prefix alone, before buffering it.
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&(2u32 * 1024 * 1024).to_be_bytes());
    hdr.extend_from_slice(&0u32.to_be_bytes());
    b.write_all(&hdr).unwrap();

    let f = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("error frame before close");
    match f {
        Frame::Err { seq: 0, ref msg } => {
            assert!(msg.contains("frame too large"), "{msg}")
        }
        other => panic!("expected Err frame, got {other:?}"),
    }
    assert!(
        binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none(),
        "server closes a connection whose framing is lost"
    );
    handle.shutdown();
}

/// A JSONL line beyond `--max-frame-bytes` is discarded with an error
/// line — but JSONL framing survives oversize input (the newline is
/// the resync point), so the connection keeps working.
#[test]
fn jsonl_overlong_line_discarded_connection_survives() {
    let config = ServerConfig::new("127.0.0.1:0").max_frame_bytes(1024);
    let mut handle = Server::start(config).expect("start server");
    let mut c = Client::connect(handle.local_addr());

    let big = format!(
        r#"{{"stream":"sensors","ts":1,"visitor":"x","pad":"{}"}}"#,
        "x".repeat(4096)
    );
    c.send(&big);
    let v = c.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("frame too large"),
        "{v}"
    );
    // Resynced at the newline: the next line is handled normally.
    let v = c.call(&event(10, "a", "hall"));
    assert!(ok(&v), "{v}");
    assert_eq!(v.get("seq").and_then(Json::as_u64), Some(1), "{v}");
    handle.shutdown();
}

#[test]
fn watch_rejects_history_queries() {
    let mut handle = Server::start(ServerConfig::new("127.0.0.1:0")).unwrap();
    let mut c = Client::connect(handle.local_addr());
    let v = c.call(r#"{"cmd":"watch","name":"h","q":"history a room"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");
    handle.shutdown();
}

/// Events of one synthetic ingest frame: `n` distinct visitors named
/// `{tag}{frame}x{i}`, all in room `r` at one timestamp (so no event is
/// ever late, whatever order the shards see the frames in).
fn frame_events(tag: &str, frame: u64, n: u64) -> Vec<fenestra::prelude::Event> {
    use fenestra::prelude::{Event, Value};
    (0..n)
        .map(|i| {
            Event::from_pairs(
                "sensors",
                1,
                [
                    ("visitor", Value::str(&format!("{tag}{frame}x{i}"))),
                    ("room", Value::str("r")),
                ],
            )
        })
        .collect()
}

fn frame_line(tag: &str, frame: u64, n: u64) -> String {
    let evs: Vec<String> = (0..n)
        .map(|i| {
            format!(r#"{{"stream":"sensors","ts":1,"visitor":"{tag}{frame}x{i}","room":"r"}}"#)
        })
        .collect();
    format!(r#"{{"op":"ingest","events":[{}]}}"#, evs.join(","))
}

/// Every visitor in room `r`, read through the JSONL plane.
fn visitors_in_r(c: &mut Client) -> std::collections::HashSet<String> {
    let v = c.call(r#"{"cmd":"query","q":"select ?v where { ?v room \"r\" }"}"#);
    assert!(ok(&v), "{v}");
    v.get("rows")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|row| row.get("v").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn rule_setup(engine: &mut fenestra::core::Engine) {
    engine.declare_attr("room", AttrSchema::one());
    engine
        .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
        .unwrap();
}

/// `Backpressure::Shed` on both planes at once, against one-slot shard
/// queues: bursts of batch frames that touch both shards are each
/// admitted or shed whole. Every frame gets exactly one reply, in
/// order; the `shed` and `events` counters match the replies; and
/// after `sync` each frame's visitors are all present (acked) or all
/// absent (shed) — never half.
#[test]
fn shed_admits_or_sheds_each_frame_whole_on_both_planes() {
    use fenestra::server::Backpressure;
    use fenestra::wire::binary::{self, Frame};
    const FRAMES: u64 = 300;
    const PER: u64 = 16;

    let config = ServerConfig::new("127.0.0.1:0")
        .shards(2)
        .queue_capacity(2)
        .backpressure(Backpressure::Shed)
        .setup(rule_setup);
    let mut handle = Server::start(config).expect("start server");
    let addr = handle.local_addr();

    let mut j = Client::connect(addr);
    let mut b = TcpStream::connect(addr).expect("connect binary");
    b.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut burst = binary::MAGIC.to_vec();
    for f in 0..FRAMES {
        burst.extend(binary::encode_batch("sensors", &frame_events("b", f, PER)).unwrap());
    }
    let lines: Vec<String> = (0..FRAMES).map(|f| frame_line("j", f, PER)).collect();
    // Both bursts in flight together, neither side reading replies yet.
    b.write_all(&burst).unwrap();
    j.out
        .write_all((lines.join("\n") + "\n").as_bytes())
        .unwrap();

    // (acked frames, shed frames) per plane, in reply order.
    let mut acked: Vec<(&str, u64)> = Vec::new();
    let mut shed_events = 0u64;
    let mut acked_events = 0u64;
    for f in 0..FRAMES {
        let seq = (f + 1) * PER;
        let v = j.recv();
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(seq), "{v}");
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(PER), "{v}");
        if ok(&v) {
            acked.push(("j", f));
            acked_events += PER;
        } else {
            let err = v.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(err.contains("shed"), "{v}");
            shed_events += PER;
        }
    }
    for f in 0..FRAMES {
        let seq = (f + 1) * PER;
        match binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME).unwrap() {
            Some(Frame::Ack { seq: s, count }) => {
                assert_eq!((s, count), (seq, PER));
                acked.push(("b", f));
                acked_events += PER;
            }
            Some(Frame::Err { seq: s, msg }) => {
                assert_eq!(s, seq, "{msg}");
                assert!(msg.contains("shed"), "{msg}");
                shed_events += PER;
            }
            other => panic!("frame {f}: expected Ack or Err, got {other:?}"),
        }
    }
    assert!(
        shed_events > 0,
        "bursts against one-slot queues should shed something"
    );

    // Exactly one reply per frame: the barrier reply comes next.
    b.write_all(&binary::encode_sync()).unwrap();
    let f = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(f, Some(Frame::Synced));
    let v = j.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    let v = j.call(r#"{"cmd":"stats"}"#);
    let server = v.get("server").unwrap();
    assert_eq!(
        server.get("shed").and_then(Json::as_u64),
        Some(shed_events),
        "{server}"
    );
    assert_eq!(
        server.get("events").and_then(Json::as_u64),
        Some(acked_events),
        "{server}"
    );

    let present = visitors_in_r(&mut j);
    let acked: std::collections::HashSet<(&str, u64)> = acked.into_iter().collect();
    for tag in ["j", "b"] {
        for f in 0..FRAMES {
            let here = (0..PER)
                .filter(|i| present.contains(&format!("{tag}{f}x{i}")))
                .count() as u64;
            let want = if acked.contains(&(tag, f)) { PER } else { 0 };
            assert_eq!(
                here, want,
                "frame {tag}{f}: {here} of {PER} visitors present"
            );
        }
    }
    handle.shutdown();
}

/// `Backpressure::Block` on the binary plane against one-slot shard
/// queues: several hundred pipelined frames park on full queues and
/// retry, yet every frame is acked in order with its cumulative `seq`,
/// the barrier proves every event applied, and the queue high-water
/// mark shows the queues were full. Run once without a WAL (immediate
/// acks) and once with `fsync always`, where held acks must still
/// release in per-connection FIFO order across parked parts.
#[test]
fn binary_block_parks_on_full_queues_and_acks_everything_in_order() {
    use fenestra::wire::binary::{self, Frame};
    const FRAMES: u64 = 1000;
    const PER: u64 = 8;

    let dir = std::env::temp_dir().join(format!("fenestrad-park-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for durable in [false, true] {
        let mut config = ServerConfig::new("127.0.0.1:0")
            .shards(2)
            .queue_capacity(2)
            .setup(rule_setup);
        if durable {
            // fsync defaults to `always`: acks are held until durable.
            config = config.wal_path(dir.join("log"));
        }
        let mut handle = Server::start(config).expect("start server");
        let addr = handle.local_addr();
        let mut b = TcpStream::connect(addr).expect("connect binary");
        b.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut burst = binary::MAGIC.to_vec();
        for f in 0..FRAMES {
            burst.extend(binary::encode_batch("sensors", &frame_events("p", f, PER)).unwrap());
        }
        burst.extend(binary::encode_sync());
        b.write_all(&burst).unwrap();

        for f in 0..FRAMES {
            let frame = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(
                frame,
                Some(Frame::Ack {
                    seq: (f + 1) * PER,
                    count: PER
                }),
                "durable={durable} frame {f}"
            );
        }
        let frame = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame, Some(Frame::Synced), "durable={durable}");

        let mut j = Client::connect(addr);
        let v = j.call(r#"{"cmd":"stats"}"#);
        let server = v.get("server").unwrap();
        assert_eq!(
            server.get("events").and_then(Json::as_u64),
            Some(FRAMES * PER),
            "{server}"
        );
        assert_eq!(server.get("shed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            server.get("queue_hwm").and_then(Json::as_u64),
            Some(1),
            "one-slot queues should have been seen full: {server}"
        );
        if durable {
            assert_eq!(
                server.get("acks_deferred").and_then(Json::as_u64),
                Some(FRAMES),
                "{server}"
            );
        }
        assert_eq!(visitors_in_r(&mut j).len() as u64, FRAMES * PER);
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a WAL nothing drains the shards' journals, so they must not
/// journal at all: memory is bounded by the retained state, not by the
/// number of events ever ingested.
#[test]
fn shards_without_wal_keep_no_journal() {
    use std::sync::{Arc, Mutex};
    const EVENTS: u64 = 100_000;
    const PER: u64 = 1000;

    let stores = Arc::new(Mutex::new(Vec::new()));
    let config = ServerConfig::new("127.0.0.1:0").shards(2).setup({
        let stores = stores.clone();
        move |engine| {
            rule_setup(engine);
            stores.lock().unwrap().push(engine.shared_store());
        }
    });
    let mut handle = Server::start(config).expect("start server");
    let mut c = Client::connect(handle.local_addr());
    for f in 0..EVENTS / PER {
        let evs: Vec<String> = (0..PER)
            .map(|i| {
                let ts = f * PER + i + 1;
                format!(
                    r#"{{"stream":"sensors","ts":{ts},"visitor":"v{}","room":"r{}"}}"#,
                    i % 500,
                    ts % 7
                )
            })
            .collect();
        c.send(&format!(
            r#"{{"op":"ingest","events":[{}]}}"#,
            evs.join(",")
        ));
    }
    for _ in 0..EVENTS / PER {
        let v = c.recv();
        assert!(ok(&v), "{v}");
    }
    let v = c.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");

    let stores = stores.lock().unwrap();
    assert_eq!(stores.len(), 2);
    let mut facts = 0;
    for store in stores.iter() {
        let store = store.read().unwrap();
        assert_eq!(store.journal_len(), 0, "no WAL, no journal");
        facts += store.stored_fact_count();
    }
    assert!(
        facts as u64 > EVENTS / 2,
        "the events were applied: {facts}"
    );
    handle.shutdown();
}

/// Replies are written with `TCP_NODELAY`. An event's ack and the
/// watch delta it causes are two small writes; with Nagle on, the
/// second waits for the client's delayed ACK (40 ms on Linux) of the
/// first. Each round here is an event, its delta, then a query; the
/// client is plain (no `TCP_NODELAY`, no `TCP_QUICKACK`).
#[test]
fn event_delta_query_round_is_not_held_by_nagle() {
    const ROUNDS: u64 = 30;
    let mut handle = Server::start(ServerConfig::new("127.0.0.1:0").setup(rule_setup)).unwrap();
    let mut c = Client::connect(handle.local_addr());
    let v = c.call(r#"{"cmd":"watch","name":"lab","q":"select ?v where { ?v room \"lab\" }"}"#);
    assert_eq!(v.get("watch").and_then(Json::as_str), Some("lab"), "{v}");

    // One write per line: `writeln!` would split off the newline, and
    // the client's own Nagle would then hold it.
    let send = |c: &mut Client, line: &str| c.out.write_all(format!("{line}\n").as_bytes());
    let mut rtts = Vec::new();
    for i in 0..ROUNDS {
        let t0 = std::time::Instant::now();
        send(&mut c, &event(1000 + i, &format!("v{i}"), "lab")).unwrap();
        let (_ack, delta) = c.recv_until(|v| v.get("watch").is_some());
        assert_eq!(delta.get("sign").and_then(Json::as_i64), Some(1), "{delta}");
        send(
            &mut c,
            r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#,
        )
        .unwrap();
        let (_, rows) = c.recv_until(|v| v.get("rows").is_some());
        rtts.push(t0.elapsed());
        let n = rows.get("rows").and_then(Json::as_array).unwrap().len();
        assert_eq!(n as u64, i + 1, "{rows}");
    }
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median event → delta → query round {median:?} is near the delayed-ACK time: {rtts:?}"
    );
    handle.shutdown();
}

/// Ingest overtakes queued query work: while one connection's burst
/// of window queries holds the only shard, an event sent on another
/// connection is applied between two of the burst's plans, so its
/// watch delta arrives well before the burst's last reply.
#[test]
fn ingest_is_not_held_behind_a_query_burst() {
    const BURST: usize = 60;
    let mut handle = Server::start(ServerConfig::new("127.0.0.1:0").setup(rule_setup)).unwrap();
    let addr = handle.local_addr();
    let window = r#"{"cmd":"query","sql":"SELECT room, count(*) AS n FROM state GROUP BY room, tumbling(100000000)"}"#;
    let mut queries = Client::connect(addr);
    // History for the window to scan: 40 visitors moving between 7
    // rooms, grown until one query takes 5 ms, so that the burst (60
    // lines, about 7 KiB, which the server reads at once) holds the
    // shard for about 300 ms.
    let mut loader = Client::connect(addr);
    let mut ts = 0u64;
    let mut slow_enough = false;
    for _ in 0..100 {
        for _ in 0..50 {
            let evs: Vec<String> = (0..400u64)
                .map(|i| {
                    ts += 1;
                    format!(
                        r#"{{"stream":"sensors","ts":{ts},"visitor":"v{}","room":"r{}"}}"#,
                        i % 40,
                        ts % 7
                    )
                })
                .collect();
            let v = loader.call(&format!(
                r#"{{"op":"ingest","events":[{}]}}"#,
                evs.join(",")
            ));
            assert!(ok(&v), "{v}");
        }
        assert!(ok(&queries.call(window)));
        let t = std::time::Instant::now();
        assert!(ok(&queries.call(window)));
        if t.elapsed() >= std::time::Duration::from_millis(5) {
            slow_enough = true;
            break;
        }
    }
    assert!(
        slow_enough,
        "setup failed: no window query took 5 ms after 2M events"
    );
    let mut watcher = Client::connect(addr);
    let v =
        watcher.call(r#"{"cmd":"watch","name":"lab","q":"select ?v where { ?v room \"lab\" }"}"#);
    assert_eq!(v.get("watch").and_then(Json::as_str), Some("lab"), "{v}");
    let mut writer = Client::connect(addr);

    let t0 = std::time::Instant::now();
    queries.send(&vec![window; BURST].join("\n"));
    std::thread::sleep(std::time::Duration::from_millis(20));
    writer.send(&event(ts + 1, "late", "lab"));
    let delta = watcher.recv();
    let delta_at = t0.elapsed();
    assert_eq!(delta.get("sign").and_then(Json::as_i64), Some(1), "{delta}");
    // The burst is answered in one write, so none of it has arrived.
    queries.out.set_nonblocking(true).unwrap();
    let pending = queries.out.peek(&mut [0u8; 1]);
    queries.out.set_nonblocking(false).unwrap();
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the burst was answered before the delta came at {delta_at:?}: {pending:?}"
    );
    for _ in 0..BURST {
        assert!(ok(&queries.recv()));
    }
    let last_at = t0.elapsed();
    assert!(
        last_at >= std::time::Duration::from_millis(200),
        "the burst held the shard for only {last_at:?}"
    );
    assert!(
        delta_at * 2 < last_at,
        "the delta came at {delta_at:?}, the burst's last reply at {last_at:?}"
    );
    handle.shutdown();
}
