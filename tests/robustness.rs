//! Failure-injection integration tests: out-of-order delivery,
//! duplicates, late data, malformed inputs, and process crashes
//! (`kill -9` against a fenestrad with a durable WAL).

use fenestra::prelude::*;
use fenestra::workloads::ooo;
use fenestra::workloads::{BuildingConfig, BuildingWorkload};

fn move_rule_engine(lateness_ms: u64) -> Engine {
    let mut engine = Engine::new(EngineConfig {
        max_lateness: Duration::millis(lateness_ms),
        ..EngineConfig::default()
    });
    engine.declare_attr("room", AttrSchema::one());
    engine
        .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
        .unwrap();
    engine
}

/// Bounded out-of-order delivery with a sufficient lateness bound is
/// fully reordered: the final state equals in-order processing.
#[test]
fn out_of_order_delivery_is_transparent_within_bound() {
    let workload = BuildingWorkload::generate(&BuildingConfig {
        visitors: 10,
        rooms: 6,
        mean_dwell_ms: 10_000,
        duration_ms: 300_000,
        seed: 9,
    });
    let shuffled = ooo::perturb(&workload.events, 5_000, 21);
    assert!(ooo::max_disorder(&shuffled) > 0, "perturbation effective");

    let mut ordered = move_rule_engine(0);
    ordered.run(workload.events.iter().cloned());
    ordered.finish();

    let mut disordered = move_rule_engine(5_000);
    disordered.run(shuffled);
    disordered.finish();
    assert_eq!(disordered.metrics().late_dropped, 0);

    let a = ordered.store();
    let b = disordered.store();
    for v in 0..10 {
        let name = format!("v{v}");
        let ea = a.lookup_entity(name.as_str()).unwrap();
        let eb = b.lookup_entity(name.as_str()).unwrap();
        assert_eq!(a.history(ea, "room"), b.history(eb, "room"), "{name}");
    }
}

/// Beyond the lateness bound, events are dropped and counted — never
/// applied retroactively.
#[test]
fn late_events_beyond_bound_are_dropped_not_misapplied() {
    let workload = BuildingWorkload::generate(&BuildingConfig {
        visitors: 5,
        rooms: 4,
        mean_dwell_ms: 5_000,
        duration_ms: 100_000,
        seed: 2,
    });
    let shuffled = ooo::perturb(&workload.events, 20_000, 4);
    let mut engine = move_rule_engine(1_000); // bound far below disorder
    engine.run(shuffled);
    engine.finish();
    let m = engine.metrics();
    assert!(m.late_dropped > 0, "some events must be late");
    assert_eq!(m.events + m.late_dropped, workload.events.len() as u64);
    // Remaining history is still temporally sane: intervals per
    // visitor never overlap.
    let store = engine.store();
    for v in 0..5 {
        let name = format!("v{v}");
        let Some(e) = store.lookup_entity(name.as_str()) else {
            continue;
        };
        let h = store.history(e, "room");
        for w in h.windows(2) {
            assert!(
                w[0].0.end.is_some_and(|end| end <= w[1].0.start),
                "overlapping intervals for {name}"
            );
        }
    }
}

/// At-least-once delivery: duplicated events do not duplicate state
/// (replace is idempotent on identical values).
#[test]
fn duplicate_events_are_idempotent_on_state() {
    let workload = BuildingWorkload::generate(&BuildingConfig {
        visitors: 6,
        rooms: 5,
        mean_dwell_ms: 8_000,
        duration_ms: 150_000,
        seed: 13,
    });
    let dup = ooo::with_duplicates(&workload.events, 0.3, 8);
    assert!(dup.len() > workload.events.len());

    let mut clean = move_rule_engine(0);
    clean.run(workload.events.iter().cloned());
    clean.finish();
    let mut dirty = move_rule_engine(0);
    dirty.run(dup);
    dirty.finish();

    let a = clean.store();
    let b = dirty.store();
    assert_eq!(a.stored_fact_count(), b.stored_fact_count());
    for v in 0..6 {
        let name = format!("v{v}");
        let ea = a.lookup_entity(name.as_str()).unwrap();
        let eb = b.lookup_entity(name.as_str()).unwrap();
        assert_eq!(a.history(ea, "room"), b.history(eb, "room"));
    }
    // The duplicates fired rules but changed nothing.
    assert!(dirty.metrics().rule_fired > clean.metrics().rule_fired);
    assert_eq!(dirty.metrics().transitions, clean.metrics().transitions);
}

/// Malformed rule/query texts produce parse errors with positions, and
/// never panic.
#[test]
fn malformed_inputs_error_cleanly() {
    let mut engine = Engine::with_defaults();
    for bad_rule in [
        "rule:",
        "rule x on s assert $(u).a = 1",
        "rule x: on s assert $(u).a =",
        "rule x: on pattern within 5s assert $(u).a = 1",
        "완전히 잘못된 입력",
    ] {
        assert!(engine.add_rules_text(bad_rule).is_err(), "{bad_rule}");
    }
    for bad_query in [
        "select",
        "select ?x where { }",
        "history",
        "select ?x where { ?x a \"b\" } asof -5",
    ] {
        assert!(engine.query(bad_query).is_err(), "{bad_query}");
    }
    // Engine still usable afterwards.
    engine
        .add_rules_text("rule ok:\n on s\n replace $(u).a = 1")
        .unwrap();
    engine.push(Event::from_pairs("s", 1u64, [("u", "x")]));
    engine.finish();
    assert_eq!(engine.metrics().transitions, 1);
}

/// Rule actions that hit store errors surface in metrics but do not
/// poison the engine.
#[test]
fn store_level_errors_are_contained() {
    let mut engine = Engine::with_defaults();
    engine.declare_attr("slot", AttrSchema::one());
    // Bad rule: asserts into a cardinality-one attribute without
    // replace; second event conflicts.
    engine
        .add_rules_text("rule bad:\n on s\n assert $(u).slot = v")
        .unwrap();
    engine.push(Event::from_pairs("s", 1u64, [("u", "x"), ("v", "a")]));
    engine.push(Event::from_pairs("s", 2u64, [("u", "x"), ("v", "b")]));
    engine.finish();
    let m = engine.metrics();
    assert_eq!(m.rule_errors, 1, "cardinality conflict reported");
    assert_eq!(m.transitions, 1, "first assert applied");
    let store = engine.store();
    let e = store.lookup_entity("x").unwrap();
    assert_eq!(store.current().value(e, "slot"), Some(Value::str("a")));
}

// ----- crash recovery (fenestrad subprocess, kill -9) -----------------------

mod crash {
    use serde_json::Value as Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};

    /// The fenestrad binary, built on demand if this test package was
    /// compiled without the server package's binaries.
    fn fenestrad_bin() -> PathBuf {
        let target_dir = Path::new(env!("CARGO_BIN_EXE_fenestra"))
            .parent()
            .expect("binary dir")
            .to_path_buf();
        let bin = target_dir.join(format!("fenestrad{}", std::env::consts::EXE_SUFFIX));
        if !bin.exists() {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            let mut cmd = Command::new(cargo);
            cmd.current_dir(env!("CARGO_MANIFEST_DIR")).args([
                "build",
                "-p",
                "fenestra-server",
                "--bin",
                "fenestrad",
            ]);
            if target_dir.file_name().is_some_and(|n| n == "release") {
                cmd.arg("--release");
            }
            let status = cmd.status().expect("cargo build fenestrad");
            assert!(status.success(), "building fenestrad failed");
        }
        bin
    }

    /// A running fenestrad over a state directory.
    struct Daemon {
        child: Child,
        addr: String,
    }

    impl Daemon {
        fn spawn(dir: &Path, extra: &[&str]) -> Daemon {
            let rules = dir.join("rules.txt");
            std::fs::write(&rules, "rule mv:\n on s\n replace $(visitor).room = room\n").unwrap();
            let mut child = Command::new(fenestrad_bin())
                .arg("--addr")
                .arg("127.0.0.1:0")
                .arg("--snapshot")
                .arg(dir.join("state.json"))
                .arg("--wal")
                .arg(dir.join("log"))
                .arg("--rules")
                .arg(&rules)
                .args(extra)
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn fenestrad");
            // The daemon announces its bound address on stderr.
            let stderr = child.stderr.take().unwrap();
            let mut reader = BufReader::new(stderr);
            let addr = loop {
                let mut line = String::new();
                assert!(
                    reader.read_line(&mut line).unwrap() > 0,
                    "fenestrad exited before announcing its address"
                );
                if let Some(rest) = line.trim().strip_prefix("fenestrad: listening on ") {
                    break rest.to_string();
                }
            };
            // Keep draining stderr so the child never blocks on a full
            // pipe.
            std::thread::spawn(move || {
                for line in reader.lines() {
                    if line.is_err() {
                        break;
                    }
                }
            });
            Daemon { child, addr }
        }

        fn connect(&self) -> Conn {
            let stream = TcpStream::connect(&self.addr).expect("connect to fenestrad");
            let reader = BufReader::new(stream.try_clone().unwrap());
            Conn { stream, reader }
        }

        /// SIGKILL — no drain, no snapshot, no fsync beyond what the
        /// WAL policy already guaranteed.
        fn kill9(mut self) {
            self.child.kill().expect("kill -9 fenestrad");
            self.child.wait().expect("reap fenestrad");
        }

        fn shutdown(mut self) {
            let mut c = self.connect();
            let v = c.call(r#"{"cmd":"shutdown"}"#);
            assert!(v.get("bye").is_some(), "graceful shutdown: {v}");
            self.child.wait().expect("reap fenestrad");
        }
    }

    struct Conn {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Conn {
        fn send(&mut self, line: &str) {
            // One write: `writeln!` sends the newline as a second
            // segment, which this client's Nagle holds until the
            // server's ACK.
            self.stream
                .write_all(format!("{line}\n").as_bytes())
                .unwrap();
        }

        fn recv(&mut self) -> Json {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).unwrap() > 0, "EOF");
            serde_json::from_str(line.trim()).expect("reply is JSON")
        }

        fn call(&mut self, line: &str) -> Json {
            self.send(line);
            self.recv()
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fenestra-crash-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Ingest `n` events (each moves a fresh visitor into a room), ack
    /// every one, then issue a `sync` barrier: its reply proves every
    /// acked event has been applied and — under `--fsync always` —
    /// fsynced. Returns a `stats` reply taken after the barrier
    /// (`stats` itself reads atomics and is not a barrier).
    fn ingest_acked(c: &mut Conn, n: u64) -> Json {
        for i in 1..=n {
            c.send(&format!(
                r#"{{"stream":"s","ts":{i},"visitor":"v{i}","room":"r{i}"}}"#
            ));
        }
        for i in 1..=n {
            let v = c.recv();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "ack {i}: {v}"
            );
        }
        let v = c.call(r#"{"cmd":"sync"}"#);
        assert_eq!(
            v.get("synced").and_then(Json::as_bool),
            Some(true),
            "sync barrier: {v}"
        );
        c.call(r#"{"cmd":"stats"}"#)
    }

    fn counter(stats: &Json, key: &str) -> u64 {
        stats
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing server.{key} in {stats}"))
    }

    fn occupied_rooms(c: &mut Conn) -> usize {
        let v = c.call(r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
        v.get("rows").and_then(Json::as_array).unwrap().len()
    }

    /// kill -9 after acked ingest under `--fsync always`: every acked
    /// transition survives the crash. `--batch-max 1` disables group
    /// commit so the per-event framing assertions hold exactly.
    #[test]
    fn kill9_loses_nothing_with_fsync_always() {
        let dir = tmp_dir("always");
        const N: u64 = 50;

        let daemon = Daemon::spawn(&dir, &["--fsync", "always", "--batch-max", "1"]);
        let mut c = daemon.connect();
        let stats = ingest_acked(&mut c, N);
        let fsyncs = counter(&stats, "fsyncs");
        assert!(fsyncs >= N, "one fsync per applied batch, got {fsyncs}");
        daemon.kill9();

        let daemon = Daemon::spawn(&dir, &["--fsync", "always"]);
        let mut c = daemon.connect();
        assert_eq!(
            occupied_rooms(&mut c),
            N as usize,
            "all acked events survive"
        );
        let stats = c.call(r#"{"cmd":"stats"}"#);
        assert!(
            counter(&stats, "recovered_ops") > 0,
            "boot replayed the WAL: {stats}"
        );
        assert_eq!(counter(&stats, "wal_discarded_bytes"), 0);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hand-truncated WAL tail (as a crash mid-write would leave it)
    /// recovers to the longest valid prefix, reports the damage, and
    /// keeps serving. `--batch-max 1` keeps one event per WAL frame so
    /// tearing the final frame loses exactly one event.
    #[test]
    fn truncated_wal_tail_recovers_prefix_and_counts_damage() {
        let dir = tmp_dir("torn");
        const N: u64 = 20;

        // `--shards 1` pins the legacy single-WAL layout this test
        // tears into by file name.
        let daemon = Daemon::spawn(
            &dir,
            &["--shards", "1", "--fsync", "always", "--batch-max", "1"],
        );
        let mut c = daemon.connect();
        ingest_acked(&mut c, N);
        daemon.kill9();

        // No checkpoint ran, so everything lives in generation 0. Tear
        // its final frame mid-payload.
        let seg = dir.join("log.0");
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let daemon = Daemon::spawn(&dir, &["--shards", "1", "--fsync", "always"]);
        let mut c = daemon.connect();
        assert_eq!(
            occupied_rooms(&mut c),
            N as usize - 1,
            "the torn final event is gone, the prefix survives"
        );
        let stats = c.call(r#"{"cmd":"stats"}"#);
        assert!(
            counter(&stats, "wal_discarded_bytes") > 0,
            "recovery reports the torn bytes: {stats}"
        );

        // The boot checkpoint already rotated past the damage; another
        // restart is clean.
        daemon.shutdown();
        let daemon = Daemon::spawn(&dir, &["--shards", "1", "--fsync", "always"]);
        let mut c = daemon.connect();
        assert_eq!(occupied_rooms(&mut c), N as usize - 1);
        let stats = c.call(r#"{"cmd":"stats"}"#);
        assert_eq!(
            counter(&stats, "wal_discarded_bytes"),
            0,
            "damage does not persist across checkpoints: {stats}"
        );
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Group commit under `--fsync always`: acks are held until the
    /// covering WAL fsync completes, so the moment a client has read a
    /// batch ack, `kill -9` cannot lose those events — no `stats`
    /// barrier needed, reading the ack *is* the durability barrier.
    #[test]
    fn kill9_after_batched_acks_loses_nothing() {
        let dir = tmp_dir("group");
        const BATCHES: u64 = 10;
        const PER: u64 = 25;

        let daemon = Daemon::spawn(&dir, &["--fsync", "always"]);
        let mut c = daemon.connect();
        // Pipeline all batch frames first so the engine can group-commit
        // across them, then read the (deferred) acks.
        for b in 0..BATCHES {
            let events: Vec<String> = (1..=PER)
                .map(|i| {
                    let n = b * PER + i;
                    format!(r#"{{"stream":"s","ts":{n},"visitor":"v{n}","room":"r{n}"}}"#)
                })
                .collect();
            c.send(&format!(
                r#"{{"op":"ingest","events":[{}]}}"#,
                events.join(",")
            ));
        }
        for b in 1..=BATCHES {
            let v = c.recv();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "batch {b}: {v}"
            );
            assert_eq!(
                v.get("count").and_then(Json::as_u64),
                Some(PER),
                "batch {b}: {v}"
            );
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(b * PER));
        }
        // Kill the instant the last ack is read — no stats round-trip.
        daemon.kill9();

        let daemon = Daemon::spawn(&dir, &["--fsync", "always"]);
        let mut c = daemon.connect();
        assert_eq!(
            occupied_rooms(&mut c),
            (BATCHES * PER) as usize,
            "every acked event survives kill -9"
        );
        let stats = c.call(r#"{"cmd":"stats"}"#);
        assert!(
            counter(&stats, "recovered_ops") > 0,
            "boot replayed the WAL: {stats}"
        );
        assert_eq!(counter(&stats, "wal_discarded_bytes"), 0);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Durable acks + a lateness bound: an event still inside the
    /// reorder buffer has produced no WAL ops, so its ack must be
    /// withheld until the watermark passes it. Events 10s apart with a
    /// 5s bound mean event `i`'s arrival covers event `i-1` but never
    /// `i` itself — so exactly N−1 acks are readable, and a `kill -9`
    /// at that point loses only the never-acked buffered event.
    #[test]
    fn kill9_with_lateness_loses_no_acked_events() {
        let dir = tmp_dir("lateness");
        const N: u64 = 10;

        // `--shards 1`: each event here is a distinct visitor, so under
        // sharding they would land on different shards whose watermarks
        // advance independently — the "exactly N−1 acks" arithmetic
        // below is a single-watermark property (the sharded variant is
        // `kill9_sharded_with_lateness_loses_no_acked_events`).
        let daemon = Daemon::spawn(
            &dir,
            &[
                "--shards",
                "1",
                "--fsync",
                "always",
                "--max-lateness-ms",
                "5000",
            ],
        );
        let mut c = daemon.connect();
        for i in 1..=N {
            c.send(&format!(
                r#"{{"stream":"s","ts":{},"visitor":"v{i}","room":"r{i}"}}"#,
                i * 10_000
            ));
        }
        for i in 1..N {
            let v = c.recv();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "ack {i}: {v}"
            );
        }
        // The Nth ack is (correctly) still held; kill without it.
        daemon.kill9();

        let daemon = Daemon::spawn(
            &dir,
            &[
                "--shards",
                "1",
                "--fsync",
                "always",
                "--max-lateness-ms",
                "5000",
            ],
        );
        let mut c = daemon.connect();
        assert_eq!(
            occupied_rooms(&mut c),
            N as usize - 1,
            "every acked event survives; only the unacked buffered one may be lost"
        );
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The binary plane under `--fsync always`: acks are held until
    /// the covering WAL fsync, so the moment the client has read a
    /// batch's `Ack` frame, `kill -9` cannot lose those events — the
    /// same durability contract as JSONL, through the reactor path.
    #[test]
    fn kill9_after_binary_acks_loses_nothing() {
        use fenestra::prelude::{Event, Value};
        use fenestra::wire::binary::{self, Frame};
        use std::io::Write as _;

        let dir = tmp_dir("binary");
        const BATCHES: u64 = 10;
        const PER: u64 = 25;

        let daemon = Daemon::spawn(&dir, &["--fsync", "always"]);
        let mut b = TcpStream::connect(&daemon.addr).expect("connect binary");
        b.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        b.write_all(&binary::MAGIC).unwrap();
        // Pipeline all batch frames so the shards can group-commit
        // across them, then read the (deferred) acks.
        for batch in 0..BATCHES {
            let events: Vec<Event> = (1..=PER)
                .map(|i| {
                    let n = batch * PER + i;
                    Event::from_pairs(
                        "s",
                        n,
                        [
                            ("visitor", Value::str(&format!("v{n}"))),
                            ("room", Value::str(&format!("r{n}"))),
                        ],
                    )
                })
                .collect();
            b.write_all(&binary::encode_batch("s", &events).unwrap())
                .unwrap();
        }
        for batch in 1..=BATCHES {
            let f = binary::read_frame(&mut b, binary::DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap_or_else(|| panic!("EOF before ack {batch}"));
            assert_eq!(
                f,
                Frame::Ack {
                    seq: batch * PER,
                    count: PER
                },
                "acks release in admission order"
            );
        }
        // Kill the instant the last ack is read — reading the ack *is*
        // the durability barrier.
        daemon.kill9();

        let daemon = Daemon::spawn(&dir, &["--fsync", "always"]);
        let mut c = daemon.connect();
        assert_eq!(
            occupied_rooms(&mut c),
            (BATCHES * PER) as usize,
            "every binary-acked event survives kill -9"
        );
        let stats = c.call(r#"{"cmd":"stats"}"#);
        assert!(
            counter(&stats, "recovered_ops") > 0,
            "boot replayed the WAL: {stats}"
        );
        assert_eq!(counter(&stats, "wal_discarded_bytes"), 0);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under `--fsync on-snapshot`, a kill -9 may lose recent events
    /// but recovery still yields a consistent prefix of acked state.
    #[test]
    fn kill9_with_lazy_fsync_recovers_a_consistent_prefix() {
        let dir = tmp_dir("lazy");
        const N: u64 = 30;

        // `--shards 1`: the "recovered state is a prefix" assertion
        // below relies on one WAL — under sharding each shard syncs
        // independently, so a lazy-fsync crash can keep r7 but lose r5.
        let daemon = Daemon::spawn(&dir, &["--shards", "1", "--fsync", "on-snapshot"]);
        let mut c = daemon.connect();
        let stats = ingest_acked(&mut c, N);
        // Lazy policy: far fewer fsyncs than batches.
        let fsyncs = counter(&stats, "fsyncs");
        assert!(fsyncs < N, "on-snapshot must not fsync per batch");
        daemon.kill9();

        let daemon = Daemon::spawn(&dir, &["--shards", "1", "--fsync", "on-snapshot"]);
        let mut c = daemon.connect();
        let survived = occupied_rooms(&mut c);
        assert!(survived <= N as usize, "never more state than was ingested");
        // Whatever survived is a prefix: room r{i} occupied implies
        // every earlier event also survived.
        let v = c.call(r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#);
        let rooms: Vec<&str> = v
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|r| r.get("r").and_then(Json::as_str))
            .collect();
        for i in 1..=survived {
            assert!(
                rooms.contains(&format!("r{i}").as_str()),
                "gap at r{i}: recovered state is not a prefix ({rooms:?})"
            );
        }
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sharded durable acks + a lateness bound: 4 fixed visitors route
    /// to (up to) 4 shards, each shard holding its parts' acks until
    /// its own watermark passes them. Sending one event per visitor per
    /// round (10s steps, 5s bound) means round `r+1` covers round `r`
    /// on every shard: exactly the final round's acks stay held, in
    /// strict per-connection FIFO order, and `kill -9` at that point
    /// loses only the never-acked buffered round.
    #[test]
    fn kill9_sharded_with_lateness_loses_no_acked_events() {
        let dir = tmp_dir("sharded-lateness");
        const VISITORS: u64 = 4;
        const ROUNDS: u64 = 8;
        let flags = &[
            "--shards",
            "4",
            "--fsync",
            "always",
            "--max-lateness-ms",
            "5000",
        ];

        let daemon = Daemon::spawn(&dir, flags);
        let mut c = daemon.connect();
        for r in 1..=ROUNDS {
            for v in 1..=VISITORS {
                c.send(&format!(
                    r#"{{"stream":"s","ts":{},"visitor":"w{v}","room":"r{r}"}}"#,
                    r * 10_000
                ));
            }
        }
        // Rounds 1..ROUNDS−1 are covered (round r+1 advanced every
        // shard's watermark past round r); the final round sits in the
        // reorder buffers, its acks correctly held. Per-connection FIFO:
        // the released acks carry strictly sequential seq numbers.
        for i in 1..=VISITORS * (ROUNDS - 1) {
            let v = c.recv();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "ack {i}: {v}"
            );
            assert_eq!(
                v.get("seq").and_then(Json::as_u64),
                Some(i),
                "acks must release in admission order: {v}"
            );
        }
        daemon.kill9();

        // Restart with the same shard count: every acked round is
        // there, the buffered final round is gone.
        let daemon = Daemon::spawn(&dir, flags);
        let mut c = daemon.connect();
        let v = c.call(r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#);
        let rows = v.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), VISITORS as usize, "{v}");
        for row in rows {
            assert_eq!(
                row.get("r").and_then(Json::as_str),
                Some(format!("r{}", ROUNDS - 1).as_str()),
                "each visitor's last acked move survives: {v}"
            );
        }
        // Every acked round survives in history, per visitor.
        for w in 1..=VISITORS {
            let v = c.call(&format!(r#"{{"cmd":"query","q":"history w{w} room"}}"#));
            let spans = v
                .get("history")
                .and_then(Json::as_array)
                .unwrap_or_else(|| {
                    panic!("no history for w{w}: {v}");
                });
            assert_eq!(spans.len(), (ROUNDS - 1) as usize, "w{w}: {v}");
        }
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----- sharded/unsharded equivalence (property-based) ------------------------

mod shard_equivalence {
    use super::*;
    use fenestra::core::shard::{merge_rows, partial_select};
    use fenestra::query::{parse_query, ParsedQuery, QueryOptions};
    use fenestra::temporal::wal_file::{recover_shards, shard_segment_path, WalWriter};
    use fenestra::temporal::FsyncPolicy;
    use proptest::prelude::*;

    const SHARDS: u32 = 4;
    const LATENESS_MS: u64 = 5_000;

    fn rules() -> &'static str {
        "rule mv:\n on s\n replace $(visitor).room = room\n"
    }

    fn single() -> Engine {
        let mut e = Engine::new(EngineConfig {
            max_lateness: Duration::millis(LATENESS_MS),
            ..EngineConfig::default()
        });
        e.add_rules_text(rules()).unwrap();
        e
    }

    fn sharded() -> ShardedEngine {
        let mut e = ShardedEngine::new(
            EngineConfig {
                max_lateness: Duration::millis(LATENESS_MS),
                ..EngineConfig::default()
            },
            SHARDS,
        );
        e.add_rules_text(rules()).unwrap();
        e
    }

    /// Random workload: visitors moving between rooms, timestamps
    /// increasing with bounded backwards jitter — always within the
    /// lateness bound, so neither engine drops anything and the final
    /// states must agree exactly.
    fn workload() -> impl Strategy<Value = Vec<Event>> {
        prop::collection::vec((0u64..6, 0u64..4, 0u64..2_000, 0u64..4_000), 1..80).prop_map(
            |moves| {
                let mut t = 10_000u64;
                moves
                    .into_iter()
                    .map(|(v, r, gap, jitter)| {
                        t += gap;
                        // Jitter stays below the lateness bound.
                        let ts = t.saturating_sub(jitter.min(LATENESS_MS - 1));
                        Event::from_pairs(
                            "s",
                            ts,
                            [
                                ("visitor", Value::str(&format!("v{v}"))),
                                ("room", Value::str(&format!("r{r}"))),
                            ],
                        )
                    })
                    .collect()
            },
        )
    }

    /// Rows with entity ids resolved to names (ids are shard-local, so
    /// equivalence is over resolved rows), re-sorted for comparison.
    fn resolved_rows(engine: &Engine, text: &str) -> Vec<Vec<(String, String)>> {
        let QueryResult::Rows(rows) = engine.query(text).unwrap() else {
            panic!("select expected");
        };
        let store = engine.store();
        let mut out: Vec<Vec<(String, String)>> = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(k, v)| {
                        // Resolve shard-local entity ids to names so
                        // both sides format identically.
                        let v = match v {
                            Value::Id(e) => store.entity_name(e).map(Value::Str).unwrap_or(v),
                            other => other,
                        };
                        (k.as_str().to_string(), format!("{v}"))
                    })
                    .collect()
            })
            .collect();
        out.sort();
        out
    }

    fn sharded_rows(engine: &ShardedEngine, text: &str) -> Vec<Vec<(String, String)>> {
        let QueryResult::Rows(rows) = engine.query(text).unwrap() else {
            panic!("select expected");
        };
        let mut out: Vec<Vec<(String, String)>> = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(k, v)| (k.as_str().to_string(), format!("{v}")))
                    .collect()
            })
            .collect();
        out.sort();
        out
    }

    /// `check_metrics` only holds for live engines — a recovered
    /// engine's state matches but its event counters start from zero.
    fn assert_equivalent(reference: &Engine, test: &ShardedEngine, check_metrics: bool) {
        // Full current state.
        let all = "select ?v ?r where { ?v room ?r }";
        prop_assert_is_eq(resolved_rows(reference, all), sharded_rows(test, all));
        // Global count (merged across shards, not per shard).
        let count = "select count ?v where { ?v room ?r }";
        prop_assert_is_eq(resolved_rows(reference, count), sharded_rows(test, count));
        // Per-entity history, wherever the entity landed.
        for v in 0..6 {
            let name = format!("v{v}");
            let text = format!("history {name} room");
            let a = reference.query(&text).ok();
            let b = test.query(&text).ok();
            match (a, b) {
                (None, None) => {}
                (Some(QueryResult::History(ha)), Some(QueryResult::History(hb))) => {
                    prop_assert_is_eq(ha, hb);
                }
                (a, b) => panic!("history divergence for {name}: {a:?} vs {b:?}"),
            }
        }
        // Aggregate metrics agree (no drops on either side).
        let ma = reference.metrics();
        prop_assert_is_eq(ma.late_dropped, 0);
        if check_metrics {
            let mb = test.metrics();
            prop_assert_is_eq((ma.events, ma.transitions), (mb.events, mb.transitions));
        }
    }

    /// `prop_assert_eq!` only works inside `proptest!`; these helpers
    /// run inside plain fns called from it, so panic (which proptest
    /// converts into a failing, minimizable case).
    fn prop_assert_is_eq<T: PartialEq + std::fmt::Debug>(a: T, b: T) {
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A 4-shard engine is observationally equivalent to a single
        /// engine on any bounded-disorder keyed workload: same rows,
        /// same counts, same per-entity histories, same metrics.
        #[test]
        fn sharded_engine_matches_single_engine(events in workload()) {
            let mut reference = single();
            let mut test = sharded();
            for ev in &events {
                reference.push(ev.clone());
                test.push(ev.clone());
            }
            reference.finish();
            test.finish();
            assert_equivalent(&reference, &test, true);
        }

        /// Crash equivalence: write each shard's journal to its own WAL
        /// segment, drop everything in-memory (the `kill -9`), recover
        /// all shards in parallel via `recover_shards`, and the rebuilt
        /// sharded engine still matches the single reference engine.
        #[test]
        fn sharded_wal_replay_matches_single_engine(events in workload(), case in 0u32..1_000_000) {
            let mut reference = single();
            let mut test = sharded();
            for ev in &events {
                reference.push(ev.clone());
                test.push(ev.clone());
            }
            reference.finish();
            test.finish();

            let dir = std::env::temp_dir().join(format!(
                "fenestra-shard-replay-{}-{case}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let base = dir.join("log");
            for i in 0..SHARDS {
                let ops = test.shard_mut(i).take_journal();
                let mut w =
                    WalWriter::create(&shard_segment_path(&base, i, 0), FsyncPolicy::Always)
                        .unwrap();
                w.append(&ops).unwrap();
                w.sync().unwrap();
            }
            drop(test); // the crash: all in-memory state gone

            let mut recovered = sharded();
            let recs = recover_shards(None, Some(&base), SHARDS).unwrap();
            for (i, rec) in recs.into_iter().enumerate() {
                recovered.shard_mut(i as u32).restore_state(rec.store).unwrap();
            }
            assert_equivalent(&reference, &recovered, false);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// The fan-out building blocks themselves: running the partial
        /// select on each shard store and merging must equal running the
        /// full query on a single engine — including `count` and `limit`
        /// applied globally after the merge.
        #[test]
        fn partial_select_merge_matches_full_query(events in workload()) {
            let mut reference = single();
            let mut test = sharded();
            for ev in &events {
                reference.push(ev.clone());
                test.push(ev.clone());
            }
            reference.finish();
            test.finish();

            let text = "select count ?v where { ?v room ?r }";
            let ParsedQuery::Select(q) = parse_query(text).unwrap() else {
                panic!("select expected");
            };
            let parts: Vec<_> = (0..SHARDS)
                .map(|i| {
                    partial_select(&test.shard(i).store(), &q, QueryOptions::default()).unwrap()
                })
                .collect();
            let merged = merge_rows(&q, parts);
            let QueryResult::Rows(expect) = reference.query(text).unwrap() else {
                panic!("select expected");
            };
            prop_assert_eq!(merged, expect);
        }
    }
}
