//! End-to-end replication and failover tests against real `fenestrad`
//! subprocesses: a leader shipping per-shard WAL segments, a warm
//! follower serving reads and redirecting ingest, `kill -9` on the
//! leader followed by fenced promotion, and the demoted ex-leader
//! rejoining as a follower of the new epoch.

use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

/// A running fenestrad over a state directory, with its announced
/// client address and (when `--replicate` was passed) replication
/// address.
struct Daemon {
    child: Child,
    addr: String,
    repl_addr: Option<String>,
}

impl Daemon {
    /// Spawn over `dir` with a WAL, a snapshot path, durable acks, and
    /// a small rules file (attribute declarations and rules only — the
    /// follower-setup contract). `extra` carries the role flags.
    fn spawn(dir: &Path, extra: &[&str]) -> Daemon {
        let rules = dir.join("rules.txt");
        std::fs::write(&rules, "rule mv:\n on s\n replace $(visitor).room = room\n").unwrap();
        let mut child = Command::new(fenestrad_bin())
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--shards")
            .arg("2")
            .arg("--snapshot")
            .arg(dir.join("state.json"))
            .arg("--wal")
            .arg(dir.join("log"))
            .arg("--fsync")
            .arg("always")
            .arg("--rules")
            .arg(&rules)
            .args(extra)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fenestrad");
        let expect_repl = extra.contains(&"--replicate");
        // The daemon announces its bound addresses on stderr, client
        // listener first, replication listener after.
        let stderr = child.stderr.take().unwrap();
        let mut reader = BufReader::new(stderr);
        let mut addr = None;
        let mut repl_addr = None;
        while addr.is_none() || (expect_repl && repl_addr.is_none()) {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "fenestrad exited before announcing its addresses"
            );
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("fenestrad: listening on ") {
                addr = Some(rest.to_string());
            }
            if let Some(rest) = line.strip_prefix("fenestrad: serving replication to followers on ")
            {
                repl_addr = Some(rest.to_string());
            }
        }
        // Keep draining stderr so the child never blocks on a full
        // pipe.
        std::thread::spawn(move || {
            for line in reader.lines() {
                if line.is_err() {
                    break;
                }
            }
        });
        Daemon {
            child,
            addr: addr.unwrap(),
            repl_addr,
        }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connect to fenestrad");
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    /// SIGKILL — no drain, no snapshot, no farewell to followers.
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
        // One write: `writeln!` sends the newline as a second segment,
        // which this client's Nagle holds until the server's ACK.
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
    let dir = std::env::temp_dir().join(format!("fenestra-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Ingest `n` events (each moves a fresh visitor into a room), read
/// every durable ack, then issue a `sync` barrier.
fn ingest_acked(c: &mut Conn, n: u64) {
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
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");
}

fn occupied_rooms(c: &mut Conn) -> usize {
    let v = c.call(r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    v.get("rows").and_then(Json::as_array).unwrap().len()
}

/// Poll the daemon until its queryable state holds `n` occupied rooms
/// (replication is asynchronous; the ship→apply lag is the wait).
fn wait_rows(daemon: &Daemon, n: usize, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = usize::MAX;
    while Instant::now() < deadline {
        let mut c = daemon.connect();
        last = occupied_rooms(&mut c);
        if last == n {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("{why}: wanted {n} rows, follower converged to {last}");
}

fn repl_stat(stats: &Json, key: &str) -> u64 {
    stats
        .get("replication")
        .and_then(|r| r.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing replication.{key} in {stats}"))
}

/// Ingest one event and return the raw ack line (ok or error).
fn ingest_one(c: &mut Conn, ts: u64) -> Json {
    c.call(&format!(
        r#"{{"stream":"s","ts":{ts},"visitor":"v{ts}","room":"r{ts}"}}"#
    ))
}

/// Poll the leader's stats until `replication.followers` reaches `n` —
/// i.e. a shipping session is live and coverage claims can arrive.
fn wait_followers(c: &mut Conn, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = c.call(r#"{"cmd":"stats"}"#);
        if repl_stat(&s, "followers") >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no follower session registered: {s}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A warm follower mirrors the leader's WAL, serves queries locally,
/// redirects ingest to the leader, and reports its role in `stats`.
#[test]
fn follower_serves_reads_and_redirects_ingest() {
    let ldir = tmp_dir("reads-leader");
    let fdir = tmp_dir("reads-follower");
    const N: u64 = 25;

    let leader = Daemon::spawn(&ldir, &["--replicate", "127.0.0.1:0"]);
    let repl = leader.repl_addr.clone().unwrap();
    let follower = Daemon::spawn(&fdir, &["--follow", &repl]);

    let mut lc = leader.connect();
    ingest_acked(&mut lc, N);
    wait_rows(&follower, N as usize, "follower catches up");

    let mut fc = follower.connect();
    // Ingest on the follower is refused with a redirect to the leader.
    let v = fc.call(r#"{"stream":"s","ts":99,"visitor":"vx","room":"rx"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");
    assert_eq!(
        v.get("redirect").and_then(Json::as_str),
        Some(repl.as_str()),
        "{v}"
    );
    // Roles and counters: the follower applied shipped frames, the
    // leader shipped them.
    let fs = fc.call(r#"{"cmd":"stats"}"#);
    assert_eq!(
        fs.get("replication")
            .and_then(|r| r.get("role"))
            .and_then(Json::as_str),
        Some("follower"),
        "{fs}"
    );
    assert!(repl_stat(&fs, "applied_ops") >= N, "{fs}");
    let ls = lc.call(r#"{"cmd":"stats"}"#);
    assert!(repl_stat(&ls, "ship_bytes") > 0, "{ls}");
    assert_eq!(repl_stat(&ls, "followers"), 1, "{ls}");

    follower.shutdown();
    leader.shutdown();
}

/// The failover drill: `kill -9` the leader after durably-acked
/// ingest, promote the follower, and verify every acked event is
/// queryable on the new leader — which now takes writes under a bumped
/// fencing epoch. The demoted ex-leader then rejoins as a follower of
/// the new epoch and converges on the same state.
#[test]
fn kill9_leader_failover_loses_no_acked_events() {
    let ldir = tmp_dir("failover-leader");
    let fdir = tmp_dir("failover-follower");
    const N: u64 = 40;

    // `--snapshot-every-ms` makes the leader rotate segments mid-run,
    // so the follower exercises the Rotate path, not just appends.
    let leader = Daemon::spawn(
        &ldir,
        &["--replicate", "127.0.0.1:0", "--snapshot-every-ms", "150"],
    );
    let repl = leader.repl_addr.clone().unwrap();
    // The follower also listens for followers of its own, so the
    // ex-leader can rejoin after the failover.
    let follower = Daemon::spawn(&fdir, &["--follow", &repl, "--replicate", "127.0.0.1:0"]);

    let mut lc = leader.connect();
    ingest_acked(&mut lc, N);
    wait_rows(
        &follower,
        N as usize,
        "follower catches up before the crash",
    );

    leader.kill9();

    let mut fc = follower.connect();
    let v = fc.call(r#"{"cmd":"promote"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    let epoch = v.get("epoch").and_then(Json::as_u64).unwrap();
    assert!(epoch >= 1, "promotion bumps the epoch: {v}");

    // Nothing durably acked on the old leader is missing.
    assert_eq!(occupied_rooms(&mut fc), N as usize, "acked events survive");
    // The promoted node takes writes now (no redirect).
    let ts = N + 1;
    let v = fc.call(&format!(
        r#"{{"stream":"s","ts":{ts},"visitor":"v{ts}","room":"r{ts}"}}"#
    ));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    let v = fc.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(occupied_rooms(&mut fc), N as usize + 1);
    let fs = fc.call(r#"{"cmd":"stats"}"#);
    assert_eq!(
        fs.get("replication")
            .and_then(|r| r.get("role"))
            .and_then(Json::as_str),
        Some("leader"),
        "{fs}"
    );
    assert_eq!(repl_stat(&fs, "epoch"), epoch, "{fs}");

    // The ex-leader rejoins from its stale directory as a follower of
    // the promoted node: its epoch-0 resume positions cannot splice
    // into the post-promotion lineage, so it is re-bootstrapped, adopts
    // the new epoch, and converges — including the post-failover write
    // it never saw as leader.
    let new_repl = follower.repl_addr.clone().unwrap();
    let rejoined = Daemon::spawn(&ldir, &["--follow", &new_repl]);
    wait_rows(&rejoined, N as usize + 1, "ex-leader converges as follower");
    let mut rc = rejoined.connect();
    let rs = rc.call(r#"{"cmd":"stats"}"#);
    assert_eq!(
        repl_stat(&rs, "epoch"),
        epoch,
        "adopted the new epoch: {rs}"
    );

    rejoined.shutdown();
    follower.shutdown();
}

/// With `--sync-replicas 1` an ack is a two-node durability claim:
/// while no follower is attached every ack times out with an error (the
/// events stay durable locally), and once a follower covers the WAL
/// bytes acks go back to `ok`.
#[test]
fn sync_acks_require_follower_coverage() {
    let ldir = tmp_dir("sync-leader");
    let fdir = tmp_dir("sync-follower");

    let leader = Daemon::spawn(
        &ldir,
        &[
            "--replicate",
            "127.0.0.1:0",
            "--sync-replicas",
            "1",
            "--sync-timeout-ms",
            "300",
        ],
    );
    let mut lc = leader.connect();

    // No follower: the durable ack waits out the sync timeout and then
    // fails, telling the client exactly what it still has.
    let v = ingest_one(&mut lc, 1);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");
    let err = v.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        err.contains("sync replication timed out"),
        "error names the sync timeout: {v}"
    );

    // Attach a follower; once its shipping session is live, new ingest
    // is covered within the timeout and acks succeed again.
    let repl = leader.repl_addr.clone().unwrap();
    let follower = Daemon::spawn(&fdir, &["--follow", &repl]);
    wait_followers(&mut lc, 1);
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut ts = 2;
    loop {
        let v = ingest_one(&mut lc, ts);
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "acks never recovered after the follower attached: {v}"
        );
        ts += 1;
    }

    let s = lc.call(r#"{"cmd":"stats"}"#);
    assert!(repl_stat(&s, "sync_acks_timeout") >= 1, "{s}");
    assert!(repl_stat(&s, "sync_acks_ok") >= 1, "{s}");
    assert_eq!(repl_stat(&s, "sync_acks_fallback"), 0, "{s}");

    follower.shutdown();
    leader.shutdown();
}

/// `--sync-fallback` trades the hard failure for availability: with no
/// follower the ack still waits out the timeout, then releases as a
/// plain locally-durable ack and counts the degradation.
#[test]
fn sync_fallback_releases_acks_without_coverage() {
    let dir = tmp_dir("sync-fallback");

    let leader = Daemon::spawn(
        &dir,
        &[
            "--replicate",
            "127.0.0.1:0",
            "--sync-replicas",
            "1",
            "--sync-timeout-ms",
            "150",
            "--sync-fallback",
        ],
    );
    let mut lc = leader.connect();
    ingest_acked(&mut lc, 5);

    let s = lc.call(r#"{"cmd":"stats"}"#);
    assert!(repl_stat(&s, "sync_acks_fallback") >= 1, "{s}");
    assert_eq!(repl_stat(&s, "sync_acks_timeout"), 0, "{s}");

    leader.shutdown();
}

/// The loss window this mode closes: `kill -9` the sync leader the
/// instant the last ack lands — no convergence wait, no sync barrier on
/// the follower — and every acked event must already be on the
/// promoted follower. Under async replication this exact sequence can
/// lose the tail (acked locally, killed before shipping); under
/// `--sync-replicas 1` the ack itself proves follower coverage.
#[test]
fn kill9_sync_leader_immediately_after_acks_loses_nothing() {
    let ldir = tmp_dir("sync-kill-leader");
    let fdir = tmp_dir("sync-kill-follower");
    const N: u64 = 30;

    let leader = Daemon::spawn(
        &ldir,
        &[
            "--replicate",
            "127.0.0.1:0",
            "--sync-replicas",
            "1",
            "--sync-timeout-ms",
            "5000",
            "--snapshot-every-ms",
            "150",
        ],
    );
    let repl = leader.repl_addr.clone().unwrap();
    let follower = Daemon::spawn(&fdir, &["--follow", &repl]);

    let mut lc = leader.connect();
    wait_followers(&mut lc, 1);
    ingest_acked(&mut lc, N);
    // Every ack above carried follower coverage; kill the leader NOW,
    // with zero grace for any still-unshipped bytes.
    leader.kill9();

    let mut fc = follower.connect();
    let v = fc.call(r#"{"cmd":"promote"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(
        occupied_rooms(&mut fc),
        N as usize,
        "synchronously acked events survive an immediate kill -9"
    );

    follower.shutdown();
}

/// Promotion is idempotent and fenced exactly once: promoting an
/// already-promoted node is a refused no-op (same epoch, no second
/// lineage), and the node keeps serving reads and taking writes.
#[test]
fn promotion_is_idempotent_and_refused_on_a_leader() {
    let ldir = tmp_dir("idem-leader");
    let fdir = tmp_dir("idem-follower");
    const N: u64 = 10;

    let leader = Daemon::spawn(&ldir, &["--replicate", "127.0.0.1:0"]);
    // A leader that never followed refuses promotion outright.
    let mut lc = leader.connect();
    let v = lc.call(r#"{"cmd":"promote"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");

    let repl = leader.repl_addr.clone().unwrap();
    let follower = Daemon::spawn(&fdir, &["--follow", &repl]);
    ingest_acked(&mut lc, N);
    wait_rows(&follower, N as usize, "follower catches up");
    leader.kill9();

    let mut fc = follower.connect();
    let v = fc.call(r#"{"cmd":"promote"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    let epoch = v.get("epoch").and_then(Json::as_u64).unwrap();

    // Second promote: refused, and the epoch did not move again.
    let v = fc.call(r#"{"cmd":"promote"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");
    assert_eq!(
        v.get("error").and_then(Json::as_str),
        Some("not a follower: this node is already the leader"),
        "{v}"
    );
    let s = fc.call(r#"{"cmd":"stats"}"#);
    assert_eq!(repl_stat(&s, "epoch"), epoch, "no double epoch bump: {s}");

    // Still a functioning leader after the refused re-promotion.
    assert_eq!(occupied_rooms(&mut fc), N as usize);
    let ts = N + 1;
    let v = ingest_one(&mut fc, ts);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");

    follower.shutdown();
}
