//! The planner query plane end to end: legacy statements and the SQL
//! dialect compile to the same plans, replies stay byte-identical
//! across repeated (cached) dispatches, `EXPLAIN` shows predicate
//! pushdown reaching the shard fan-out, fan-out results match the
//! single-shard server, and the plan cache is visible through `stats`
//! and the Prometheus listener.

use fenestra::base::time::Duration;
use fenestra::core::EngineConfig;
use fenestra::server::{Server, ServerConfig, ServerHandle};
use fenestra::temporal::AttrSchema;
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

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

    /// Round-trip one request, returning the raw reply line (for
    /// byte-identity assertions).
    fn call_raw(&mut self, line: &str) -> String {
        self.send(line);
        self.lines
            .next()
            .expect("connection closed early")
            .expect("read")
    }

    fn recv(&mut self) -> Json {
        let line = self
            .lines
            .next()
            .expect("connection closed early")
            .expect("read");
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad reply `{line}`: {e}"))
    }

    /// Round-trip one request, parsed.
    fn call(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Start a server with `shards` shards, the visitor→room rule, and a
/// populated store: a0–a4 in the lab, b0–b4 in the lobby (ts
/// 1000–1009), plus a far-future event that opens a second window for
/// the tumbling-aggregation queries. Zero lateness (the default) so
/// every shard applies its events immediately; the trailing sync
/// proves it.
fn populated_server(shards: u32) -> ServerHandle {
    let config = ServerConfig::new("127.0.0.1:0")
        .shards(shards)
        .metrics_addr("127.0.0.1:0")
        .engine(EngineConfig {
            max_lateness: Duration::millis(0),
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
        });
    let handle = Server::start(config).expect("start server");
    let mut c = Client::connect(handle.local_addr());
    for i in 0..10u64 {
        let (prefix, room) = if i < 5 { ("a", "lab") } else { ("b", "lobby") };
        let v = c.call(&format!(
            r#"{{"stream":"sensors","ts":{},"visitor":"{prefix}{}","room":"{room}"}}"#,
            1000 + i,
            i % 5
        ));
        assert!(ok(&v), "{v}");
    }
    let v = c.call(r#"{"stream":"sensors","ts":4000000,"visitor":"alice","room":"attic"}"#);
    assert!(ok(&v), "{v}");
    let v = c.call(r#"{"cmd":"sync"}"#);
    assert_eq!(v.get("synced").and_then(Json::as_bool), Some(true), "{v}");
    handle
}

/// A reply's rows as a sorted multiset of rendered objects, so row
/// order and binding names don't matter when comparing dialects.
fn row_values(v: &Json) -> Vec<String> {
    let rows = v
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no rows in {v}"));
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut vals: Vec<String> = row
                .as_object()
                .unwrap()
                .values()
                .map(Json::to_string)
                .collect();
            vals.sort();
            vals.join(",")
        })
        .collect();
    out.sort();
    out
}

#[test]
fn plan_cache_dedupes_and_explain_shows_pushdown() {
    let mut handle = populated_server(1);
    let mut c = Client::connect(handle.local_addr());

    // Legacy select through the plan path: repeated dispatches are
    // byte-identical, and the second is a cache hit.
    let legacy = r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#;
    let first = c.call_raw(legacy);
    let second = c.call_raw(legacy);
    assert_eq!(first, second, "cached dispatch is byte-identical");
    let legacy_rows: Json = serde_json::from_str(&first).unwrap();
    assert_eq!(row_values(&legacy_rows).len(), 5, "{legacy_rows}");

    // The SQL dialect compiles to the same physical plan: same rows
    // (modulo the binding name), accepted under the `sql` key.
    let sql = c.call(r#"{"cmd":"query","sql":"SELECT entity FROM state WHERE room = \"lab\""}"#);
    assert!(ok(&sql), "{sql}");
    assert_eq!(row_values(&sql), row_values(&legacy_rows));

    // EXPLAIN renders both trees and names the rewrites; the pushed
    // constant lands in the pattern.
    let v =
        c.call(r#"{"cmd":"query","sql":"EXPLAIN SELECT entity FROM state WHERE room = \"lab\""}"#);
    assert!(ok(&v), "{v}");
    let explain = v.get("explain").unwrap_or_else(|| panic!("{v}"));
    let rules: Vec<&str> = explain
        .get("rules")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.as_str().unwrap())
        .collect();
    assert!(rules.contains(&"predicate_pushdown"), "{rules:?}");
    assert_eq!(explain.get("dialect").and_then(Json::as_str), Some("sql"));
    let physical = explain.get("physical").and_then(Json::as_str).unwrap();
    assert!(
        physical.contains(r#"?entity room "lab""#),
        "pushed constant in scan: {physical}"
    );
    assert!(
        physical.contains("filters=[]"),
        "filter absorbed: {physical}"
    );

    // History through the plan path.
    let v = c.call(r#"{"cmd":"query","q":"history a0 room"}"#);
    let spans = v.get("history").and_then(Json::as_array).unwrap();
    assert_eq!(spans.len(), 1, "{v}");
    assert_eq!(spans[0].get("value").and_then(Json::as_str), Some("lab"));

    // Two watches of the statement the queries above compiled share
    // the cached plan: entries don't grow, hits do.
    let stats = c.call(r#"{"cmd":"stats"}"#);
    let plans = stats.get("plans").unwrap_or_else(|| panic!("{stats}"));
    let cache_field = |p: &Json, f: &str| -> u64 {
        p.get("cache")
            .and_then(|c| c.get(f))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no plans.cache.{f} in {p}"))
    };
    let (hits0, entries0) = (cache_field(plans, "hits"), cache_field(plans, "entries"));
    assert!(
        plans.get("compile_us").is_some_and(Json::is_object),
        "{stats}"
    );
    assert!(plans.get("exec_us").is_some_and(Json::is_object), "{stats}");
    // Each watch acks and then pushes its five initial lab rows;
    // drain acks and deltas (deltas carry a `sign`) before moving on.
    for name in ["w1", "w2"] {
        c.send(&format!(
            r#"{{"cmd":"watch","name":"{name}","q":"select ?v where {{ ?v room \"lab\" }}"}}"#
        ));
    }
    let (mut acks, mut deltas) = (0, 0);
    while acks < 2 || deltas < 10 {
        let v = c.recv();
        if v.get("sign").is_some() {
            deltas += 1;
        } else {
            assert!(v.get("watch").is_some(), "unexpected reply: {v}");
            acks += 1;
        }
    }
    let stats = c.call(r#"{"cmd":"stats"}"#);
    let plans = stats.get("plans").unwrap_or_else(|| panic!("{stats}"));
    assert_eq!(
        cache_field(plans, "entries"),
        entries0,
        "watches reuse the cached plan: {stats}"
    );
    assert!(
        cache_field(plans, "hits") >= hits0 + 2,
        "watch registration hits the cache: {stats}"
    );

    // Unknown commands and frame ops get the structured error.
    let v = c.call(r#"{"cmd":"frobnicate"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let err = v.get("error").and_then(Json::as_str).unwrap();
    assert!(err.contains("unknown command"), "{v}");
    assert!(
        v.get("supported")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .any(|s| s.as_str() == Some("query")),
        "{v}"
    );
    let v = c.call(r#"{"op":"frobnicate"}"#);
    let err = v.get("error").and_then(Json::as_str).unwrap();
    assert!(err.contains("unknown op"), "{v}");
    assert_eq!(
        v.get("supported").and_then(Json::as_array).unwrap().len(),
        1,
        "{v}"
    );

    handle.shutdown();
}

#[test]
fn sharded_fanout_matches_single_shard() {
    let mut one = populated_server(1);
    let mut four = populated_server(4);
    let mut c1 = Client::connect(one.local_addr());
    let mut c4 = Client::connect(four.local_addr());

    for q in [
        r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#,
        r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#,
        r#"{"cmd":"query","sql":"SELECT entity FROM state WHERE room = \"lobby\""}"#,
        r#"{"cmd":"query","sql":"SELECT entity, room FROM state"}"#,
        r#"{"cmd":"query","sql":"SELECT count(room) AS n FROM state GROUP BY tumbling(60000)"}"#,
    ] {
        let r1 = c1.call(q);
        let r4 = c4.call(q);
        assert!(ok(&r1), "{q}: {r1}");
        assert_eq!(row_values(&r1), row_values(&r4), "{q}");
    }

    // A repeated statement is served from the cache on the sharded
    // server too (visible below on the metrics listener).
    let lab = r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#;
    assert_eq!(
        c4.call_raw(lab),
        c4.call_raw(lab),
        "cached fan-out dispatch"
    );

    // History merges identically (spans ordered by start either way).
    let h = r#"{"cmd":"query","q":"history a3 room"}"#;
    assert_eq!(
        c1.call(h).get("history"),
        c4.call(h).get("history"),
        "history fan-out merge"
    );

    // The sharded EXPLAIN shows the pushed predicate reaching the
    // per-shard partial scans under the merge operator.
    let v =
        c4.call(r#"{"cmd":"query","sql":"EXPLAIN SELECT entity FROM state WHERE room = \"lab\""}"#);
    let physical = v
        .get("explain")
        .and_then(|e| e.get("physical"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{v}"));
    assert!(physical.contains("Merge shards=4"), "{physical}");
    assert!(
        physical.contains(r#"StateScan partial patterns=[?entity room "lab"]"#),
        "pushdown reaches the fan-out: {physical}"
    );

    // Cache traffic is visible on the Prometheus listener.
    let maddr = four.metrics_addr().expect("metrics listener bound");
    let mut m = TcpStream::connect(maddr).expect("connect metrics");
    m.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    write!(m, "GET /metrics HTTP/1.1\r\nHost: fenestra\r\n\r\n").unwrap();
    let mut response = String::new();
    use std::io::Read;
    m.read_to_string(&mut response).expect("read response");
    let body = response.split_once("\r\n\r\n").expect("http body").1;
    let sample = |name: &str| -> u64 {
        body.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in:\n{body}"))
    };
    assert!(sample("fenestra_plan_cache_misses_total") >= 5);
    assert!(
        sample("fenestra_plan_cache_hits_total") >= 1,
        "EXPLAIN warmed the statement it shares with the executed query"
    );
    assert!(sample("fenestra_plan_cache_entries") >= 5);
    assert!(sample("fenestra_plan_exec_us_count") >= 6);

    one.shutdown();
    four.shutdown();
}
