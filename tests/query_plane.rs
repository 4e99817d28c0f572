//! The planner query plane end to end: legacy statements and the SQL
//! dialect compile to the same plans, replies stay byte-identical
//! across repeated (cached) dispatches, `EXPLAIN` shows predicate
//! pushdown reaching the shard fan-out, fan-out results match the
//! single-shard server, and the plan cache is visible through `stats`
//! and the Prometheus listener.

use fenestra::base::time::Duration;
use fenestra::core::EngineConfig;
use fenestra::reason::parse_ontology;
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
/// the tumbling-aggregation queries. The `alice` created last sorts
/// between `a4` and `b0`, so entity-id order is not name order. Each
/// visitor also names itself in `me`, whose ontology inverse
/// `self_of` is entity-valued. Zero lateness (the default) so every
/// shard applies its events immediately; the trailing sync proves it.
fn populated_server(shards: u32) -> ServerHandle {
    let config = ServerConfig::new("127.0.0.1:0")
        .shards(shards)
        .metrics_addr("127.0.0.1:0")
        .engine(EngineConfig {
            max_lateness: Duration::millis(0),
            auto_reason: true,
            ..EngineConfig::default()
        })
        .setup(|engine| {
            engine.declare_attr("room", AttrSchema::one());
            engine
                .add_rules_text(
                    "rule mv:\n on sensors\n replace $(visitor).room = room\n\
                     rule me:\n on sensors\n replace $(visitor).me = visitor",
                )
                .unwrap();
            engine.set_ontology(parse_ontology("property me inverse self_of").unwrap());
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
    // A statement whose seventh byte falls inside a character gets an
    // error reply, and the connection keeps answering.
    let v = c.call(r#"{"cmd":"query","q":"ééééé"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v}");
    assert_eq!(c.call_raw(legacy), first, "connection survives");
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
    let mut two = populated_server(2);
    let mut four = populated_server(4);
    let mut c1 = Client::connect(one.local_addr());
    let mut c2 = Client::connect(two.local_addr());
    let mut c4 = Client::connect(four.local_addr());

    // Every shard count answers through the same per-shard part and
    // merge, so the reply lines are byte-identical: entity columns are
    // ordered by name, and `LIMIT` keeps the first rows in that order.
    for q in [
        r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#,
        r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#,
        r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r } limit 7"}"#,
        r#"{"cmd":"query","q":"select count ?v where { ?v room ?r } limit 7"}"#,
        r#"{"cmd":"query","q":"select ?v ?o where { ?v self_of ?o }"}"#,
        r#"{"cmd":"query","q":"history a3 self_of"}"#,
        r#"{"cmd":"query","q":"history nobody room"}"#,
        r#"{"cmd":"query","sql":"SELECT entity FROM state WHERE room = \"lobby\""}"#,
        r#"{"cmd":"query","sql":"SELECT entity, room FROM state"}"#,
        r#"{"cmd":"query","sql":"SELECT entity, room FROM state LIMIT 7"}"#,
        r#"{"cmd":"query","sql":"SELECT count(room) AS n FROM state GROUP BY tumbling(60000)"}"#,
        r#"{"cmd":"query","sql":"SELECT window_start, room, count(*) AS n FROM state GROUP BY room, sliding(4, 2) DURING 0 TO 1010"}"#,
        r#"{"cmd":"query","sql":"SELECT window_start, window_end, max(room) AS hi FROM state GROUP BY session(3)"}"#,
        r#"{"cmd":"query","sql":"SELECT entity, min(room) AS lo FROM state GROUP BY entity, tumbling(1s) LIMIT 4"}"#,
    ] {
        let r1 = c1.call_raw(q);
        assert_eq!(c2.call_raw(q), r1, "2 shards: {q}");
        assert_eq!(c4.call_raw(q), r1, "4 shards: {q}");
    }
    let limited = c1.call(r#"{"cmd":"query","sql":"SELECT entity, room FROM state LIMIT 7"}"#);
    let names: Vec<&str> = limited
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{limited}"))
        .iter()
        .map(|r| r.get("entity").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["a0", "a1", "a2", "a3", "a4", "alice", "b0"]);
    let v = c1.call(r#"{"cmd":"query","q":"history a3 self_of"}"#);
    assert_eq!(
        v.get("history")
            .and_then(Json::as_array)
            .and_then(|spans| spans.first())
            .and_then(|span| span.get("value"))
            .and_then(Json::as_str),
        Some("a3"),
        "entity-valued spans resolve to names: {v}"
    );

    // A repeated statement is served from the cache on the sharded
    // server too (visible below on the metrics listener).
    let lab = r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#;
    assert_eq!(
        c4.call_raw(lab),
        c4.call_raw(lab),
        "cached fan-out dispatch"
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

    // A window statement aggregates per shard and merges the partials.
    let v = c4.call(
        r#"{"cmd":"query","sql":"EXPLAIN SELECT count(room) AS n FROM state GROUP BY tumbling(60000)"}"#,
    );
    let physical = v
        .get("explain")
        .and_then(|e| e.get("physical"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{v}"));
    assert!(
        physical.starts_with("WindowMerge shards=4 window=tumbling(60000)")
            && physical.contains("\n  PanePartial pane=60000 keys=[] aggs=[count(room) AS n]"),
        "{physical}"
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
    two.shutdown();
    four.shutdown();
}

#[test]
fn watches_of_one_statement_share_an_evaluation_not_their_deltas() {
    let mut handle = populated_server(2);
    let mut watcher = Client::connect(handle.local_addr());
    let mut writer = Client::connect(handle.local_addr());
    let lab = r#"select ?v where { ?v room \"lab\" }"#;
    let lobby = r#"select ?v where { ?v room \"lobby\" }"#;
    for (name, q) in [("w1", lab), ("w2", lab), ("w3", lobby)] {
        watcher.send(&format!(r#"{{"cmd":"watch","name":"{name}","q":"{q}"}}"#));
    }
    // Three acks, then five initial rows per watch.
    let (mut acks, mut initial) = (0, Vec::new());
    while acks < 3 || initial.len() < 15 {
        let v = watcher.recv();
        match v.get("sign") {
            Some(_) => initial.push(v),
            None => acks += 1,
        }
    }
    // Shards answer a registration in either order: compare sorted.
    let rows_of = |name: &str, deltas: &[Json]| -> Vec<String> {
        let mut rows: Vec<String> = deltas
            .iter()
            .filter(|d| d.get("watch").and_then(Json::as_str) == Some(name))
            .map(|d| d.get("row").unwrap().to_string())
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(rows_of("w1", &initial).len(), 5);
    assert_eq!(rows_of("w1", &initial), rows_of("w2", &initial));
    // One move at a time, so every delta comes from one shard's poll
    // pass: each watch in registration order, leavers before joiners.
    let moves = [
        (
            5_000_000,
            "b0",
            "lab",
            vec![("w1", 1, "b0"), ("w2", 1, "b0"), ("w3", -1, "b0")],
        ),
        (
            5_000_001,
            "a1",
            "lobby",
            vec![("w1", -1, "a1"), ("w2", -1, "a1"), ("w3", 1, "a1")],
        ),
    ];
    for (ts, who, room, want) in moves {
        let v = writer.call(&format!(
            r#"{{"stream":"sensors","ts":{ts},"visitor":"{who}","room":"{room}"}}"#
        ));
        assert!(ok(&v), "{v}");
        let got: Vec<(String, i64, String)> = (0..want.len())
            .map(|_| {
                let d = watcher.recv();
                (
                    d.get("watch").and_then(Json::as_str).unwrap().to_string(),
                    d.get("sign").and_then(Json::as_i64).unwrap(),
                    d.get("row")
                        .and_then(|r| r.get("v"))
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        let want: Vec<(String, i64, String)> = want
            .into_iter()
            .map(|(w, s, v)| (w.to_string(), s, v.to_string()))
            .collect();
        assert_eq!(got, want, "move of {who} to {room}");
    }
    handle.shutdown();
}

/// Query lines that arrive together are answered together, as one
/// burst, but each reply is the one that line gets on its own, in
/// request order, whatever the shard count: point, occupancy, `AS OF`,
/// history, window and `EXPLAIN` statements, and one that does not
/// compile.
#[test]
fn a_burst_answers_each_line_as_if_sent_alone() {
    let burst = [
        r#"{"cmd":"query","q":"select ?r where { \"a3\" room ?r }"}"#,
        r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" } limit 3"}"#,
        r#"{"cmd":"query","q":"select ?r where { \"b1\" room ?r } asof 1003"}"#,
        r#"{"cmd":"query","q":"history a3 self_of"}"#,
        r#"{"cmd":"query","q":"select ?v where { ?v room ?r"}"#,
        r#"{"cmd":"query","sql":"SELECT window_start, room, count(*) AS n FROM state GROUP BY room, sliding(4, 2) DURING 0 TO 1010"}"#,
        r#"{"cmd":"query","sql":"EXPLAIN SELECT entity FROM state WHERE room = \"lab\" LIMIT 2"}"#,
        r#"{"cmd":"query","q":"select count ?v where { ?v room ?r }"}"#,
    ];
    for shards in [1, 2, 4] {
        let mut handle = populated_server(shards);
        let mut alone = Client::connect(handle.local_addr());
        let want: Vec<String> = burst.iter().map(|q| alone.call_raw(q)).collect();
        assert!(
            want[4].starts_with(r#"{"ok":false"#),
            "the malformed statement fails: {}",
            want[4]
        );
        let mut together = Client::connect(handle.local_addr());
        together.send(&burst.join("\n"));
        for (q, want) in burst.iter().zip(&want) {
            let got = together.lines.next().expect("reply").expect("read");
            assert_eq!(&got, want, "{shards} shards: {q}");
        }
        handle.shutdown();
    }
}

/// Within a connection, a line that is not a query waits for the
/// burst before it: a query sent ahead of an event in the same write
/// does not see it, and one sent after does.
#[test]
fn an_event_between_queries_splits_the_burst() {
    for shards in [1, 2] {
        let mut handle = populated_server(shards);
        let mut c = Client::connect(handle.local_addr());
        let lab = r#"{"cmd":"query","q":"select ?v where { ?v room \"lab\" }"}"#;
        let event = r#"{"stream":"sensors","ts":5000000,"visitor":"zed","room":"lab"}"#;
        c.send(&[lab, event, lab].join("\n"));
        let in_lab = |v: &Json| -> Vec<String> {
            v.get("rows")
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{v}"))
                .iter()
                .map(|r| r.get("v").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let before = c.recv();
        assert_eq!(
            in_lab(&before),
            ["a0", "a1", "a2", "a3", "a4"],
            "{shards} shards"
        );
        let ack = c.recv();
        assert_eq!(ack.get("seq").and_then(Json::as_u64), Some(1), "{ack}");
        let after = c.recv();
        assert_eq!(
            in_lab(&after),
            ["a0", "a1", "a2", "a3", "a4", "zed"],
            "{shards} shards"
        );
        handle.shutdown();
    }
}
