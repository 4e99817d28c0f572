//! Wire protocol: line-delimited JSON requests and replies.
//!
//! Parsing and serialization only — no I/O. The server and the
//! integration tests share these builders so the protocol is defined
//! in exactly one place.

use fenestra_base::error::{Error, Result};
use fenestra_base::record::Event;
use fenestra_base::symbol::Symbol;
use fenestra_base::value::Value;
use fenestra_core::{QueryResult, WatchDelta};
use fenestra_temporal::{Provenance, TemporalStore};
use serde_json::{Map, Value as Json};
use std::fmt::Write;

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// An event to ingest (any object without a `"cmd"` or `"op"` key).
    Event(Event),
    /// `{"op":"ingest","events":[{…},…]}` — a batch of events in one
    /// frame, acked once (`{"ok":true,"seq":L,"count":K}`). Amortizes
    /// syscalls and JSON framing over the batch; the whole frame is
    /// admitted (or shed) atomically. Only a `"op":"ingest"` object
    /// *without* a `"stream"` key is a batch frame: an event can still
    /// carry its own `op` field (even `"ingest"`) because an event
    /// always carries `stream`.
    Batch(Vec<Event>),
    /// `{"cmd":"query","q":"select …"}` — run a query, reply once.
    Query {
        /// Query text.
        text: String,
    },
    /// `{"cmd":"watch","name":"…","q":"select …"}` — register a
    /// standing query; deltas are pushed to this connection.
    Watch {
        /// Subscription name (echoed in every delta).
        name: String,
        /// Query text (`history` queries are rejected).
        text: String,
    },
    /// `{"cmd":"stats"}` — engine + server counters, stage-latency
    /// histograms, and per-shard gauges. Served lock-light from the
    /// connection thread (no shard round-trip), so a stats reply is
    /// **not** a processing barrier — use [`Request::Sync`] for that.
    Stats,
    /// `{"cmd":"sync"}` — a processing barrier: the reply
    /// (`{"ok":true,"synced":true}`) is sent only after every shard
    /// has processed every command admitted before this one on this
    /// connection (FIFO shard queues make the fan-out round-trip a
    /// proof of processing).
    Sync,
    /// `{"cmd":"shutdown"}` — drain, snapshot, exit.
    Shutdown,
    /// `{"cmd":"promote"}` — on a follower, stop following, bump the
    /// fencing epoch, and start serving ingest as the new leader.
    /// Errors on a server that is not following anyone.
    Promote,
}

/// Parse one request line. Objects carrying a `"cmd"` key are
/// commands; `{"op":"ingest",…}` *without* a `"stream"` key is a batch
/// frame (an event always carries `stream`, so events keep their
/// schema-free field namespace — including an `op` field); everything
/// else must parse as an event.
pub fn parse_request(line: &str) -> Result<Request> {
    let json: Json =
        serde_json::from_str(line).map_err(|e| Error::Invalid(format!("bad JSON request: {e}")))?;
    let Some(cmd) = json.get("cmd") else {
        if json.get("op").and_then(Json::as_str) == Some("ingest") && json.get("stream").is_none() {
            return parse_batch(json);
        }
        return fenestra_wire::event_from_json(line).map(Request::Event);
    };
    let Some(cmd) = cmd.as_str() else {
        return Err(Error::Invalid("`cmd` must be a string".into()));
    };
    let text_field = |json: &Json| -> Result<String> {
        json.get("q")
            .or_else(|| json.get("query"))
            .or_else(|| json.get("sql"))
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| Error::Invalid(format!("`{cmd}` needs a `q` field with query text")))
    };
    match cmd {
        "query" => Ok(Request::Query {
            text: text_field(&json)?,
        }),
        "watch" => {
            let name = json
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| Error::Invalid("`watch` needs a `name` field".into()))?
                .to_owned();
            Ok(Request::Watch {
                name,
                text: text_field(&json)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "sync" => Ok(Request::Sync),
        "shutdown" => Ok(Request::Shutdown),
        "promote" => Ok(Request::Promote),
        other => Err(Error::Invalid(format!(
            "unknown command `{other}` (expected query, watch, stats, sync, promote, or shutdown)"
        ))),
    }
}

/// The commands the JSONL plane understands (`"cmd"` values).
pub const SUPPORTED_COMMANDS: [&str; 6] =
    ["query", "watch", "stats", "sync", "promote", "shutdown"];

/// The frame-level operations (`"op"` values on stream-less objects).
pub const SUPPORTED_OPS: [&str; 1] = ["ingest"];

/// If `line` is a request with an unrecognized `cmd` (or a stream-less
/// object with an unrecognized `op`), build the structured error reply
/// `{"ok":false,"error":"unknown command \`x\`","supported":[…]}` so
/// clients can discover the protocol from the rejection itself.
/// Returns `None` for every other kind of bad line (the caller falls
/// back to the plain [`error`] reply).
pub fn unknown_reply(line: &str) -> Option<String> {
    let json: Json = serde_json::from_str(line).ok()?;
    let (label, value, supported): (&str, &str, &[&str]) = match json.get("cmd") {
        Some(cmd) => {
            let cmd = cmd.as_str()?;
            if SUPPORTED_COMMANDS.contains(&cmd) {
                return None;
            }
            ("command", cmd, &SUPPORTED_COMMANDS)
        }
        None => {
            let op = json.get("op")?.as_str()?;
            if SUPPORTED_OPS.contains(&op) || json.get("stream").is_some() {
                // `op` is a legitimate event field once `stream` is
                // present; only stream-less frames have a frame op.
                return None;
            }
            ("op", op, &SUPPORTED_OPS)
        }
    };
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(false));
    obj.insert(
        "error".into(),
        Json::from(format!("unknown {label} `{value}`")),
    );
    obj.insert(
        "supported".into(),
        Json::Array(supported.iter().map(|s| Json::from(*s)).collect()),
    );
    Some(Json::Object(obj).to_string())
}

/// Parse a `{"op":"ingest","events":[…]}` batch frame. Errors name the
/// offending element so a client can find the bad event in its batch.
fn parse_batch(json: Json) -> Result<Request> {
    let Json::Object(mut obj) = json else {
        unreachable!("callers check `op` on an object");
    };
    let events = obj.remove("events").ok_or_else(|| {
        Error::Invalid(
            "batch ingest needs an `events` array \
             (to ingest a plain event with an `op` field, include `stream`)"
                .into(),
        )
    })?;
    let Json::Array(items) = events else {
        return Err(Error::Invalid("`events` must be an array of events".into()));
    };
    items
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            fenestra_wire::event_from_json_value(v)
                .map_err(|e| Error::Invalid(format!("batch event {i}: {e}")))
        })
        .collect::<Result<Vec<Event>>>()
        .map(Request::Batch)
}

// ----- reply builders -------------------------------------------------------

/// `{"ok":true,"seq":N}` — event accepted.
///
/// What the ack *means* depends on the server's durability config.
/// Without a WAL, or with a lazy fsync policy, it means **admitted**
/// into the ingest queue — weaker than applied: an event past the
/// lateness bound is still acked and then discarded by the engine
/// (counted in the `stats` counter `server.late_dropped`). Under
/// `--fsync always` the ack is deferred until a WAL fsync covers the
/// event, so it means **durable** (though a late event is still
/// discarded, durably so). With `--max-lateness-ms > 0` that deferral
/// extends past the reorder buffer: the ack is withheld until the
/// watermark passes the frame — on an idle stream, until the next
/// event (or shutdown) advances it. To *prove* everything acked so
/// far has been processed, issue a `{"cmd":"sync"}` round-trip: its
/// reply visits every FIFO shard queue. (`stats` is no longer a
/// barrier — it reads atomics on the connection thread.) See the
/// crate docs ("Ack semantics and durability").
pub fn ack(seq: u64) -> String {
    format!("{{\"ok\":true,\"seq\":{seq}}}")
}

/// `{"ok":true,"seq":L,"count":K}` — batch frame of `count` events
/// accepted; `seq` is the sequence number of the batch's *last* event.
/// Same admitted-vs-durable semantics as [`ack`].
pub fn ack_batch(last_seq: u64, count: u64) -> String {
    format!("{{\"ok\":true,\"seq\":{last_seq},\"count\":{count}}}")
}

/// `{"ok":false,"seq":N,"error":…}` — event(s) shed under
/// backpressure. A shed batch frame carries a `count` field; the whole
/// frame was dropped (batch admission is atomic).
pub fn shed(seq: u64, count: u64) -> String {
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(false));
    obj.insert("seq".into(), Json::from(seq));
    if count > 1 {
        obj.insert("count".into(), Json::from(count));
    }
    obj.insert("error".into(), Json::from("shed: ingest queue full"));
    Json::Object(obj).to_string()
}

/// `{"ok":false,"error":…}` — request failed.
pub fn error(msg: &str) -> String {
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(false));
    obj.insert("error".into(), Json::from(msg));
    Json::Object(obj).to_string()
}

/// `{"ok":true,"watch":NAME}` — watch registered.
pub fn watch_ack(name: &str) -> String {
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(true));
    obj.insert("watch".into(), Json::from(name));
    Json::Object(obj).to_string()
}

/// `{"ok":true,"bye":true}` — shutdown acknowledged.
pub fn bye() -> String {
    "{\"ok\":true,\"bye\":true}".into()
}

/// `{"ok":true,"synced":true}` — the `sync` barrier completed: every
/// command admitted before it (on this connection) has been processed
/// by its shard.
pub fn synced() -> String {
    "{\"ok\":true,\"synced\":true}".into()
}

// Query replies and watch deltas are the bulk of the JSONL plane's
// output, so they are written straight into their line, byte for byte
// as the `serde_json` tree they replace would render: keys in
// insertion order, a repeated key written at its first place with its
// last value, the same escapes and number forms.

/// Append `s`'s characters, escaped as `serde_json` escapes them, with
/// no quotes around them.
fn push_escaped(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Append `s` as a JSON string.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Append a value for the wire, resolving entity ids to their
/// registered names (clients see `"a0"`, not an opaque `"#3"`): the
/// bytes of `fenestra_wire::value_to_json` of the resolved value.
fn push_value(out: &mut String, v: Value, store: Option<&TemporalStore>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => match serde_json::Number::from_f64(f) {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        },
        Value::Str(s) => push_str(out, s.as_str()),
        Value::Id(e) => match store.and_then(|s| s.entity_name(e)) {
            Some(name) => push_str(out, name.as_str()),
            None => {
                let _ = write!(out, "\"#{}\"", e.0);
            }
        },
        Value::Time(t) => {
            let _ = write!(out, "{}", t.millis());
        }
    }
}

/// Append one row as a JSON object.
fn push_row(out: &mut String, row: &[(Symbol, Value)], store: Option<&TemporalStore>) {
    out.push('{');
    for (i, (name, _)) in row.iter().enumerate() {
        if row[..i].iter().any(|(n, _)| n == name) {
            continue;
        }
        if i > 0 {
            out.push(',');
        }
        push_str(out, name.as_str());
        out.push(':');
        let last = row[i..].iter().rev().find(|(n, _)| n == name);
        push_value(out, last.expect("the name itself").1, store);
    }
    out.push('}');
}

/// Successful query reply: `{"ok":true,"rows":[…]}` for select
/// queries, `{"ok":true,"history":[…]}` for timelines.
pub fn query_reply(res: &QueryResult, store: Option<&TemporalStore>) -> String {
    let mut out = String::with_capacity(64);
    match res {
        QueryResult::Rows(rows) => {
            out.reserve(rows.len() * 24);
            out.push_str("{\"ok\":true,\"rows\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_row(&mut out, row, store);
            }
        }
        QueryResult::History(spans) => {
            out.reserve(spans.len() * 64);
            out.push_str("{\"ok\":true,\"history\":[");
            for (i, (iv, v, prov)) in spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"start\":{},\"end\":", iv.start.millis());
                match iv.end {
                    Some(t) => {
                        let _ = write!(out, "{}", t.millis());
                    }
                    None => out.push_str("null"),
                }
                out.push_str(",\"value\":");
                push_value(&mut out, *v, store);
                out.push_str(",\"provenance\":\"");
                match prov {
                    Provenance::External => out.push_str("external"),
                    Provenance::Rule(r) => {
                        out.push_str("rule:");
                        push_escaped(&mut out, r.as_str());
                    }
                    Provenance::Derived(r) => {
                        out.push_str("derived:");
                        push_escaped(&mut out, r.as_str());
                    }
                }
                out.push_str("\"}");
            }
        }
    }
    out.push_str("]}");
    out
}

/// One pushed view change: `{"watch":NAME,"sign":±1,"row":{…}}`.
pub fn delta_line(d: &WatchDelta, store: Option<&TemporalStore>) -> String {
    let mut out = String::with_capacity(48 + d.row.len() * 24);
    out.push_str("{\"watch\":");
    push_str(&mut out, d.watch.as_str());
    let _ = write!(out, ",\"sign\":{},\"row\":", d.sign);
    push_row(&mut out, &d.row, store);
    out.push('}');
    out
}

/// `EXPLAIN` reply: the logical and physical plan trees as rendered
/// (newline-separated, two-space indent per level), plus which rewrite
/// rules fired and which dialect parsed the statement:
/// `{"ok":true,"explain":{"dialect":…,"logical":…,"physical":…,"rules":[…]}}`.
pub fn explain_reply(dialect: &str, logical: &str, physical: &str, rules: &[&str]) -> String {
    let mut explain = Map::new();
    explain.insert("dialect".into(), Json::from(dialect));
    explain.insert("logical".into(), Json::from(logical));
    explain.insert("physical".into(), Json::from(physical));
    explain.insert(
        "rules".into(),
        Json::Array(rules.iter().map(|r| Json::from(*r)).collect()),
    );
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(true));
    obj.insert("explain".into(), Json::Object(explain));
    Json::Object(obj).to_string()
}

/// `{"ok":true,"engine":{…},"server":{…}}`.
pub fn stats_reply(engine: Json, server: Json) -> String {
    let mut obj = Map::new();
    obj.insert("ok".into(), Json::Bool(true));
    obj.insert("engine".into(), engine);
    obj.insert("server".into(), server);
    Json::Object(obj).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::time::{Interval, Timestamp};
    use fenestra_query::Bindings;

    #[test]
    fn events_and_commands_disambiguate() {
        assert!(matches!(
            parse_request(r#"{"stream":"s","ts":1,"x":2}"#).unwrap(),
            Request::Event(_)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"sync"}"#).unwrap(),
            Request::Sync
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"promote"}"#).unwrap(),
            Request::Promote
        ));
        let Request::Query { text } =
            parse_request(r#"{"cmd":"query","q":"select ?v where { ?v a 1 }"}"#).unwrap()
        else {
            panic!("expected query");
        };
        assert!(text.starts_with("select"));
        let Request::Watch { name, text } =
            parse_request(r#"{"cmd":"watch","name":"w","query":"select ?v where { ?v a 1 }"}"#)
                .unwrap()
        else {
            panic!("expected watch");
        };
        assert_eq!(name, "w");
        assert!(text.contains("where"), "accepts `query` as alias for `q`");
    }

    #[test]
    fn batch_frames_parse() {
        let Request::Batch(evs) = parse_request(
            r#"{"op":"ingest","events":[{"stream":"s","ts":1,"x":1},{"stream":"s","ts":2,"x":2}]}"#,
        )
        .unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].ts, fenestra_base::time::Timestamp::new(2));
        // Empty batches are legal (acked with count 0, never enqueued).
        let Request::Batch(evs) = parse_request(r#"{"op":"ingest","events":[]}"#).unwrap() else {
            panic!("expected batch");
        };
        assert!(evs.is_empty());
        // An event whose *field* is named `op` with a non-"ingest"
        // value still parses as an event.
        assert!(matches!(
            parse_request(r#"{"stream":"s","ts":1,"op":"assert"}"#).unwrap(),
            Request::Event(_)
        ));
        // Even `op == "ingest"` stays an event field when the object
        // carries `stream`: only stream-less objects are batch frames.
        let Request::Event(ev) = parse_request(r#"{"stream":"s","ts":1,"op":"ingest"}"#).unwrap()
        else {
            panic!("expected event");
        };
        assert_eq!(
            ev.get("op"),
            Some(&fenestra_base::value::Value::str("ingest"))
        );
    }

    #[test]
    fn bad_batch_frames_error_with_element_index() {
        let err = parse_request(r#"{"op":"ingest","events":[{"stream":"s","ts":1},{"ts":2}]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("batch event 1"), "{err}");
        assert!(
            parse_request(r#"{"op":"ingest"}"#).is_err(),
            "missing events"
        );
        assert!(
            parse_request(r#"{"op":"ingest","events":7}"#).is_err(),
            "events must be an array"
        );
    }

    #[test]
    fn sql_is_an_alias_for_q() {
        let Request::Query { text } =
            parse_request(r#"{"cmd":"query","sql":"SELECT entity FROM state"}"#).unwrap()
        else {
            panic!("expected query");
        };
        assert_eq!(text, "SELECT entity FROM state");
    }

    #[test]
    fn unknown_cmd_and_op_replies_are_structured() {
        let line = unknown_reply(r#"{"cmd":"frobnicate"}"#).expect("unknown cmd gets a reply");
        let v: Json = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        let msg = v.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("unknown command `frobnicate`"), "{msg}");
        let supported = v.get("supported").and_then(Json::as_array).unwrap();
        assert!(supported.iter().any(|s| s.as_str() == Some("query")));
        assert_eq!(supported.len(), SUPPORTED_COMMANDS.len());

        let line = unknown_reply(r#"{"op":"frobnicate"}"#).expect("unknown op gets a reply");
        let v: Json = serde_json::from_str(&line).unwrap();
        let msg = v.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("unknown op `frobnicate`"), "{msg}");
        assert_eq!(
            v.get("supported").and_then(Json::as_array).unwrap().len(),
            SUPPORTED_OPS.len()
        );

        // Everything else falls back to the plain error reply.
        assert!(unknown_reply(r#"{"cmd":"query"}"#).is_none(), "known cmd");
        assert!(unknown_reply(r#"{"op":"ingest"}"#).is_none(), "known op");
        assert!(
            unknown_reply(r#"{"stream":"s","op":"assert"}"#).is_none(),
            "event-field op"
        );
        assert!(unknown_reply("nope").is_none(), "not json");
        assert!(unknown_reply(r#"{"cmd":1}"#).is_none(), "non-string cmd");
    }

    #[test]
    fn bad_requests_error() {
        assert!(parse_request("nope").is_err());
        assert!(parse_request(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"query"}"#).is_err(), "missing q");
        assert!(
            parse_request(r#"{"cmd":"watch","q":"x"}"#).is_err(),
            "missing name"
        );
        assert!(parse_request(r#"{"cmd":1}"#).is_err());
        // No `cmd` key → must be an event, and this one is invalid.
        assert!(parse_request(r#"{"stream":"s"}"#).is_err());
    }

    #[test]
    fn replies_are_valid_json() {
        for line in [
            ack(3),
            ack_batch(9, 4),
            shed(4, 1),
            shed(12, 8),
            error("boom \"quoted\""),
            watch_ack("w"),
            bye(),
            synced(),
            stats_reply(Json::Null, Json::Null),
        ] {
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let v = serde_json::from_str(&ack(3)).unwrap();
        assert_eq!(v.get("seq").and_then(|x| x.as_u64()), Some(3));
        let v = serde_json::from_str(&ack_batch(9, 4)).unwrap();
        assert_eq!(v.get("seq").and_then(|x| x.as_u64()), Some(9));
        assert_eq!(v.get("count").and_then(|x| x.as_u64()), Some(4));
        let v = serde_json::from_str(&shed(12, 8)).unwrap();
        assert_eq!(v.get("count").and_then(|x| x.as_u64()), Some(8));
    }

    #[test]
    fn query_reply_shapes() {
        let rows = QueryResult::Rows(vec![vec![
            (Symbol::intern("v"), Value::str("lobby")),
            (Symbol::intern("n"), Value::Int(2)),
        ]]);
        let v = serde_json::from_str(&query_reply(&rows, None)).unwrap();
        let row = &v.get("rows").and_then(|r| r.as_array()).unwrap()[0];
        assert_eq!(row.get("v").and_then(|x| x.as_str()), Some("lobby"));
        assert_eq!(row.get("n").and_then(|x| x.as_i64()), Some(2));

        let hist = QueryResult::History(vec![(
            Interval {
                start: Timestamp::new(5),
                end: None,
            },
            Value::Int(1),
            Provenance::Rule(Symbol::intern("r")),
        )]);
        let v = serde_json::from_str(&query_reply(&hist, None)).unwrap();
        let span = &v.get("history").and_then(|h| h.as_array()).unwrap()[0];
        assert_eq!(span.get("start").and_then(|x| x.as_u64()), Some(5));
        assert!(span.get("end").unwrap().is_null());
        assert_eq!(
            span.get("provenance").and_then(|x| x.as_str()),
            Some("rule:r")
        );
    }

    /// The `serde_json` trees the replies were built from before they
    /// were written directly; the writers must match them byte for byte.
    fn tree_value(v: &Value, store: Option<&TemporalStore>) -> Json {
        if let (Value::Id(e), Some(s)) = (v, store) {
            if let Some(name) = s.entity_name(*e) {
                return Json::from(name.as_str());
            }
        }
        fenestra_wire::value_to_json(v)
    }

    fn tree_row(row: &[(Symbol, Value)], store: Option<&TemporalStore>) -> Json {
        let mut o = Map::new();
        for (name, v) in row {
            o.insert(name.as_str().into(), tree_value(v, store));
        }
        Json::Object(o)
    }

    fn tree_reply(res: &QueryResult, store: Option<&TemporalStore>) -> String {
        let mut obj = Map::new();
        obj.insert("ok".into(), Json::Bool(true));
        match res {
            QueryResult::Rows(rows) => {
                let rows = rows.iter().map(|r| tree_row(r, store)).collect();
                obj.insert("rows".into(), Json::Array(rows));
            }
            QueryResult::History(spans) => {
                let spans = spans
                    .iter()
                    .map(|(iv, v, prov)| {
                        let mut o = Map::new();
                        o.insert("start".into(), Json::from(iv.start.millis()));
                        o.insert(
                            "end".into(),
                            iv.end.map_or(Json::Null, |t| Json::from(t.millis())),
                        );
                        o.insert("value".into(), tree_value(v, store));
                        o.insert(
                            "provenance".into(),
                            Json::from(match prov {
                                Provenance::External => "external".to_string(),
                                Provenance::Rule(r) => format!("rule:{}", r.as_str()),
                                Provenance::Derived(r) => format!("derived:{}", r.as_str()),
                            }),
                        );
                        Json::Object(o)
                    })
                    .collect();
                obj.insert("history".into(), Json::Array(spans));
            }
        }
        Json::Object(obj).to_string()
    }

    #[test]
    fn written_replies_match_the_json_trees_byte_for_byte() {
        let mut store = TemporalStore::new();
        let named = store.named_entity("a\"0\u{1}é");
        let anonymous = store.new_entity();
        let texts = [
            "",
            "plain",
            "q\"uote",
            "back\\slash",
            "nl\ncr\rtab\t",
            "\u{8}\u{c}\u{0}\u{1f}\u{7f}",
            "ünï/çødé 🦀",
            "</script>",
        ];
        let mut values: Vec<Value> = texts.iter().map(|t| Value::str(t)).collect();
        values.extend([
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(0.1),
            Value::Float(2.5e-8),
            Value::Float(1e15),
            Value::Float(1e300),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Id(named),
            Value::Id(anonymous),
            Value::Time(Timestamp::new(42)),
        ]);
        // `v` twice: written at its first place with its last value.
        let names: Vec<Symbol> = ["v", "r", "n\"x", "v"]
            .iter()
            .map(|n| Symbol::intern(n))
            .collect();
        let rows: Vec<Bindings> = values
            .chunks(names.len())
            .map(|vals| names.iter().copied().zip(vals.iter().copied()).collect())
            .chain([Vec::new()])
            .collect();
        let provs = [
            Provenance::External,
            Provenance::Rule(Symbol::intern("r\"1")),
            Provenance::Derived(Symbol::intern("onto")),
        ];
        let spans: Vec<(Interval, Value, Provenance)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let start = Timestamp::new(i as u64);
                let iv = match i % 2 {
                    0 => Interval::open(start),
                    _ => Interval::closed(start, Timestamp::new(i as u64 + 5)),
                };
                (iv, *v, provs[i % 3])
            })
            .collect();
        for st in [None, Some(&store)] {
            for res in [
                QueryResult::Rows(rows.clone()),
                QueryResult::Rows(Vec::new()),
                QueryResult::History(spans.clone()),
                QueryResult::History(Vec::new()),
            ] {
                assert_eq!(query_reply(&res, st), tree_reply(&res, st));
            }
            for (i, row) in rows.iter().enumerate() {
                let d = WatchDelta {
                    watch: Symbol::intern(texts[i % texts.len()]),
                    sign: if i % 2 == 0 { 1 } else { -1 },
                    row: row.clone(),
                };
                let mut obj = Map::new();
                obj.insert("watch".into(), Json::from(d.watch.as_str()));
                obj.insert("sign".into(), Json::Number(d.sign.into()));
                obj.insert("row".into(), tree_row(&d.row, st));
                assert_eq!(delta_line(&d, st), Json::Object(obj).to_string());
            }
        }
    }

    #[test]
    fn delta_line_shape() {
        let d = WatchDelta {
            watch: Symbol::intern("lab"),
            sign: -1,
            row: vec![(Symbol::intern("u"), Value::str("alice"))],
        };
        let v = serde_json::from_str(&delta_line(&d, None)).unwrap();
        assert_eq!(v.get("watch").and_then(|x| x.as_str()), Some("lab"));
        assert_eq!(v.get("sign").and_then(|x| x.as_i64()), Some(-1));
        assert_eq!(
            v.get("row")
                .and_then(|r| r.get("u"))
                .and_then(|x| x.as_str()),
            Some("alice")
        );
    }
}
