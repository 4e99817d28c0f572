#![warn(missing_docs)]
//! JSON-lines event interchange for the CLI, external feeds, and the
//! `fenestrad` network server.
//!
//! One event per line:
//!
//! ```json
//! {"stream": "sensors", "ts": 10, "visitor": "alice", "room": "lobby"}
//! ```
//!
//! `stream` and `ts` are reserved keys; every other key becomes a
//! record field. JSON numbers map to `Int` when integral, `Float`
//! otherwise; strings, booleans, and nulls map directly. Nested
//! arrays/objects are rejected (stream records are flat).
//!
//! The `fenestrad` wire protocol adds framing-level reservations on
//! *top-level* request objects: a `"cmd"` key marks a command, and
//! `"op":"ingest"` **without** a `"stream"` key marks a batch ingest
//! frame. Events always carry `stream`, so their field namespace is
//! untouched by the latter (an event field named `op` is fine, even
//! with the value `"ingest"`) — but an event sent to the server cannot
//! use a field named `cmd`.
//!
//! Also home to the [`metrics`] page: the shape of the server's
//! `stats` reply.
//!
//! # The binary plane and reserved magic
//!
//! `fenestrad` serves a second, binary ingest plane on the same port
//! (see [`binary`]): a connection whose **first four bytes** are the
//! magic `FNB1` speaks length-prefixed CRC32-framed record batches;
//! any other first bytes select this JSONL plane. The three-byte
//! prefix `FNB` is **reserved** for future binary frame-format
//! revisions (`FNB2`, …) — no JSONL request can collide with it
//! because JSONL requests always start with `{`.

use fenestra_base::error::{Error, Result};
use fenestra_base::record::{Event, Record};
use fenestra_base::value::Value;
use serde_json::Value as Json;

pub mod binary;
pub mod metrics;
pub mod repl;

/// Parse one JSONL line into an event.
pub fn event_from_json(line: &str) -> Result<Event> {
    let json: Json =
        serde_json::from_str(line).map_err(|e| Error::Invalid(format!("bad JSON event: {e}")))?;
    event_from_json_value(json)
}

/// Parse an already-decoded JSON value into an event (the batch ingest
/// frame carries events as array elements, not as separate lines).
pub fn event_from_json_value(json: Json) -> Result<Event> {
    let Json::Object(map) = json else {
        return Err(Error::Invalid("event must be a JSON object".into()));
    };
    let mut stream = None;
    let mut ts = None;
    let mut record = Record::new();
    for (k, v) in map {
        match k.as_str() {
            "stream" => match v {
                Json::String(s) => stream = Some(s),
                other => {
                    return Err(Error::Invalid(format!(
                        "`stream` must be a string, got {other}"
                    )))
                }
            },
            "ts" => match v {
                Json::Number(n) if n.as_u64().is_some() => ts = Some(n.as_u64().expect("checked")),
                other => {
                    return Err(Error::Invalid(format!(
                        "`ts` must be a non-negative integer, got {other}"
                    )))
                }
            },
            _ => {
                record.set(k.as_str(), json_to_value(&k, v)?);
            }
        }
    }
    let stream = stream.ok_or_else(|| Error::Invalid("event missing `stream`".into()))?;
    let ts = ts.ok_or_else(|| Error::Invalid("event missing `ts`".into()))?;
    Ok(Event::new(stream.as_str(), ts, record))
}

fn json_to_value(key: &str, v: Json) -> Result<Value> {
    Ok(match v {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(b),
        Json::Number(n) => {
            if let Some(i) = n.as_i64() {
                Value::Int(i)
            } else {
                Value::Float(n.as_f64().unwrap_or(f64::NAN))
            }
        }
        Json::String(s) => Value::str(&s),
        Json::Array(_) | Json::Object(_) => {
            return Err(Error::Invalid(format!(
                "field `{key}`: nested JSON not supported in stream records"
            )))
        }
    })
}

/// Serialize an event back to a JSONL line (inverse of
/// [`event_from_json`] up to key order).
pub fn event_to_json(ev: &Event) -> String {
    let mut map = serde_json::Map::new();
    map.insert("stream".into(), Json::String(ev.stream.as_str().into()));
    map.insert("ts".into(), Json::Number(ev.ts.millis().into()));
    for (k, v) in ev.record.iter() {
        map.insert(k.as_str().into(), value_to_json(v));
    }
    Json::Object(map).to_string()
}

/// Map one record value to its JSON representation.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Number((*i).into()),
        Value::Float(f) => serde_json::Number::from_f64(*f)
            .map(Json::Number)
            .unwrap_or(Json::Null),
        Value::Str(s) => Json::String(s.as_str().into()),
        Value::Id(e) => Json::String(format!("#{}", e.0)),
        Value::Time(t) => Json::Number(t.millis().into()),
    }
}

/// Parse a whole JSONL document (one event per non-empty line).
/// Errors name the offending line: `line 3: bad JSON event: …`.
pub fn events_from_jsonl(src: &str) -> Result<Vec<Event>> {
    src.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(n, l)| event_from_json(l).map_err(|e| Error::Invalid(format!("line {n}: {e}"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::time::Timestamp;

    #[test]
    fn parse_basic_event() {
        let ev = event_from_json(
            r#"{"stream":"sensors","ts":10,"visitor":"alice","n":3,"x":2.5,"ok":true,"gone":null}"#,
        )
        .unwrap();
        assert_eq!(ev.stream.as_str(), "sensors");
        assert_eq!(ev.ts, Timestamp::new(10));
        assert_eq!(ev.get("visitor"), Some(&Value::str("alice")));
        assert_eq!(ev.get("n"), Some(&Value::Int(3)));
        assert_eq!(ev.get("x"), Some(&Value::Float(2.5)));
        assert_eq!(ev.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ev.get("gone"), Some(&Value::Null));
    }

    #[test]
    fn round_trip() {
        let ev = event_from_json(r#"{"stream":"s","ts":7,"a":1,"b":"x"}"#).unwrap();
        let back = event_from_json(&event_to_json(&ev)).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn rejects_malformed() {
        assert!(event_from_json("not json").is_err());
        assert!(event_from_json("[1,2]").is_err());
        assert!(event_from_json(r#"{"ts":1}"#).is_err(), "missing stream");
        assert!(event_from_json(r#"{"stream":"s"}"#).is_err(), "missing ts");
        assert!(event_from_json(r#"{"stream":"s","ts":-1}"#).is_err());
        assert!(event_from_json(r#"{"stream":"s","ts":1,"v":[1]}"#).is_err());
        assert!(event_from_json(r#"{"stream":1,"ts":1}"#).is_err());
    }

    #[test]
    fn jsonl_with_comments_and_blanks() {
        let src =
            "\n# header comment\n{\"stream\":\"s\",\"ts\":1}\n\n{\"stream\":\"s\",\"ts\":2}\n";
        let evs = events_from_jsonl(src).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].ts, Timestamp::new(2));
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let src = "{\"stream\":\"s\",\"ts\":1}\n# comment\n\n{\"stream\":\"s\"}\n";
        let err = events_from_jsonl(src).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "got: {msg}");
        let err = events_from_jsonl("nonsense").unwrap_err();
        assert!(err.to_string().contains("line 1"), "got: {err}");
    }
}
