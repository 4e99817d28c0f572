//! Client connections: a non-blocking JSONL connection driven by
//! `ppoll`, a blocking binary-plane connection, and watch-delta
//! attribution.

use crate::stats::Samples;
use crate::sys::{self, POLLIN, POLLOUT};
use fenestra_wire::binary::{self, Frame, FrameStatus};
use serde_json::Value as Json;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One JSONL connection. Writes queue into `out`; [`Jsonl::pump`]
/// moves bytes both ways without ever blocking past its timeout.
pub struct Jsonl {
    sock: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    closed: bool,
}

impl Jsonl {
    pub fn connect(addr: SocketAddr) -> Jsonl {
        let sock = TcpStream::connect(addr).expect("connect JSONL");
        sock.set_nodelay(true).unwrap();
        sock.set_nonblocking(true).unwrap();
        Jsonl {
            sock,
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            inbuf: Vec::with_capacity(1 << 16),
            in_pos: 0,
            closed: false,
        }
    }

    /// Queue one line (without its newline).
    pub fn queue(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    pub fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Wait up to `timeout` for the socket, then write what it takes
    /// and read what it has.
    pub fn pump(&mut self, timeout: Duration) {
        let events = if self.has_output() {
            POLLIN | POLLOUT
        } else {
            POLLIN
        };
        sys::wait_ready(&self.sock, events, timeout);
        self.flush_some();
        self.fill();
    }

    fn flush_some(&mut self) {
        while self.has_output() {
            match self.sock.write(&self.out[self.out_pos..]) {
                Ok(0) => break,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("JSONL write failed: {e}"),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    fn fill(&mut self) {
        if self.in_pos > 0 && self.in_pos == self.inbuf.len() {
            self.inbuf.clear();
            self.in_pos = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    sys::quick_ack(&self.sock);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("JSONL read failed: {e}"),
            }
        }
    }

    /// The next complete line received, if any.
    pub fn next_line(&mut self) -> Option<String> {
        let rest = &self.inbuf[self.in_pos..];
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&rest[..nl]).into_owned();
        self.in_pos += nl + 1;
        if self.in_pos > (1 << 20) {
            self.inbuf.drain(..self.in_pos);
            self.in_pos = 0;
        }
        Some(line)
    }

    /// Send `line` and wait for its reply: the first line that is not
    /// a watch delta. Deltas that arrive first go to `on_delta`.
    pub fn call(
        &mut self,
        line: &str,
        deadline: Instant,
        mut on_delta: impl FnMut(&str),
    ) -> String {
        self.queue(line);
        loop {
            while let Some(l) = self.next_line() {
                if is_delta(&l) {
                    on_delta(&l);
                } else {
                    return l;
                }
            }
            assert!(!self.closed, "server closed the connection during `{line}`");
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "timed out waiting for the reply to `{line}`"
            );
            self.pump(left.min(Duration::from_millis(50)));
        }
    }
}

pub fn is_delta(line: &str) -> bool {
    line.starts_with("{\"watch\":") && line.contains("\"sign\"")
}

/// `Some(seq)` for a plain ingest ack line `{"ok":true,"seq":N…}`.
pub fn ack_seq(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"ok\":true,\"seq\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// A binary-plane connection (blocking, with a read timeout).
pub struct Binary {
    sock: TcpStream,
    buf: Vec<u8>,
}

impl Binary {
    pub fn connect(addr: SocketAddr) -> Binary {
        let mut sock = TcpStream::connect(addr).expect("connect binary");
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        sock.write_all(&binary::MAGIC).expect("send magic");
        Binary {
            sock,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    pub fn send(&mut self, frame: &[u8]) {
        self.sock.write_all(frame).expect("binary write failed");
    }

    /// The next reply frame; panics after `deadline`.
    pub fn recv(&mut self, deadline: Instant) -> Frame {
        loop {
            if let FrameStatus::Ready { end } =
                binary::check_frame(&self.buf, binary::DEFAULT_MAX_FRAME).expect("bad reply frame")
            {
                let frame = binary::decode_payload(&self.buf[binary::HEADER_LEN..end])
                    .expect("undecodable reply frame");
                self.buf.drain(..end);
                return frame;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for a binary reply"
            );
            let mut chunk = [0u8; 4096];
            match self.sock.read(&mut chunk) {
                Ok(0) => panic!("server closed the binary connection"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("binary read failed: {e}"),
            }
        }
    }

    /// Send a sync barrier and wait for its reply, counting the acks
    /// that arrive before it.
    pub fn sync(&mut self, deadline: Instant) -> u64 {
        self.send(&binary::encode_sync());
        let mut acked = 0;
        loop {
            match self.recv(deadline) {
                Frame::Synced => return acked,
                Frame::Ack { count, .. } => acked += count,
                other => panic!("unexpected reply before synced: {other:?}"),
            }
        }
    }
}

/// Which sent event each expected watch delta belongs to.
///
/// A move of visitor `v` from room `a` to room `b` is expected to
/// produce, on every subscribed connection, `+1 {v}` on `room_b`,
/// `-1 {v}` on `room_a`, and — when `v` has its own watch — `-1 {r:a}`
/// and `+1 {r:b}` on `vis_v`. Every delta that arrives must pop exactly
/// one expectation; every expectation must be popped by the end.
#[derive(Default)]
pub struct Attribution {
    expected: HashMap<String, VecDeque<(u64, Instant, Option<u16>)>>,
    pub lag: Samples,
    pub unattributed: u64,
}

pub type SharedAttribution = Arc<Mutex<Attribution>>;

pub fn delta_key(watch: &str, sign: i64, value: &str) -> String {
    format!("{watch}|{sign}|{value}")
}

impl Attribution {
    pub fn shared() -> SharedAttribution {
        Arc::new(Mutex::new(Attribution::default()))
    }

    /// Expect one delta; deltas of events due in a slice of the timed
    /// window contribute a lag sample to it.
    pub fn expect(&mut self, key: String, seq: u64, intended: Instant, slice: Option<u16>) {
        self.expected
            .entry(key)
            .or_default()
            .push_back((seq, intended, slice));
    }

    /// Attribute one received delta line.
    pub fn receive(&mut self, line: &str, at: Instant) {
        let Ok(j) = serde_json::from_str(line) else {
            self.unattributed += 1;
            return;
        };
        let watch = j.get("watch").and_then(Json::as_str).unwrap_or("");
        let sign = j.get("sign").and_then(Json::as_i64).unwrap_or(0);
        let value = j
            .get("row")
            .and_then(Json::as_object)
            .and_then(|r| r.values().next())
            .and_then(Json::as_str)
            .unwrap_or("");
        let key = delta_key(watch, sign, value);
        match self.expected.get_mut(&key).and_then(VecDeque::pop_front) {
            Some((_, intended, slice)) => {
                if let Some(slice) = slice {
                    self.lag.push(slice, (at - intended).as_secs_f64() * 1e6);
                }
            }
            None => self.unattributed += 1,
        }
    }

    /// Expectations no delta has claimed.
    pub fn missing(&self) -> u64 {
        self.expected.values().map(|q| q.len() as u64).sum()
    }
}

/// `(watch name, rendered row value)` pairs for the deltas a move
/// produces; see [`Attribution`].
pub fn move_deltas(m: &crate::gen::Move, room_watches: bool, visitor_watched: bool) -> Vec<String> {
    let v = crate::gen::visitor_name(m.visitor);
    let mut keys = Vec::with_capacity(4);
    if room_watches {
        keys.push(delta_key(&format!("room_{}", m.room), 1, &v));
        if let Some(a) = m.from {
            keys.push(delta_key(&format!("room_{a}"), -1, &v));
        }
    }
    if visitor_watched {
        let w = format!("vis_{v}");
        keys.push(delta_key(&w, 1, &crate::gen::room_name(m.room)));
        if let Some(a) = m.from {
            keys.push(delta_key(&w, -1, &crate::gen::room_name(a)));
        }
    }
    keys
}

/// The standing query behind a room watch.
pub fn room_watch_query(room: u32) -> String {
    format!(
        r#"select ?v where {{ ?v room "{}" }}"#,
        crate::gen::room_name(room)
    )
}

/// The standing query behind a visitor watch.
pub fn visitor_watch_query(v: u32) -> String {
    format!(
        r#"select ?r where {{ "{}" room ?r }}"#,
        crate::gen::visitor_name(v)
    )
}

/// JSON-escape `s` into a quoted string.
pub fn quote(s: &str) -> String {
    Json::from(s).to_string()
}

/// The registration line for a watch.
pub fn watch_line(name: &str, query: &str) -> String {
    format!(
        r#"{{"cmd":"watch","name":{},"q":{}}}"#,
        quote(name),
        quote(query)
    )
}

/// The line for a query.
pub fn query_line(text: &str) -> String {
    format!(r#"{{"cmd":"query","q":{}}}"#, quote(text))
}
