//! The three workloads: server set-up, warm-up, the timed phase, and
//! the correctness checks every measured run ends with.

use crate::client::{
    ack_seq, is_delta, move_deltas, query_line, room_watch_query, visitor_watch_query, watch_line,
    Attribution, Binary, Jsonl, SharedAttribution,
};
use crate::gen::{self, GenConfig, Generator, Keys, Move};
use crate::span::Spans;
use crate::stats::{median, num, obj, Samples};
use crate::sys::{self, ServerChild};
use fenestra_base::time::Duration as EventDuration;
use fenestra_core::{Engine, EngineConfig, ShardRouter};
use fenestra_wire::binary::{self, Frame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value as Json;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per binary frame.
pub const FRAME_EVENTS: usize = 256;
/// Binary frames the closed-loop bulk client keeps unacknowledged.
pub const BULK_IN_FLIGHT: usize = 4;
/// Preload frames kept in flight during set-up.
const PRELOAD_IN_FLIGHT: usize = 16;
/// An open-loop run whose generator sent its p99 request later than
/// this after the request was due is failed, not measured: the
/// schedule, not the server, would be setting its latencies.
pub const GEN_LATE_BOUND_US: f64 = 50_000.0;
/// How long the run waits for outstanding replies after the timed phase.
const DRAIN: Duration = Duration::from_secs(15);
/// `AS OF` lookups checked against the oracle and the reference.
const ASOF_CHECKS: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Durable,
    Bulk,
    Mix,
}

/// One workload's fixed load and server configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub shards: u32,
    pub reactors: u32,
    pub batch_max: usize,
    /// Ingest queue capacity, split across the shards (`--queue`).
    pub queue: usize,
    /// WAL under `--fsync always` in the run directory.
    pub wal: bool,
    pub lateness_ms: u64,
    pub retention_ms: Option<u64>,
    pub visitors: u32,
    pub rooms: u32,
    /// Visitor choice after the preload (the preload always cycles, so
    /// every visitor is in the state when the run starts).
    pub keys: Keys,
    pub jitter_ms: u64,
    pub preload: u64,
    /// Open-loop ingest rate, events/s (0 for the closed-loop bulk run).
    pub rate: f64,
    /// Visitors with their own standing watch.
    pub watched: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub warmup_s: f64,
    /// Share of `read_watch_mix` statements with a fresh text.
    pub fresh_share: f64,
}

pub const NAMES: [&str; 3] = ["ingest_durable", "ingest_bulk", "read_watch_mix"];

/// The workload called `name`; `tiny` shrinks every size for the
/// benchmark's own test.
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let base = Spec {
        name: "",
        kind: Kind::Durable,
        shards: 2,
        reactors: 1,
        batch_max: 512,
        queue: 1024,
        wal: false,
        lateness_ms: 0,
        retention_ms: None,
        visitors: 4096,
        rooms: 16,
        keys: Keys::Cycle,
        jitter_ms: 0,
        preload: 16_384,
        rate: 0.0,
        watched: 16,
        setups: 5,
        warmup_s: 1.0,
        fresh_share: 0.0,
    };
    let mut s = match name {
        "ingest_durable" => Spec {
            name: "ingest_durable",
            kind: Kind::Durable,
            wal: true,
            visitors: 2_048,
            watched: 32,
            rate: 4_000.0,
            ..base
        },
        "ingest_bulk" => Spec {
            name: "ingest_bulk",
            kind: Kind::Bulk,
            // Acks on this plane mean *admitted*: with the default
            // queue, the few frames in flight would bound nothing and
            // the shard queues would fill. A short queue makes
            // admission wait for the shards, so the closed loop holds.
            queue: 16,
            lateness_ms: 200,
            retention_ms: Some(100_000),
            visitors: 100_000,
            rooms: 64,
            keys: Keys::Zipf {
                s: 1.1,
                min_gap: 4_096,
            },
            jitter_ms: 150,
            preload: 100_000,
            watched: 64,
            ..base
        },
        "read_watch_mix" => Spec {
            name: "read_watch_mix",
            kind: Kind::Mix,
            visitors: 1_000,
            rooms: 10,
            preload: 10_000,
            rate: 200.0,
            watched: 8,
            fresh_share: 0.10,
            ..base
        },
        _ => return None,
    };
    if tiny {
        s.visitors = s.visitors.min(400);
        s.preload = s.preload.min(2_000);
        s.rate = s.rate.min(300.0);
        s.retention_ms = s.retention_ms.map(|_| 20_000);
        s.setups = 2;
        s.warmup_s = 0.2;
    }
    Some(s)
}

impl Spec {
    /// The `fenestrad`-style flags the server child is started with.
    pub fn server_args(&self, wal_dir: &Path) -> Vec<String> {
        let mut a: Vec<String> = vec![
            "--shards".into(),
            self.shards.to_string(),
            "--reactors".into(),
            self.reactors.to_string(),
            "--batch-max".into(),
            self.batch_max.to_string(),
            "--queue".into(),
            self.queue.to_string(),
            "--max-lateness-ms".into(),
            self.lateness_ms.to_string(),
        ];
        if let Some(r) = self.retention_ms {
            a.extend(["--retention-ms".into(), r.to_string()]);
        }
        if self.wal {
            a.extend([
                "--wal".into(),
                wal_dir.join("wal").display().to_string(),
                "--fsync".into(),
                "always".into(),
            ]);
        }
        a
    }

    /// The recorded server configuration and offered load.
    pub fn config_json(&self) -> Json {
        obj(vec![
            ("shards", Json::from(self.shards)),
            ("reactors", Json::from(self.reactors)),
            ("batch_max", Json::from(self.batch_max)),
            ("queue", Json::from(self.queue)),
            (
                "fsync",
                Json::from(if self.wal { "always" } else { "no wal" }),
            ),
            ("max_lateness_ms", Json::from(self.lateness_ms)),
            (
                "retention_ms",
                self.retention_ms.map_or(Json::Null, Json::from),
            ),
            (
                "offered_rate_per_s",
                if self.rate > 0.0 {
                    num(self.rate)
                } else {
                    Json::from("closed loop")
                },
            ),
            ("visitors", Json::from(self.visitors)),
            ("rooms", Json::from(self.rooms)),
            ("preload_events", Json::from(self.preload)),
            ("watched_visitors", Json::from(self.watched)),
            (
                "queries_in_flight",
                if self.kind == Kind::Mix {
                    Json::from(QUERIES_IN_FLIGHT)
                } else {
                    Json::Null
                },
            ),
        ])
    }

    fn gen_config(&self, seed: u64) -> GenConfig {
        GenConfig {
            visitors: self.visitors,
            rooms: self.rooms,
            keys: Keys::Cycle,
            step_ms: 1,
            jitter_ms: 0,
            seed,
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_lateness: EventDuration::millis(self.lateness_ms),
            ..EngineConfig::default()
        }
    }
}

/// A run's settings.
pub struct Run<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Record client spans per request.
    pub traced: bool,
    pub dir: &'a Path,
    pub deadline: Instant,
    /// Latency samples per slice below which the report warns that a
    /// p95 rests on too few.
    pub min_samples: usize,
}

/// What one run measured and checked.
pub struct Outcome {
    /// End-to-end metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any makes the run incorrect.
    pub problems: Vec<String>,
    pub detail: Vec<(&'static str, Json)>,
    /// The server's `stats` reply at the end of the run.
    pub stats: Json,
    pub spans: Spans,
    /// Mean client-observed ingest ack latency (µs).
    pub mean_ack_us: f64,
}

/// The routing the server derives from [`gen::RULES`].
pub fn router(shards: u32) -> ShardRouter {
    let mut e = Engine::new(EngineConfig::default());
    e.add_rules_text(gen::RULES).expect("rules");
    let mut r = ShardRouter::new(shards);
    for rule in e.state_rules() {
        r.observe_rule(rule).expect("rule routes");
    }
    r
}

/// Any event of visitor `v` (for routing).
pub fn visitor_event(v: u32) -> fenestra_base::record::Event {
    gen::event(&Move {
        seq: 0,
        visitor: v,
        from: None,
        room: 0,
        ts: 0,
    })
}

/// A watch registration: connection, name, query, and the initial
/// rows it must deliver.
struct WatchReg {
    conn: usize,
    name: String,
    query: String,
    initial: Vec<String>,
}

/// A server that has finished set-up.
struct Live {
    child: ServerChild,
    conns: Vec<Jsonl>,
    attrs: Vec<SharedAttribution>,
}

fn watch_plan(spec: &Spec, g: &Generator, watched: &[u32], route: &ShardRouter) -> Vec<WatchReg> {
    let mut regs = Vec::new();
    // `read_watch_mix` subscribes twice to every watch, both times on
    // the ingest connection: the query connection carries only
    // queries and their replies.
    let conns: Vec<usize> = match spec.kind {
        Kind::Mix => vec![0, 0],
        _ => vec![0],
    };
    let vis_reg = |conn: usize, v: u32| {
        let name = format!("vis_{}", gen::visitor_name(v));
        let initial = g
            .current_room(v)
            .map(|r| crate::client::delta_key(&name, 1, &gen::room_name(r)))
            .into_iter()
            .collect();
        WatchReg {
            conn,
            name,
            query: visitor_watch_query(v),
            initial,
        }
    };
    for &c in &conns {
        if spec.kind == Kind::Mix {
            for room in 0..spec.rooms {
                let name = format!("room_{room}");
                let initial = (0..spec.visitors)
                    .filter(|&v| g.current_room(v) == Some(room))
                    .map(|v| crate::client::delta_key(&name, 1, &gen::visitor_name(v)))
                    .collect();
                regs.push(WatchReg {
                    conn: c,
                    name,
                    query: room_watch_query(room),
                    initial,
                });
            }
        }
        for &v in watched {
            // The durable run sends each shard's visitors on their own
            // connection, and a visitor's watch lives on that one.
            let conn = if spec.kind == Kind::Durable {
                route.route(&visitor_event(v)) as usize
            } else {
                c
            };
            regs.push(vis_reg(conn, v));
        }
    }
    regs
}

/// Read lines on `conn` until the reply to a `sync` queued now; deltas
/// go to `attr`, every other line is returned.
fn until_synced(conn: &mut Jsonl, attr: &SharedAttribution, deadline: Instant) -> Vec<String> {
    conn.queue(r#"{"cmd":"sync"}"#);
    let mut others = Vec::new();
    loop {
        while let Some(line) = conn.next_line() {
            if is_delta(&line) {
                attr.lock().unwrap().receive(&line, Instant::now());
            } else if line.contains("\"synced\":true") {
                return others;
            } else {
                others.push(line);
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting for sync");
        conn.pump(Duration::from_millis(50));
    }
}

/// Start a server, preload it through the binary plane, sync, and
/// register the watches. Returns the server and the time it took.
fn setup_once(
    run: &Run,
    k: usize,
    frames: &[Vec<u8>],
    regs: &[WatchReg],
    nconns: usize,
) -> (Live, f64) {
    let spec = run.spec;
    let wal_dir = run.dir.join(format!("setup{k}"));
    std::fs::create_dir_all(&wal_dir).expect("create WAL dir");
    let t = Instant::now();
    let child = ServerChild::spawn(&spec.server_args(&wal_dir), run.deadline);
    let mut bin = Binary::connect(child.addr);
    let mut in_flight = 0usize;
    let mut acked = 0u64;
    for f in frames {
        if in_flight == PRELOAD_IN_FLIGHT {
            match bin.recv(run.deadline) {
                Frame::Ack { count, .. } => acked += count,
                other => panic!("preload rejected: {other:?}"),
            }
            in_flight -= 1;
        }
        bin.send(f);
        in_flight += 1;
    }
    acked += bin.sync(run.deadline);
    assert_eq!(acked, spec.preload, "preload acks");
    let mut conns: Vec<Jsonl> = (0..nconns).map(|_| Jsonl::connect(child.addr)).collect();
    let attrs: Vec<SharedAttribution> = (0..nconns).map(|_| Attribution::shared()).collect();
    let registered = Instant::now();
    for r in regs {
        let mut a = attrs[r.conn].lock().unwrap();
        for key in &r.initial {
            a.expect(key.clone(), u64::MAX, registered, None);
        }
        conns[r.conn].queue(&watch_line(&r.name, &r.query));
    }
    for (c, conn) in conns.iter_mut().enumerate() {
        let replies = until_synced(conn, &attrs[c], run.deadline);
        let want = regs.iter().filter(|r| r.conn == c).count();
        let ok = replies
            .iter()
            .filter(|l| l.starts_with("{\"ok\":true"))
            .count();
        assert_eq!(ok, want, "watch registration failed: {replies:?}");
    }
    let secs = t.elapsed().as_secs_f64();
    for (c, a) in attrs.iter().enumerate() {
        let a = a.lock().unwrap();
        assert_eq!(
            (a.unattributed, a.missing()),
            (0, 0),
            "initial watch rows on connection {c} differ from the preloaded state"
        );
    }
    (
        Live {
            child,
            conns,
            attrs,
        },
        secs,
    )
}

/// Length of one slice of the timed window. Each latency, throughput
/// and CPU metric is a median over the window's slices of the slice's
/// own figure, so a few seconds of interference from another tenant
/// (CPU steal on a shared host) move one slice, not the result.
const SLICE: Duration = Duration::from_secs(5);

/// Raw measurements of a load phase.
#[derive(Default)]
struct Measured {
    /// Server CPU (µs) at each slice boundary of the timed window.
    cpu_marks: Vec<f64>,
    slice_s: f64,
    /// The primary operation's latency (acks, or query replies).
    lat: Samples,
    ingest_lat: Samples,
    /// Operations completed in each slice of the timed window.
    per_slice: Vec<u64>,
    steal_pct: f64,
    attempted: u64,
    failed: u64,
    gen_late: Samples,
    problems: Vec<String>,
    /// `(statement, reply)` pairs of stable statements, checked
    /// against the reference after the run.
    stable_replies: Vec<(String, String)>,
    /// Queries answered in the timed window, and their latency, by kind.
    queries_by_kind: Vec<(&'static str, Samples)>,
}

impl Measured {
    /// Take the window's CPU marks and slice layout.
    fn close(&mut self, win: &Window) {
        self.cpu_marks = win.marks.clone();
        self.slice_s = win.slice_len.as_secs_f64();
        self.steal_pct = win.steal_pct();
        self.per_slice.resize(win.slices as usize, 0);
    }

    /// Count `n` operations completed at `at`.
    fn done(&mut self, win: &Window, at: Instant, n: u64) {
        if let Some(k) = win.slice(at) {
            let k = k as usize;
            if self.per_slice.len() <= k {
                self.per_slice.resize(k + 1, 0);
            }
            self.per_slice[k] += n;
        }
    }

    /// Operations per second, median over slices.
    fn ops_per_s(&self) -> f64 {
        median(
            self.per_slice
                .iter()
                .map(|&n| n as f64 / self.slice_s)
                .collect(),
        )
    }

    /// Server CPU per operation (µs), median over slices.
    fn cpu_per_op(&self) -> f64 {
        median(
            self.cpu_marks
                .windows(2)
                .zip(&self.per_slice)
                .map(|(m, &n)| (m[1] - m[0]) / n.max(1) as f64)
                .collect(),
        )
    }
}

/// The timed window, cut into slices; the thread owning the child
/// samples the server's CPU counter as each slice boundary passes.
struct Window {
    t0: Instant,
    t1: Instant,
    slices: u16,
    slice_len: Duration,
    marks: Vec<f64>,
    /// Machine-wide `/proc/stat` (steal, total) ticks at each end.
    steal0: (u64, u64),
    steal1: (u64, u64),
}

impl Window {
    fn new(t0: Instant, seconds: f64) -> Window {
        let slices = (seconds / SLICE.as_secs_f64()).round().max(1.0) as u16;
        Window {
            t0,
            t1: t0 + Duration::from_secs_f64(seconds),
            slices,
            slice_len: Duration::from_secs_f64(seconds / f64::from(slices)),
            marks: Vec::new(),
            steal0: (0, 0),
            steal1: (0, 0),
        }
    }

    fn tick(&mut self, now: Instant, child: &ServerChild) {
        while self.marks.len() <= self.slices as usize
            && now >= self.t0 + self.slice_len * self.marks.len() as u32
        {
            if self.marks.is_empty() {
                self.steal0 = sys::steal_ticks();
            }
            self.marks.push(child.cpu_us());
            if self.marks.len() == self.slices as usize + 1 {
                self.steal1 = sys::steal_ticks();
            }
        }
    }

    /// Share of the machine's CPU time the hypervisor stole during the
    /// timed window, in percent.
    fn steal_pct(&self) -> f64 {
        let total = self.steal1.1.saturating_sub(self.steal0.1);
        100.0 * self.steal1.0.saturating_sub(self.steal0.0) as f64 / total.max(1) as f64
    }

    /// The slice `t` falls in, if it is inside the window.
    fn slice(&self, t: Instant) -> Option<u16> {
        (t >= self.t0 && t < self.t1).then(|| {
            let k = (t - self.t0).as_secs_f64() / self.slice_len.as_secs_f64();
            (k as u16).min(self.slices - 1)
        })
    }
}

/// Result of one open-loop ingest connection.
struct OpenLoop {
    lat: Samples,
    /// Acks received in each slice of the timed window.
    per_slice: Vec<u64>,
    sent: u64,
    failed: u64,
    gen_late: Samples,
    spans: Spans,
}

/// Send `sched` open loop on `conn` — event `i` is due at
/// `start + sched[i].0` whatever the replies do — and collect every
/// ack. Latency is measured from the due time. `deltas_of` names the
/// watch deltas each move must cause, by index into `attr`, whose
/// first entry is this connection's own.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut Jsonl,
    attr: &[SharedAttribution],
    sched: &[(Duration, Move)],
    deltas_of: &dyn Fn(&Move) -> Vec<(usize, String)>,
    start: Instant,
    win: &Window,
    deadline: Instant,
    traced: bool,
    mut tick: impl FnMut(Instant),
) -> OpenLoop {
    let n = sched.len();
    let mut intended = Vec::with_capacity(n);
    let mut queued_at = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut responded = 0usize;
    let mut out = OpenLoop {
        lat: Samples::default(),
        per_slice: vec![0; win.slices as usize],
        sent: 0,
        failed: 0,
        gen_late: Samples::default(),
        spans: Spans::new(start),
    };
    let mut next = 0usize;
    let mut drain_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        tick(now);
        while next < n && start + sched[next].0 <= now {
            let due = start + sched[next].0;
            let m = &sched[next].1;
            for (c, key) in deltas_of(m) {
                attr[c]
                    .lock()
                    .unwrap()
                    .expect(key, m.seq, due, win.slice(due));
            }
            conn.queue(&gen::json_line(m));
            intended.push(due);
            queued_at.push(now);
            if let Some(k) = win.slice(due) {
                out.gen_late.push(k, (now - due).as_secs_f64() * 1e6);
            }
            next += 1;
        }
        out.sent = next as u64;
        if next == n && drain_until.is_none() {
            drain_until = Some(Instant::now() + DRAIN);
        }
        let wait = if conn.has_output() {
            Duration::ZERO
        } else if next < n {
            (start + sched[next].0)
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(20))
        } else {
            Duration::from_millis(20)
        };
        conn.pump(wait);
        let at = Instant::now();
        while let Some(line) = conn.next_line() {
            if let Some(seq) = ack_seq(&line) {
                let i = seq as usize - 1;
                if i < next && !done[i] {
                    done[i] = true;
                    responded += 1;
                    if let Some(k) = win.slice(intended[i]) {
                        out.lat.push(k, (at - intended[i]).as_secs_f64() * 1e6);
                    }
                    if let Some(k) = win.slice(at) {
                        out.per_slice[k as usize] += 1;
                    }
                    if traced {
                        let r = out
                            .spans
                            .record("client.ingest", intended[i], at, None, i as u64);
                        out.spans.record(
                            "client.send_delay",
                            intended[i],
                            queued_at[i],
                            Some(r),
                            i as u64,
                        );
                        out.spans
                            .record("client.server_wait", queued_at[i], at, Some(r), i as u64);
                    }
                }
            } else if is_delta(&line) {
                // Deltas on this connection are attributed by its own
                // attribution, the first of `attr`.
                attr[0].lock().unwrap().receive(&line, at);
            } else {
                // An error or shed reply: it answers its frame, failed.
                out.failed += 1;
                let seq = serde_json::from_str(&line)
                    .ok()
                    .and_then(|j| j.get("seq").and_then(Json::as_u64));
                if let Some(s) = seq.filter(|&s| s >= 1 && (s as usize) <= next) {
                    if !done[s as usize - 1] {
                        done[s as usize - 1] = true;
                        responded += 1;
                    }
                }
            }
        }
        if next == n && responded == n {
            break;
        }
        if drain_until.is_some_and(|d| Instant::now() > d) || Instant::now() > deadline {
            out.failed += (n - responded) as u64;
            break;
        }
    }
    out
}

/// Run the workload once: set up (several times), warm up, measure,
/// then check.
pub fn run(run: &Run) -> Outcome {
    let spec = run.spec;
    let route = router(spec.shards);
    let mut g = Generator::new(spec.gen_config(run.seed));
    g.interleave_ranks(spec.shards, |v| route.route(&visitor_event(v)));
    let watched: Vec<u32> = match spec.kind {
        Kind::Bulk => {
            // Watched visitors come from the Zipf ranks cold enough that
            // the minimum gap almost never has to resample them.
            let mut rng = StdRng::seed_from_u64(run.seed ^ 0xB0_1C);
            let mut out: Vec<u32> = Vec::new();
            while out.len() < spec.watched {
                let lo = (spec.visitors as usize / 160).max(2);
                let hi = (spec.visitors as usize / 20).max(lo + spec.watched + 1);
                let v = g.visitor_of_rank(rng.gen_range(lo..hi));
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            out
        }
        _ => g.sample_visitors(spec.watched, 1),
    };
    let checked: Vec<u32> = match spec.kind {
        Kind::Bulk => {
            let mut c: Vec<u32> = [3, 10, 30, 100]
                .iter()
                .map(|&k| g.visitor_of_rank(k))
                .collect();
            c.extend(g.sample_visitors(8, 2));
            c.extend(&watched);
            c
        }
        _ => g.sample_visitors(16, 2),
    };
    match spec.kind {
        Kind::Bulk => {
            for &v in &checked {
                g.track(v);
            }
            for &v in &watched {
                g.space(v);
            }
        }
        _ => g.track_all(),
    }

    sys::phase("preload generation");
    let preload: Vec<Move> = (0..spec.preload).map(|_| g.next_move()).collect();
    let frames: Vec<Vec<u8>> = preload
        .chunks(FRAME_EVENTS)
        .map(|c| {
            let evs: Vec<_> = c.iter().map(gen::event).collect();
            binary::encode_batch(gen::STREAM, &evs).expect("encode preload")
        })
        .collect();
    g.switch(spec.keys, spec.jitter_ms);
    let regs = watch_plan(spec, &g, &watched, &route);
    let nconns = match spec.kind {
        Kind::Bulk => 1,
        _ => 2,
    };

    sys::phase("setup");
    let mut setup_times = Vec::new();
    let mut live = None;
    for k in 0..spec.setups {
        // The previous set-up's server goes first: one child at a time.
        drop(live.take());
        let (l, secs) = setup_once(run, k, &frames, &regs, nconns);
        setup_times.push(secs);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    let setup_s = median(setup_times.clone());

    sys::phase("warm-up and timed phase");
    let watched_set: Vec<bool> = {
        let mut w = vec![false; spec.visitors as usize];
        watched.iter().for_each(|&v| w[v as usize] = true);
        w
    };
    let (mut m, child, mut attrs_done, spans) = match spec.kind {
        Kind::Durable => durable_phase(run, live, &mut g, &watched_set, &route),
        Kind::Bulk => bulk_phase(run, live, &mut g, &watched_set, &route),
        Kind::Mix => mix_phase(run, live, &mut g, &watched_set),
    };

    sys::phase("checks");
    let mut check = Jsonl::connect(child.addr);
    let rss = child.rss_peak_mb();
    let stats_line = check.call(r#"{"cmd":"stats"}"#, run.deadline, |_| {});
    let stats: Json = serde_json::from_str(&stats_line).unwrap_or(Json::Null);
    let server_counter = |k: &str| {
        stats
            .get("server")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let late = server_counter("late_dropped");
    let shed = server_counter("shed");
    m.failed += late + shed;
    let mut lag = Samples::default();
    for (c, a) in attrs_done.iter_mut().enumerate() {
        if a.unattributed > 0 || a.missing() > 0 {
            m.problems.push(format!(
                "watch deltas on connection {c}: {} not attributable to any sent event, {} expected but never delivered",
                a.unattributed,
                a.missing()
            ));
        }
        lag.extend(&a.lag);
    }

    // Reference: a single-threaded engine fed the same events (for the
    // bulk run, only the checked visitors' events — visitors are
    // independent under the rule, so their answers are the same).
    let mut reference = Engine::new(spec.engine_config());
    reference.add_rules_text(gen::RULES).expect("rules");
    reference.push_batch(g.all_moves().iter().map(gen::event));
    reference.finish();
    check_asof(run, &g, &checked, &reference, &mut check, &mut m);
    if spec.kind == Kind::Mix {
        check_queries(run, &reference, &mut check, &mut m);
    }
    drop(check);
    sys::phase("shutdown");
    child.stop(Duration::from_secs(5));

    let (gl50, gl99) = (m.gen_late.quantile(0.50), m.gen_late.quantile(0.99));
    if spec.rate > 0.0 && gl99 > GEN_LATE_BOUND_US {
        m.problems.push(format!(
            "open-loop generator fell behind: p99 lateness {gl99:.0} us exceeds the {GEN_LATE_BOUND_US:.0} us bound"
        ));
    }
    let mut warnings = Vec::new();
    for (what, s) in [
        ("latency", &m.lat),
        ("ingest latency", &m.ingest_lat),
        ("watch lag", &lag),
    ] {
        let per_slice = s.len() / m.per_slice.len().max(1);
        if per_slice < run.min_samples {
            warnings.push(Json::from(format!(
                "only {per_slice} {what} samples per slice; a p95 wants at least {}",
                run.min_samples
            )));
        }
    }
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", m.ops_per_s(), "1/s"),
        ("lat_p50_us", m.lat.sliced(0.50), "us"),
        ("lat_p95_us", m.lat.sliced(0.95), "us"),
        ("cpu_us_per_op", m.cpu_per_op(), "us"),
        ("rss_peak_mb", rss, "MiB"),
        ("watch_lag_p50_us", lag.sliced(0.50), "us"),
        ("watch_lag_p95_us", lag.sliced(0.95), "us"),
        ("ingest_lat_p50_us", m.ingest_lat.sliced(0.50), "us"),
        ("ingest_lat_p95_us", m.ingest_lat.sliced(0.95), "us"),
    ];
    let mean_ack_us = m.ingest_lat.mean();
    let fail_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    let tails = |s: &Samples| {
        let v = s.sorted();
        obj(vec![
            ("samples", Json::from(v.len())),
            ("p10", num(crate::stats::quantile(&v, 0.10))),
            ("p25", num(crate::stats::quantile(&v, 0.25))),
            ("p50", num(crate::stats::quantile(&v, 0.50))),
            ("p75", num(crate::stats::quantile(&v, 0.75))),
            ("p90", num(crate::stats::quantile(&v, 0.90))),
            ("p95", num(crate::stats::quantile(&v, 0.95))),
            ("p99", num(crate::stats::quantile(&v, 0.99))),
            ("max", num(v.last().copied().unwrap_or(0.0))),
        ])
    };
    let detail = vec![
        ("warnings", Json::Array(warnings)),
        ("server_config", spec.config_json()),
        (
            "setup_s_each",
            Json::Array(setup_times.iter().map(|&s| num(s)).collect()),
        ),
        ("timed_window_s", num(m.slice_s * m.per_slice.len() as f64)),
        (
            "ops_per_slice",
            Json::Array(m.per_slice.iter().map(|&n| Json::from(n)).collect()),
        ),
        ("cpu_steal_pct", num(m.steal_pct)),
        ("fail_ratio", num(fail_ratio)),
        ("late_dropped", Json::from(late)),
        ("shed", Json::from(shed)),
        ("latency_us", tails(&m.lat)),
        ("ingest_latency_us", tails(&m.ingest_lat)),
        ("watch_lag_us", tails(&lag)),
        (
            "generator_lateness_us",
            obj(vec![
                ("p50", num(gl50)),
                ("p99", num(gl99)),
                ("bound_p99", num(GEN_LATE_BOUND_US)),
                ("samples", Json::from(m.gen_late.len())),
            ]),
        ),
        ("events_generated", Json::from(g.count())),
        (
            "queries_by_kind",
            obj(m
                .queries_by_kind
                .iter()
                .map(|(k, s)| (*k, tails(s)))
                .collect()),
        ),
    ];
    Outcome {
        metrics,
        attempted: m.attempted,
        failed: m.failed,
        problems: m.problems,
        detail,
        stats,
        spans,
        mean_ack_us,
    }
}

type PhaseResult = (Measured, ServerChild, Vec<Attribution>, Spans);

fn take_attrs(attrs: Vec<SharedAttribution>) -> Vec<Attribution> {
    attrs
        .into_iter()
        .map(|a| match Arc::try_unwrap(a) {
            Ok(m) => m.into_inner().unwrap(),
            Err(_) => panic!("attribution still shared"),
        })
        .collect()
}

fn window_for(run: &Run, start: Instant) -> Window {
    Window::new(
        start + Duration::from_secs_f64(run.spec.warmup_s),
        run.seconds,
    )
}

/// `ingest_durable`: each shard's visitors on their own connection,
/// open loop, one event per line.
fn durable_phase(
    run: &Run,
    live: Live,
    g: &mut Generator,
    watched: &[bool],
    route: &ShardRouter,
) -> PhaseResult {
    let spec = run.spec;
    let total = (spec.rate * (spec.warmup_s + run.seconds)).round() as u64;
    let mut scheds: Vec<Vec<(Duration, Move)>> = vec![Vec::new(); 2];
    for i in 0..total {
        let m = g.next_move();
        let c = route.route(&gen::event(&m)) as usize;
        scheds[c].push((Duration::from_secs_f64(i as f64 / spec.rate), m));
    }
    let Live {
        child,
        mut conns,
        attrs,
    } = live;
    let mut conn1 = conns.pop().unwrap();
    let mut conn0 = conns.pop().unwrap();
    let start = Instant::now() + Duration::from_millis(20);
    let mut win = window_for(run, start);
    let t1 = win.t1;
    let deltas_of = move |m: &Move| -> Vec<(usize, String)> {
        move_deltas(m, false, watched[m.visitor as usize])
            .into_iter()
            .map(|k| (0, k))
            .collect()
    };
    let attr1 = vec![attrs[1].clone()];
    let sched1 = std::mem::take(&mut scheds[1]);
    let worker_win = window_for(run, start);
    let deadline = run.deadline;
    let traced = run.traced;
    let (r0, r1) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let r = open_loop(
                &mut conn1,
                &attr1,
                &sched1,
                &deltas_of,
                start,
                &worker_win,
                deadline,
                traced,
                |_| {},
            );
            until_synced(&mut conn1, &attr1[0], deadline);
            r
        });
        let attr0 = vec![attrs[0].clone()];
        let r0 = open_loop(
            &mut conn0,
            &attr0,
            &scheds[0],
            &deltas_of,
            start,
            &worker_win,
            deadline,
            traced,
            |now| win.tick(now, &child),
        );
        until_synced(&mut conn0, &attr0[0], deadline);
        (r0, h.join().expect("connection thread"))
    });
    win.tick(Instant::now().max(t1), &child);
    let mut m = Measured::default();
    m.close(&win);
    let mut spans = Spans::new(start);
    for r in [r0, r1] {
        m.lat.extend(&r.lat);
        for (total, n) in m.per_slice.iter_mut().zip(&r.per_slice) {
            *total += n;
        }
        m.attempted += r.sent;
        m.failed += r.failed;
        m.gen_late.extend(&r.gen_late);
        spans.absorb(r.spans);
    }
    m.ingest_lat = m.lat.clone();
    drop((conn0, conn1, attr1));
    (m, child, take_attrs(attrs), spans)
}

/// `ingest_bulk`: closed loop, binary frames, a few in flight; the
/// watched visitors' deltas arrive on a JSONL connection read by the
/// second thread.
fn bulk_phase(
    run: &Run,
    live: Live,
    g: &mut Generator,
    watched: &[bool],
    route: &ShardRouter,
) -> PhaseResult {
    let Live {
        child,
        mut conns,
        attrs,
    } = live;
    let mut wconn = conns.pop().unwrap();
    let attr = attrs[0].clone();
    let stop = AtomicBool::new(false);
    let deadline = run.deadline;
    let start = Instant::now();
    let mut win = window_for(run, start);
    let mut m = Measured::default();
    let mut spans = Spans::new(start);
    let lateness = run.spec.lateness_ms;
    std::thread::scope(|s| {
        let wattr = attr.clone();
        let stop = &stop;
        let h = s.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                wconn.pump(Duration::from_millis(20));
                let at = Instant::now();
                while let Some(line) = wconn.next_line() {
                    if is_delta(&line) {
                        wattr.lock().unwrap().receive(&line, at);
                    }
                }
            }
            until_synced(&mut wconn, &wattr, deadline);
        });
        let mut bin = Binary::connect(child.addr);
        let mut in_flight: VecDeque<(Instant, u64, Instant, u64)> = VecDeque::new();
        let mut frame_no = 0u64;
        loop {
            let now = Instant::now();
            win.tick(now, &child);
            let sending = now < win.t1;
            while sending && in_flight.len() < BULK_IN_FLIGHT {
                let built = Instant::now();
                let moves: Vec<Move> = (0..FRAME_EVENTS).map(|_| g.next_move()).collect();
                let evs: Vec<_> = moves.iter().map(gen::event).collect();
                let frame = binary::encode_batch(gen::STREAM, &evs).expect("encode");
                let sent = Instant::now();
                {
                    let mut a = attr.lock().unwrap();
                    for mv in moves.iter().filter(|mv| watched[mv.visitor as usize]) {
                        for key in move_deltas(mv, false, true) {
                            a.expect(key, mv.seq, sent, win.slice(sent));
                        }
                    }
                }
                bin.send(&frame);
                m.attempted += FRAME_EVENTS as u64;
                in_flight.push_back((sent, FRAME_EVENTS as u64, built, frame_no));
                frame_no += 1;
            }
            if in_flight.is_empty() {
                break;
            }
            let reply = bin.recv(deadline);
            let at = Instant::now();
            let (sent, n, built, no) = in_flight.pop_front().unwrap();
            match reply {
                Frame::Ack { count, .. } => {
                    assert_eq!(count, n, "ack count");
                    if let Some(k) = win.slice(sent) {
                        m.lat.push(k, (at - sent).as_secs_f64() * 1e6);
                    }
                    m.done(&win, at, n);
                    if run.traced {
                        let r = spans.record("client.frame", built, at, None, no);
                        spans.record("client.encode", built, sent, Some(r), no);
                        spans.record("client.server_wait", sent, at, Some(r), no);
                    }
                }
                Frame::Err { msg, .. } => {
                    m.failed += n;
                    m.problems.push(format!("bulk frame rejected: {msg}"));
                }
                other => panic!("unexpected bulk reply {other:?}"),
            }
        }
        win.tick(Instant::now().max(win.t1), &child);
        // Push every shard's watermark past the last event, so the
        // reorder buffers drain and every watched move is applied.
        let flush_ts = g.max_ts() + lateness + 1_000;
        let mut flush = Vec::new();
        let mut covered = vec![false; run.spec.shards as usize];
        for i in 0.. {
            if covered.iter().all(|&c| c) {
                break;
            }
            let ev = fenestra_base::record::Event::from_pairs(
                gen::STREAM,
                flush_ts,
                [
                    (
                        "visitor",
                        fenestra_base::value::Value::str(&format!("flush{i}")),
                    ),
                    ("room", fenestra_base::value::Value::str("room0")),
                ],
            );
            let shard = route.route(&ev) as usize;
            if !covered[shard] {
                covered[shard] = true;
                flush.push(ev);
            }
        }
        bin.send(&binary::encode_batch(gen::STREAM, &flush).expect("encode flush"));
        bin.sync(deadline);
        stop.store(true, Ordering::Release);
        h.join().expect("watch thread");
    });
    m.close(&win);
    m.ingest_lat = m.lat.clone();
    drop(attr);
    (m, child, take_attrs(attrs), spans)
}

/// Queries the closed-loop query client keeps outstanding. Enough that
/// the server's query path never waits for the client: with only a few
/// in flight, each query crosses several threads that sleep in between,
/// and on a shared host every wake-up can wait for the hypervisor, so
/// throughput and latency followed the host rather than the server.
const QUERIES_IN_FLIGHT: usize = 32;

/// Query kinds of the `read_watch_mix` statement mix, with weights.
const QUERY_KINDS: [(&str, u32); 5] = [
    ("point", 6),
    ("occupancy", 4),
    ("asof", 4),
    ("history", 3),
    // A window scans every fact on each shard, holding the shard (and
    // the ingest queued behind it) for milliseconds. At a tenth of the
    // mix the p95 falls well inside the windows' own latencies rather
    // than on the edge between them and the cheap kinds.
    ("window", 2),
];

/// A statement of `kind`; `fresh` carries a tag unique to the run that
/// gives it a text no earlier statement had, so it misses the plan cache.
pub fn statement(kind: &str, rng: &mut StdRng, spec: &Spec, fresh: Option<u64>) -> String {
    let v = gen::visitor_name(rng.gen_range(0..spec.visitors));
    let room = gen::room_name(rng.gen_range(0..spec.rooms));
    // Times inside the preload, whose history no later event changes.
    let span = spec.preload.max(2);
    let t = 1_000 + rng.gen_range(0..span);
    let limit = fresh
        .map(|tag| format!(" limit {}", 1_000_000 + tag))
        .unwrap_or_default();
    match kind {
        "point" => format!(r#"select ?r where {{ "{v}" room ?r }}{limit}"#),
        "occupancy" => format!(r#"select ?v where {{ ?v room "{room}" }}{limit}"#),
        "asof" => format!(r#"select ?r where {{ "{v}" room ?r }} asof {t}{limit}"#),
        "history" => format!("history {v} room"),
        _ => {
            let width = (span / 8).max(2);
            let a = 1_000 + rng.gen_range(0..span - width / 2);
            let b = (a + width).min(1_000 + span - 1);
            let size = width / 4 + fresh.map_or(0, |tag| 1 + tag % 997);
            format!(
                "SELECT window_start, room, count(*) AS n FROM state GROUP BY room, tumbling({size}) DURING {a} TO {b}"
            )
        }
    }
}

/// The `read_watch_mix` statement stream: a fixed pool of statements
/// per kind, whose texts repeat (plan-cache hits), and a `fresh_share`
/// of texts never sent before (misses). The kinds follow one fixed
/// sequence weighted by [`QUERY_KINDS`] (smooth weighted round robin)
/// and fresh texts come at fixed places, so every seed puts the same
/// kinds in flight together: with a seeded order, how closely the
/// windows bunched up moved the latency tail from seed to seed.
pub struct QueryMix {
    rng: StdRng,
    /// Each kind's statements, in [`QUERY_KINDS`] order, and the next
    /// one to send.
    pools: Vec<(Vec<String>, usize)>,
    credit: Vec<i64>,
    sent: u64,
    fresh: u64,
}

impl QueryMix {
    pub fn new(spec: &Spec, seed: u64) -> QueryMix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0051_A7E5);
        let pools = QUERY_KINDS
            .iter()
            .map(|&(kind, weight)| {
                let texts = (0..weight * 4)
                    .map(|_| statement(kind, &mut rng, spec, None))
                    .collect();
                (texts, 0)
            })
            .collect();
        QueryMix {
            rng,
            pools,
            credit: vec![0; QUERY_KINDS.len()],
            sent: 0,
            fresh: 0,
        }
    }

    pub fn next(&mut self, spec: &Spec) -> (&'static str, String) {
        let total: i64 = QUERY_KINDS.iter().map(|&(_, w)| i64::from(w)).sum();
        for (c, &(_, w)) in self.credit.iter_mut().zip(&QUERY_KINDS) {
            *c += i64::from(w);
        }
        let k = (0..self.credit.len())
            .max_by_key(|&k| (self.credit[k], std::cmp::Reverse(k)))
            .expect("query kinds");
        self.credit[k] -= total;
        let kind = QUERY_KINDS[k].0;
        let (texts, at) = &mut self.pools[k];
        let text = texts[*at % texts.len()].clone();
        *at += 1;
        self.sent += 1;
        // Fresh texts so far, had they come exactly at `fresh_share`.
        let due = (self.sent as f64 * spec.fresh_share).floor() as u64;
        if self.fresh >= due {
            return (kind, text);
        }
        // `history` takes no `limit`, which is what makes a text fresh.
        let kind = if kind == "history" { "point" } else { kind };
        self.fresh += 1;
        (kind, statement(kind, &mut self.rng, spec, Some(self.fresh)))
    }
}

fn is_stable(kind: &str) -> bool {
    matches!(kind, "asof" | "window")
}

/// Send times `[0, seconds)` of a Poisson stream at `rate` per second:
/// independent senders. A fixed interval can lock into phase with other
/// periodic work and split one latency into two modes, whose shares
/// then set the median (ingest every 5 ms beside queries every 3.3 ms
/// did exactly that).
fn poisson(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    loop {
        t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `read_watch_mix`: ingest open loop (Poisson) on connection 0, which
/// also holds both subscriptions to every watch; queries closed loop on
/// connection 1.
fn mix_phase(run: &Run, live: Live, g: &mut Generator, watched: &[bool]) -> PhaseResult {
    let spec = run.spec;
    let span = spec.warmup_s + run.seconds;
    let sched: Vec<(Duration, Move)> = poisson(spec.rate, span, run.seed ^ 0x1E57)
        .into_iter()
        .map(|t| (t, g.next_move()))
        .collect();

    let Live {
        child,
        mut conns,
        attrs,
    } = live;
    let mut qconn = conns.pop().unwrap();
    let mut iconn = conns.pop().unwrap();
    let start = Instant::now() + Duration::from_millis(20);
    let mut win = window_for(run, start);
    let qwin = window_for(run, start);
    let deadline = run.deadline;
    let traced = run.traced;
    let seed = run.seed;
    // Two subscriptions per watch, both on connection 0.
    let deltas_of = |m: &Move| -> Vec<(usize, String)> {
        let keys = move_deltas(m, true, watched[m.visitor as usize]);
        keys.iter().chain(&keys).map(|k| (0, k.clone())).collect()
    };
    // The query connection subscribes to nothing; a delta on it is
    // unattributable.
    let qattr = attrs[1].clone();
    let (ingest, (queries, qspans)) = std::thread::scope(|s| {
        let qwin = &qwin;
        let h = s.spawn(move || {
            let mut q = Measured::default();
            let mut spans = Spans::new(start);
            let mut mix = QueryMix::new(spec, seed);
            let mut by_kind = vec![Samples::default(); QUERY_KINDS.len()];
            let mut no = 0u64;
            // Replies on one connection come back in request order.
            let mut pending: VecDeque<(Instant, &'static str, String)> = VecDeque::new();
            loop {
                let now = Instant::now();
                while now < qwin.t1 && pending.len() < QUERIES_IN_FLIGHT {
                    let (kind, text) = mix.next(spec);
                    qconn.queue(&query_line(&text));
                    pending.push_back((Instant::now(), kind, text));
                }
                if pending.is_empty() {
                    break;
                }
                assert!(now < deadline, "timed out waiting for query replies");
                qconn.pump(if qconn.has_output() {
                    Duration::ZERO
                } else {
                    Duration::from_millis(20)
                });
                let at = Instant::now();
                while let Some(reply) = qconn.next_line() {
                    if is_delta(&reply) {
                        qattr.lock().unwrap().receive(&reply, at);
                        continue;
                    }
                    let (sent, kind, text) = pending.pop_front().expect("reply to no query");
                    no += 1;
                    q.attempted += 1;
                    if !reply.starts_with("{\"ok\":true") {
                        q.failed += 1;
                        q.problems.push(format!("query `{text}` failed: {reply}"));
                        continue;
                    }
                    if let Some(k) = qwin.slice(sent) {
                        q.lat.push(k, (at - sent).as_secs_f64() * 1e6);
                        let ki = QUERY_KINDS.iter().position(|(k, _)| *k == kind).unwrap();
                        by_kind[ki].push(k, (at - sent).as_secs_f64() * 1e6);
                    }
                    q.done(qwin, at, 1);
                    if traced {
                        spans.record(kind_span(kind), sent, at, None, no);
                    }
                    if is_stable(kind) && no.is_multiple_of(4) {
                        q.stable_replies.push((text, reply));
                    }
                }
            }
            q.queries_by_kind = QUERY_KINDS.iter().map(|(k, _)| *k).zip(by_kind).collect();
            (q, spans)
        });
        let r = open_loop(
            &mut iconn,
            &attrs,
            &sched,
            &deltas_of,
            start,
            qwin,
            deadline,
            traced,
            |now| win.tick(now, &child),
        );
        until_synced(&mut iconn, &attrs[0], deadline);
        (r, h.join().expect("query thread"))
    });
    let mut m = queries;
    win.tick(Instant::now().max(win.t1), &child);
    m.close(&win);
    m.ingest_lat = ingest.lat;
    m.attempted += ingest.sent;
    m.failed += ingest.failed;
    m.gen_late = ingest.gen_late;
    let mut spans = ingest.spans;
    spans.absorb(qspans);
    drop(iconn);
    (m, child, take_attrs(attrs), spans)
}

fn kind_span(kind: &str) -> &'static str {
    match kind {
        "point" => "client.query.point",
        "occupancy" => "client.query.occupancy",
        "asof" => "client.query.asof",
        "history" => "client.query.history",
        _ => "client.query.window",
    }
}

/// The rows of a reply, order-insensitively, or its history.
fn canonical(reply: &str) -> String {
    let Ok(j) = serde_json::from_str(reply) else {
        return format!("unparseable: {reply}");
    };
    if let Some(rows) = j.get("rows").and_then(Json::as_array) {
        let mut r: Vec<String> = rows.iter().map(|x| x.to_string()).collect();
        r.sort();
        return format!("rows {}", r.join(","));
    }
    match j.get("history") {
        Some(h) => format!("history {h}"),
        None => reply.to_string(),
    }
}

/// What the reference engine answers to `text`.
fn reference_reply(reference: &Engine, text: &str) -> String {
    match reference.query(text) {
        Ok(r) => fenestra_server::proto::query_reply(&r, Some(&reference.store())),
        Err(e) => fenestra_server::proto::error(&e.to_string()),
    }
}

/// `AS OF` lookups for a seeded sample of visitors and instants must
/// equal the oracle and the reference engine.
fn check_asof(
    run: &Run,
    g: &Generator,
    checked: &[u32],
    reference: &Engine,
    conn: &mut Jsonl,
    m: &mut Measured,
) {
    let spec = run.spec;
    let max_ts = g.max_ts();
    // Retention reclaims history before the final watermark minus the
    // retention; the flush put that watermark just past `max_ts`.
    let lo = match spec.retention_ms {
        Some(r) => (max_ts + 1_000 + spec.lateness_ms).saturating_sub(r) + 1_000,
        None => 1_000,
    };
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xA5_0F);
    for _ in 0..ASOF_CHECKS {
        let v = checked[rng.gen_range(0..checked.len())];
        let t = rng.gen_range(lo..=max_ts);
        let text = format!(
            r#"select ?r where {{ "{}" room ?r }} asof {t}"#,
            gen::visitor_name(v)
        );
        let reply = conn.call(&query_line(&text), run.deadline, |_| {});
        let oracle = match g.room_at(v, t) {
            Some(r) => format!(r#"rows {{"r":"{}"}}"#, gen::room_name(r)),
            None => "rows ".to_string(),
        };
        let got = canonical(&reply);
        let want_ref = canonical(&reference_reply(reference, &text));
        if got != oracle || got != want_ref {
            m.problems.push(format!(
                "`{text}`: server {got}, oracle {oracle}, reference {want_ref}"
            ));
        }
    }
}

/// `read_watch_mix`: sampled replies recorded during the run, and a
/// seeded sample of statements at the final sync point, must equal
/// the reference engine's answers.
fn check_queries(run: &Run, reference: &Engine, conn: &mut Jsonl, m: &mut Measured) {
    for (text, reply) in std::mem::take(&mut m.stable_replies) {
        let want = canonical(&reference_reply(reference, &text));
        if canonical(&reply) != want {
            m.problems.push(format!(
                "`{text}` during the run: server {reply}, reference {want}"
            ));
        }
    }
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xC4_EC);
    for (kind, _) in QUERY_KINDS {
        for _ in 0..6 {
            let text = statement(kind, &mut rng, run.spec, None);
            let reply = conn.call(&query_line(&text), run.deadline, |_| {});
            let want = canonical(&reference_reply(reference, &text));
            if canonical(&reply) != want {
                m.problems.push(format!(
                    "`{text}` at the final sync: server {reply}, reference {want}"
                ));
            }
        }
    }
}
