//! perfbench — the fenestrad benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest_bulk --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run starts a `fenestra-server` in a child process (this binary
//! re-executed with `--serve`, building the `ServerConfig` the way
//! `fenestrad` does), sets it up several times from a fixed preload,
//! warms up, measures for `--seconds`, checks every answer it can
//! against an oracle and a single-threaded reference engine, and
//! prints one JSON line last: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! repeats the run with client spans and adds an in-process replay of
//! the same seeded inputs, reporting per-layer metrics. Spans and the
//! full report go to `.perfbench_out/`.
//!
//! Workloads (see `workloads.rs`): `ingest_bulk` and `read_watch_mix`
//! are the ones `BENCHMARK.json` lists. `ingest_durable` (JSONL, open
//! loop, `--fsync always`) runs the same way but is left out of the
//! list: its latencies follow the fsync latency of whatever disk holds
//! the checkout, which on a shared disk moves by half between runs.
//! `--tiny` shrinks every size (the package's own test uses it).

mod client;
mod gen;
mod span;
mod stats;
mod sys;
mod trace;
mod workloads;

use fenestra_base::time::Duration as EventDuration;
use fenestra_server::{Server, ServerConfig};
use fenestra_temporal::FsyncPolicy;
use serde_json::Value as Json;
use stats::{metrics_json, num, obj};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A run that has not finished by then is killed and fails, naming
/// its phase, well inside the three minutes a run may take.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value()? == "1",
            "--tiny" => a.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

/// Child mode: the `ServerConfig` `fenestrad` builds from the same
/// flags, started on an ephemeral port.
fn serve(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::new("127.0.0.1:0");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().map(String::as_str).unwrap_or("");
        let n = v.parse::<u64>().unwrap_or(0);
        match flag.as_str() {
            "--shards" => config.shards = (n as u32).max(1),
            "--reactors" => config.reactors = n as usize,
            "--batch-max" => config.batch_max = (n as usize).max(1),
            "--queue" => config.queue_capacity = (n as usize).max(1),
            "--max-lateness-ms" => config.engine.max_lateness = EventDuration::millis(n),
            "--retention-ms" => config.engine.retention = Some(EventDuration::millis(n)),
            "--wal" => config.wal_path = Some(v.into()),
            "--fsync" => match v.parse::<FsyncPolicy>() {
                Ok(p) => config.fsync = p,
                Err(e) => {
                    eprintln!("perfbench server: {e}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("perfbench server: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    config = config.setup(|engine| {
        if let Err(e) = engine.add_rules_text(gen::RULES) {
            eprintln!("perfbench server: rules rejected: {e}");
        }
    });
    match Server::start(config) {
        Ok(handle) => {
            sys::serve_until_stdin_closes(handle);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench server: failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fingerprint(dir: &std::path::Path, spec: &workloads::Spec) -> Json {
    let (wal50, wal99) = sys::fsync_probe(dir, 200);
    let (repo50, repo99) = sys::fsync_probe(std::path::Path::new("."), 200);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Json::from(nproc)),
        (
            "fsync_probe_us",
            obj(vec![
                ("wal_dir_p50", num(wal50)),
                ("wal_dir_p99", num(wal99)),
                ("checkout_p50", num(repo50)),
                ("checkout_p99", num(repo99)),
            ]),
        ),
        (
            "build_profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", Json::from(sys::git_commit())),
        ("workload", Json::from(spec.name)),
        ("server_config", spec.config_json()),
    ])
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--serve") {
        return serve(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload, args.tiny) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    sys::arm_deadline(HARD_LIMIT);
    let deadline = Instant::now() + HARD_LIMIT - Duration::from_secs(5);
    let dir = match sys::RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    sys::phase("fingerprint");
    let env = fingerprint(&dir.path, &spec);
    let run = |traced: bool| {
        // Each run boots its servers on WAL directories of its own.
        let sub = dir.path.join(if traced { "traced" } else { "untraced" });
        workloads::run(&workloads::Run {
            spec: &spec,
            seed: args.seed,
            seconds: args.seconds,
            traced,
            dir: &sub,
            deadline,
            // Ten samples beyond a slice's p95.
            min_samples: if args.tiny { 0 } else { 200 },
        })
    };
    let untraced = run(false);
    let mut problems = untraced.problems.clone();
    let (metrics, attempted, failed, report) = if args.trace {
        let traced = run(true);
        problems.extend(traced.problems.iter().cloned());
        sys::phase("replay");
        let (layer, replay_spans) =
            trace::per_layer(args.seed, args.tiny, &dir.path, &traced, &untraced);
        let report = obj(vec![
            ("client_spans", traced.spans.json(200_000)),
            ("replay_spans", replay_spans.json(200_000)),
            ("traced_end_to_end", metrics_json(&traced.metrics)),
            ("untraced_end_to_end", metrics_json(&untraced.metrics)),
        ]);
        (
            layer,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            Some(report),
        )
    } else {
        (
            untraced.metrics.clone(),
            untraced.attempted,
            untraced.failed,
            None,
        )
    };
    drop(dir);

    let correct = problems.is_empty() && failed == 0;
    let mut detail: Vec<(&str, Json)> = vec![
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(args.seed)),
        ("seconds", num(args.seconds)),
        ("environment", env),
        (
            "problems",
            Json::Array(problems.iter().map(|p| Json::from(p.as_str())).collect()),
        ),
    ];
    detail.extend(untraced.detail.iter().cloned());
    detail.push(("server_stats", untraced.stats.clone()));
    let detail = obj(detail);
    write_out(&spec, &args, &detail, report.as_ref());
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", obj(vec![("detail", detail)]));
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", metrics_json(&metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The full report (and, traced, the spans) under `.perfbench_out/`.
fn write_out(spec: &workloads::Spec, args: &Args, detail: &Json, report: Option<&Json>) {
    let dir = std::path::Path::new(".perfbench_out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(dir.join(format!("{stem}.json")), detail.to_string());
    if let Some(r) = report {
        let _ = std::fs::write(dir.join(format!("{stem}-spans.json")), r.to_string());
    }
}
