//! Seeded differential test of the two-phase window path.
//!
//! Random stores are built twice from one event trace: once in a
//! single engine, once split over 1–4 shards by the router. Random
//! windowed statements then run both ways:
//!
//! * the oracle: the single store's [`WindowPhys::collect_facts`]
//!   replayed through the one-shot window operators
//!   ([`run_window_batch`]), projected, sorted, deduplicated, limited;
//! * the candidate: [`WindowPhys::merge`] over every shard's
//!   [`WindowPhys::partials`].
//!
//! Rows must be equal, except that float sums and averages (combined
//! per pane and per shard rather than in merged order) may differ by
//! a relative 1e-9.

use fenestra::prelude::*;
use fenestra::query::sql::AggName;
use fenestra::query::{compile, Bindings, PhysicalPlan, WindowKind, WindowPhys};
use fenestra::stream::oneshot::{run_window_batch, BatchWindow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const RULES: &str = "rule mv:\n on s\n replace $(visitor).room = room\n\n\
                     rule warm:\n on h\n replace $(visitor).heat = heat\n\n\
                     rule bye:\n on bye\n clear $(visitor)\n";

/// Seeds that once failed; they run besides the sweep.
const REGRESSIONS: &[u64] = &[];

fn config() -> EngineConfig {
    EngineConfig {
        max_lateness: Duration::millis(0),
        ..EngineConfig::default()
    }
}

/// Visitors moving between rooms and changing heat (ints and floats),
/// sometimes leaving (every fact of theirs closes), at non-decreasing
/// times with repeats.
fn trace(rng: &mut StdRng) -> Vec<Event> {
    let mut t = rng.gen_range(0u64..500);
    let n = rng.gen_range(1usize..120);
    (0..n)
        .map(|_| {
            t += [0, 1, 7, 40, 150, 600][rng.gen_range(0usize..6)];
            let visitor = Value::str(&format!("v{}", rng.gen_range(0u32..7)));
            match rng.gen_range(0u32..10) {
                0 => Event::from_pairs("bye", t, [("visitor", visitor)]),
                1..=4 => {
                    let heat = if rng.gen_bool(0.5) {
                        Value::Int(rng.gen_range(-5i64..20))
                    } else {
                        Value::Float(rng.gen_range(-5.0f64..20.0))
                    };
                    Event::from_pairs("h", t, [("visitor", visitor), ("heat", heat)])
                }
                _ => {
                    let room = Value::str(&format!("r{}", rng.gen_range(0u32..4)));
                    Event::from_pairs("s", t, [("visitor", visitor), ("room", room)])
                }
            }
        })
        .collect()
}

/// A random windowed statement over `room` or `heat`.
fn statement(rng: &mut StdRng, span: u64) -> String {
    let attr = if rng.gen_bool(0.5) { "room" } else { "heat" };
    let window = match rng.gen_range(0u32..3) {
        0 => format!("tumbling({})", rng.gen_range(1u64..1_500)),
        1 => format!(
            "sliding({}, {})",
            rng.gen_range(1u64..1_500),
            rng.gen_range(1u64..1_000)
        ),
        _ => format!("session({})", rng.gen_range(1u64..800)),
    };
    let keys: Vec<&str> = match rng.gen_range(0u32..5) {
        0 => vec![],
        1 => vec!["entity"],
        2 => vec![attr],
        3 => vec!["entity", attr],
        _ => vec![attr, "entity"],
    };
    let mut items: Vec<String> = Vec::new();
    for col in ["window_start", "window_end"] {
        if rng.gen_bool(0.5) {
            items.push(col.into());
        }
    }
    for k in &keys {
        if rng.gen_bool(0.7) {
            items.push((*k).into());
        }
    }
    let funcs = ["count", "sum", "avg", "min", "max"];
    for i in 0..rng.gen_range(1usize..4) {
        let f = funcs[rng.gen_range(0usize..funcs.len())];
        let input = if i > 0 && f == "count" && rng.gen_bool(0.5) {
            "*"
        } else {
            attr
        };
        items.push(format!("{f}({input}) AS a{i}"));
    }
    // Shuffle the items: the row sort must not depend on their order.
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    let mut s = format!("SELECT {} FROM state", items.join(", "));
    let filter = match (rng.gen_range(0u32..6), attr) {
        (0, "room") => Some("room != \"r1\"".to_string()),
        (0, _) => Some(format!("heat > {}", rng.gen_range(-2i64..12))),
        (1, _) => Some(format!("entity != \"v{}\"", rng.gen_range(0u32..7))),
        (2, "heat") => Some("heat <= 7.5 and heat != 3".to_string()),
        // A type error on every heat fact: both sides must fail.
        (3, "heat") if rng.gen_bool(0.3) => Some("heat > \"r1\"".to_string()),
        _ => None,
    };
    if let Some(f) = filter {
        s.push_str(&format!(" WHERE {f}"));
    }
    let mut group: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    group.insert(rng.gen_range(0..=group.len()), window);
    s.push_str(&format!(" GROUP BY {}", group.join(", ")));
    if rng.gen_bool(0.5) {
        let a = rng.gen_range(0..span);
        let b = rng.gen_range(a + 1..span + 2);
        s.push_str(&format!(" DURING {a} TO {b}"));
    }
    if rng.gen_bool(0.3) {
        s.push_str(&format!(" LIMIT {}", rng.gen_range(1usize..6)));
    }
    s
}

/// The reference: collected facts through the one-shot window
/// operators, shaped like a window reply.
fn oracle(w: &WindowPhys, store: &TemporalStore) -> fenestra::base::error::Result<Vec<Bindings>> {
    let window = match w.window {
        WindowKind::Tumbling { size_ms } => BatchWindow::Tumbling(Duration::millis(size_ms)),
        WindowKind::Sliding { size_ms, hop_ms } => {
            BatchWindow::Sliding(Duration::millis(size_ms), Duration::millis(hop_ms))
        }
        WindowKind::Session { gap_ms } => BatchWindow::Session(Duration::millis(gap_ms)),
    };
    let specs: Vec<AggSpec> = w
        .aggs
        .iter()
        .map(|a| match (a.func, a.column) {
            (AggName::Count, _) => AggSpec::count(a.output),
            (AggName::Sum, Some(c)) => AggSpec::sum(c, a.output),
            (AggName::Avg, Some(c)) => AggSpec::avg(c, a.output),
            (AggName::Min, Some(c)) => AggSpec::min(c, a.output),
            (AggName::Max, Some(c)) => AggSpec::max(c, a.output),
            (f, None) => unreachable!("{} without input", f.name()),
        })
        .collect();
    let records = run_window_batch(window, &w.keys, &specs, w.collect_facts(store)?)?;
    let mut rows: Vec<Bindings> = records
        .iter()
        .map(|rec| {
            w.columns
                .iter()
                .map(|c| (*c, rec.get_or_null(*c)))
                .collect()
        })
        .collect();
    rows.sort();
    rows.dedup();
    if let Some(n) = w.limit {
        rows.truncate(n);
    }
    Ok(rows)
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn same_rows(a: &[Bindings], b: &[Bindings]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb)
                    .all(|((ka, va), (kb, vb))| ka == kb && close(va, vb))
        })
}

fn check_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = rng.gen_range(1u32..=4);
    let mut single = Engine::new(config());
    let mut sharded = ShardedEngine::new(config(), shards);
    for attr in ["room", "heat"] {
        single.declare_attr(attr, AttrSchema::one());
        sharded.declare_attr(attr, AttrSchema::one());
    }
    single.add_rules_text(RULES).unwrap();
    sharded.add_rules_text(RULES).unwrap();
    let events = trace(&mut rng);
    let span = events.last().map_or(1, |e| e.ts.millis()) + 100;
    for ev in &events {
        single.push(ev.clone());
        sharded.push(ev.clone());
    }
    single.finish();
    sharded.finish();
    if rng.gen_bool(0.4) {
        let horizon = Timestamp::new(rng.gen_range(0..span));
        assert_eq!(single.gc(horizon), sharded.gc(horizon), "seed {seed}");
    }
    let single_store = single.store();
    for _ in 0..24 {
        let text = statement(&mut rng, span);
        let plan = Arc::new(compile(&text).unwrap_or_else(|e| panic!("{text}: {e}")));
        let PhysicalPlan::WindowAgg(w) = &plan.physical else {
            panic!("{text}: not a window plan");
        };
        let want = oracle(w, &single_store);
        let got = (0..shards)
            .map(|i| w.partials(&sharded.shard(i).store()))
            .collect::<fenestra::base::error::Result<Vec<_>>>()
            .and_then(|parts| w.merge(parts));
        match (&want, &got) {
            (Ok(want), Ok(got)) => assert!(
                same_rows(want, got),
                "seed {seed}, {shards} shard(s): {text}\noracle: {want:?}\nmerged: {got:?}"
            ),
            (Err(_), Err(_)) => continue,
            _ => {
                panic!("seed {seed}, {shards} shard(s): {text}\noracle: {want:?}\nmerged: {got:?}")
            }
        }
        // The engines' own plan paths are this same merge.
        let rows = |r: fenestra::base::error::Result<QueryResult>| match r {
            Ok(QueryResult::Rows(rows)) => rows,
            other => panic!("{text}: {other:?}"),
        };
        let got = got.unwrap();
        assert_eq!(
            rows(sharded.execute_plan(&plan, QueryOptions::default())),
            got,
            "{text}"
        );
        assert!(
            same_rows(
                &rows(single.execute_plan(&plan, QueryOptions::default())),
                &want.unwrap()
            ),
            "{text}"
        );
    }
}

#[test]
fn merged_partials_match_the_window_operators() {
    for seed in (0..80).chain(REGRESSIONS.iter().copied()) {
        check_seed(seed);
    }
}
