//! Seeded differential test of the executor's index-driven access
//! paths.
//!
//! Each seed builds a random store: cardinality-one attributes (`room`,
//! `lvl`) and a cardinality-many one (`tag`), moves in and out of
//! event-time order (retroactive asserts, replaces and retractions,
//! some of which the store rejects and some of which make a
//! cardinality-one timeline overlap), whole-entity retractions,
//! derived facts and GC. Statements then run through the executor,
//! which reads the narrowest index the bound terms allow:
//!
//! * current state by value (`open_by_attr_value`);
//! * `AS OF` by entity (one timeline, one candidate when disjoint);
//! * `DURING` by entity (one timeline) or by attribute (the bounded
//!   walk of `visit_attr_facts`);
//! * joins that bind the entity through a variable;
//!
//! with and without `exclude_derived`, through the id-returning
//! executor, the watch path (`execute_set`) and the shard path
//! (`partial_select`). The oracle scans every entity's whole history of
//! the attribute (`TemporalStore::history`) and joins by nested loops.
//! Windowed statements compare [`WindowPhys::execute_local`] (the
//! bounded walk) with the same statement folded from
//! [`WindowPhys::collect_facts`] (every entity's whole history). Probe
//! instants and range bounds are taken at interval starts and ends and
//! one off either side.

use fenestra::base::symbol::Symbol;
use fenestra::prelude::*;
use fenestra::query::exec::{execute_set, execute_with};
use fenestra::query::{compile, partial_select, Bindings, PhysicalPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Seeds that once failed; they run besides the sweep.
const REGRESSIONS: &[u64] = &[];

const ROOMS: [&str; 3] = ["lab", "hall", "lobby"];
const TAGS: [&str; 3] = ["vip", "staff", "guest"];

fn ts(t: u64) -> Timestamp {
    Timestamp::new(t)
}

/// A random store and its entities (named ones first).
fn build(rng: &mut StdRng) -> (TemporalStore, Vec<EntityId>) {
    let mut s = TemporalStore::new();
    s.declare_attr("room", AttrSchema::one());
    s.declare_attr("lvl", AttrSchema::one());
    let mut entities: Vec<EntityId> = (0..rng.gen_range(1..7))
        .map(|i| s.named_entity(format!("e{i}").as_str()))
        .collect();
    entities.push(s.new_entity());
    let mut t = 10u64;
    for _ in 0..rng.gen_range(5..80) {
        // Mostly forward in time, sometimes back before earlier facts.
        let at = if rng.gen_bool(0.2) {
            t.saturating_sub(rng.gen_range(0..40))
        } else {
            t += [0, 1, 3, 10][rng.gen_range(0usize..4)];
            t
        };
        let e = entities[rng.gen_range(0usize..entities.len())];
        let prov = match rng.gen_range(0..4) {
            0 => Provenance::Derived(Symbol::intern("onto")),
            1 => Provenance::Rule(Symbol::intern("mv")),
            _ => Provenance::External,
        };
        let room = Value::str(ROOMS[rng.gen_range(0usize..ROOMS.len())]);
        let tag = Value::str(TAGS[rng.gen_range(0usize..TAGS.len())]);
        let lvl = Value::Int(rng.gen_range(0..4));
        // Rejected writes (conflicts, closes before starts) are part of
        // the mix: they must leave the indexes as they were.
        let _ = match rng.gen_range(0..12) {
            0..=3 => s
                .replace_with(e, "room".into(), room, ts(at), prov)
                .map(|_| ()),
            4 => s
                .assert_with(e, "room".into(), room, ts(at), prov)
                .map(|_| ()),
            5 => s.retract_at(e, "room", room, ts(at)).map(|_| ()),
            6 | 7 => s
                .assert_with(e, "tag".into(), tag, ts(at), prov)
                .map(|_| ()),
            8 => s.retract_at(e, "tag", tag, ts(at)).map(|_| ()),
            9 => s
                .replace_with(e, "lvl".into(), lvl, ts(at), prov)
                .map(|_| ()),
            10 => s.retract_entity_at(e, ts(at)).map(|_| ()),
            _ => {
                if rng.gen_bool(0.3) {
                    s.gc(ts(t.saturating_sub(rng.gen_range(0..30))));
                }
                Ok(())
            }
        };
    }
    (s, entities)
}

/// Every interval bound in the store, one off either side, and 0.
fn probes(s: &TemporalStore, entities: &[EntityId]) -> Vec<u64> {
    let mut out = BTreeSet::from([0u64]);
    for &e in entities {
        for a in ["room", "tag", "lvl"] {
            for (iv, _, _) in s.history(e, a) {
                for b in std::iter::once(iv.start.millis()).chain(iv.end.map(|t| t.millis())) {
                    out.extend([b.saturating_sub(1), b, b + 1]);
                }
            }
        }
    }
    out.into_iter().collect()
}

/// The full scan: every `(entity, value)` of `attr` whose interval is
/// valid under `time`, from each entity's whole history.
fn scan(
    s: &TemporalStore,
    entities: &[EntityId],
    attr: &str,
    time: TimeSpec,
    opts: QueryOptions,
) -> Vec<(EntityId, Value)> {
    let mut out = Vec::new();
    for &e in entities {
        for (iv, v, prov) in s.history(e, attr) {
            let valid = match time {
                TimeSpec::Current => iv.is_open(),
                TimeSpec::AsOf(t) => iv.contains(t),
                TimeSpec::During(from, to) => iv.overlaps_range(from, to),
            };
            if valid && !(opts.exclude_derived && prov.is_derived()) {
                out.push((e, v));
            }
        }
    }
    out
}

/// A pattern of the statements under test: entity term, attribute,
/// value term.
type Pattern = (Term, &'static str, Term);

/// The oracle's rows of `patterns` at `time`, as sets of `(variable,
/// rendered value)` with entities by name.
fn oracle(
    s: &TemporalStore,
    entities: &[EntityId],
    patterns: &[Pattern],
    time: TimeSpec,
    opts: QueryOptions,
) -> BTreeSet<Vec<(String, String)>> {
    let mut rows: Vec<Vec<(Symbol, Value)>> = vec![Vec::new()];
    for (et, attr, vt) in patterns {
        let facts = scan(s, entities, attr, time, opts);
        let mut next = Vec::new();
        for row in &rows {
            for &(e, v) in &facts {
                let mut row = row.clone();
                if !bind(s, &mut row, et, Value::Id(e)) || !bind(s, &mut row, vt, v) {
                    continue;
                }
                next.push(row);
            }
        }
        rows = next;
    }
    rows.iter().map(|r| render(s, r)).collect()
}

/// Match `term` against `v`, extending `row` with a new variable.
fn bind(s: &TemporalStore, row: &mut Vec<(Symbol, Value)>, term: &Term, v: Value) -> bool {
    let same = |a: Value| match (a, v) {
        (Value::Str(name), Value::Id(e)) => s.entity_name(e) == Some(name),
        (a, v) => a == v,
    };
    match term {
        Term::Const(c) => same(*c),
        Term::Var(name) => match row.iter().find(|(n, _)| n == name) {
            Some((_, bound)) => same(*bound),
            None => {
                row.push((*name, v));
                true
            }
        },
    }
}

/// A row as sorted `(variable, value)` text, entity ids by name.
fn render(s: &TemporalStore, row: &[(Symbol, Value)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = row
        .iter()
        .map(|(n, v)| {
            let v = match *v {
                Value::Id(e) => s.entity_name(e).map_or(*v, Value::Str),
                v => v,
            };
            (n.as_str().to_string(), v.to_string())
        })
        .collect();
    out.sort();
    out
}

fn rendered(s: &TemporalStore, rows: &[Bindings]) -> BTreeSet<Vec<(String, String)>> {
    rows.iter().map(|r| render(s, r)).collect()
}

/// Random statement shapes over the store's names and values.
fn statements(rng: &mut StdRng, named: usize) -> Vec<Vec<Pattern>> {
    let entity =
        |rng: &mut StdRng| Term::val(format!("e{}", rng.gen_range(0usize..named + 1)).as_str());
    let room = |rng: &mut StdRng| Term::val(ROOMS[rng.gen_range(0usize..ROOMS.len())]);
    let tag = |rng: &mut StdRng| Term::val(TAGS[rng.gen_range(0usize..TAGS.len())]);
    vec![
        // Value bound, entity free.
        vec![(Term::var("v"), "room", room(rng))],
        vec![(Term::var("v"), "tag", tag(rng))],
        // Entity bound (`e{named}` names no entity).
        vec![(entity(rng), "room", Term::var("r"))],
        vec![(entity(rng), "tag", Term::var("t"))],
        vec![(entity(rng), "room", room(rng))],
        // Both free.
        vec![(Term::var("v"), "lvl", Term::var("l"))],
        // Joins binding the entity through a variable.
        vec![
            (Term::var("v"), "room", room(rng)),
            (Term::var("v"), "tag", Term::var("t")),
        ],
        vec![
            (Term::var("v"), "tag", tag(rng)),
            (Term::var("v"), "room", Term::var("r")),
        ],
        vec![
            (Term::var("x"), "room", Term::var("r")),
            (Term::var("y"), "room", Term::var("r")),
        ],
    ]
}

fn check_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (s, entities) = build(&mut rng);
    let named = entities.len() - 1;
    let probes = probes(&s, &entities);
    let pick = |rng: &mut StdRng| probes[rng.gen_range(0usize..probes.len())];
    let mut times = vec![TimeSpec::Current];
    for _ in 0..6 {
        times.push(TimeSpec::AsOf(ts(pick(&mut rng))));
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        times.push(TimeSpec::During(
            ts(a.min(b)),
            ts(a.max(b) + rng.gen_range(0u64..2)),
        ));
    }
    for time in times {
        for patterns in statements(&mut rng, named) {
            let mut q = Query::new();
            for (e, a, v) in &patterns {
                q = q.pattern(e.clone(), *a, v.clone());
            }
            let q = q.at(time);
            for exclude_derived in [false, true] {
                let opts = QueryOptions { exclude_derived };
                let want = oracle(&s, &entities, &patterns, time, opts);
                let ctx = || format!("seed {seed}: {q:?} {opts:?}");
                let got = execute_with(&s, &q, opts).unwrap_or_else(|e| panic!("{}: {e}", ctx()));
                assert_eq!(rendered(&s, &got), want, "executor, {}", ctx());
                let got = execute_set(&s, &q, opts).unwrap();
                assert_eq!(rendered(&s, &got), want, "watch path, {}", ctx());
                let got = partial_select(&s, &q, opts).unwrap();
                assert_eq!(rendered(&s, &got), want, "shard path, {}", ctx());
            }
        }
    }
    // Windows: the bounded walk against every entity's whole history.
    for _ in 0..6 {
        let attr = ["room", "lvl", "tag"][rng.gen_range(0usize..3)];
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        let (from, to) = (a.min(b), a.max(b) + 1);
        let agg = match attr {
            "lvl" => ["count(*)", "sum(lvl)", "min(lvl)", "max(lvl)"][rng.gen_range(0usize..4)],
            _ => "count(*)",
        };
        let window = match rng.gen_range(0..3) {
            0 => format!("tumbling({})", rng.gen_range(1..30)),
            1 => format!(
                "sliding({}, {})",
                rng.gen_range(1..30),
                rng.gen_range(1..20)
            ),
            _ => format!("session({})", rng.gen_range(1..15)),
        };
        let text = format!(
            "SELECT window_start, window_end, entity, {attr}, {agg} AS n FROM state \
             GROUP BY entity, {attr}, {window} DURING {from} TO {to}"
        );
        let plan = compile(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let PhysicalPlan::WindowAgg(w) = &plan.physical else {
            panic!("{text}: not a window plan");
        };
        let got = w.execute_local(&s).unwrap();
        let want = w.aggregate(w.collect_facts(&s).unwrap()).unwrap();
        assert_eq!(got, want, "seed {seed}: {text}");
    }
}

#[test]
fn index_paths_answer_like_full_scans() {
    for seed in (0..100).chain(REGRESSIONS.iter().copied()) {
        check_seed(seed);
    }
}
