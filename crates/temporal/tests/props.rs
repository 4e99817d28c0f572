//! Property tests for the temporal store: model-based testing against a
//! naive reference implementation, WAL replay equivalence, codec
//! round-trips, and interval invariants.

use fenestra_base::time::Timestamp;
use fenestra_temporal::{AttrSchema, Cardinality, EntityId, TemporalStore, WalCodec};
use proptest::prelude::*;

const ATTR_ONE: &str = "room"; // cardinality-one
const ATTR_MANY: &str = "tag"; // cardinality-many

/// A randomly generated store operation over a small domain.
#[derive(Debug, Clone)]
enum Op {
    ReplaceOne { e: u64, v: i64 },
    AssertMany { e: u64, v: i64 },
    RetractMany { e: u64, v: i64 },
    RetractEntity { e: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..4u64, 0..5i64).prop_map(|(e, v)| Op::ReplaceOne { e, v }),
        (0..4u64, 0..5i64).prop_map(|(e, v)| Op::AssertMany { e, v }),
        (0..4u64, 0..5i64).prop_map(|(e, v)| Op::RetractMany { e, v }),
        (0..4u64).prop_map(|e| Op::RetractEntity { e }),
    ]
}

/// Naive reference model: a flat list of (entity, attr, value, start,
/// end) rows, mutated with the documented semantics.
#[derive(Default, Clone)]
struct Naive {
    rows: Vec<(u64, &'static str, i64, u64, Option<u64>)>,
}

impl Naive {
    fn open_rows(&self, e: u64, a: &str) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.0 == e && r.1 == a && r.4.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    fn apply(&mut self, op: &Op, t: u64) {
        match *op {
            Op::ReplaceOne { e, v } => {
                let open = self.open_rows(e, ATTR_ONE);
                if open.len() == 1 && self.rows[open[0]].2 == v {
                    return; // idempotent replace
                }
                for i in open {
                    self.rows[i].4 = Some(t);
                }
                self.rows.push((e, ATTR_ONE, v, t, None));
            }
            Op::AssertMany { e, v } => {
                if self
                    .open_rows(e, ATTR_MANY)
                    .iter()
                    .any(|&i| self.rows[i].2 == v)
                {
                    return; // idempotent assert
                }
                self.rows.push((e, ATTR_MANY, v, t, None));
            }
            Op::RetractMany { e, v } => {
                if let Some(&i) = self
                    .open_rows(e, ATTR_MANY)
                    .iter()
                    .find(|&&i| self.rows[i].2 == v)
                {
                    self.rows[i].4 = Some(t);
                }
            }
            Op::RetractEntity { e } => {
                for r in self.rows.iter_mut() {
                    if r.0 == e && r.4.is_none() {
                        r.4 = Some(t);
                    }
                }
            }
        }
    }

    fn valid_at(&self, e: u64, a: &str, t: u64) -> Vec<i64> {
        let mut out: Vec<i64> = self
            .rows
            .iter()
            .filter(|r| r.0 == e && r.1 == a && r.3 <= t && r.4.is_none_or(|end| t < end))
            .map(|r| r.2)
            .collect();
        out.sort_unstable();
        out
    }
}

fn build_both(ops: &[Op]) -> (TemporalStore, Naive, u64) {
    let mut store = TemporalStore::new();
    store.declare_attr(ATTR_ONE, AttrSchema::one());
    store.declare_attr(ATTR_MANY, AttrSchema::many());
    let mut naive = Naive::default();
    let mut t = 0u64;
    for op in ops {
        t += 1; // strictly increasing event time
        apply_op(&mut store, op, t);
        naive.apply(op, t);
    }
    (store, naive, t)
}

fn apply_op(store: &mut TemporalStore, op: &Op, t: u64) {
    let ts = Timestamp::new(t);
    match *op {
        Op::ReplaceOne { e, v } => {
            store.replace_at(EntityId(e), ATTR_ONE, v, ts).unwrap();
        }
        Op::AssertMany { e, v } => {
            store.assert_at(EntityId(e), ATTR_MANY, v, ts).unwrap();
        }
        Op::RetractMany { e, v } => {
            // Mirror the naive model: retract only if open.
            if store.current().holds(EntityId(e), ATTR_MANY, v) {
                store.retract_at(EntityId(e), ATTR_MANY, v, ts).unwrap();
            }
        }
        Op::RetractEntity { e } => {
            store.retract_entity_at(EntityId(e), ts).unwrap();
        }
    }
}

/// A store operation, or a GC pass whose horizon trails the current
/// time by `back`.
#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    Gc { back: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // One step in five is a GC pass.
    (0..5u8, op_strategy(), 0..10u64).prop_map(|(pick, op, back)| match pick {
        0 => Step::Gc { back },
        _ => Step::Op(op),
    })
}

/// The fact counts recomputed by walking the store: open facts through
/// the current view, stored facts through every timeline.
fn walked_counts(store: &TemporalStore) -> (usize, usize) {
    let open = store.current().facts().count();
    let stored = (0..4u64)
        .flat_map(|e| [ATTR_ONE, ATTR_MANY].map(|a| store.history(EntityId(e), a).len()))
        .sum();
    (open, stored)
}

fn store_values_at(store: &TemporalStore, e: u64, a: &str, t: u64) -> Vec<i64> {
    let mut out: Vec<i64> = store
        .as_of(Timestamp::new(t))
        .values(EntityId(e), a)
        .into_iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store's as-of view agrees with the naive model at every
    /// instant, for every (entity, attribute) pair.
    #[test]
    fn as_of_matches_naive_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (store, naive, t_max) = build_both(&ops);
        for t in 0..=t_max + 1 {
            for e in 0..4u64 {
                for a in [ATTR_ONE, ATTR_MANY] {
                    let got = store_values_at(&store, e, a, t);
                    let want = naive.valid_at(e, a, t);
                    prop_assert_eq!(&got, &want, "mismatch at t={} e={} a={}", t, e, a);
                }
            }
        }
    }

    /// The current view equals the as-of view at the end of time.
    #[test]
    fn current_equals_as_of_infinity(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (store, _, _) = build_both(&ops);
        let current: Vec<_> = store.current().facts().map(|f| f.fact).collect();
        let mut at_max: Vec<_> = store
            .as_of(Timestamp::MAX)
            .facts()
            .into_iter()
            .map(|f| f.fact)
            .collect();
        let mut cur_sorted = current;
        cur_sorted.sort();
        at_max.sort();
        prop_assert_eq!(cur_sorted, at_max);
    }

    /// Replaying the WAL reconstructs an observably identical store.
    #[test]
    fn wal_replay_reconstructs(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (store, _, t_max) = build_both(&ops);
        let replayed = TemporalStore::replay(store.wal()).unwrap();
        prop_assert_eq!(replayed.open_fact_count(), store.open_fact_count());
        prop_assert_eq!(replayed.stored_fact_count(), store.stored_fact_count());
        prop_assert_eq!(replayed.revision(), store.revision());
        for t in [0, t_max / 2, t_max] {
            for e in 0..4u64 {
                for a in [ATTR_ONE, ATTR_MANY] {
                    prop_assert_eq!(
                        store_values_at(&replayed, e, a, t),
                        store_values_at(&store, e, a, t)
                    );
                }
            }
        }
    }

    /// The binary WAL codec is lossless.
    #[test]
    fn wal_codec_round_trips(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (store, _, _) = build_both(&ops);
        let encoded = WalCodec::encode(store.wal());
        let decoded = WalCodec::decode(&encoded).unwrap();
        prop_assert_eq!(decoded.as_slice(), store.wal());
    }

    /// Cardinality-one attributes never hold two overlapping validity
    /// intervals for the same entity.
    #[test]
    fn cardinality_one_no_overlap(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let (store, _, _) = build_both(&ops);
        let schema = store.schema();
        for e in 0..4u64 {
            let hist = store.history(EntityId(e), ATTR_ONE);
            prop_assert_eq!(
                schema.of(fenestra_base::symbol::Symbol::intern(ATTR_ONE)).cardinality,
                Cardinality::One
            );
            for i in 0..hist.len() {
                for j in i + 1..hist.len() {
                    prop_assert!(
                        !hist[i].0.overlaps(&hist[j].0),
                        "overlap between {} and {}",
                        hist[i].0,
                        hist[j].0
                    );
                }
            }
        }
    }

    /// GC never changes the current state, only history before the
    /// horizon.
    #[test]
    fn gc_preserves_current_state(
        ops in prop::collection::vec(op_strategy(), 1..60),
        horizon_frac in 0.0f64..1.0
    ) {
        let (mut store, _, t_max) = build_both(&ops);
        let before: Vec<_> = {
            let mut v: Vec<_> = store.current().facts().map(|f| f.fact).collect();
            v.sort();
            v
        };
        let horizon = Timestamp::new((t_max as f64 * horizon_frac) as u64);
        store.gc(horizon);
        let after: Vec<_> = {
            let mut v: Vec<_> = store.current().facts().map(|f| f.fact).collect();
            v.sort();
            v
        };
        prop_assert_eq!(before, after);
        // And as-of *after* the horizon is also unaffected relative to
        // a fresh replay (history at or before the horizon may differ).
        let pristine = TemporalStore::replay(store.wal()).unwrap();
        for t in (horizon.millis() + 1)..=t_max + 1 {
            for e in 0..4u64 {
                for a in [ATTR_ONE, ATTR_MANY] {
                    prop_assert_eq!(
                        store_values_at(&store, e, a, t),
                        store_values_at(&pristine, e, a, t),
                        "post-horizon as-of drifted at t={}", t
                    );
                }
            }
        }
    }

    /// The O(1) fact counters agree with walks of the store after
    /// every step, GC (and so arena-slot reuse) included, and a store
    /// with reused slots reads exactly like the replay of its compact
    /// ops.
    #[test]
    fn counters_match_walks_under_gc_and_slot_reuse(
        steps in prop::collection::vec(step_strategy(), 1..120)
    ) {
        let mut store = TemporalStore::new();
        store.declare_attr(ATTR_ONE, AttrSchema::one());
        store.declare_attr(ATTR_MANY, AttrSchema::many());
        let mut t = 0u64;
        for step in &steps {
            t += 1;
            match step {
                Step::Op(op) => apply_op(&mut store, op, t),
                Step::Gc { back } => {
                    store.gc(Timestamp::new(t.saturating_sub(*back)));
                }
            }
            prop_assert_eq!(
                (store.open_fact_count(), store.stored_fact_count()),
                walked_counts(&store),
                "after {:?} at t={}", step, t
            );
        }
        let compact = TemporalStore::replay(&store.compact_ops()).unwrap();
        prop_assert_eq!(compact.open_fact_count(), store.open_fact_count());
        prop_assert_eq!(compact.stored_fact_count(), store.stored_fact_count());
        for e in 0..4u64 {
            for a in [ATTR_ONE, ATTR_MANY] {
                prop_assert_eq!(
                    compact.history(EntityId(e), a),
                    store.history(EntityId(e), a)
                );
                for probe in 0..=t + 1 {
                    prop_assert_eq!(
                        store_values_at(&compact, e, a, probe),
                        store_values_at(&store, e, a, probe)
                    );
                }
            }
        }
    }

    /// Serde snapshot persistence is lossless.
    #[test]
    fn persist_round_trips(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let (store, _, t_max) = build_both(&ops);
        let json = fenestra_temporal::persist::to_json(&store).unwrap();
        let loaded = fenestra_temporal::persist::from_json(&json).unwrap();
        prop_assert_eq!(loaded.open_fact_count(), store.open_fact_count());
        for e in 0..4u64 {
            for a in [ATTR_ONE, ATTR_MANY] {
                prop_assert_eq!(
                    store_values_at(&loaded, e, a, t_max),
                    store_values_at(&store, e, a, t_max)
                );
            }
        }
    }
}
