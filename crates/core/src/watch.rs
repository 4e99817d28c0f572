//! Standing state queries (subscriptions).
//!
//! The paper's "queryable state" (§3.2) extends naturally to
//! *subscribable* state: a registered watch re-evaluates its query
//! whenever the state repository changes and publishes the row-level
//! differences as events — a stream of view updates that the dataflow
//! (or an external consumer) can react to.
//!
//! Maintenance is re-evaluate-and-diff, gated on the store's revision
//! counter (no re-evaluation while the state is untouched). This is
//! deliberate: exact incremental view maintenance for conjunctive
//! queries is the reasoner's territory (see `fenestra-reason`), while
//! watches favor predictability — the diff semantics are trivially
//! correct for any query the engine can run.

use fenestra_base::hash::KeyMap;
use fenestra_base::record::Record;
use fenestra_base::symbol::Symbol;
use fenestra_base::value::Value;
use fenestra_query::{Bindings, CachedPlan, PlanOutput, QueryOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A registered standing query: a long-lived compiled plan plus the
/// view rows of its last evaluation. Watches of the same statement
/// share one [`CachedPlan`] (the plan cache hands out `Arc`s), so a
/// thousand identical subscriptions compile once and carry one plan.
pub struct Watch {
    /// Subscription name; published events carry it in the `watch`
    /// field and arrive on the engine's watch stream.
    pub name: Symbol,
    /// The compiled plan (its temporal qualifier is evaluated as
    /// written, so `current` queries track the live state).
    pub plan: Arc<CachedPlan>,
    /// Store revision at the last evaluation.
    pub last_revision: u64,
    /// Rows at the last evaluation (shared with the other watches of
    /// the plan that were polled in the same pass).
    pub last_rows: Arc<BTreeSet<Bindings>>,
}

/// One change to a watched view.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchDelta {
    /// The subscription.
    pub watch: Symbol,
    /// `+1` for a row entering the view, `-1` for a row leaving it.
    pub sign: i64,
    /// The row.
    pub row: Bindings,
}

impl Watch {
    /// Create a watch sharing an already-compiled plan. The plan must
    /// be watchable ([`CachedPlan::is_watchable`]); history plans have
    /// no row view to diff.
    pub fn from_plan(name: impl Into<Symbol>, plan: Arc<CachedPlan>) -> Watch {
        debug_assert!(plan.is_watchable(), "history plans cannot be watched");
        Watch {
            name: name.into(),
            plan,
            last_revision: u64::MAX, // force first evaluation
            last_rows: Arc::default(),
        }
    }

    /// Re-evaluate against the store if its revision moved; returns the
    /// row deltas since the previous evaluation.
    pub fn poll(&mut self, store: &fenestra_temporal::TemporalStore) -> Vec<WatchDelta> {
        if !self.advance(store) {
            return Vec::new();
        }
        let rows = evaluate(&self.plan, store);
        self.diff(rows)
    }

    /// [`Watch::poll`], sharing the plan's evaluation with every other
    /// watch polled through the same `pass`: a plan watched by many
    /// subscriptions runs once per store revision. Each watch still
    /// diffs against its own last rows, so its deltas and their order
    /// are those [`Watch::poll`] would return.
    pub fn poll_in(
        &mut self,
        pass: &mut PollPass,
        store: &fenestra_temporal::TemporalStore,
    ) -> Vec<WatchDelta> {
        if !self.advance(store) {
            return Vec::new();
        }
        let plan = &self.plan;
        let rows = pass
            .rows
            .entry((Arc::as_ptr(plan), store.revision()))
            .or_insert_with(|| evaluate(plan, store))
            .clone();
        self.diff(rows)
    }

    /// Note the store's revision; `false` if it has not moved.
    fn advance(&mut self, store: &fenestra_temporal::TemporalStore) -> bool {
        let rev = store.revision();
        let moved = self.last_revision != rev;
        self.last_revision = rev;
        moved
    }

    /// The deltas from the last rows to `rows`, which become the last
    /// rows. `None` (the plan failed) leaves the view unchanged.
    fn diff(&mut self, rows: Option<Arc<BTreeSet<Bindings>>>) -> Vec<WatchDelta> {
        let Some(rows) = rows else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for gone in self.last_rows.difference(&rows) {
            out.push(WatchDelta {
                watch: self.name,
                sign: -1,
                row: gone.clone(),
            });
        }
        for new in rows.difference(&self.last_rows) {
            out.push(WatchDelta {
                watch: self.name,
                sign: 1,
                row: new.clone(),
            });
        }
        self.last_rows = rows;
        out
    }
}

/// Run a watched plan. Query errors (e.g. type errors against evolving
/// data) give `None`; history output can't happen (rejected at
/// registration).
fn evaluate(
    plan: &CachedPlan,
    store: &fenestra_temporal::TemporalStore,
) -> Option<Arc<BTreeSet<Bindings>>> {
    match plan.execute_set(store, QueryOptions::default()) {
        Ok(PlanOutput::Rows(rows)) => Some(Arc::new(rows.into_iter().collect())),
        Ok(PlanOutput::History(_)) | Err(_) => None,
    }
}

/// The plan evaluations shared by one round of [`Watch::poll_in`]
/// calls, keyed by plan identity and store revision.
#[derive(Debug, Default)]
pub struct PollPass {
    /// Keyed with [`fenestra_base::hash::KeyHasher`]: the keys are the
    /// program's own plan addresses and revision counters, and with
    /// SipHash the pass cost about 15 % of polling 64 watches of
    /// distinct plans.
    rows: KeyMap<PassKey, Option<Arc<BTreeSet<Bindings>>>>,
}

type PassKey = (*const CachedPlan, u64);

impl PollPass {
    /// A pass sized for `watches` polls, so it never regrows.
    pub fn with_capacity(watches: usize) -> PollPass {
        PollPass {
            rows: KeyMap::with_capacity_and_hasher(watches, Default::default()),
        }
    }
}

/// Render a delta as an event record: the row's variables become
/// fields, plus `watch` and `sign`.
pub fn delta_record(d: &WatchDelta) -> Record {
    let mut rec = Record::new();
    for (name, v) in &d.row {
        rec.set(*name, *v);
    }
    rec.set("watch", Value::Str(d.watch));
    rec.set("sign", Value::Int(d.sign));
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::time::Timestamp;
    use fenestra_query::{Query, Term};
    use fenestra_temporal::{AttrSchema, TemporalStore};

    fn active_query() -> Query {
        Query::new().pattern(Term::var("u"), "status", Term::val("active"))
    }

    fn active_watch() -> Watch {
        Watch::from_plan("actives", Arc::new(CachedPlan::from_query(active_query())))
    }

    #[test]
    fn first_poll_emits_initial_rows() {
        let mut s = TemporalStore::new();
        s.declare_attr("status", AttrSchema::one());
        let a = s.named_entity("a");
        s.replace_at(a, "status", "active", Timestamp::new(1))
            .unwrap();
        let mut w = active_watch();
        let deltas = w.poll(&s);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].sign, 1);
    }

    #[test]
    fn unchanged_revision_is_free() {
        let mut s = TemporalStore::new();
        let a = s.named_entity("a");
        s.assert_at(a, "status", "active", Timestamp::new(1))
            .unwrap();
        let mut w = active_watch();
        assert_eq!(w.poll(&s).len(), 1);
        assert!(w.poll(&s).is_empty(), "no revision change, no work");
    }

    #[test]
    fn deltas_track_enter_and_leave() {
        let mut s = TemporalStore::new();
        s.declare_attr("status", AttrSchema::one());
        let a = s.named_entity("a");
        let b = s.named_entity("b");
        let mut w = active_watch();
        s.replace_at(a, "status", "active", Timestamp::new(1))
            .unwrap();
        assert_eq!(w.poll(&s).len(), 1);
        s.replace_at(b, "status", "active", Timestamp::new(2))
            .unwrap();
        s.replace_at(a, "status", "idle", Timestamp::new(2))
            .unwrap();
        let deltas = w.poll(&s);
        assert_eq!(deltas.len(), 2, "a left, b entered");
        let signs: Vec<i64> = deltas.iter().map(|d| d.sign).collect();
        assert!(signs.contains(&1) && signs.contains(&-1));
    }

    #[test]
    fn shared_pass_matches_separate_polls() {
        let mut s = TemporalStore::new();
        s.declare_attr("status", AttrSchema::one());
        let a = s.named_entity("a");
        let b = s.named_entity("b");
        let plan = Arc::new(CachedPlan::from_query(active_query()));
        let mut shared = [
            Watch::from_plan("w1", plan.clone()),
            Watch::from_plan("w2", plan.clone()),
        ];
        let mut alone = Watch::from_plan("w1", plan);
        for (t, e, status) in [(1, a, "active"), (2, b, "active"), (3, a, "idle")] {
            s.replace_at(e, "status", status, Timestamp::new(t))
                .unwrap();
            let mut pass = PollPass::default();
            let got: Vec<Vec<WatchDelta>> = shared
                .iter_mut()
                .map(|w| w.poll_in(&mut pass, &s))
                .collect();
            let want = alone.poll(&s);
            assert_eq!(got[0], want);
            let renamed: Vec<WatchDelta> = want
                .iter()
                .map(|d| WatchDelta {
                    watch: Symbol::intern("w2"),
                    ..d.clone()
                })
                .collect();
            assert_eq!(got[1], renamed);
            if t == 2 {
                // A watch registered mid-stream gets its initial rows
                // from the pass's shared evaluation.
                let mut late = Watch::from_plan("w3", alone.plan.clone());
                assert_eq!(late.poll_in(&mut pass, &s).len(), 2);
            }
        }
    }

    #[test]
    fn delta_record_shape() {
        let d = WatchDelta {
            watch: Symbol::intern("w"),
            sign: -1,
            row: vec![(Symbol::intern("u"), Value::str("alice"))],
        };
        let rec = delta_record(&d);
        assert_eq!(rec.get("u"), Some(&Value::str("alice")));
        assert_eq!(rec.get("watch"), Some(&Value::str("w")));
        assert_eq!(rec.get("sign"), Some(&Value::Int(-1)));
    }
}
