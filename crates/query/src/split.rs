//! Scatter-gather execution of a physical plan over partitioned state.
//!
//! Every shard answers its share of a plan with
//! [`PhysicalPlan::partial`], and the coordinator combines the shares
//! with [`PhysicalPlan::merge`]. Every shard count, one included,
//! answers through these two calls, so a reply never reveals how the
//! state is partitioned:
//!
//! * **select**: each shard runs the folded [`Query`] with `limit` and
//!   `count` removed (a shard's top-k is not the global top-k) and its
//!   entity ids resolved to names (ids are shard-local and collide);
//!   the merge sorts and deduplicates the rows, then applies `limit`
//!   and `count`;
//! * **history**: each shard that knows the entity returns its spans,
//!   entity values resolved; the merge orders them by validity start;
//! * **window**: each shard folds its facts into partial aggregates
//!   and the merge fires the windows (see [`crate::window`]).
//!
//! A single store that only needs ids, as watches do, uses
//! [`crate::CachedPlan::execute`] instead.

use crate::ast::Query;
use crate::exec::{limit_and_count, resolve, select_rows, Bindings, QueryOptions};
use crate::plan::{PhysicalPlan, PlanOutput};
use crate::window::WindowPartials;
use fenestra_base::error::{Error, Result};
use fenestra_base::time::Interval;
use fenestra_base::value::Value;
use fenestra_temporal::{Provenance, TemporalStore};

/// One shard's share of a plan's answer, produced by
/// [`PhysicalPlan::partial`] and combined by [`PhysicalPlan::merge`].
#[derive(Debug)]
pub enum PlanPart {
    /// Select rows, before `limit`/`count`, with entity ids resolved.
    Rows(Vec<Bindings>),
    /// The entity's history spans with entity values resolved; `None`
    /// when this shard does not know the entity.
    History(Option<Vec<(Interval, Value, Provenance)>>),
    /// Partial window aggregates.
    Window(WindowPartials),
}

impl PhysicalPlan {
    /// This store's share of the plan's answer.
    pub fn partial(&self, store: &TemporalStore, opts: QueryOptions) -> Result<PlanPart> {
        Ok(match self {
            PhysicalPlan::Select { query } => PlanPart::Rows(partial_select(store, query, opts)?),
            PhysicalPlan::History { entity, attr } => {
                PlanPart::History(store.lookup_entity(*entity).map(|e| {
                    let mut spans = store.history(e, *attr);
                    for (_, v, _) in &mut spans {
                        resolve(store, v);
                    }
                    spans
                }))
            }
            PhysicalPlan::WindowAgg(w) => PlanPart::Window(w.partials(store)?),
        })
    }

    /// Combine every shard's [`PlanPart`], in shard order, into the
    /// answer. Parts of another plan kind are ignored: every part comes
    /// from [`PhysicalPlan::partial`] on this plan.
    pub fn merge(&self, parts: Vec<PlanPart>) -> Result<PlanOutput> {
        let (mut rows, mut spans, mut partials) = (Vec::new(), Vec::new(), Vec::new());
        for part in parts {
            match part {
                PlanPart::Rows(r) => rows.push(r),
                PlanPart::History(s) => spans.extend(s),
                PlanPart::Window(w) => partials.push(w),
            }
        }
        match self {
            PhysicalPlan::Select { query } => Ok(PlanOutput::Rows(merge_rows(query, rows))),
            PhysicalPlan::History { entity, .. } if spans.is_empty() => {
                Err(Error::Invalid(format!("unknown entity `{entity}`")))
            }
            PhysicalPlan::History { .. } => Ok(PlanOutput::History(merge_history(spans))),
            PhysicalPlan::WindowAgg(w) => Ok(PlanOutput::Rows(w.merge(partials)?)),
        }
    }
}

/// The select arm of [`PhysicalPlan::partial`]: run `q` with
/// `limit`/`count` removed and entity ids resolved to names. Merge the
/// results with [`merge_rows`].
pub fn partial_select(
    store: &TemporalStore,
    q: &Query,
    opts: QueryOptions,
) -> Result<Vec<Bindings>> {
    let mut rows = select_rows(store, q, opts)?;
    for row in &mut rows {
        for (_, v) in row.iter_mut() {
            resolve(store, v);
        }
    }
    Ok(rows)
}

/// The select arm of [`PhysicalPlan::merge`]: sort and deduplicate
/// every [`partial_select`] result, then apply `q`'s `limit` and
/// `count`, the same tail [`crate::exec::execute_with`] applies to one
/// store.
pub fn merge_rows(q: &Query, parts: impl IntoIterator<Item = Vec<Bindings>>) -> Vec<Bindings> {
    let mut rows: Vec<Bindings> = parts.into_iter().flatten().collect();
    rows.sort();
    rows.dedup();
    limit_and_count(q, rows)
}

/// The history arm of [`PhysicalPlan::merge`]: one timeline ordered by
/// validity start. The sort is stable and `parts` arrives in shard
/// order with each shard's spans in validity order, so spans starting
/// at the same instant keep `(shard, per-shard seq)` order.
pub fn merge_history(
    parts: Vec<Vec<(Interval, Value, Provenance)>>,
) -> Vec<(Interval, Value, Provenance)> {
    let mut all: Vec<_> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(interval, _, _)| interval.start);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::time::Timestamp;

    #[test]
    fn merge_history_orders_by_start_with_shard_seq_tiebreak() {
        let span = |start: u64, end: Option<u64>, v: &str| {
            (
                Interval {
                    start: Timestamp::new(start),
                    end: end.map(Timestamp::new),
                },
                Value::str(v),
                Provenance::External,
            )
        };
        // Shard 0 and shard 1 both hold spans; starts interleave and
        // collide at t=20.
        let shard0 = vec![span(10, Some(20), "a"), span(20, Some(40), "b")];
        let shard1 = vec![span(5, Some(20), "x"), span(20, None, "y")];
        let merged = merge_history(vec![shard0, shard1]);
        let starts: Vec<u64> = merged.iter().map(|(iv, _, _)| iv.start.millis()).collect();
        assert_eq!(starts, vec![5, 10, 20, 20], "global validity order");
        // Equal starts keep (shard, seq) order: shard 0's span first.
        assert_eq!(merged[2].1, Value::str("b"));
        assert_eq!(merged[3].1, Value::str("y"));
        // Merging a single shard's timeline is the identity.
        let solo = vec![span(1, Some(2), "p"), span(2, None, "q")];
        assert_eq!(merge_history(vec![solo.clone()]), solo);
    }
}
