//! Query evaluation: greedy join ordering over the store's indexes.
//!
//! Patterns run most-bound first (a bound entity counts double, a
//! bound value once), each row of the join so far extending through
//! the narrowest index its bound terms allow:
//!
//! | time     | entity bound                  | entity free, value bound   | both free             |
//! |----------|-------------------------------|----------------------------|-----------------------|
//! | current  | the entity's open facts       | open `(attr, value)` facts | the attr's open facts |
//! | `AS OF`  | the `(entity, attr)` timeline | the attr's timelines       | the attr's timelines  |
//! | `DURING` | the `(entity, attr)` timeline | the attr's timelines       | the attr's timelines  |
//!
//! A timeline lookup binary-searches validity starts; on a disjoint
//! timeline (every cardinality-one timeline no retroactive `replace`
//! has overlapped) it starts at the last fact starting at or before
//! the probe, so an `AS OF` reads one fact per timeline.

use crate::ast::{Query, Term, TimeSpec, TriplePattern};
use fenestra_base::error::{Error, Result};
use fenestra_base::expr::{Scope, SliceScope};
use fenestra_base::symbol::Symbol;
use fenestra_base::value::{EntityId, Value};
use fenestra_temporal::{StoredFact, TemporalStore};
use std::convert::Infallible;

/// One result row: `(variable, value)` pairs. Entity variables bind to
/// [`Value::Id`].
pub type Bindings = Vec<(Symbol, Value)>;

/// Evaluation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Skip facts written by the reasoner (`Derived` provenance),
    /// answering from asserted state only.
    pub exclude_derived: bool,
}

/// Execute with default options.
pub fn execute(store: &TemporalStore, q: &Query) -> Result<Vec<Bindings>> {
    execute_with(store, q, QueryOptions::default())
}

/// Execute a query, returning deterministic rows: ordered by value,
/// with entity ids ordered by their entity's name, then cut to `limit`
/// (or counted). That is the order a sharded server answers in
/// ([`crate::merge_rows`]), so one store and N shards agree.
pub fn execute_with(store: &TemporalStore, q: &Query, opts: QueryOptions) -> Result<Vec<Bindings>> {
    let rows = select_rows(store, q, opts)?;
    Ok(limit_and_count(q, by_name(store, rows)))
}

/// Execute a query whose rows the caller reads as a set, as a watch
/// does: the rows [`execute_with`] returns, but with entity ids in id
/// order. Name order only decides which rows a `limit` keeps, so it is
/// paid for only under one: a watch poll, run after every ingested
/// batch, skips the sort.
pub fn execute_set(store: &TemporalStore, q: &Query, opts: QueryOptions) -> Result<Vec<Bindings>> {
    let rows = select_rows(store, q, opts)?;
    let rows = match q.limit {
        Some(_) => by_name(store, rows),
        None => rows,
    };
    Ok(limit_and_count(q, rows))
}

/// The rows of `q`, projected, sorted by value (entity ids by id) and
/// deduplicated, before `limit` and `count`.
pub(crate) fn select_rows(
    store: &TemporalStore,
    q: &Query,
    opts: QueryOptions,
) -> Result<Vec<Bindings>> {
    if q.patterns.is_empty() {
        return Err(Error::Invalid("query has no patterns".into()));
    }
    // Greedy join order: repeatedly pick the most-bound pattern.
    let mut remaining: Vec<&TriplePattern> = q.patterns.iter().collect();
    let mut bound_vars: Vec<Symbol> = Vec::new();
    let mut order: Vec<&TriplePattern> = Vec::new();
    while !remaining.is_empty() {
        let (best_i, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, p)| (i, selectivity(p, &bound_vars)))
            .max_by_key(|(_, s)| *s)
            .expect("non-empty");
        let p = remaining.remove(best_i);
        for t in [&p.e, &p.v] {
            if let Some(v) = t.as_var() {
                if !bound_vars.contains(&v) {
                    bound_vars.push(v);
                }
            }
        }
        order.push(p);
    }

    let mut rows: Vec<Bindings> = vec![Vec::new()];
    for p in order {
        let mut next: Vec<Bindings> = Vec::new();
        for row in &rows {
            extend(store, q.time, opts, p, row, &mut next)?;
        }
        rows = next;
        if rows.is_empty() {
            break;
        }
    }

    // Filters.
    let mut out: Vec<Bindings> = Vec::new();
    'rows: for row in rows {
        let scope = SliceScope(&row);
        for f in &q.filters {
            match f.eval_bool(&scope) {
                Ok(true) => {}
                Ok(false) => continue 'rows,
                Err(e) => return Err(e),
            }
        }
        out.push(row);
    }

    // Projection.
    let projected: Vec<Symbol> = if q.select.is_empty() {
        q.variables()
    } else {
        q.select.clone()
    };
    let mut final_rows: Vec<Bindings> = out
        .into_iter()
        .map(|row| {
            projected
                .iter()
                .map(|v| {
                    let scope = SliceScope(&row);
                    (*v, scope.lookup(*v).unwrap_or(Value::Null))
                })
                .collect()
        })
        .collect();
    final_rows.sort();
    final_rows.dedup();
    Ok(final_rows)
}

/// Reorder sorted, deduplicated rows as if every entity id were its
/// entity's name, and deduplicate on that. Rows without ids are
/// already in that order.
fn by_name(store: &TemporalStore, rows: Vec<Bindings>) -> Vec<Bindings> {
    if !rows
        .iter()
        .flatten()
        .any(|(_, v)| matches!(v, Value::Id(_)))
    {
        return rows;
    }
    let mut keyed: Vec<(Bindings, Bindings)> = rows
        .into_iter()
        .map(|row| {
            let mut named = row.clone();
            for (_, v) in &mut named {
                resolve(store, v);
            }
            (named, row)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    keyed.into_iter().map(|(_, row)| row).collect()
}

/// Replace an entity id by the entity's name.
pub(crate) fn resolve(store: &TemporalStore, v: &mut Value) {
    if let Value::Id(e) = *v {
        if let Some(name) = store.entity_name(e) {
            *v = Value::Str(name);
        }
    }
}

/// The tail every select answer ends with: keep the first `limit`
/// rows, or count them.
pub(crate) fn limit_and_count(q: &Query, mut rows: Vec<Bindings>) -> Vec<Bindings> {
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    if q.count_only {
        return vec![vec![(
            Symbol::intern("count"),
            Value::Int(rows.len() as i64),
        )]];
    }
    rows
}

fn selectivity(p: &TriplePattern, bound: &[Symbol]) -> u32 {
    let is_bound = |t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    };
    let mut s = 0;
    if is_bound(&p.e) {
        s += 2; // entity-bound lookups are the cheapest
    }
    if is_bound(&p.v) {
        s += 1;
    }
    s
}

fn term_value(t: &Term, row: &Bindings) -> Option<Value> {
    match t {
        Term::Const(v) => Some(*v),
        Term::Var(name) => row.iter().find(|(n, _)| n == name).map(|(_, v)| *v),
    }
}

/// Resolve an entity-position value to an entity id.
fn as_entity(store: &TemporalStore, v: Value) -> Option<EntityId> {
    match v {
        Value::Id(e) => Some(e),
        Value::Str(name) => store.lookup_entity(name),
        _ => None,
    }
}

fn extend(
    store: &TemporalStore,
    time: TimeSpec,
    opts: QueryOptions,
    p: &TriplePattern,
    row: &Bindings,
    out: &mut Vec<Bindings>,
) -> Result<()> {
    let e_known = term_value(&p.e, row).map(|v| as_entity(store, v));
    if let Some(None) = e_known {
        return Ok(()); // named entity doesn't exist: no matches
    }
    let e_known = e_known.flatten();
    let v_known = term_value(&p.v, row);

    let mut push = |e: EntityId, v: Value| {
        let mut new_row = row.clone();
        if let Term::Var(name) = &p.e {
            if !new_row.iter().any(|(n, _)| n == name) {
                new_row.push((*name, Value::Id(e)));
            }
        }
        if let Term::Var(name) = &p.v {
            if !new_row.iter().any(|(n, _)| n == name) {
                new_row.push((*name, v));
            } else if new_row.iter().any(|(n, val)| n == name && *val != v) {
                // Same variable in both positions with conflicting
                // values: not a match.
                return;
            }
        }
        out.push(new_row);
    };

    let matches = |fe: EntityId, fv: Value| -> bool {
        if let Some(e) = e_known {
            if fe != e {
                return false;
            }
        }
        if let Some(v) = v_known {
            if fv != v {
                return false;
            }
        }
        true
    };

    let mut take = |f: &StoredFact| {
        if !(opts.exclude_derived && f.provenance.is_derived())
            && matches(f.fact.entity, f.fact.value)
        {
            push(f.fact.entity, f.fact.value);
        }
    };
    // Each arm reads the narrowest index the bound terms allow; see the
    // module docs for the table.
    match (time, e_known) {
        (TimeSpec::Current, Some(e)) => store
            .current()
            .entity_facts(e)
            .filter(|f| f.fact.attr == p.a)
            .for_each(take),
        (TimeSpec::Current, None) => match v_known {
            Some(v) => store.current().attr_value_facts(p.a, v).for_each(take),
            None => store.current().attr_facts(p.a).for_each(take),
        },
        (TimeSpec::AsOf(t), Some(e)) => store.as_of(t).entity_facts(e, p.a).for_each(take),
        (TimeSpec::AsOf(t), None) => store.as_of(t).attr_facts(p.a).into_iter().for_each(take),
        (TimeSpec::During(from, to), e) => {
            let visit = |_: EntityId, f: &StoredFact| -> std::result::Result<(), Infallible> {
                take(f);
                Ok(())
            };
            let range = Some((from, to));
            let _ = match e {
                Some(e) => store.visit_entity_attr_facts(e, p.a, range, visit),
                None => store.visit_attr_facts(p.a, range, visit),
            };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::expr::Expr;
    use fenestra_base::time::Timestamp;
    use fenestra_temporal::AttrSchema;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    fn building_store() -> TemporalStore {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v1 = s.named_entity("v1");
        let v2 = s.named_entity("v2");
        let v3 = s.named_entity("v3");
        s.replace_at(v1, "room", "lobby", ts(10)).unwrap();
        s.replace_at(v2, "room", "lobby", ts(12)).unwrap();
        s.replace_at(v3, "room", "lab", ts(14)).unwrap();
        s.replace_at(v1, "room", "lab", ts(20)).unwrap();
        s.assert_at(v1, "badge", "gold", ts(10)).unwrap();
        s.assert_at(v2, "badge", "silver", ts(12)).unwrap();
        s.assert_at(v3, "badge", "gold", ts(14)).unwrap();
        s
    }

    #[test]
    fn who_is_where_now() {
        let s = building_store();
        let q = Query::new().pattern(Term::var("v"), "room", Term::val("lab"));
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows.len(), 2, "v1 and v3 in the lab now");
    }

    #[test]
    fn join_two_patterns() {
        let s = building_store();
        // Gold-badged visitors in the lab.
        let q = Query::new()
            .pattern(Term::var("v"), "room", Term::val("lab"))
            .pattern(Term::var("v"), "badge", Term::val("gold"));
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows.len(), 2);
        // Gold-badged visitors in the lobby: only v2 is in lobby but
        // has silver.
        let q = Query::new()
            .pattern(Term::var("v"), "room", Term::val("lobby"))
            .pattern(Term::var("v"), "badge", Term::val("gold"));
        assert!(execute(&s, &q).unwrap().is_empty());
    }

    #[test]
    fn as_of_sees_the_past() {
        let s = building_store();
        let q = Query::new()
            .pattern(Term::var("v"), "room", Term::val("lobby"))
            .at(TimeSpec::AsOf(ts(15)));
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows.len(), 2, "v1 and v2 were in the lobby at t15");
    }

    #[test]
    fn during_finds_overlapping_validity() {
        let s = building_store();
        let q = Query::new()
            .pattern(Term::val("v1"), "room", Term::var("r"))
            .at(TimeSpec::During(ts(0), ts(100)));
        let rows = execute(&s, &q).unwrap();
        let values: Vec<Value> = rows.iter().map(|r| r[0].1).collect();
        assert!(values.contains(&Value::str("lobby")));
        assert!(values.contains(&Value::str("lab")));
    }

    #[test]
    fn named_entity_constants() {
        let s = building_store();
        let q = Query::new().pattern(Term::val("v1"), "room", Term::var("r"));
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows, vec![vec![(Symbol::intern("r"), Value::str("lab"))]]);
        // Unknown entity: empty, not an error.
        let q = Query::new().pattern(Term::val("ghost"), "room", Term::var("r"));
        assert!(execute(&s, &q).unwrap().is_empty());
    }

    #[test]
    fn filters_and_projection() {
        let s = building_store();
        let q = Query::new()
            .pattern(Term::var("v"), "badge", Term::var("b"))
            .filter(Expr::name("b").ne(Expr::lit("silver")))
            .select_vars(["b"]);
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows.len(), 1, "projection dedups the two gold rows");
        assert_eq!(rows[0], vec![(Symbol::intern("b"), Value::str("gold"))]);
    }

    #[test]
    fn value_variable_join_across_entities() {
        let s = building_store();
        // Pairs of distinct visitors in the same room.
        let q = Query::new()
            .pattern(Term::var("x"), "room", Term::var("r"))
            .pattern(Term::var("y"), "room", Term::var("r"))
            .filter(Expr::name("x").ne(Expr::name("y")));
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows.len(), 2, "(v1,v3) and (v3,v1) share the lab");
    }

    #[test]
    fn count_and_limit() {
        let s = building_store();
        let q = Query::new()
            .pattern(Term::var("v"), "badge", Term::var("b"))
            .count();
        let rows = execute(&s, &q).unwrap();
        assert_eq!(rows, vec![vec![(Symbol::intern("count"), Value::Int(3))]]);
        let q = Query::new()
            .pattern(Term::var("v"), "badge", Term::var("b"))
            .limit(2);
        assert_eq!(execute(&s, &q).unwrap().len(), 2);
        // Count respects limit (count of the limited rows).
        let q = Query::new()
            .pattern(Term::var("v"), "badge", Term::var("b"))
            .limit(2)
            .count();
        assert_eq!(execute(&s, &q).unwrap()[0][0].1, Value::Int(2));
    }

    #[test]
    fn empty_query_rejected() {
        let s = building_store();
        assert!(execute(&s, &Query::new()).is_err());
    }

    #[test]
    fn exclude_derived_option() {
        use fenestra_temporal::Provenance;
        let mut s = building_store();
        let v1 = s.lookup_entity("v1").unwrap();
        s.assert_with(
            v1,
            Symbol::intern("type"),
            Value::str("visitor"),
            ts(30),
            Provenance::Derived(Symbol::intern("ontology")),
        )
        .unwrap();
        let q = Query::new().pattern(Term::var("x"), "type", Term::val("visitor"));
        assert_eq!(execute(&s, &q).unwrap().len(), 1);
        let rows = execute_with(
            &s,
            &q,
            QueryOptions {
                exclude_derived: true,
            },
        )
        .unwrap();
        assert!(rows.is_empty());
    }
}
