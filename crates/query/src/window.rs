//! Two-phase execution of windowed aggregations.
//!
//! A [`WindowPhys`] runs in two steps, so a fanned-out statement ships
//! partial aggregates instead of facts:
//!
//! 1. **Partials, per shard** ([`WindowPhys::partials`]): the shard
//!    walks the scanned attribute's timelines in one ordered run, each
//!    cut at the range end and, on a disjoint timeline (every
//!    cardinality-one timeline no retroactive `replace` overlapped),
//!    started at its last fact starting at or before the range start;
//!    it applies the filters and folds each fact into its group's
//!    partial state —
//!    one [`AccumulatorBank`] per `(group, pane)` for tumbling and
//!    sliding windows (panes are `gcd(size, hop)` long, exactly as in
//!    `TimeWindowOp`'s pane strategy), or the group's partial sessions
//!    for session windows (`SessionWindowOp`'s strict gap).
//! 2. **Merge, on the coordinator** ([`WindowPhys::merge`]): the banks
//!    merge in shard order; every window holding at least one of a
//!    group's panes fires, and each group's partial sessions coalesce
//!    wherever `[first, last + gap)` overlaps. Rows are projected to
//!    the statement's columns, sorted, deduplicated and limited.
//!
//! Groups are keyed by [`Value`], whose strings hash and compare
//! equal by symbol, so the per-fact loop resolves no string; the
//! maps hash with [`fenestra_base::hash::KeyHasher`], and entity names
//! come from the store's id-indexed directory. Output order comes
//! from the final row sort alone. One store is the
//! one-partial case ([`WindowPhys::execute_local`]).

use crate::exec::Bindings;
use crate::plan::{entity_col, WindowPhys};
use crate::sql::{AggName, WindowKind};
use fenestra_base::error::{Error, Result};
use fenestra_base::expr::SliceScope;
use fenestra_base::hash::KeyMap;
use fenestra_base::record::{Event, Record};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::{Duration, Timestamp};
use fenestra_base::value::{EntityId, Value};
use fenestra_stream::aggregate::{AccumulatorBank, AggFunc, AggSpec};
use fenestra_stream::window::{finish_row, EmitMode};
use fenestra_temporal::TemporalStore;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A group key: the `entity` slot and the attribute-value slot, each
/// `Null` unless the statement groups by it.
type Group = (Value, Value);

/// One group's run of facts whose consecutive gaps stay below the
/// session gap, as seen by one shard.
#[derive(Debug, Clone)]
struct PartialSession {
    first: Timestamp,
    last: Timestamp,
    bank: AccumulatorBank,
    count: u64,
}

/// One shard's partial aggregates for a [`WindowPhys`], produced by
/// [`WindowPhys::partials`] and combined by [`WindowPhys::merge`].
#[derive(Debug, Clone)]
pub struct WindowPartials(Partials);

#[derive(Debug, Clone)]
enum Partials {
    /// Tumbling and sliding windows: a bank per `(group, pane start)`.
    Panes(KeyMap<(Group, u64), AccumulatorBank>),
    /// Session windows: each group's sessions, sorted by `first`.
    Sessions(KeyMap<Group, Vec<PartialSession>>),
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Folds facts into one partial. Facts may arrive in any order.
struct Folder<'a> {
    w: &'a WindowPhys,
    specs: Vec<AggSpec>,
    pane_len: u64,
    by_entity: bool,
    by_value: bool,
    panes: KeyMap<(Group, u64), AccumulatorBank>,
    points: KeyMap<Group, Vec<(Timestamp, Value)>>,
}

impl<'a> Folder<'a> {
    fn new(w: &'a WindowPhys) -> Folder<'a> {
        let entity = entity_col();
        Folder {
            w,
            specs: w.specs(),
            pane_len: w.pane_len(),
            by_entity: w.keys.contains(&entity),
            by_value: w.keys.contains(&w.attr),
            panes: KeyMap::default(),
            points: KeyMap::default(),
        }
    }

    /// Fold in one fact: `entity` and `value` are its two columns,
    /// `ts` its validity start.
    fn add(&mut self, entity: Value, value: Value, ts: Timestamp) -> Result<()> {
        let pick = |on: bool, v: Value| if on { v } else { Value::Null };
        let group = (pick(self.by_entity, entity), pick(self.by_value, value));
        match self.w.window {
            WindowKind::Tumbling { .. } | WindowKind::Sliding { .. } => {
                if self.pane_len == 0 {
                    return Err(Error::Invalid(self.w.degenerate_message().into()));
                }
                let t = ts.millis();
                let specs = &self.specs;
                self.panes
                    .entry((group, t - t % self.pane_len))
                    .or_insert_with(|| AccumulatorBank::new(specs))
                    .add_value(specs, value, ts);
            }
            WindowKind::Session { gap_ms } => {
                if gap_ms == 0 {
                    return Err(Error::Invalid(self.w.degenerate_message().into()));
                }
                self.points.entry(group).or_default().push((ts, value));
            }
        }
        Ok(())
    }

    /// Seal the fold: session points become runs split by the gap.
    fn finish(self) -> WindowPartials {
        let WindowKind::Session { gap_ms } = self.w.window else {
            return WindowPartials(Partials::Panes(self.panes));
        };
        let gap = Duration::millis(gap_ms);
        let specs = &self.specs;
        let sessions = self
            .points
            .into_iter()
            .map(|(group, mut points)| {
                // Stable: equal instants keep scan order.
                points.sort_by_key(|(ts, _)| *ts);
                let mut runs: Vec<PartialSession> = Vec::new();
                for (ts, value) in points {
                    match runs.last_mut() {
                        // Strict gap: a pause of exactly `gap` splits.
                        Some(s) if s.last.saturating_add(gap) > ts => {
                            s.last = ts;
                            s.count += 1;
                            s.bank.add_value(specs, value, ts);
                        }
                        _ => {
                            let mut bank = AccumulatorBank::new(specs);
                            bank.add_value(specs, value, ts);
                            runs.push(PartialSession {
                                first: ts,
                                last: ts,
                                bank,
                                count: 1,
                            });
                        }
                    }
                }
                (group, runs)
            })
            .collect();
        WindowPartials(Partials::Sessions(sessions))
    }
}

impl WindowPhys {
    /// The aggregate columns as window-operator specs. `count(col)`
    /// counts rows, like `count(*)`.
    fn specs(&self) -> Vec<AggSpec> {
        self.aggs
            .iter()
            .map(|a| match (a.func, a.column) {
                (AggName::Count, _) => AggSpec::count(a.output),
                (AggName::Sum, Some(c)) => AggSpec::new(AggFunc::Sum, c, a.output),
                (AggName::Avg, Some(c)) => AggSpec::new(AggFunc::Avg, c, a.output),
                (AggName::Min, Some(c)) => AggSpec::new(AggFunc::Min, c, a.output),
                (AggName::Max, Some(c)) => AggSpec::new(AggFunc::Max, c, a.output),
                (f, None) => unreachable!("{} without input column", f.name()),
            })
            .collect()
    }

    /// Pane length of a tumbling or sliding window: `gcd(size, hop)`,
    /// which divides every window boundary. `0` for sessions and for
    /// degenerate windows.
    pub(crate) fn pane_len(&self) -> u64 {
        match self.window {
            WindowKind::Tumbling { size_ms } => size_ms,
            WindowKind::Sliding { size_ms, hop_ms } if size_ms > 0 && hop_ms > 0 => {
                gcd(size_ms, hop_ms)
            }
            _ => 0,
        }
    }

    fn degenerate_message(&self) -> &'static str {
        match self.window {
            WindowKind::Tumbling { .. } => "window size must be positive",
            WindowKind::Sliding { .. } => "window size and hop must be positive",
            WindowKind::Session { .. } => "session gap must be positive",
        }
    }

    /// Phase one: fold this store's matching facts into partial
    /// aggregates. Facts are read straight off the attribute's
    /// timelines (each cut to the range, see
    /// [`TemporalStore::visit_attr_facts`]), unnamed entities are
    /// skipped, and each fact counts at its validity start.
    pub fn partials(&self, store: &TemporalStore) -> Result<WindowPartials> {
        let entity = entity_col();
        let mut fold = Folder::new(self);
        store.visit_attr_facts(self.attr, self.range, |e, f| {
            let Some(name) = store.entity_name(e) else {
                return Ok(());
            };
            let bindings = [(entity, Value::Str(name)), (self.attr, f.fact.value)];
            for p in &self.filters {
                if !p.eval_bool(&SliceScope(&bindings))? {
                    return Ok(());
                }
            }
            fold.add(Value::Str(name), f.fact.value, f.validity.start)
        })?;
        Ok(fold.finish())
    }

    /// Phase two: merge the partials (in shard order), fire every
    /// window, and return the output rows (sorted, deduplicated,
    /// limited).
    pub fn merge(&self, parts: Vec<WindowPartials>) -> Result<Vec<Bindings>> {
        let mut rows = match self.window {
            WindowKind::Tumbling { size_ms } => self.fire_panes(parts, size_ms, size_ms),
            WindowKind::Sliding { size_ms, hop_ms } => self.fire_panes(parts, size_ms, hop_ms),
            WindowKind::Session { gap_ms } => self.fire_sessions(parts, gap_ms),
        };
        rows.sort();
        rows.dedup();
        if let Some(n) = self.limit {
            rows.truncate(n);
        }
        Ok(rows)
    }

    /// Merge each group's panes across shards, then fire every window
    /// (`size` long, every `hop`) that holds at least one of them.
    fn fire_panes(&self, parts: Vec<WindowPartials>, size: u64, hop: u64) -> Vec<Bindings> {
        let specs = self.specs();
        let mut groups: KeyMap<Group, BTreeMap<u64, AccumulatorBank>> = KeyMap::default();
        for part in parts {
            let Partials::Panes(panes) = part.0 else {
                continue;
            };
            for ((group, pane), bank) in panes {
                match groups.entry(group).or_default().entry(pane) {
                    Entry::Vacant(v) => {
                        v.insert(bank);
                    }
                    Entry::Occupied(mut o) => o.get_mut().merge(&bank),
                }
            }
        }
        let pane_len = self.pane_len();
        let mut rows = Vec::new();
        for (group, panes) in &groups {
            let starts: BTreeSet<u64> = panes
                .keys()
                .flat_map(|&p| window_starts(p, pane_len, size, hop))
                .collect();
            for start in starts {
                let end = start.saturating_add(size);
                let mut inside = panes.range(start..end).map(|(_, b)| b);
                let mut bank = inside.next().expect("a fired window holds a pane").clone();
                for b in inside {
                    bank.merge(b);
                }
                let (start, end) = (Timestamp::new(start), Timestamp::new(end));
                rows.push(self.row(&specs, group, &bank, start, end, None));
            }
        }
        rows
    }

    /// Coalesce each group's partial sessions across shards: sorted by
    /// `first`, a run joins the previous session when it starts before
    /// that session's `last + gap`.
    fn fire_sessions(&self, parts: Vec<WindowPartials>, gap_ms: u64) -> Vec<Bindings> {
        let specs = self.specs();
        let gap = Duration::millis(gap_ms);
        let mut groups: KeyMap<Group, Vec<PartialSession>> = KeyMap::default();
        for part in parts {
            let Partials::Sessions(sessions) = part.0 else {
                continue;
            };
            for (group, runs) in sessions {
                groups.entry(group).or_default().extend(runs);
            }
        }
        let mut rows = Vec::new();
        for (group, mut runs) in groups {
            // Stable: equal starts keep shard order.
            runs.sort_by_key(|s| s.first);
            let mut sessions: Vec<PartialSession> = Vec::with_capacity(runs.len());
            for run in runs {
                match sessions.last_mut() {
                    Some(s) if s.last.saturating_add(gap) > run.first => {
                        s.last = s.last.max(run.last);
                        s.count += run.count;
                        s.bank.merge(&run.bank);
                    }
                    _ => sessions.push(run),
                }
            }
            for s in sessions {
                rows.push(self.row(&specs, &group, &s.bank, s.first, s.last, Some(s.count)));
            }
        }
        rows
    }

    /// One output row, built the way the window operators build theirs
    /// (keys, then aggregates, then the session size, then the window
    /// bounds — a later field wins a name clash) and projected.
    fn row(
        &self,
        specs: &[AggSpec],
        group: &Group,
        bank: &AccumulatorBank,
        start: Timestamp,
        end: Timestamp,
        session_events: Option<u64>,
    ) -> Bindings {
        let entity = entity_col();
        let mut rec = Record::new();
        for k in &self.keys {
            rec.set(*k, if *k == entity { group.0 } else { group.1 });
        }
        bank.write_outputs(specs, &mut rec);
        if let Some(n) = session_events {
            rec.set("session_events", Value::Int(n as i64));
        }
        let rec = finish_row(rec, start, end, 1, EmitMode::Rows);
        self.columns
            .iter()
            .map(|c| (*c, rec.get_or_null(*c)))
            .collect()
    }

    /// Partials + merge against one store.
    pub fn execute_local(&self, store: &TemporalStore) -> Result<Vec<Bindings>> {
        self.merge(vec![self.partials(store)?])
    }

    /// Pull this plan's facts out of one store as synthetic events
    /// (`{entity, <attr>}` stamped at each fact's validity start), in
    /// deterministic (entity-name, validity-start) order, with the
    /// plan's filters and range already applied. The serving path does
    /// not use it (see [`WindowPhys::partials`]); it feeds the
    /// reference window operators in tests and the benchmark's replay.
    pub fn collect_facts(&self, store: &TemporalStore) -> Result<Vec<Event>> {
        let entity = entity_col();
        let mut named: Vec<(Symbol, EntityId)> = store.named_entities().collect();
        named.sort_by_key(|(n, _)| n.as_str());
        let mut out = Vec::new();
        for (name, e) in named {
            for (interval, value, _prov) in store.history(e, self.attr) {
                if let Some((from, to)) = self.range {
                    if !interval.overlaps_range(from, to) {
                        continue;
                    }
                }
                let bindings = [(entity, Value::Str(name)), (self.attr, value)];
                let mut keep = true;
                for f in &self.filters {
                    if !f.eval_bool(&SliceScope(&bindings))? {
                        keep = false;
                        break;
                    }
                }
                if !keep {
                    continue;
                }
                let mut rec = Record::new();
                rec.set(entity, Value::Str(name));
                rec.set(self.attr, value);
                out.push(Event::new("facts", interval.start, rec));
            }
        }
        // Stable: equal timestamps keep entity-name order.
        out.sort_by_key(|ev| ev.ts);
        Ok(out)
    }

    /// Merge per-shard fact batches deterministically: stable-sort by
    /// timestamp, so equal timestamps keep (shard, seq) order.
    pub fn merge_fact_batches(batches: Vec<Vec<Event>>) -> Vec<Event> {
        let mut all: Vec<Event> = batches.into_iter().flatten().collect();
        all.sort_by_key(|ev| ev.ts);
        all
    }

    /// Aggregate a fact batch (as [`WindowPhys::collect_facts`] builds
    /// it) into output rows: one partial, then [`WindowPhys::merge`].
    pub fn aggregate(&self, events: Vec<Event>) -> Result<Vec<Bindings>> {
        let entity = entity_col();
        let mut fold = Folder::new(self);
        for ev in &events {
            fold.add(
                ev.record.get_or_null(entity),
                ev.record.get_or_null(self.attr),
                ev.ts,
            )?;
        }
        self.merge(vec![fold.finish()])
    }
}

/// Starts of the windows (`size` long, every `hop`, aligned at zero)
/// that hold the pane `[pane, pane + pane_len)` whole — the windows
/// holding any instant of it, since `pane_len` divides `size` and
/// `hop`.
fn window_starts(pane: u64, pane_len: u64, size: u64, hop: u64) -> impl Iterator<Item = u64> {
    let last = pane - pane % hop;
    (0..=last / hop)
        .rev()
        .map(move |i| i * hop)
        .take_while(move |s| s.saturating_add(size) >= pane + pane_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_starts_cover_each_pane() {
        // Sliding 30 every 10: pane 40 lies in windows 20, 30, 40.
        let got: Vec<u64> = window_starts(40, 10, 30, 10).collect();
        assert_eq!(got, vec![40, 30, 20]);
        // Near zero there is no window before 0.
        let got: Vec<u64> = window_starts(10, 10, 30, 10).collect();
        assert_eq!(got, vec![10, 0]);
        // Tumbling: the pane is the window.
        let got: Vec<u64> = window_starts(500, 100, 100, 100).collect();
        assert_eq!(got, vec![500]);
        // Hop longer than size: pane 10 falls between windows.
        assert_eq!(window_starts(10, 10, 10, 30).count(), 0);
    }
}
