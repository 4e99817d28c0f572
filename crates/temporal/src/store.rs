//! The temporal fact store.

use crate::fact::{AttrId, Fact, FactId, Provenance, StoredFact};
use crate::schema::{AttrSchema, Cardinality, Schema};
use crate::snapshot::{AsOfView, CurrentView};
use crate::stats::StoreStats;
use crate::timeline::Timeline;
use crate::wal::WalOp;
use fenestra_base::error::{Error, Result};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::{Interval, Timestamp};
use fenestra_base::value::{EntityId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Outcome of a [`TemporalStore::replace_at`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaceOutcome {
    /// Facts whose validity was closed by the replacement.
    pub closed: Vec<FactId>,
    /// The fact now holding the value (newly asserted, or the existing
    /// one when the value was unchanged).
    pub fact: FactId,
    /// Whether the state actually changed.
    pub changed: bool,
}

/// The state repository: an EAV fact store with validity intervals.
///
/// See the [crate docs](crate) for the model. All mutating operations
/// take the *event time* at which the transition happens; the store
/// never consults a wall clock.
#[derive(Debug, Default)]
pub struct TemporalStore {
    /// Fact arena; `FactId` indexes it. GC empties slots to `None` and
    /// lists them in `free` for reuse, so the arena's length tracks the
    /// peak number of live facts, not the number ever asserted.
    pub(crate) arena: Vec<Option<StoredFact>>,
    /// Empty arena slots, reused (last freed first) by `insert_open`.
    free: Vec<FactId>,
    /// Number of open facts (kept by `insert_open` / `close_fact`).
    open_count: usize,
    /// Number of live arena slots (kept by `insert_open` / `gc`).
    live_count: usize,
    pub(crate) schema: Schema,
    /// Open facts per entity (deterministic iteration order).
    pub(crate) open_by_entity: BTreeMap<EntityId, BTreeSet<FactId>>,
    /// Open facts per attribute.
    pub(crate) open_by_attr: BTreeMap<AttrId, BTreeSet<FactId>>,
    /// Open facts per (attribute, value) — reverse lookup.
    pub(crate) open_by_attr_value: HashMap<(AttrId, Value), BTreeSet<FactId>>,
    /// Open facts per (entity, attribute) — cardinality checks.
    pub(crate) open_by_ea: HashMap<(EntityId, AttrId), Vec<FactId>>,
    /// Full history per attribute, then entity: an attribute's
    /// timelines are one ordered run, walked without a lookup per
    /// entity.
    pub(crate) timelines: BTreeMap<AttrId, BTreeMap<EntityId, Timeline>>,
    /// Greatest closed-interval end per (entity, attribute): O(1)
    /// retroactive-overlap checks for cardinality-one attributes.
    pub(crate) max_closed_end: HashMap<(EntityId, AttrId), Timestamp>,
    /// Named entity directory.
    entity_names: HashMap<Symbol, EntityId>,
    /// Entity names indexed by id. Ids are allocated in sequence, so
    /// the vector is as long as the highest named id (the entity
    /// directory of [`TemporalStore::compact_ops`] is too).
    entity_names_rev: Vec<Option<Symbol>>,
    next_entity: u64,
    /// Monotone revision counter; bumps on every state change.
    revision: u64,
    /// Latest transition time seen.
    last_transition: Timestamp,
    /// Journal of all mutations (see [`crate::wal`]).
    wal: Vec<WalOp>,
    wal_enabled: bool,
    stats: StoreStats,
}

impl TemporalStore {
    /// An empty store with WAL journaling enabled.
    pub fn new() -> TemporalStore {
        TemporalStore {
            wal_enabled: true,
            ..TemporalStore::default()
        }
    }

    /// An empty store that does not journal. Use it whenever nothing
    /// drains the journal with [`TemporalStore::take_journal`]:
    /// otherwise every mutation stays in memory for the store's
    /// lifetime. `fenestrad` runs its shards this way unless `--wal`
    /// is given.
    pub fn without_wal() -> TemporalStore {
        TemporalStore::default()
    }

    // ----- schema & entities ------------------------------------------------

    /// Declare an attribute's schema.
    pub fn declare_attr(&mut self, attr: impl Into<AttrId>, schema: AttrSchema) {
        let attr = attr.into();
        self.schema.declare(attr, schema);
        self.journal(WalOp::DeclareAttr { attr, schema });
    }

    /// The effective schema of `attr`.
    pub fn attr_schema(&self, attr: AttrId) -> AttrSchema {
        self.schema.of(attr)
    }

    /// Allocate a fresh anonymous entity.
    pub fn new_entity(&mut self) -> EntityId {
        let e = EntityId(self.next_entity);
        self.next_entity += 1;
        self.journal(WalOp::NewEntity { name: None });
        e
    }

    /// Get or create the entity registered under `name`.
    pub fn named_entity(&mut self, name: impl Into<Symbol>) -> EntityId {
        let name = name.into();
        if let Some(&e) = self.entity_names.get(&name) {
            return e;
        }
        let e = EntityId(self.next_entity);
        self.next_entity += 1;
        self.entity_names.insert(name, e);
        let i = e.0 as usize;
        if self.entity_names_rev.len() <= i {
            self.entity_names_rev.resize(i + 1, None);
        }
        self.entity_names_rev[i] = Some(name);
        self.journal(WalOp::NewEntity { name: Some(name) });
        e
    }

    /// Look up a named entity without creating it.
    pub fn lookup_entity(&self, name: impl Into<Symbol>) -> Option<EntityId> {
        self.entity_names.get(&name.into()).copied()
    }

    /// The registered name of an entity, if any.
    pub fn entity_name(&self, e: EntityId) -> Option<Symbol> {
        self.entity_names_rev.get(e.0 as usize).copied().flatten()
    }

    // ----- mutation ---------------------------------------------------------

    /// Assert that `(entity, attr, value)` is valid from `t` on.
    ///
    /// * Cardinality-many: idempotent if an identical open fact exists.
    /// * Cardinality-one: rejected if a *different* value is currently
    ///   open, or if `t` would retroactively overlap a closed value —
    ///   use [`TemporalStore::replace_at`] to transition.
    pub fn assert_at(
        &mut self,
        entity: EntityId,
        attr: impl Into<AttrId>,
        value: impl Into<Value>,
        t: Timestamp,
    ) -> Result<FactId> {
        let attr = attr.into();
        let value = value.into();
        self.assert_with(entity, attr, value, t, Provenance::External)
    }

    /// [`TemporalStore::assert_at`] with explicit provenance (rules and
    /// the reasoner use this).
    pub fn assert_with(
        &mut self,
        entity: EntityId,
        attr: AttrId,
        value: Value,
        t: Timestamp,
        provenance: Provenance,
    ) -> Result<FactId> {
        // Idempotence: identical open fact.
        if let Some(existing) = self.open_fact_with_value(entity, attr, value) {
            return Ok(existing);
        }
        if self.schema.of(attr).cardinality == Cardinality::One {
            if let Some(ids) = self.open_by_ea.get(&(entity, attr)) {
                if let Some(&id) = ids.first() {
                    let f = self.arena[id.0 as usize].as_ref().expect("open fact live");
                    return Err(Error::Store(format!(
                        "cardinality-one conflict: {} {} already holds {} (open since {}); use replace",
                        entity, attr, f.fact.value, f.validity.start
                    )));
                }
            }
            if let Some(&end) = self.max_closed_end.get(&(entity, attr)) {
                if end > t {
                    return Err(Error::Store(format!(
                        "retroactive overlap: {} {} has history up to {} but assert at {}",
                        entity, attr, end, t
                    )));
                }
            }
        }
        let id = self.insert_open(Fact::new(entity, attr, value), t, provenance);
        self.journal(WalOp::Assert {
            entity,
            attr,
            value,
            t,
            provenance,
        });
        self.touch(t);
        self.stats.asserts += 1;
        Ok(id)
    }

    /// Close the validity of the open fact `(entity, attr, value)` at `t`.
    pub fn retract_at(
        &mut self,
        entity: EntityId,
        attr: impl Into<AttrId>,
        value: impl Into<Value>,
        t: Timestamp,
    ) -> Result<FactId> {
        let attr = attr.into();
        let value = value.into();
        let id = self
            .open_fact_with_value(entity, attr, value)
            .ok_or_else(|| {
                Error::Store(format!("retract of absent fact ({entity} {attr} {value})"))
            })?;
        self.close_fact(id, t)?;
        self.journal(WalOp::Retract {
            entity,
            attr,
            value,
            t,
        });
        self.touch(t);
        self.stats.retracts += 1;
        Ok(id)
    }

    /// Close *all* open facts for `(entity, attr)` at `t` and assert
    /// `value` — the paper's invalidate-and-update primitive.
    ///
    /// Idempotent: if the sole open value already equals `value`, the
    /// state is untouched and `changed` is `false`.
    pub fn replace_at(
        &mut self,
        entity: EntityId,
        attr: impl Into<AttrId>,
        value: impl Into<Value>,
        t: Timestamp,
    ) -> Result<ReplaceOutcome> {
        let attr = attr.into();
        let value = value.into();
        self.replace_with(entity, attr, value, t, Provenance::External)
    }

    /// [`TemporalStore::replace_at`] with explicit provenance.
    pub fn replace_with(
        &mut self,
        entity: EntityId,
        attr: AttrId,
        value: Value,
        t: Timestamp,
        provenance: Provenance,
    ) -> Result<ReplaceOutcome> {
        let open: Vec<FactId> = self
            .open_by_ea
            .get(&(entity, attr))
            .cloned()
            .unwrap_or_default();
        // Idempotent shortcut: single open fact with the same value.
        if open.len() == 1 {
            let f = self.arena[open[0].0 as usize]
                .as_ref()
                .expect("open fact live");
            if f.fact.value == value {
                return Ok(ReplaceOutcome {
                    closed: Vec::new(),
                    fact: open[0],
                    changed: false,
                });
            }
        }
        // Validate all closes before mutating anything.
        for &id in &open {
            let f = self.arena[id.0 as usize].as_ref().expect("open fact live");
            if t < f.validity.start {
                return Err(Error::Store(format!(
                    "replace at {} precedes open fact start {} for ({entity} {attr})",
                    t, f.validity.start
                )));
            }
        }
        for &id in &open {
            self.close_fact(id, t).expect("validated close");
        }
        let fact = self.insert_open(Fact::new(entity, attr, value), t, provenance);
        self.journal(WalOp::Replace {
            entity,
            attr,
            value,
            t,
            provenance,
        });
        self.touch(t);
        self.stats.replaces += 1;
        Ok(ReplaceOutcome {
            closed: open,
            fact,
            changed: true,
        })
    }

    /// Close every open fact about `entity` at `t` (e.g. a visitor
    /// leaves the building). Returns the closed fact ids.
    pub fn retract_entity_at(&mut self, entity: EntityId, t: Timestamp) -> Result<Vec<FactId>> {
        let open: Vec<FactId> = self
            .open_by_entity
            .get(&entity)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for &id in &open {
            let f = self.arena[id.0 as usize].as_ref().expect("open fact live");
            if t < f.validity.start {
                return Err(Error::Store(format!(
                    "entity retract at {} precedes open fact start {}",
                    t, f.validity.start
                )));
            }
        }
        for &id in &open {
            self.close_fact(id, t).expect("validated close");
        }
        if !open.is_empty() {
            self.journal(WalOp::RetractEntity { entity, t });
            self.touch(t);
        }
        self.stats.retracts += open.len() as u64;
        Ok(open)
    }

    // ----- reads ------------------------------------------------------------

    /// A stored fact by id (`None` if GC'd and not yet reused).
    pub fn get(&self, id: FactId) -> Option<&StoredFact> {
        self.arena.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// View of the currently valid state.
    pub fn current(&self) -> CurrentView<'_> {
        CurrentView { store: self }
    }

    /// View of the state as it was valid at instant `t`.
    pub fn as_of(&self, t: Timestamp) -> AsOfView<'_> {
        AsOfView { store: self, t }
    }

    /// Full timeline of `(entity, attr)`: `(interval, value, provenance)`
    /// in validity-start order.
    pub fn history(
        &self,
        entity: EntityId,
        attr: impl Into<AttrId>,
    ) -> Vec<(Interval, Value, Provenance)> {
        let Some(tl) = self.timeline(entity, attr.into()) else {
            return Vec::new();
        };
        tl.entries()
            .iter()
            .filter_map(|e| self.get(e.id))
            .map(|f| (f.validity, f.fact.value, f.provenance))
            .collect()
    }

    /// The timeline of `(entity, attr)`, if it has any history.
    pub(crate) fn timeline(&self, entity: EntityId, attr: AttrId) -> Option<&Timeline> {
        self.timelines.get(&attr)?.get(&entity)
    }

    /// Visit every stored fact of `attr` whose validity overlaps
    /// `range` (`[from, to)`; `None` visits all history), entity by
    /// entity in id order and each timeline in validity-start order.
    /// Each timeline is cut at the range end and, if disjoint, started
    /// at its last fact starting at or before the range start (see
    /// [`Timeline`]). Nothing is collected or cloned; the first error
    /// `visit` returns stops the walk and is returned.
    pub fn visit_attr_facts<E>(
        &self,
        attr: impl Into<AttrId>,
        range: Option<(Timestamp, Timestamp)>,
        mut visit: impl FnMut(EntityId, &StoredFact) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let Some(timelines) = self.timelines.get(&attr.into()) else {
            return Ok(());
        };
        for (&e, tl) in timelines {
            self.visit_timeline(e, tl, range, &mut visit)?;
        }
        Ok(())
    }

    /// [`TemporalStore::visit_attr_facts`] for one entity: its facts of
    /// `attr` overlapping `range`, in validity-start order.
    pub fn visit_entity_attr_facts<E>(
        &self,
        entity: EntityId,
        attr: impl Into<AttrId>,
        range: Option<(Timestamp, Timestamp)>,
        mut visit: impl FnMut(EntityId, &StoredFact) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self.timeline(entity, attr.into()) {
            Some(tl) => self.visit_timeline(entity, tl, range, &mut visit),
            None => Ok(()),
        }
    }

    fn visit_timeline<E>(
        &self,
        e: EntityId,
        tl: &Timeline,
        range: Option<(Timestamp, Timestamp)>,
        visit: &mut impl FnMut(EntityId, &StoredFact) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let entries = match range {
            Some((from, to)) => tl.overlapping(from, to),
            None => tl.entries(),
        };
        for entry in entries {
            let Some(f) = self.get(entry.id) else {
                continue;
            };
            if let Some((from, to)) = range {
                if !f.validity.overlaps_range(from, to) {
                    continue;
                }
            }
            visit(e, f)?;
        }
        Ok(())
    }

    /// Number of currently open facts. O(1).
    pub fn open_fact_count(&self) -> usize {
        self.open_count
    }

    /// Number of live (non-GC'd) stored facts, open or closed. O(1).
    pub fn stored_fact_count(&self) -> usize {
        self.live_count
    }

    /// Monotone revision counter (bumps on each state change).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The latest transition time applied to the store.
    pub fn last_transition(&self) -> Timestamp {
        self.last_transition
    }

    /// Mutation counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Iterate the registered named entities.
    pub fn named_entities(&self) -> impl Iterator<Item = (Symbol, EntityId)> + '_ {
        self.entity_names.iter().map(|(n, e)| (*n, *e))
    }

    /// The attributes with at least one currently open fact, with their
    /// open-fact counts (deterministic order).
    pub fn open_attr_counts(&self) -> Vec<(AttrId, usize)> {
        self.open_by_attr
            .iter()
            .map(|(a, ids)| (*a, ids.len()))
            .collect()
    }

    // ----- WAL --------------------------------------------------------------

    /// The journal of every mutation since creation — or, once a log
    /// writer is draining it via [`TemporalStore::take_journal`], since
    /// the last drain. Empty if the store was built with
    /// [`TemporalStore::without_wal`].
    pub fn wal(&self) -> &[WalOp] {
        &self.wal
    }

    /// Drain the in-memory journal, returning the ops accumulated since
    /// the last drain. This is how a durable log writer keeps the
    /// journal's memory bounded: append the returned batch to disk and
    /// the Vec starts over empty.
    pub fn take_journal(&mut self) -> Vec<WalOp> {
        std::mem::take(&mut self.wal)
    }

    /// Number of ops currently buffered in the in-memory journal.
    pub fn journal_len(&self) -> usize {
        self.wal.len()
    }

    /// A minimal op sequence reconstructing the *current* store —
    /// O(live state) where the full journal is O(all history ever).
    /// Checkpoints write this instead of the journal, so snapshot size
    /// tracks the state, not the ingest volume.
    ///
    /// Replaying the sequence preserves everything observable: schema,
    /// named-entity ids, open facts, closed history with provenance.
    /// Not preserved: fact ids and anonymous-entity ids beyond the last
    /// named entity (both unobservable through queries), and the
    /// retroactive-overlap watermark of fully GC'd `(entity, attr)`
    /// pairs.
    pub fn compact_ops(&self) -> Vec<WalOp> {
        let mut ops = Vec::new();
        // Schema, in deterministic (attr-name) order.
        let mut attrs: Vec<(AttrId, AttrSchema)> = self.schema.iter().collect();
        attrs.sort_by_key(|(a, _)| *a);
        for (attr, schema) in attrs {
            ops.push(WalOp::DeclareAttr { attr, schema });
        }
        // Entity directory: named ids must replay identically, so
        // allocations are emitted in id order with anonymous fillers
        // between them.
        let hi = self
            .entity_names_rev
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1);
        for &name in &self.entity_names_rev[..hi] {
            ops.push(WalOp::NewEntity { name });
        }
        // Facts, one timeline at a time, attribute by attribute. Closed
        // intervals first (each assert immediately closed, so a later
        // identical value can never hit the open-fact idempotence
        // shortcut and merge), then the open facts; both in
        // validity-start order.
        for (e, a, tl) in self
            .timelines
            .iter()
            .flat_map(|(a, tls)| tls.iter().map(move |(e, tl)| (e, a, tl)))
        {
            let mut open = Vec::new();
            for entry in tl.entries() {
                let Some(f) = self.get(entry.id) else {
                    continue;
                };
                match f.validity.end {
                    Some(end) => {
                        ops.push(WalOp::Assert {
                            entity: *e,
                            attr: *a,
                            value: f.fact.value,
                            t: f.validity.start,
                            provenance: f.provenance,
                        });
                        ops.push(WalOp::Retract {
                            entity: *e,
                            attr: *a,
                            value: f.fact.value,
                            t: end,
                        });
                    }
                    None => open.push(WalOp::Assert {
                        entity: *e,
                        attr: *a,
                        value: f.fact.value,
                        t: f.validity.start,
                        provenance: f.provenance,
                    }),
                }
            }
            ops.extend(open);
        }
        ops
    }

    /// A *fork*: an independent store reconstructing this store's state
    /// as it stood after the last transition at or before `t` — the
    /// basis for what-if analysis ("replay the afternoon with different
    /// rules"). Untimed journal entries (declarations, entity
    /// allocations) are always included; GC passes whose horizon lies
    /// beyond `t` are skipped. Requires the WAL (empty on stores built
    /// with [`TemporalStore::without_wal`], which yields an empty fork).
    pub fn fork_at(&self, t: Timestamp) -> Result<TemporalStore> {
        let prefix: Vec<WalOp> = self
            .wal
            .iter()
            .filter(|op| match op {
                WalOp::Assert { t: ot, .. }
                | WalOp::Retract { t: ot, .. }
                | WalOp::Replace { t: ot, .. }
                | WalOp::RetractEntity { t: ot, .. } => *ot <= t,
                WalOp::Gc { horizon } => *horizon <= t,
                WalOp::DeclareAttr { .. } | WalOp::NewEntity { .. } => true,
            })
            .cloned()
            .collect();
        TemporalStore::replay(&prefix)
    }

    /// Rebuild a store by replaying a journal.
    pub fn replay(ops: &[WalOp]) -> Result<TemporalStore> {
        let mut s = TemporalStore::new();
        for op in ops {
            s.apply(op)?;
        }
        Ok(s)
    }

    /// Apply a single journal entry.
    pub fn apply(&mut self, op: &WalOp) -> Result<()> {
        match *op {
            WalOp::DeclareAttr { attr, schema } => {
                self.declare_attr(attr, schema);
                Ok(())
            }
            WalOp::NewEntity { name } => {
                match name {
                    Some(n) => {
                        self.named_entity(n);
                    }
                    None => {
                        self.new_entity();
                    }
                }
                Ok(())
            }
            WalOp::Assert {
                entity,
                attr,
                value,
                t,
                provenance,
            } => self
                .assert_with(entity, attr, value, t, provenance)
                .map(|_| ()),
            WalOp::Retract {
                entity,
                attr,
                value,
                t,
            } => self.retract_at(entity, attr, value, t).map(|_| ()),
            WalOp::Replace {
                entity,
                attr,
                value,
                t,
                provenance,
            } => self
                .replace_with(entity, attr, value, t, provenance)
                .map(|_| ()),
            WalOp::RetractEntity { entity, t } => self.retract_entity_at(entity, t).map(|_| ()),
            WalOp::Gc { horizon } => {
                self.gc(horizon);
                Ok(())
            }
        }
    }

    // ----- TTL expiry ---------------------------------------------------------

    /// Expire open facts of TTL-declared attributes whose `start + ttl`
    /// lies at or before `now`: their validity closes at exactly
    /// `start + ttl`. Returns the expired facts as
    /// `(entity, attr, value, expired_at)`.
    ///
    /// Idempotent per instant; the engine calls this as the watermark
    /// advances, so expiry is driven by event time like everything
    /// else.
    pub fn expire_ttl(&mut self, now: Timestamp) -> Vec<(EntityId, AttrId, Value, Timestamp)> {
        let ttl_attrs: Vec<(AttrId, fenestra_base::time::Duration)> = self
            .schema
            .iter()
            .filter_map(|(a, s)| s.ttl.map(|ttl| (a, ttl)))
            .collect();
        let mut expired = Vec::new();
        for (attr, ttl) in ttl_attrs {
            let mut victims: Vec<(EntityId, Value, Timestamp)> = self
                .open_by_attr
                .get(&attr)
                .map(|ids| {
                    ids.iter()
                        .filter_map(|id| self.get(*id))
                        .filter(|f| f.validity.start.saturating_add(ttl) <= now)
                        .map(|f| {
                            (
                                f.fact.entity,
                                f.fact.value,
                                f.validity.start.saturating_add(ttl),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            // Expiry order is timestamp order, not fact-id order: ids
            // are reused after GC and say nothing about age.
            victims.sort_by_key(|&(e, _, at)| (at, e));
            for (e, v, at) in victims {
                // retract_at journals the close like any retraction.
                if self.retract_at(e, attr, v, at).is_ok() {
                    expired.push((e, attr, v, at));
                }
            }
        }
        expired
    }

    // ----- GC ---------------------------------------------------------------

    /// Reclaim closed facts whose validity ended at or before `horizon`,
    /// plus all closed facts of attributes declared
    /// [`AttrSchema::ephemeral`]. Open facts are never reclaimed. The
    /// slots of reclaimed facts are reused by later asserts, so a
    /// reclaimed id resolves to `None` until it names a new fact.
    ///
    /// Returns the number of facts reclaimed.
    pub fn gc(&mut self, horizon: Timestamp) -> usize {
        self.journal(WalOp::Gc { horizon });
        let mut reclaimed = 0;
        let victims: Vec<FactId> = self
            .arena
            .iter()
            .flatten()
            .filter(|f| {
                let Some(end) = f.validity.end else {
                    return false;
                };
                end <= horizon || !self.schema.of(f.fact.attr).keep_history
            })
            .map(|f| f.id)
            .collect();
        for id in victims {
            let f = self.arena[id.0 as usize].take().expect("victim live");
            self.free.push(id);
            let (e, a) = (f.fact.entity, f.fact.attr);
            if let Some(tls) = self.timelines.get_mut(&a) {
                if let Some(tl) = tls.get_mut(&e) {
                    tl.remove(id);
                    if tl.is_empty() {
                        tls.remove(&e);
                        if tls.is_empty() {
                            self.timelines.remove(&a);
                        }
                    }
                }
            }
            reclaimed += 1;
        }
        self.live_count -= reclaimed;
        self.stats.gcs += 1;
        self.stats.reclaimed += reclaimed as u64;
        reclaimed
    }

    // ----- internals --------------------------------------------------------

    fn open_fact_with_value(&self, entity: EntityId, attr: AttrId, value: Value) -> Option<FactId> {
        let ids = self.open_by_ea.get(&(entity, attr))?;
        ids.iter().copied().find(|id| {
            self.arena[id.0 as usize]
                .as_ref()
                .is_some_and(|f| f.fact.value == value)
        })
    }

    fn insert_open(&mut self, fact: Fact, t: Timestamp, provenance: Provenance) -> FactId {
        let id = self.free.pop().unwrap_or_else(|| {
            self.arena.push(None);
            FactId(self.arena.len() as u64 - 1)
        });
        self.arena[id.0 as usize] = Some(StoredFact {
            id,
            fact,
            validity: Interval::open(t),
            provenance,
        });
        self.open_count += 1;
        self.live_count += 1;
        let (e, a, v) = (fact.entity, fact.attr, fact.value);
        self.open_by_entity.entry(e).or_default().insert(id);
        self.open_by_attr.entry(a).or_default().insert(id);
        self.open_by_attr_value
            .entry((a, v))
            .or_default()
            .insert(id);
        // The new interval `[t, ∞)` may overlap another if one is still
        // open or one ended after `t` (the end may have been reclaimed
        // since: a conservative answer).
        let open = self.open_by_ea.entry((e, a)).or_default();
        let overlaps =
            !open.is_empty() || self.max_closed_end.get(&(e, a)).is_some_and(|&end| end > t);
        open.push(id);
        let tl = self.timelines.entry(a).or_default().entry(e).or_default();
        tl.insert(t, id);
        if overlaps {
            tl.mark_overlapping();
        }
        if self.next_entity <= e.0 {
            // Entities referenced without allocation still advance the
            // allocator so replay/new_entity never collides with them.
            self.next_entity = e.0 + 1;
        }
        id
    }

    fn close_fact(&mut self, id: FactId, end: Timestamp) -> Result<()> {
        let f = self.arena[id.0 as usize]
            .as_mut()
            .ok_or_else(|| Error::Store(format!("close of reclaimed fact {id}")))?;
        if !f.validity.close_at(end) {
            return Err(Error::Store(format!(
                "cannot close {} at {} (starts {})",
                id, end, f.validity.start
            )));
        }
        let (e, a, v) = (f.fact.entity, f.fact.attr, f.fact.value);
        self.open_count -= 1;
        if let Some(s) = self.open_by_entity.get_mut(&e) {
            s.remove(&id);
            if s.is_empty() {
                self.open_by_entity.remove(&e);
            }
        }
        if let Some(s) = self.open_by_attr.get_mut(&a) {
            s.remove(&id);
            if s.is_empty() {
                self.open_by_attr.remove(&a);
            }
        }
        if let Some(s) = self.open_by_attr_value.get_mut(&(a, v)) {
            s.remove(&id);
            if s.is_empty() {
                self.open_by_attr_value.remove(&(a, v));
            }
        }
        if let Some(s) = self.open_by_ea.get_mut(&(e, a)) {
            s.retain(|x| *x != id);
            if s.is_empty() {
                self.open_by_ea.remove(&(e, a));
            }
        }
        let slot = self.max_closed_end.entry((e, a)).or_insert(end);
        if *slot < end {
            *slot = end;
        }
        Ok(())
    }

    fn touch(&mut self, t: Timestamp) {
        self.revision += 1;
        if t > self.last_transition {
            self.last_transition = t;
        }
    }

    fn journal(&mut self, op: WalOp) {
        if self.wal_enabled {
            self.wal.push(op);
        }
    }

    /// The declared attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    #[test]
    fn assert_and_current() {
        let mut s = TemporalStore::new();
        let alice = s.named_entity("alice");
        s.assert_at(alice, "status", "active", ts(10)).unwrap();
        let cur = s.current();
        assert_eq!(cur.value(alice, "status"), Some(Value::str("active")));
        assert_eq!(s.open_fact_count(), 1);
    }

    #[test]
    fn assert_is_idempotent_for_identical_open_fact() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        let a = s.assert_at(e, "tag", "x", ts(1)).unwrap();
        let b = s.assert_at(e, "tag", "x", ts(5)).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.stored_fact_count(), 1);
    }

    #[test]
    fn cardinality_one_rejects_conflicting_assert() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.new_entity();
        s.assert_at(v, "room", "lobby", ts(1)).unwrap();
        let err = s.assert_at(v, "room", "hall", ts(5)).unwrap_err();
        assert!(matches!(err, Error::Store(_)));
        // Same value is fine (idempotent).
        s.assert_at(v, "room", "lobby", ts(5)).unwrap();
    }

    #[test]
    fn cardinality_many_allows_multiple_values() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "tag", "a", ts(1)).unwrap();
        s.assert_at(e, "tag", "b", ts(2)).unwrap();
        let mut vals = s.current().values(e, "tag");
        vals.sort();
        assert_eq!(vals, vec![Value::str("a"), Value::str("b")]);
    }

    #[test]
    fn replace_closes_previous_value() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.new_entity();
        s.replace_at(v, "room", "lobby", ts(1)).unwrap();
        let out = s.replace_at(v, "room", "hall", ts(5)).unwrap();
        assert!(out.changed);
        assert_eq!(out.closed.len(), 1);
        assert_eq!(s.current().value(v, "room"), Some(Value::str("hall")));
        // History shows both, first closed at 5.
        let h = s.history(v, "room");
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].0, Interval::closed(ts(1), ts(5)));
        assert_eq!(h[0].1, Value::str("lobby"));
        assert!(h[1].0.is_open());
    }

    #[test]
    fn replace_same_value_is_noop() {
        let mut s = TemporalStore::new();
        let v = s.new_entity();
        s.replace_at(v, "room", "lobby", ts(1)).unwrap();
        let out = s.replace_at(v, "room", "lobby", ts(9)).unwrap();
        assert!(!out.changed);
        assert!(out.closed.is_empty());
        assert_eq!(s.history(v, "room").len(), 1, "no new interval started");
    }

    #[test]
    fn retract_closes_interval_and_errors_on_absent() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "status", "active", ts(1)).unwrap();
        s.retract_at(e, "status", "active", ts(7)).unwrap();
        assert_eq!(s.current().value(e, "status"), None);
        assert_eq!(s.open_fact_count(), 0);
        let err = s.retract_at(e, "status", "active", ts(8)).unwrap_err();
        assert!(matches!(err, Error::Store(_)));
    }

    #[test]
    fn close_before_start_rejected() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "x", 1i64, ts(10)).unwrap();
        let err = s.retract_at(e, "x", 1i64, ts(5)).unwrap_err();
        assert!(matches!(err, Error::Store(_)));
        // Still open.
        assert_eq!(s.current().value(e, "x"), Some(Value::Int(1)));
    }

    #[test]
    fn retroactive_overlap_rejected_for_cardinality_one() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.new_entity();
        s.replace_at(v, "room", "a", ts(10)).unwrap();
        s.replace_at(v, "room", "b", ts(20)).unwrap();
        s.retract_at(v, "room", "b", ts(30)).unwrap();
        // Asserting into [10,30) history would create overlap.
        let err = s.assert_at(v, "room", "c", ts(25)).unwrap_err();
        assert!(matches!(err, Error::Store(_)));
        // After the history's end it's fine.
        s.assert_at(v, "room", "c", ts(30)).unwrap();
    }

    #[test]
    fn as_of_reads_past_state() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.named_entity("visitor1");
        s.replace_at(v, "room", "lobby", ts(10)).unwrap();
        s.replace_at(v, "room", "lab", ts(20)).unwrap();
        s.replace_at(v, "room", "exit", ts(30)).unwrap();
        assert_eq!(s.as_of(ts(5)).value(v, "room"), None);
        assert_eq!(s.as_of(ts(10)).value(v, "room"), Some(Value::str("lobby")));
        assert_eq!(s.as_of(ts(19)).value(v, "room"), Some(Value::str("lobby")));
        assert_eq!(s.as_of(ts(20)).value(v, "room"), Some(Value::str("lab")));
        assert_eq!(s.as_of(ts(99)).value(v, "room"), Some(Value::str("exit")));
        assert_eq!(s.current().value(v, "room"), Some(Value::str("exit")));
    }

    #[test]
    fn retract_entity_closes_everything() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "a", 1i64, ts(1)).unwrap();
        s.assert_at(e, "b", 2i64, ts(2)).unwrap();
        let closed = s.retract_entity_at(e, ts(9)).unwrap();
        assert_eq!(closed.len(), 2);
        assert_eq!(s.open_fact_count(), 0);
        assert_eq!(s.as_of(ts(5)).value(e, "a"), Some(Value::Int(1)));
    }

    #[test]
    fn visit_attr_facts_finds_overlapping_facts() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "x", 1i64, ts(0)).unwrap();
        s.retract_at(e, "x", 1i64, ts(10)).unwrap();
        s.assert_at(e, "x", 2i64, ts(10)).unwrap();
        s.retract_at(e, "x", 2i64, ts(20)).unwrap();
        s.assert_at(e, "x", 3i64, ts(20)).unwrap();
        s.assert_at(e, "y", 4i64, ts(0)).unwrap();
        let values = |from: u64, to: u64| {
            let mut vals = Vec::new();
            s.visit_attr_facts::<()>("x", Some((ts(from), ts(to))), |_, f| {
                vals.push(f.fact.value);
                Ok(())
            })
            .unwrap();
            vals
        };
        assert_eq!(values(5, 15), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(values(0, 100).len(), 3, "only the attribute asked for");
    }

    #[test]
    fn visit_attr_facts_bounds_by_range() {
        let mut s = TemporalStore::new();
        let a = s.new_entity();
        let b = s.new_entity();
        s.assert_at(a, "x", 1i64, ts(0)).unwrap();
        s.retract_at(a, "x", 1i64, ts(10)).unwrap();
        s.assert_at(a, "x", 2i64, ts(10)).unwrap();
        s.assert_at(b, "x", 3i64, ts(30)).unwrap();
        s.assert_at(b, "y", 4i64, ts(5)).unwrap();
        let visit = |range| {
            let mut seen = Vec::new();
            s.visit_attr_facts::<()>("x", range, |e, f| {
                seen.push((e, f.fact.value));
                Ok(())
            })
            .unwrap();
            seen
        };
        assert_eq!(
            visit(None),
            vec![(a, Value::Int(1)), (a, Value::Int(2)), (b, Value::Int(3))]
        );
        assert_eq!(
            visit(Some((ts(5), ts(30)))),
            vec![(a, Value::Int(1)), (a, Value::Int(2))]
        );
        assert_eq!(
            visit(Some((ts(10), ts(31)))),
            vec![(a, Value::Int(2)), (b, Value::Int(3))]
        );
        // The first error stops the walk.
        let mut calls = 0;
        let err = s.visit_attr_facts("x", None, |_, _| {
            calls += 1;
            Err("stop")
        });
        assert_eq!((err, calls), (Err("stop"), 1));
    }

    #[test]
    fn a_retroactive_replace_keeps_the_walks_complete() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.new_entity();
        let w = s.new_entity();
        s.replace_at(v, "room", "a", ts(10)).unwrap();
        s.replace_at(v, "room", "b", ts(20)).unwrap();
        s.retract_at(v, "room", "b", ts(30)).unwrap();
        s.replace_at(w, "room", "a", ts(12)).unwrap();
        let room = Symbol::intern("room");
        assert!(s.timeline(v, room).unwrap().is_disjoint());
        let seen = |s: &TemporalStore, e: EntityId, from: u64| {
            let mut vals = Vec::new();
            s.visit_entity_attr_facts::<()>(e, room, Some((ts(from), ts(from + 1))), |_, f| {
                vals.push(f.fact.value);
                Ok(())
            })
            .unwrap();
            vals
        };
        assert_eq!(seen(&s, v, 27), vec![Value::str("b")]);
        // A replace checks no closed history, so `[25, ∞)` overlaps
        // `[20, 30)`; the timeline stops skipping earlier entries.
        s.replace_at(v, "room", "c", ts(25)).unwrap();
        assert!(!s.timeline(v, room).unwrap().is_disjoint());
        assert!(s.timeline(w, room).unwrap().is_disjoint());
        assert_eq!(seen(&s, v, 27), vec![Value::str("b"), Value::str("c")]);
        assert_eq!(
            s.as_of(ts(27)).values(v, "room"),
            vec![Value::str("b"), Value::str("c")]
        );
        assert_eq!(seen(&s, w, 27), vec![Value::str("a")]);
    }

    #[test]
    fn wal_replay_reproduces_store() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.named_entity("v");
        s.replace_at(v, "room", "a", ts(1)).unwrap();
        s.replace_at(v, "room", "b", ts(5)).unwrap();
        s.assert_at(v, "badge", 7i64, ts(6)).unwrap();
        s.retract_at(v, "badge", 7i64, ts(8)).unwrap();

        let r = TemporalStore::replay(s.wal()).unwrap();
        assert_eq!(r.open_fact_count(), s.open_fact_count());
        assert_eq!(r.stored_fact_count(), s.stored_fact_count());
        assert_eq!(r.current().value(v, "room"), Some(Value::str("b")));
        assert_eq!(r.history(v, "room"), s.history(v, "room"));
        assert_eq!(r.lookup_entity("v"), Some(v));
    }

    #[test]
    fn gc_reclaims_closed_history() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.replace_at(e, "room", "a", ts(1)).unwrap();
        s.replace_at(e, "room", "b", ts(5)).unwrap();
        s.replace_at(e, "room", "c", ts(9)).unwrap();
        assert_eq!(s.stored_fact_count(), 3);
        let n = s.gc(ts(6));
        assert_eq!(n, 1, "only [1,5) ended by the t6 horizon");
        assert_eq!(s.stored_fact_count(), 2);
        // Current state unaffected; as-of before the horizon now empty.
        assert_eq!(s.current().value(e, "room"), Some(Value::str("c")));
        assert_eq!(s.as_of(ts(2)).value(e, "room"), None);
        assert_eq!(s.as_of(ts(6)).value(e, "room"), Some(Value::str("b")));
        assert_eq!(s.history(e, "room").len(), 2);
        // A later horizon reclaims the rest of the closed history.
        assert_eq!(s.gc(ts(100)), 1);
        assert_eq!(s.stored_fact_count(), 1);
    }

    #[test]
    fn gc_ephemeral_attrs_reclaims_regardless_of_horizon() {
        let mut s = TemporalStore::new();
        s.declare_attr("ping", AttrSchema::many().ephemeral());
        let e = s.new_entity();
        s.assert_at(e, "ping", 1i64, ts(1)).unwrap();
        s.retract_at(e, "ping", 1i64, ts(100)).unwrap();
        let n = s.gc(ts(0));
        assert_eq!(n, 1);
    }

    #[test]
    fn revision_and_last_transition_advance() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        assert_eq!(s.revision(), 0);
        s.assert_at(e, "x", 1i64, ts(5)).unwrap();
        let r1 = s.revision();
        assert!(r1 > 0);
        assert_eq!(s.last_transition(), ts(5));
        s.retract_at(e, "x", 1i64, ts(9)).unwrap();
        assert!(s.revision() > r1);
        assert_eq!(s.last_transition(), ts(9));
    }

    #[test]
    fn named_entities_are_stable() {
        let mut s = TemporalStore::new();
        let a1 = s.named_entity("alice");
        let a2 = s.named_entity("alice");
        assert_eq!(a1, a2);
        assert_eq!(s.entity_name(a1), Some(Symbol::intern("alice")));
        assert_eq!(s.lookup_entity("bob"), None);
        let b = s.named_entity("bob");
        assert_ne!(a1, b);
    }

    #[test]
    fn external_entity_ids_advance_allocator() {
        let mut s = TemporalStore::new();
        s.assert_at(EntityId(100), "x", 1i64, ts(1)).unwrap();
        let e = s.new_entity();
        assert!(e.0 > 100, "allocator must skip externally used ids");
    }

    #[test]
    fn take_journal_drains_and_memory_stays_bounded() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "x", 1i64, ts(1)).unwrap();
        let before = s.journal_len();
        assert!(before > 0);
        let drained = s.take_journal();
        assert_eq!(drained.len(), before);
        assert_eq!(s.journal_len(), 0, "drain resets the Vec");
        // Subsequent mutations journal only themselves, not history.
        s.retract_at(e, "x", 1i64, ts(5)).unwrap();
        assert_eq!(s.journal_len(), 1);
        assert_eq!(s.take_journal().len(), 1);
        // The two drains concatenated replay to the same store.
        let mut all = drained;
        all.push(WalOp::Retract {
            entity: e,
            attr: crate::fact::AttrId::from("x"),
            value: Value::Int(1),
            t: ts(5),
        });
        let r = TemporalStore::replay(&all).unwrap();
        assert_eq!(r.stored_fact_count(), s.stored_fact_count());
        assert_eq!(r.open_fact_count(), 0);
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    fn assert_equivalent(original: &TemporalStore) {
        let compact = original.compact_ops();
        let r = TemporalStore::replay(&compact).expect("compact ops must replay");
        assert_eq!(r.open_fact_count(), original.open_fact_count());
        assert_eq!(r.stored_fact_count(), original.stored_fact_count());
        for (name, e) in original.named_entities() {
            assert_eq!(
                r.lookup_entity(name),
                Some(e),
                "named entity {name} keeps its id"
            );
            for (attr, _) in original.schema.iter() {
                assert_eq!(
                    r.history(e, attr),
                    original.history(e, attr),
                    "history of {name} {attr}"
                );
            }
        }
    }

    #[test]
    fn compact_ops_is_o_live_state_not_o_history() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.named_entity("v");
        for i in 1..=100u64 {
            s.replace_at(v, "room", format!("r{i}").as_str(), ts(i))
                .unwrap();
        }
        s.gc(ts(90)); // reclaim most of the closed history
        let full = s.wal().len();
        let compact = s.compact_ops().len();
        assert!(
            compact < full / 2,
            "compact {compact} ops should be far below the {full}-op journal"
        );
        assert_equivalent(&s);
    }

    #[test]
    fn compact_preserves_schema_names_history_and_provenance() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        s.declare_attr(
            "last_seen",
            AttrSchema::one().with_ttl(fenestra_base::time::Duration::millis(30)),
        );
        let a = s.named_entity("alice");
        let _anon = s.new_entity();
        let b = s.named_entity("bob");
        s.replace_at(a, "room", "lobby", ts(1)).unwrap();
        s.replace_with(
            a,
            AttrId::from("room"),
            Value::str("lab"),
            ts(5),
            Provenance::Rule(Symbol::intern("mv")),
        )
        .unwrap();
        s.assert_at(b, "badge", 7i64, ts(3)).unwrap();
        s.retract_at(b, "badge", 7i64, ts(9)).unwrap();
        assert_equivalent(&s);
        let r = TemporalStore::replay(&s.compact_ops()).unwrap();
        assert_eq!(
            r.attr_schema(AttrId::from("last_seen")).ttl,
            Some(fenestra_base::time::Duration::millis(30))
        );
        let h = r.history(a, "room");
        assert_eq!(h[1].2, Provenance::Rule(Symbol::intern("mv")));
    }

    #[test]
    fn compact_survives_identical_overlapping_intervals() {
        // Cardinality-many allows an open fact whose interval overlaps
        // a closed one with the same value; replay order must not merge
        // them through the idempotence shortcut.
        let mut s = TemporalStore::new();
        let e = s.named_entity("e");
        s.assert_at(e, "tag", "x", ts(20)).unwrap();
        s.retract_at(e, "tag", "x", ts(30)).unwrap();
        s.assert_at(e, "tag", "x", ts(10)).unwrap(); // open, starts earlier
        assert_eq!(s.history(e, "tag").len(), 2);
        assert_equivalent(&s);
    }

    #[test]
    fn arena_stays_within_twice_peak_live_under_retention_gc() {
        // 1M replaces over 1000 entities, one per millisecond, with the
        // engine's GC cadence: a 10-s retention collected every half
        // retention.
        const ENTITIES: u64 = 1000;
        const RETENTION: u64 = 10_000;
        let mut s = TemporalStore::without_wal();
        s.declare_attr("room", AttrSchema::one());
        let mut last_gc = 0;
        let mut peak_live = 0;
        for i in 1..=1_000_000u64 {
            s.replace_at(EntityId(i % ENTITIES), "room", (i % 7) as i64, ts(i))
                .unwrap();
            let horizon = i.saturating_sub(RETENTION);
            if horizon > last_gc + RETENTION / 2 {
                last_gc = horizon;
                s.gc(ts(horizon));
            }
            peak_live = peak_live.max(s.stored_fact_count());
        }
        assert!(s.stats().reclaimed > 900_000, "GC ran");
        assert!(
            s.arena.len() <= 2 * peak_live,
            "{} arena slots for a peak of {peak_live} live facts",
            s.arena.len()
        );
    }

    #[test]
    fn store_with_reused_slots_reads_like_its_compact_replay() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        s.declare_attr("tag", AttrSchema::many());
        let names: Vec<EntityId> = (0..5)
            .map(|i| s.named_entity(format!("e{i}").as_str()))
            .collect();
        let mut t = 0;
        for round in 0..40u64 {
            for (i, &e) in names.iter().enumerate() {
                t += 1;
                s.replace_at(e, "room", (round + i as u64) as i64 % 3, ts(t))
                    .unwrap();
                t += 1;
                let v = (round % 4) as i64;
                if s.current().holds(e, "tag", v) {
                    s.retract_at(e, "tag", v, ts(t)).unwrap();
                } else {
                    s.assert_at(e, "tag", v, ts(t)).unwrap();
                }
            }
            if round % 5 == 4 {
                s.gc(ts(t.saturating_sub(30)));
            }
        }
        let asserted = s.stats().asserts + s.stats().replaces;
        assert!(
            (s.arena.len() as u64) < asserted / 2,
            "slots were reused: {} slots for {asserted} asserted facts",
            s.arena.len()
        );

        let r = TemporalStore::replay(&s.compact_ops()).unwrap();
        assert_eq!(r.open_fact_count(), s.open_fact_count());
        assert_eq!(r.stored_fact_count(), s.stored_fact_count());
        let key = |f: &StoredFact| (f.fact, f.validity, f.provenance);
        let mut cur: Vec<_> = s.current().facts().map(key).collect();
        let mut rcur: Vec<_> = r.current().facts().map(key).collect();
        cur.sort_by_key(|k| k.0);
        rcur.sort_by_key(|k| k.0);
        assert_eq!(cur, rcur, "current");
        for probe in 0..=t + 1 {
            for &e in &names {
                for a in ["room", "tag"] {
                    assert_eq!(
                        r.as_of(ts(probe)).values(e, a),
                        s.as_of(ts(probe)).values(e, a),
                        "as_of {probe} {e} {a}"
                    );
                }
            }
        }
        for &e in &names {
            for a in ["room", "tag"] {
                assert_eq!(r.history(e, a), s.history(e, a), "history {e} {a}");
            }
        }
        for (from, to) in [(0, t + 1), (t - 40, t - 10), (t - 5, t + 5)] {
            let during = |st: &TemporalStore| -> Vec<_> {
                let mut out = Vec::new();
                for a in ["room", "tag"] {
                    st.visit_attr_facts::<()>(a, Some((ts(from), ts(to))), |_, f| {
                        out.push(key(f));
                        Ok(())
                    })
                    .unwrap();
                }
                out
            };
            assert_eq!(during(&r), during(&s), "during [{from}, {to})");
        }
    }

    #[test]
    fn compact_of_empty_store_is_empty() {
        assert!(TemporalStore::new().compact_ops().is_empty());
        assert_equivalent(&TemporalStore::new());
    }
}

#[cfg(test)]
mod ttl_tests {
    use super::*;
    use fenestra_base::time::Duration;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    #[test]
    fn ttl_expires_open_facts_at_exact_instant() {
        let mut s = TemporalStore::new();
        s.declare_attr("status", AttrSchema::one().with_ttl(Duration::millis(30)));
        let u = s.named_entity("u");
        s.replace_at(u, "status", "active", ts(10)).unwrap();
        assert!(s.expire_ttl(ts(39)).is_empty(), "not yet");
        let expired = s.expire_ttl(ts(40));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].3, ts(40), "closes at start + ttl, not at now");
        assert_eq!(s.current().value(u, "status"), None);
        // Validity interval ends exactly at start + ttl.
        let h = s.history(u, "status");
        assert_eq!(h[0].0, Interval::closed(ts(10), ts(40)));
        // Idempotent.
        assert!(s.expire_ttl(ts(100)).is_empty());
    }

    #[test]
    fn refresh_via_replace_restarts_the_clock() {
        let mut s = TemporalStore::new();
        s.declare_attr("status", AttrSchema::one().with_ttl(Duration::millis(30)));
        let u = s.named_entity("u");
        s.replace_at(u, "status", "active", ts(10)).unwrap();
        // A refresh at t25 must restart the TTL window: close + reopen.
        s.retract_at(u, "status", "active", ts(25)).unwrap();
        s.replace_at(u, "status", "active", ts(25)).unwrap();
        assert!(
            s.expire_ttl(ts(40)).is_empty(),
            "refreshed at 25, expires at 55"
        );
        let expired = s.expire_ttl(ts(55));
        assert_eq!(expired.len(), 1);
    }

    #[test]
    fn ttl_survives_wal_replay() {
        let mut s = TemporalStore::new();
        s.declare_attr("ping", AttrSchema::many().with_ttl(Duration::millis(5)));
        let u = s.named_entity("u");
        s.assert_at(u, "ping", 1i64, ts(1)).unwrap();
        s.expire_ttl(ts(10));
        let r = TemporalStore::replay(s.wal()).unwrap();
        assert_eq!(r.open_fact_count(), 0, "expiry retraction replayed");
        assert_eq!(
            r.schema()
                .of(fenestra_base::symbol::Symbol::intern("ping"))
                .ttl,
            Some(Duration::millis(5))
        );
    }

    #[test]
    fn expiry_follows_timestamps_when_slots_are_reused() {
        let mut s = TemporalStore::new();
        s.declare_attr("ping", AttrSchema::many().with_ttl(Duration::millis(5)));
        let (a, b) = (s.named_entity("a"), s.named_entity("b"));
        for e in [a, b] {
            s.replace_at(e, "room", "x", ts(1)).unwrap();
            s.retract_at(e, "room", "x", ts(2)).unwrap();
        }
        s.gc(ts(2));
        // The reused slots hand the later fact the lower id.
        let first = s.assert_at(a, "ping", 1i64, ts(10)).unwrap();
        let second = s.assert_at(b, "ping", 1i64, ts(11)).unwrap();
        assert!(second < first, "slots reused last-freed first");
        let expired = s.expire_ttl(ts(100));
        let order: Vec<(EntityId, Timestamp)> = expired.iter().map(|x| (x.0, x.3)).collect();
        assert_eq!(order, vec![(a, ts(15)), (b, ts(16))]);
    }

    #[test]
    fn non_ttl_attrs_untouched() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let u = s.named_entity("u");
        s.replace_at(u, "room", "lobby", ts(1)).unwrap();
        assert!(s.expire_ttl(ts(1_000_000)).is_empty());
        assert!(s.current().value(u, "room").is_some());
    }
}

#[cfg(test)]
mod fork_tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    #[test]
    fn fork_reconstructs_past_and_diverges_independently() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.named_entity("v");
        s.replace_at(v, "room", "a", ts(10)).unwrap();
        s.replace_at(v, "room", "b", ts(20)).unwrap();
        s.replace_at(v, "room", "c", ts(30)).unwrap();

        let mut fork = s.fork_at(ts(25)).unwrap();
        let fv = fork.lookup_entity("v").unwrap();
        assert_eq!(fork.current().value(fv, "room"), Some(Value::str("b")));
        assert_eq!(fork.history(fv, "room").len(), 2);

        // The fork diverges without touching the original.
        fork.replace_at(fv, "room", "z", ts(26)).unwrap();
        assert_eq!(fork.current().value(fv, "room"), Some(Value::str("z")));
        assert_eq!(s.current().value(v, "room"), Some(Value::str("c")));

        // Fork at (or before) time zero is empty of facts but keeps the
        // schema and directory prefix.
        let empty = s.fork_at(ts(5)).unwrap();
        assert_eq!(empty.open_fact_count(), 0);
        assert!(empty.lookup_entity("v").is_some());
    }

    #[test]
    fn fork_matches_as_of_for_every_instant() {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.named_entity("v");
        for i in 1..=10u64 {
            s.replace_at(v, "room", format!("r{i}").as_str(), ts(i * 10))
                .unwrap();
        }
        for probe in (0..=110u64).step_by(7) {
            let fork = s.fork_at(ts(probe)).unwrap();
            let fv = fork.lookup_entity("v").unwrap();
            assert_eq!(
                fork.current().value(fv, "room"),
                s.as_of(ts(probe)).value(v, "room"),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn fork_skips_future_gc() {
        let mut s = TemporalStore::new();
        let v = s.new_entity();
        s.replace_at(v, "x", 1i64, ts(10)).unwrap();
        s.replace_at(v, "x", 2i64, ts(20)).unwrap();
        s.gc(ts(100)); // reclaims the closed [10,20) fact
        let fork = s.fork_at(ts(15)).unwrap();
        assert_eq!(
            fork.history(v, "x").len(),
            1,
            "fork at 15 predates the GC and sees the then-open fact"
        );
        assert_eq!(fork.current().value(v, "x"), Some(Value::Int(1)));
    }
}
