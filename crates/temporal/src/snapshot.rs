//! Read views over the store: current state and as-of-instant state.

use crate::fact::{AttrId, FactId, StoredFact};
use crate::store::TemporalStore;
use fenestra_base::time::Timestamp;
use fenestra_base::value::{EntityId, Value};

/// A view of the currently valid facts (open intervals), backed by the
/// store's live indexes — O(1) to construct.
#[derive(Clone, Copy)]
pub struct CurrentView<'a> {
    pub(crate) store: &'a TemporalStore,
}

impl<'a> CurrentView<'a> {
    /// Iterate every open fact, ordered by entity.
    pub fn facts(&self) -> impl Iterator<Item = &'a StoredFact> + '_ {
        self.store
            .open_by_entity
            .values()
            .flat_map(|ids| ids.iter())
            .filter_map(|id| self.store.get(*id))
    }

    /// Number of open facts.
    pub fn len(&self) -> usize {
        self.store.open_fact_count()
    }

    /// Whether no fact is currently valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The single current value of `(entity, attr)`. For
    /// cardinality-many attributes with several open values this
    /// returns the most recently asserted one.
    pub fn value(&self, entity: EntityId, attr: impl Into<AttrId>) -> Option<Value> {
        let attr = attr.into();
        let ids = self.store.open_by_ea.get(&(entity, attr))?;
        ids.last()
            .and_then(|id| self.store.get(*id))
            .map(|f| f.fact.value)
    }

    /// All current values of `(entity, attr)` in assertion order.
    pub fn values(&self, entity: EntityId, attr: impl Into<AttrId>) -> Vec<Value> {
        let attr = attr.into();
        self.store
            .open_by_ea
            .get(&(entity, attr))
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| self.store.get(*id))
                    .map(|f| f.fact.value)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether `(entity, attr, value)` is currently valid.
    pub fn holds(
        &self,
        entity: EntityId,
        attr: impl Into<AttrId>,
        value: impl Into<Value>,
    ) -> bool {
        let attr = attr.into();
        let value = value.into();
        self.store
            .open_by_ea
            .get(&(entity, attr))
            .is_some_and(|ids| {
                ids.iter()
                    .any(|id| self.store.get(*id).is_some_and(|f| f.fact.value == value))
            })
    }

    /// Open facts about one entity.
    pub fn entity_facts(&self, entity: EntityId) -> impl Iterator<Item = &'a StoredFact> + '_ {
        self.store
            .open_by_entity
            .get(&entity)
            .into_iter()
            .flat_map(|ids| ids.iter())
            .filter_map(|id| self.store.get(*id))
    }

    /// Open facts carrying one attribute (any entity).
    pub fn attr_facts(&self, attr: impl Into<AttrId>) -> impl Iterator<Item = &'a StoredFact> + '_ {
        let attr = attr.into();
        self.store
            .open_by_attr
            .get(&attr)
            .into_iter()
            .flat_map(|ids| ids.iter())
            .filter_map(|id| self.store.get(*id))
    }

    /// Open facts carrying `(attr, value)` (any entity), in fact-id
    /// order: the subset of [`CurrentView::attr_facts`] holding
    /// `value`, read off the reverse index.
    pub fn attr_value_facts(
        &self,
        attr: impl Into<AttrId>,
        value: impl Into<Value>,
    ) -> impl Iterator<Item = &'a StoredFact> + '_ {
        let key = (attr.into(), value.into());
        self.store
            .open_by_attr_value
            .get(&key)
            .into_iter()
            .flat_map(|ids| ids.iter())
            .filter_map(|id| self.store.get(*id))
    }

    /// Entities for which `(attr, value)` is currently valid — the
    /// reverse lookup behind state-gated processing ("only active
    /// users").
    pub fn entities_with(&self, attr: impl Into<AttrId>, value: impl Into<Value>) -> Vec<EntityId> {
        let key = (attr.into(), value.into());
        self.store
            .open_by_attr_value
            .get(&key)
            .map(|ids| {
                let mut out: Vec<EntityId> = ids
                    .iter()
                    .filter_map(|id| self.store.get(*id))
                    .map(|f| f.fact.entity)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .unwrap_or_default()
    }

    /// Number of entities with at least one open fact for `attr`.
    pub fn entity_count_with_attr(&self, attr: impl Into<AttrId>) -> usize {
        let attr = attr.into();
        self.store
            .open_by_attr
            .get(&attr)
            .map(|ids| {
                let mut entities: Vec<EntityId> = ids
                    .iter()
                    .filter_map(|id| self.store.get(*id))
                    .map(|f| f.fact.entity)
                    .collect();
                entities.sort_unstable();
                entities.dedup();
                entities.len()
            })
            .unwrap_or(0)
    }
}

/// A view of the state as it was valid at one past instant `t`,
/// answered from the per-`(entity, attribute)` timelines.
#[derive(Clone, Copy)]
pub struct AsOfView<'a> {
    pub(crate) store: &'a TemporalStore,
    pub(crate) t: Timestamp,
}

impl<'a> AsOfView<'a> {
    /// The probe instant.
    pub fn at(&self) -> Timestamp {
        self.t
    }

    fn valid(&self, id: FactId) -> Option<&'a StoredFact> {
        self.store.get(id).filter(|f| f.validity.contains(self.t))
    }

    /// The value of `(entity, attr)` valid at `t` (newest if several).
    pub fn value(&self, entity: EntityId, attr: impl Into<AttrId>) -> Option<Value> {
        self.entity_facts(entity, attr).next().map(|f| f.fact.value)
    }

    /// All values of `(entity, attr)` valid at `t`.
    pub fn values(&self, entity: EntityId, attr: impl Into<AttrId>) -> Vec<Value> {
        let mut out: Vec<Value> = self
            .entity_facts(entity, attr)
            .map(|f| f.fact.value)
            .collect();
        out.reverse(); // assertion order
        out
    }

    /// Whether `(entity, attr, value)` was valid at `t`.
    pub fn holds(
        &self,
        entity: EntityId,
        attr: impl Into<AttrId>,
        value: impl Into<Value>,
    ) -> bool {
        let value = value.into();
        self.entity_facts(entity, attr)
            .any(|f| f.fact.value == value)
    }

    /// The facts of `(entity, attr)` valid at `t`, newest first, read
    /// off that one timeline (on a disjoint timeline, only its newest
    /// fact starting at or before `t` is looked at).
    pub fn entity_facts(
        &self,
        entity: EntityId,
        attr: impl Into<AttrId>,
    ) -> impl Iterator<Item = &'a StoredFact> + '_ {
        self.store
            .timeline(entity, attr.into())
            .into_iter()
            .flat_map(|tl| tl.candidates_at(self.t))
            .filter_map(|id| self.valid(id))
    }

    /// Every fact valid at `t` (ordered by attribute, then entity).
    pub fn facts(&self) -> Vec<&'a StoredFact> {
        let mut out = Vec::new();
        for tls in self.store.timelines.values() {
            for tl in tls.values() {
                out.extend(tl.candidates_at(self.t).filter_map(|id| self.valid(id)));
            }
        }
        out
    }

    /// Facts valid at `t` carrying `attr`.
    pub fn attr_facts(&self, attr: impl Into<AttrId>) -> Vec<&'a StoredFact> {
        let mut out = Vec::new();
        if let Some(tls) = self.store.timelines.get(&attr.into()) {
            for tl in tls.values() {
                out.extend(tl.candidates_at(self.t).filter_map(|id| self.valid(id)));
            }
        }
        out
    }

    /// Entities for which `(attr, value)` was valid at `t`.
    pub fn entities_with(&self, attr: impl Into<AttrId>, value: impl Into<Value>) -> Vec<EntityId> {
        let attr = attr.into();
        let value = value.into();
        let mut out: Vec<EntityId> = self
            .attr_facts(attr)
            .into_iter()
            .filter(|f| f.fact.value == value)
            .map(|f| f.fact.entity)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrSchema;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    fn sample() -> (TemporalStore, EntityId, EntityId) {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let a = s.named_entity("a");
        let b = s.named_entity("b");
        s.replace_at(a, "room", "lobby", ts(10)).unwrap();
        s.replace_at(b, "room", "lobby", ts(12)).unwrap();
        s.replace_at(a, "room", "lab", ts(20)).unwrap();
        s.assert_at(a, "tag", "vip", ts(11)).unwrap();
        (s, a, b)
    }

    #[test]
    fn current_view_basics() {
        let (s, a, b) = sample();
        let cur = s.current();
        assert_eq!(cur.len(), 3);
        assert!(!cur.is_empty());
        assert_eq!(cur.value(a, "room"), Some(Value::str("lab")));
        assert_eq!(cur.value(b, "room"), Some(Value::str("lobby")));
        assert!(cur.holds(a, "tag", "vip"));
        assert!(!cur.holds(a, "room", "lobby"));
        assert_eq!(cur.entity_facts(a).count(), 2);
        assert_eq!(cur.attr_facts("room").count(), 2);
        assert_eq!(cur.entities_with("room", "lobby"), vec![b]);
        let lobby: Vec<EntityId> = cur
            .attr_value_facts("room", "lobby")
            .map(|f| f.fact.entity)
            .collect();
        assert_eq!(lobby, vec![b]);
        assert_eq!(cur.attr_value_facts("room", "hall").count(), 0);
        assert_eq!(cur.entity_count_with_attr("room"), 2);
    }

    #[test]
    fn as_of_view_basics() {
        let (s, a, b) = sample();
        let v15 = s.as_of(ts(15));
        assert_eq!(v15.at(), ts(15));
        assert_eq!(v15.value(a, "room"), Some(Value::str("lobby")));
        assert!(v15.holds(a, "tag", "vip"));
        let both = v15.entities_with("room", "lobby");
        assert_eq!(both, vec![a, b]);
        // Before anything: empty.
        assert!(s.as_of(ts(5)).facts().is_empty());
        // Between: exactly the valid facts.
        assert_eq!(v15.facts().len(), 3);
        assert_eq!(v15.attr_facts("room").len(), 2);
        let a15: Vec<Value> = v15.entity_facts(a, "room").map(|f| f.fact.value).collect();
        assert_eq!(a15, vec![Value::str("lobby")]);
        assert_eq!(s.as_of(ts(5)).entity_facts(a, "room").count(), 0);
        assert_eq!(v15.entity_facts(b, "tag").count(), 0);
    }

    #[test]
    fn as_of_multi_value_attribute() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "tag", "x", ts(1)).unwrap();
        s.assert_at(e, "tag", "y", ts(2)).unwrap();
        s.retract_at(e, "tag", "x", ts(5)).unwrap();
        let v3 = s.as_of(ts(3));
        assert_eq!(v3.values(e, "tag"), vec![Value::str("x"), Value::str("y")]);
        let v7 = s.as_of(ts(7));
        assert_eq!(v7.values(e, "tag"), vec![Value::str("y")]);
    }
}
