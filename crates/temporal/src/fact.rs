//! Facts and stored state elements.

use fenestra_base::symbol::Symbol;
use fenestra_base::time::Interval;
use fenestra_base::value::{EntityId, Value};
use std::fmt;

/// Interned attribute name.
pub type AttrId = Symbol;

/// Identifier of a stored fact (index into the store's arena). An id
/// names the same fact for as long as that fact is stored. Once GC
/// reclaims the fact, its id resolves to `None` until a later assert
/// reuses the slot, so ids are neither permanent nor in assertion
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactId(pub u64);

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An EAV fact: the timeless part of a state element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// The entity the fact is about.
    pub entity: EntityId,
    /// The attribute (interned name).
    pub attr: AttrId,
    /// The value.
    pub value: Value,
}

impl Fact {
    /// Construct a fact.
    pub fn new(entity: EntityId, attr: impl Into<AttrId>, value: impl Into<Value>) -> Fact {
        Fact {
            entity,
            attr: attr.into(),
            value: value.into(),
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} {})", self.entity, self.attr, self.value)
    }
}

/// Who put a fact into the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Asserted directly through the store API.
    External,
    /// Asserted by a state-management rule (the rule's name).
    Rule(Symbol),
    /// Derived by the reasoning component (the ontology rule's name).
    Derived(Symbol),
}

impl Provenance {
    /// Whether the fact was produced by reasoning (derived facts are
    /// maintained by the reasoner, not retracted by users).
    pub fn is_derived(&self) -> bool {
        matches!(self, Provenance::Derived(_))
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::External => write!(f, "external"),
            Provenance::Rule(r) => write!(f, "rule:{r}"),
            Provenance::Derived(r) => write!(f, "derived:{r}"),
        }
    }
}

/// A state element: a fact plus its time of validity and provenance.
///
/// This is exactly the paper's notion of state: "a collection of data
/// elements annotated with their time of validity".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredFact {
    /// The fact identifier (arena index).
    pub id: FactId,
    /// The EAV triple.
    pub fact: Fact,
    /// Half-open validity interval.
    pub validity: Interval,
    /// Who asserted it.
    pub provenance: Provenance,
}

impl StoredFact {
    /// Whether the fact is currently valid (open interval).
    pub fn is_open(&self) -> bool {
        self.validity.is_open()
    }
}

impl fmt::Display for StoredFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.fact, self.validity, self.provenance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::time::Timestamp;

    #[test]
    fn fact_display() {
        let f = Fact::new(EntityId(1), "room", "lobby");
        assert_eq!(f.to_string(), "(#1 room \"lobby\")");
    }

    #[test]
    fn provenance_kinds() {
        assert!(!Provenance::External.is_derived());
        assert!(!Provenance::Rule(Symbol::intern("r")).is_derived());
        assert!(Provenance::Derived(Symbol::intern("subclass")).is_derived());
        assert_eq!(
            Provenance::Rule(Symbol::intern("move")).to_string(),
            "rule:move"
        );
    }

    #[test]
    fn stored_fact_openness() {
        let sf = StoredFact {
            id: FactId(0),
            fact: Fact::new(EntityId(1), "a", 1i64),
            validity: Interval::open(Timestamp::new(5)),
            provenance: Provenance::External,
        };
        assert!(sf.is_open());
        let mut closed = sf;
        closed.validity.close_at(Timestamp::new(9));
        assert!(!closed.is_open());
    }
}
