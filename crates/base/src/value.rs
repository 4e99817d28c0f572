//! The dynamically typed value carried by records and state facts.
//!
//! [`Value`] is `Copy`-cheap (one word of payload), totally ordered,
//! and hashable — floats are compared with IEEE-754 total ordering so
//! values can serve as index and join keys without surprises. `NaN`
//! therefore equals itself and sorts above `+∞`.

use crate::symbol::Symbol;
use crate::time::Timestamp;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of an entity in the state repository (EAV model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EntityId(pub u64);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A dynamically typed scalar value.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (totally ordered; see module docs).
    Float(f64),
    /// Interned string.
    Str(Symbol),
    /// Reference to a state entity.
    Id(EntityId),
    /// A point in logical time (so rules/queries can compare times).
    Time(Timestamp),
}

impl Value {
    /// Intern `s` and wrap it.
    pub fn str(s: &str) -> Value {
        Value::Str(Symbol::intern(s))
    }

    /// Rank of the variant, used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Id(_) => 5,
            Value::Time(_) => 6,
        }
    }

    /// Human-readable type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Id(_) => "id",
            Value::Time(_) => "time",
        }
    }

    /// `true` unless the value is `Null` or `Bool(false)`.
    ///
    /// This is the truthiness used by filter predicates: a predicate
    /// that evaluates to a non-boolean non-null value passes.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Null | Value::Bool(false))
    }

    /// Extract a bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Extract an interned string, if this is one.
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Extract an entity id, if this is one.
    pub fn as_id(&self) -> Option<EntityId> {
        match self {
            Value::Id(e) => Some(*e),
            _ => None,
        }
    }

    /// Extract a timestamp, if this is one.
    pub fn as_time(&self) -> Option<Timestamp> {
        match self {
            Value::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Numeric comparison that treats `Int` and `Float` as one numeric
    /// tower; other types compare only within their own type. Returns
    /// `None` for cross-type comparisons (other than int/float).
    pub fn partial_cmp_numeric(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(cmp_str(*a, *b)),
            (Id(a), Id(b)) => Some(a.cmp(b)),
            (Time(a), Time(b)) => Some(a.cmp(b)),
            (Null, Null) => Some(Ordering::Equal),
            _ => None,
        }
    }
}

/// Lexicographic order of two interned strings. Interning keeps one
/// symbol per string, so equal symbols are equal text and need no
/// resolution.
fn cmp_str(a: Symbol, b: Symbol) -> Ordering {
    if a == b {
        Ordering::Equal
    } else {
        a.as_str().cmp(b.as_str())
    }
}

impl PartialEq for Value {
    /// Agrees with [`Ord`]; strings compare by symbol.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: values order by type rank first, then within the
    /// type. Ints and floats that are *numerically equal but of
    /// different type* are **not** equal under this order (it must be
    /// a total order usable as a BTree key); use
    /// [`Value::partial_cmp_numeric`] for numeric-tower comparison.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => cmp_str(*a, *b),
            (Id(a), Id(b)) => a.cmp(b),
            (Time(a), Time(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            // to_bits is consistent with total_cmp equality except for
            // distinct NaN payloads, which we normalize.
            Value::Float(f) => {
                let bits = if f.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    f.to_bits()
                };
                bits.hash(state);
            }
            // One symbol per string, so the index is as good as the text
            // (never persisted or routed on: shard routing hashes text).
            Value::Str(s) => s.index().hash(state),
            Value::Id(e) => e.hash(state),
            Value::Time(t) => t.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // Keep a decimal point so floats re-parse as floats.
            Value::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{:?}", s.as_str()),
            Value::Id(e) => write!(f, "{e}"),
            Value::Time(t) => write!(f, "{t}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<Symbol> for Value {
    fn from(v: Symbol) -> Self {
        Value::Str(v)
    }
}
impl From<EntityId> for Value {
    fn from(v: EntityId) -> Self {
        Value::Id(v)
    }
}
impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Time(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_within_types() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Int(4));
        assert_eq!(Value::str("a"), Value::str("a"));
        assert_ne!(Value::str("a"), Value::str("b"));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn int_float_not_eq_in_total_order() {
        // Total order used by indexes must keep types apart…
        assert_ne!(Value::Int(3), Value::Float(3.0));
        // …but numeric comparison unifies the tower.
        assert_eq!(
            Value::Int(3).partial_cmp_numeric(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(3).partial_cmp_numeric(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn nan_is_self_equal_and_hash_consistent() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        // NaN sorts above +inf in total order.
        assert!(Value::Float(f64::INFINITY) < a);
    }

    #[test]
    fn eq_implies_hash_eq() {
        let pairs = [
            (Value::Int(7), Value::Int(7)),
            (Value::str("x"), Value::str("x")),
            (Value::str("zz-hash"), Value::str("zz-hash")),
            (Value::str("aa-hash"), Value::str(&["aa", "-hash"].concat())),
            (Value::Bool(true), Value::Bool(true)),
            (Value::Float(1.5), Value::Float(1.5)),
            (
                Value::Time(Timestamp::new(9)),
                Value::Time(Timestamp::new(9)),
            ),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn strings_order_by_text_not_interning_order() {
        // Interned first, so its symbol index is the smaller one.
        let zz = Value::str("zz-value-order");
        let aa = Value::str("aa-value-order");
        let (Value::Str(zz_sym), Value::Str(aa_sym)) = (zz, aa) else {
            unreachable!()
        };
        assert!(zz_sym < aa_sym);
        assert_eq!(aa.cmp(&zz), Ordering::Less);
        assert_eq!(zz.cmp(&aa), Ordering::Greater);
        assert_eq!(aa.partial_cmp_numeric(&zz), Some(Ordering::Less));
        let mut sorted = [zz, Value::str("mm-value-order"), aa];
        sorted.sort();
        let texts: Vec<&str> = sorted.iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(
            texts,
            ["aa-value-order", "mm-value-order", "zz-value-order"]
        );
        // `==` holds exactly when the texts match.
        let again = Value::str(&["zz-", "value-order"].concat());
        assert_eq!(zz, again);
        assert_eq!(zz.cmp(&again), Ordering::Equal);
        assert_eq!(hash_of(&zz), hash_of(&again));
        assert_ne!(zz, aa);
        assert_ne!(Value::str("zz-value-order"), Value::str("zz-value-order "));
        // A string never equals another type holding the "same" text.
        assert_ne!(Value::str("1"), Value::Int(1));
        assert_ne!(Value::str("null"), Value::Null);
    }

    #[test]
    fn value_keys_group_strings_by_symbol() {
        use std::collections::HashMap;
        let mut groups: HashMap<(Value, Value), u32> = HashMap::new();
        for (e, v) in [("ga", 1), ("gb", 2), ("ga", 3)] {
            *groups.entry((Value::str(e), Value::Null)).or_default() += v;
        }
        assert_eq!(groups[&(Value::str("ga"), Value::Null)], 4);
        assert_eq!(groups[&(Value::str("gb"), Value::Null)], 2);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Int(0).is_truthy());
        assert!(Value::str("").is_truthy());
    }

    #[test]
    fn cross_type_order_is_stable() {
        let mut vals = [
            Value::str("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
            Value::Id(EntityId(2)),
            Value::Time(Timestamp::new(1)),
        ];
        vals.sort();
        let ranks: Vec<u8> = vals.iter().map(|v| v.type_rank()).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Id(EntityId(9)).as_id(), Some(EntityId(9)));
        assert_eq!(
            Value::Time(Timestamp::new(3)).as_time(),
            Some(Timestamp::new(3))
        );
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::str("a").to_string(), "\"a\"");
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Id(EntityId(4)).to_string(), "#4");
    }
}
