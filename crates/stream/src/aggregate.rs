//! Incremental, invertible, and mergeable aggregate functions.
//!
//! Every aggregate supports three evaluation regimes so the window
//! operators can offer the strategies compared in experiment E9:
//!
//! * **add-only** (recompute / tumbling): [`Accumulator::add`];
//! * **invertible** (incremental sliding): [`Accumulator::remove`] —
//!   min/max stay exact by keeping a multiset;
//! * **mergeable** (pane-based sliding, Li et al. \[10\]):
//!   [`Accumulator::merge`] combines per-pane partials.
//!
//! Null input values are skipped (SQL semantics); `Count` counts rows,
//! not values.

use fenestra_base::record::{FieldId, Record};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::Timestamp;
use fenestra_base::value::Value;
use std::collections::BTreeMap;

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Numeric sum (int unless a float was seen).
    Sum,
    /// Arithmetic mean (always float).
    Avg,
    /// Minimum (exact under removal: multiset-backed).
    Min,
    /// Maximum (exact under removal: multiset-backed).
    Max,
    /// Number of distinct values.
    CountDistinct,
    /// Value of the earliest event (by timestamp, then arrival).
    First,
    /// Value of the latest event (by timestamp, then arrival).
    Last,
    /// Population variance of the numeric values.
    Var,
    /// Population standard deviation of the numeric values.
    Stddev,
}

impl AggFunc {
    /// DSL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::First => "first",
            AggFunc::Last => "last",
            AggFunc::Var => "var",
            AggFunc::Stddev => "stddev",
        }
    }

    /// Look up by DSL name.
    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "count_distinct" => AggFunc::CountDistinct,
            "first" => AggFunc::First,
            "last" => AggFunc::Last,
            "var" => AggFunc::Var,
            "stddev" => AggFunc::Stddev,
            _ => return None,
        })
    }
}

/// One aggregate column: function, input field, output field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input field (ignored by `Count`).
    pub field: Option<FieldId>,
    /// Name of the output field carrying the result.
    pub output: FieldId,
}

impl AggSpec {
    /// `count(*) as output`.
    pub fn count(output: impl Into<Symbol>) -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            field: None,
            output: output.into(),
        }
    }

    /// `func(field) as output`.
    pub fn new(func: AggFunc, field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec {
            func,
            field: Some(field.into()),
            output: output.into(),
        }
    }

    /// `sum(field) as output`.
    pub fn sum(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Sum, field, output)
    }

    /// `avg(field) as output`.
    pub fn avg(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Avg, field, output)
    }

    /// `min(field) as output`.
    pub fn min(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Min, field, output)
    }

    /// `max(field) as output`.
    pub fn max(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Max, field, output)
    }

    /// `count_distinct(field) as output`.
    pub fn count_distinct(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::CountDistinct, field, output)
    }

    /// `first(field) as output`.
    pub fn first(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::First, field, output)
    }

    /// `last(field) as output`.
    pub fn last(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Last, field, output)
    }

    /// `var(field) as output`.
    pub fn var(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Var, field, output)
    }

    /// `stddev(field) as output`.
    pub fn stddev(field: impl Into<Symbol>, output: impl Into<Symbol>) -> AggSpec {
        AggSpec::new(AggFunc::Stddev, field, output)
    }

    /// Extract this spec's input value from a record.
    pub fn input(&self, rec: &Record) -> Value {
        match self.field {
            Some(f) => rec.get_or_null(f),
            None => Value::Null,
        }
    }
}

#[derive(Debug, Clone)]
enum AccState {
    Count(u64),
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        n: u64,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    /// Multiset of values — exact min/max under removal.
    Extreme {
        is_min: bool,
        bag: BTreeMap<Value, u64>,
    },
    Distinct(BTreeMap<Value, u64>),
    /// (timestamp, sequence) → value; first/last by key order.
    Edge {
        is_first: bool,
        bag: BTreeMap<(Timestamp, u64), Value>,
        seq: u64,
    },
    /// Sum / sum-of-squares moments for variance & stddev.
    Moments {
        is_stddev: bool,
        n: u64,
        sum: f64,
        sum_sq: f64,
    },
}

/// Running state of one aggregate.
#[derive(Debug, Clone)]
pub struct Accumulator {
    state: AccState,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Accumulator {
        let state = match func {
            AggFunc::Count => AccState::Count(0),
            AggFunc::Sum => AccState::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                n: 0,
            },
            AggFunc::Avg => AccState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AccState::Extreme {
                is_min: true,
                bag: BTreeMap::new(),
            },
            AggFunc::Max => AccState::Extreme {
                is_min: false,
                bag: BTreeMap::new(),
            },
            AggFunc::CountDistinct => AccState::Distinct(BTreeMap::new()),
            AggFunc::First => AccState::Edge {
                is_first: true,
                bag: BTreeMap::new(),
                seq: 0,
            },
            AggFunc::Last => AccState::Edge {
                is_first: false,
                bag: BTreeMap::new(),
                seq: 0,
            },
            AggFunc::Var => AccState::Moments {
                is_stddev: false,
                n: 0,
                sum: 0.0,
                sum_sq: 0.0,
            },
            AggFunc::Stddev => AccState::Moments {
                is_stddev: true,
                n: 0,
                sum: 0.0,
                sum_sq: 0.0,
            },
        };
        Accumulator { state }
    }

    /// Fold in one value observed at `ts`.
    pub fn add(&mut self, v: Value, ts: Timestamp) {
        match &mut self.state {
            AccState::Count(n) => *n += 1,
            AccState::Sum {
                int,
                float,
                saw_float,
                n,
            } => match v {
                Value::Int(i) => {
                    *int = int.wrapping_add(i);
                    *n += 1;
                }
                Value::Float(f) => {
                    *float += f;
                    *saw_float = true;
                    *n += 1;
                }
                _ => {}
            },
            AccState::Avg { sum, n } => {
                if let Some(f) = v.as_f64() {
                    *sum += f;
                    *n += 1;
                }
            }
            AccState::Extreme { bag, .. } => {
                if !matches!(v, Value::Null) {
                    *bag.entry(v).or_insert(0) += 1;
                }
            }
            AccState::Distinct(bag) => {
                if !matches!(v, Value::Null) {
                    *bag.entry(v).or_insert(0) += 1;
                }
            }
            AccState::Edge { bag, seq, .. } => {
                if !matches!(v, Value::Null) {
                    bag.insert((ts, *seq), v);
                    *seq += 1;
                }
            }
            AccState::Moments { n, sum, sum_sq, .. } => {
                if let Some(f) = v.as_f64() {
                    *n += 1;
                    *sum += f;
                    *sum_sq += f * f;
                }
            }
        }
    }

    /// Remove a previously added value (invertible regime). Removing a
    /// value that was never added leaves min/max/distinct silently
    /// unchanged (the window operator guarantees pairing).
    pub fn remove(&mut self, v: Value, ts: Timestamp) {
        match &mut self.state {
            AccState::Count(n) => *n = n.saturating_sub(1),
            AccState::Sum {
                int,
                float,
                saw_float: _,
                n,
            } => match v {
                Value::Int(i) => {
                    *int = int.wrapping_sub(i);
                    *n = n.saturating_sub(1);
                }
                Value::Float(f) => {
                    *float -= f;
                    *n = n.saturating_sub(1);
                }
                _ => {}
            },
            AccState::Avg { sum, n } => {
                if let Some(f) = v.as_f64() {
                    *sum -= f;
                    *n = n.saturating_sub(1);
                }
            }
            AccState::Extreme { bag, .. } => {
                if let Some(c) = bag.get_mut(&v) {
                    *c -= 1;
                    if *c == 0 {
                        bag.remove(&v);
                    }
                }
            }
            AccState::Distinct(bag) => {
                if let Some(c) = bag.get_mut(&v) {
                    *c -= 1;
                    if *c == 0 {
                        bag.remove(&v);
                    }
                }
            }
            AccState::Edge { bag, .. } => {
                // Remove the oldest entry at this timestamp with this value.
                let key = bag
                    .iter()
                    .find(|((t, _), val)| *t == ts && **val == v)
                    .map(|(k, _)| *k);
                if let Some(k) = key {
                    bag.remove(&k);
                }
            }
            AccState::Moments { n, sum, sum_sq, .. } => {
                if let Some(f) = v.as_f64() {
                    *n = n.saturating_sub(1);
                    *sum -= f;
                    *sum_sq -= f * f;
                }
            }
        }
    }

    /// Combine another accumulator of the *same function* into this one
    /// (pane merging). Panics in debug builds on mismatched kinds.
    pub fn merge(&mut self, other: &Accumulator) {
        match (&mut self.state, &other.state) {
            (AccState::Count(a), AccState::Count(b)) => *a += b,
            (
                AccState::Sum {
                    int: ai,
                    float: af,
                    saw_float: asf,
                    n: an,
                },
                AccState::Sum {
                    int: bi,
                    float: bf,
                    saw_float: bsf,
                    n: bn,
                },
            ) => {
                *ai = ai.wrapping_add(*bi);
                *af += bf;
                *asf |= bsf;
                *an += bn;
            }
            (AccState::Avg { sum: a, n: an }, AccState::Avg { sum: b, n: bn }) => {
                *a += b;
                *an += bn;
            }
            (AccState::Extreme { bag: a, .. }, AccState::Extreme { bag: b, .. }) => {
                for (v, c) in b {
                    *a.entry(*v).or_insert(0) += c;
                }
            }
            (AccState::Distinct(a), AccState::Distinct(b)) => {
                for (v, c) in b {
                    *a.entry(*v).or_insert(0) += c;
                }
            }
            (AccState::Edge { bag: a, seq, .. }, AccState::Edge { bag: b, .. }) => {
                for ((t, _), v) in b {
                    a.insert((*t, *seq), *v);
                    *seq += 1;
                }
            }
            (
                AccState::Moments {
                    n: an,
                    sum: asum,
                    sum_sq: asq,
                    ..
                },
                AccState::Moments {
                    n: bn,
                    sum: bsum,
                    sum_sq: bsq,
                    ..
                },
            ) => {
                *an += bn;
                *asum += bsum;
                *asq += bsq;
            }
            _ => debug_assert!(false, "merging accumulators of different kinds"),
        }
    }

    /// Current aggregate value.
    pub fn value(&self) -> Value {
        match &self.state {
            AccState::Count(n) => Value::Int(*n as i64),
            AccState::Sum {
                int,
                float,
                saw_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *saw_float {
                    Value::Float(*int as f64 + *float)
                } else {
                    Value::Int(*int)
                }
            }
            AccState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
            AccState::Extreme { is_min, bag } => {
                let kv = if *is_min {
                    bag.keys().next()
                } else {
                    bag.keys().next_back()
                };
                kv.copied().unwrap_or(Value::Null)
            }
            AccState::Distinct(bag) => Value::Int(bag.len() as i64),
            AccState::Edge { is_first, bag, .. } => {
                let kv = if *is_first {
                    bag.values().next()
                } else {
                    bag.values().next_back()
                };
                kv.copied().unwrap_or(Value::Null)
            }
            AccState::Moments {
                is_stddev,
                n,
                sum,
                sum_sq,
            } => {
                if *n == 0 {
                    Value::Null
                } else {
                    let nf = *n as f64;
                    let mean = sum / nf;
                    // Clamp tiny negative values from float cancellation.
                    let var = (sum_sq / nf - mean * mean).max(0.0);
                    Value::Float(if *is_stddev { var.sqrt() } else { var })
                }
            }
        }
    }

    /// Whether the accumulator has absorbed no (non-null) input.
    pub fn is_empty(&self) -> bool {
        match &self.state {
            AccState::Count(n) => *n == 0,
            AccState::Sum { n, .. } | AccState::Avg { n, .. } => *n == 0,
            AccState::Extreme { bag, .. } => bag.is_empty(),
            AccState::Distinct(bag) => bag.is_empty(),
            AccState::Edge { bag, .. } => bag.is_empty(),
            AccState::Moments { n, .. } => *n == 0,
        }
    }
}

/// A bank of accumulators matching a slice of [`AggSpec`]s, filled from
/// records.
#[derive(Debug, Clone)]
pub struct AccumulatorBank {
    accs: Vec<Accumulator>,
}

impl AccumulatorBank {
    /// One accumulator per spec.
    pub fn new(specs: &[AggSpec]) -> AccumulatorBank {
        AccumulatorBank {
            accs: specs.iter().map(|s| Accumulator::new(s.func)).collect(),
        }
    }

    /// Fold a record in.
    pub fn add(&mut self, specs: &[AggSpec], rec: &Record, ts: Timestamp) {
        for (acc, spec) in self.accs.iter_mut().zip(specs) {
            match spec.func {
                AggFunc::Count => acc.add(Value::Null, ts),
                _ => acc.add(spec.input(rec), ts),
            }
        }
    }

    /// Fold in a row whose every input field carries `value` (a
    /// single-column row), without building a record.
    pub fn add_value(&mut self, specs: &[AggSpec], value: Value, ts: Timestamp) {
        for (acc, spec) in self.accs.iter_mut().zip(specs) {
            match (spec.func, spec.field) {
                (AggFunc::Count, _) | (_, None) => acc.add(Value::Null, ts),
                _ => acc.add(value, ts),
            }
        }
    }

    /// Remove a previously folded record.
    pub fn remove(&mut self, specs: &[AggSpec], rec: &Record, ts: Timestamp) {
        for (acc, spec) in self.accs.iter_mut().zip(specs) {
            match spec.func {
                AggFunc::Count => acc.remove(Value::Null, ts),
                _ => acc.remove(spec.input(rec), ts),
            }
        }
    }

    /// Merge another bank (same specs).
    pub fn merge(&mut self, other: &AccumulatorBank) {
        for (a, b) in self.accs.iter_mut().zip(&other.accs) {
            a.merge(b);
        }
    }

    /// Materialize the outputs into `rec`.
    pub fn write_outputs(&self, specs: &[AggSpec], rec: &mut Record) {
        for (acc, spec) in self.accs.iter().zip(specs) {
            rec.set(spec.output, acc.value());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    #[test]
    fn count_add_remove() {
        let mut a = Accumulator::new(AggFunc::Count);
        assert_eq!(a.value(), Value::Int(0));
        a.add(Value::Null, ts(1));
        a.add(Value::Null, ts(2));
        assert_eq!(a.value(), Value::Int(2));
        a.remove(Value::Null, ts(1));
        assert_eq!(a.value(), Value::Int(1));
    }

    #[test]
    fn sum_int_then_float_promotes() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.add(Value::Int(3), ts(1));
        assert_eq!(a.value(), Value::Int(3));
        a.add(Value::Float(0.5), ts(2));
        assert_eq!(a.value(), Value::Float(3.5));
        a.remove(Value::Int(3), ts(1));
        assert_eq!(a.value(), Value::Float(0.5));
    }

    #[test]
    fn sum_empty_is_null_and_skips_nonnumeric() {
        let mut a = Accumulator::new(AggFunc::Sum);
        assert_eq!(a.value(), Value::Null);
        a.add(Value::str("x"), ts(1));
        assert_eq!(a.value(), Value::Null, "non-numeric skipped");
        a.add(Value::Null, ts(2));
        assert_eq!(a.value(), Value::Null);
    }

    #[test]
    fn avg() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.add(Value::Int(1), ts(1));
        a.add(Value::Int(2), ts(2));
        a.add(Value::Int(6), ts(3));
        assert_eq!(a.value(), Value::Float(3.0));
        a.remove(Value::Int(6), ts(3));
        assert_eq!(a.value(), Value::Float(1.5));
    }

    #[test]
    fn min_max_exact_under_removal() {
        let mut mn = Accumulator::new(AggFunc::Min);
        let mut mx = Accumulator::new(AggFunc::Max);
        for v in [5i64, 3, 9, 3] {
            mn.add(Value::Int(v), ts(1));
            mx.add(Value::Int(v), ts(1));
        }
        assert_eq!(mn.value(), Value::Int(3));
        assert_eq!(mx.value(), Value::Int(9));
        // Remove one 3: min still 3 (duplicate remains).
        mn.remove(Value::Int(3), ts(1));
        assert_eq!(mn.value(), Value::Int(3));
        mn.remove(Value::Int(3), ts(1));
        assert_eq!(mn.value(), Value::Int(5));
        mx.remove(Value::Int(9), ts(1));
        assert_eq!(mx.value(), Value::Int(5));
    }

    #[test]
    fn count_distinct() {
        let mut a = Accumulator::new(AggFunc::CountDistinct);
        for v in ["x", "y", "x", "z"] {
            a.add(Value::str(v), ts(1));
        }
        assert_eq!(a.value(), Value::Int(3));
        a.remove(Value::str("x"), ts(1));
        assert_eq!(a.value(), Value::Int(3), "one x remains");
        a.remove(Value::str("x"), ts(1));
        assert_eq!(a.value(), Value::Int(2));
    }

    #[test]
    fn first_last_by_time() {
        let mut f = Accumulator::new(AggFunc::First);
        let mut l = Accumulator::new(AggFunc::Last);
        for (t, v) in [(5u64, "b"), (1, "a"), (9, "c")] {
            f.add(Value::str(v), ts(t));
            l.add(Value::str(v), ts(t));
        }
        assert_eq!(f.value(), Value::str("a"));
        assert_eq!(l.value(), Value::str("c"));
        l.remove(Value::str("c"), ts(9));
        assert_eq!(l.value(), Value::str("b"));
    }

    #[test]
    fn merge_matches_sequential_adds() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
            AggFunc::First,
            AggFunc::Last,
            AggFunc::Var,
            AggFunc::Stddev,
        ] {
            let vals = [3i64, 1, 4, 1, 5, 9, 2, 6];
            let mut whole = Accumulator::new(func);
            for (i, v) in vals.iter().enumerate() {
                whole.add(Value::Int(*v), ts(i as u64));
            }
            let mut left = Accumulator::new(func);
            let mut right = Accumulator::new(func);
            for (i, v) in vals.iter().enumerate() {
                let acc = if i < 4 { &mut left } else { &mut right };
                acc.add(Value::Int(*v), ts(i as u64));
            }
            left.merge(&right);
            assert_eq!(left.value(), whole.value(), "merge mismatch for {func:?}");
        }
    }

    #[test]
    fn bank_end_to_end() {
        let specs = vec![
            AggSpec::count("n"),
            AggSpec::sum("amount", "total"),
            AggSpec::max("amount", "peak"),
        ];
        let mut bank = AccumulatorBank::new(&specs);
        for (t, amt) in [(1u64, 10i64), (2, 30), (3, 20)] {
            bank.add(&specs, &Record::from_pairs([("amount", amt)]), ts(t));
        }
        let mut out = Record::new();
        bank.write_outputs(&specs, &mut out);
        assert_eq!(out.get("n"), Some(&Value::Int(3)));
        assert_eq!(out.get("total"), Some(&Value::Int(60)));
        assert_eq!(out.get("peak"), Some(&Value::Int(30)));
        bank.remove(&specs, &Record::from_pairs([("amount", 30i64)]), ts(2));
        let mut out = Record::new();
        bank.write_outputs(&specs, &mut out);
        assert_eq!(out.get("n"), Some(&Value::Int(2)));
        assert_eq!(out.get("total"), Some(&Value::Int(30)));
        assert_eq!(out.get("peak"), Some(&Value::Int(20)));
    }

    #[test]
    fn add_value_matches_single_field_records() {
        let specs = vec![
            AggSpec::count("n"),
            AggSpec::sum("amount", "total"),
            AggSpec::min("amount", "lo"),
        ];
        let mut by_record = AccumulatorBank::new(&specs);
        let mut by_value = AccumulatorBank::new(&specs);
        for (t, amt) in [(1u64, 10i64), (2, 30), (3, 20)] {
            by_record.add(&specs, &Record::from_pairs([("amount", amt)]), ts(t));
            by_value.add_value(&specs, Value::Int(amt), ts(t));
        }
        let (mut a, mut b) = (Record::new(), Record::new());
        by_record.write_outputs(&specs, &mut a);
        by_value.write_outputs(&specs, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn var_and_stddev() {
        let mut v = Accumulator::new(AggFunc::Var);
        let mut s = Accumulator::new(AggFunc::Stddev);
        assert_eq!(v.value(), Value::Null);
        for x in [2i64, 4, 4, 4, 5, 5, 7, 9] {
            v.add(Value::Int(x), ts(1));
            s.add(Value::Int(x), ts(1));
        }
        // Classic example: variance 4, stddev 2.
        assert_eq!(v.value(), Value::Float(4.0));
        assert_eq!(s.value(), Value::Float(2.0));
        // Invertible: remove the 9, recompute matches a fresh fold.
        v.remove(Value::Int(9), ts(1));
        let mut fresh = Accumulator::new(AggFunc::Var);
        for x in [2i64, 4, 4, 4, 5, 5, 7] {
            fresh.add(Value::Int(x), ts(1));
        }
        let got = v.value().as_f64().unwrap();
        let want = fresh.value().as_f64().unwrap();
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn agg_func_names_round_trip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
            AggFunc::First,
            AggFunc::Last,
            AggFunc::Var,
            AggFunc::Stddev,
        ] {
            assert_eq!(AggFunc::by_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::by_name("median"), None);
    }
}
