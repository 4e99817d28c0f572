//! A small expression language over [`Value`]s.
//!
//! Expressions are shared by stream filter/map operators, the
//! state-management rule DSL, and the query engine's `FILTER` clauses.
//! Evaluation resolves free names through a [`Scope`]; each host
//! supplies its own scope (event fields, rule bindings, query variable
//! bindings).
//!
//! Semantics:
//! * Arithmetic follows a numeric tower: `Int ∘ Int → Int` (wrapping is
//!   an error-free i64 op; overflow panics in debug like normal Rust),
//!   any float operand promotes to `Float`.
//! * Comparison uses [`Value::partial_cmp_numeric`]; comparing
//!   incompatible types is a type error (not `false`) so bugs surface.
//! * Equality (`==`, `!=`) is defined across all types: `Int 3` equals
//!   `Float 3.0` (numeric-tower equality) but `Int 3 != Str "3"` is
//!   simply `true`.
//! * `And`/`Or` short-circuit on truthiness ([`Value::is_truthy`]).
//! * `Null` propagates through arithmetic (any `Null` operand yields
//!   `Null`) and compares equal only to `Null` under `==`.

use crate::error::{Error, Result};
use crate::symbol::Symbol;
use crate::value::Value;
use std::fmt;

/// Name resolution environment for expression evaluation.
pub trait Scope {
    /// Resolve a free name to a value. `None` means unbound (an error
    /// for [`Expr::Name`], distinguishable from a present-but-`Null`
    /// binding).
    fn lookup(&self, name: Symbol) -> Option<Value>;
}

/// The empty scope: every name is unbound.
pub struct EmptyScope;

impl Scope for EmptyScope {
    fn lookup(&self, _name: Symbol) -> Option<Value> {
        None
    }
}

/// A scope backed by a slice of bindings (linear scan; fine for the
/// handful of names rules bind).
pub struct SliceScope<'a>(pub &'a [(Symbol, Value)]);

impl Scope for SliceScope<'_> {
    fn lookup(&self, name: Symbol) -> Option<Value> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division when both operands are ints).
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (short-circuit)
    And,
    /// `or` (short-circuit)
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical not (truthiness-based).
    Not,
}

/// Built-in functions callable from expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// Absolute value of a number.
    Abs,
    /// Smaller of two values (numeric tower).
    Min,
    /// Larger of two values (numeric tower).
    Max,
    /// String containment test.
    Contains,
    /// String prefix test.
    StartsWith,
    /// Length of a string, in bytes.
    Len,
    /// Coalesce: first non-null argument.
    Coalesce,
}

impl Func {
    /// Function name as written in the DSLs.
    pub fn name(self) -> &'static str {
        match self {
            Func::Abs => "abs",
            Func::Min => "min",
            Func::Max => "max",
            Func::Contains => "contains",
            Func::StartsWith => "starts_with",
            Func::Len => "len",
            Func::Coalesce => "coalesce",
        }
    }

    /// Look a function up by its DSL name.
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name {
            "abs" => Func::Abs,
            "min" => Func::Min,
            "max" => Func::Max,
            "contains" => Func::Contains,
            "starts_with" => Func::StartsWith,
            "len" => Func::Len,
            "coalesce" => Func::Coalesce,
            _ => return None,
        })
    }

    /// Expected argument count, or `None` for variadic.
    pub fn arity(self) -> Option<usize> {
        match self {
            Func::Abs | Func::Len => Some(1),
            Func::Min | Func::Max | Func::Contains | Func::StartsWith => Some(2),
            Func::Coalesce => None,
        }
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A free name resolved through the [`Scope`] (event field, rule
    /// binding, or query variable, depending on the host).
    Name(Symbol),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call.
    Call(Func, Vec<Expr>),
}

impl Expr {
    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Name helper.
    pub fn name(n: impl Into<Symbol>) -> Expr {
        Expr::Name(n.into())
    }

    /// `self == other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self != other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self and other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(self), Box::new(other))
    }

    /// `self or other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(self), Box::new(other))
    }

    /// `self + other`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(other))
    }

    /// `not self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(self))
    }

    /// Collect the free names referenced anywhere in the expression.
    pub fn free_names(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_names(&self, out: &mut Vec<Symbol>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Name(n) => out.push(*n),
            Expr::Unary(_, e) => e.collect_names(out),
            Expr::Binary(_, a, b) => {
                a.collect_names(out);
                b.collect_names(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_names(out);
                }
            }
        }
    }

    /// Evaluate under `scope`.
    pub fn eval(&self, scope: &dyn Scope) -> Result<Value> {
        match self {
            Expr::Lit(v) => Ok(*v),
            Expr::Name(n) => scope
                .lookup(*n)
                .ok_or_else(|| Error::UnboundName(n.as_str().to_owned())),
            Expr::Unary(op, e) => {
                let v = e.eval(scope)?;
                eval_unary(*op, v)
            }
            Expr::Binary(op, a, b) => match op {
                BinOp::And => {
                    let va = a.eval(scope)?;
                    if !va.is_truthy() {
                        Ok(Value::Bool(false))
                    } else {
                        Ok(Value::Bool(b.eval(scope)?.is_truthy()))
                    }
                }
                BinOp::Or => {
                    let va = a.eval(scope)?;
                    if va.is_truthy() {
                        Ok(Value::Bool(true))
                    } else {
                        Ok(Value::Bool(b.eval(scope)?.is_truthy()))
                    }
                }
                _ => {
                    let va = a.eval(scope)?;
                    let vb = b.eval(scope)?;
                    eval_binary(*op, va, vb)
                }
            },
            Expr::Call(f, args) => {
                if let Some(n) = f.arity() {
                    if args.len() != n {
                        return Err(Error::Invalid(format!(
                            "{} expects {} argument(s), got {}",
                            f.name(),
                            n,
                            args.len()
                        )));
                    }
                }
                let vals: Vec<Value> = args.iter().map(|a| a.eval(scope)).collect::<Result<_>>()?;
                eval_call(*f, &vals)
            }
        }
    }

    /// Evaluate as a predicate: truthiness of the result.
    pub fn eval_bool(&self, scope: &dyn Scope) -> Result<bool> {
        Ok(self.eval(scope)?.is_truthy())
    }
}

fn eval_unary(op: UnOp, v: Value) -> Result<Value> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.is_truthy())),
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(Error::type_err("negation", other.type_name().to_owned())),
        },
    }
}

fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => eval_arith(op, a, b),
        Eq => Ok(Value::Bool(values_equal(&a, &b))),
        Ne => Ok(Value::Bool(!values_equal(&a, &b))),
        Lt | Le | Gt | Ge => {
            if matches!(a, Value::Null) || matches!(b, Value::Null) {
                return Ok(Value::Bool(false));
            }
            let ord = a.partial_cmp_numeric(&b).ok_or_else(|| {
                Error::type_err(
                    format!("comparison `{}`", op.symbol()),
                    format!("{} vs {}", a.type_name(), b.type_name()),
                )
            })?;
            let pass = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(pass))
        }
        And | Or => unreachable!("short-circuit ops handled by caller"),
    }
}

/// Equality across the numeric tower; other cross-type pairs are unequal.
fn values_equal(a: &Value, b: &Value) -> bool {
    match a.partial_cmp_numeric(b) {
        Some(ord) => ord.is_eq(),
        None => false,
    }
}

fn eval_arith(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use Value::*;
    // Null propagates.
    if matches!(a, Null) || matches!(b, Null) {
        return Ok(Null);
    }
    // String concatenation.
    if op == BinOp::Add {
        if let (Str(x), Str(y)) = (&a, &b) {
            let mut s = String::with_capacity(x.as_str().len() + y.as_str().len());
            s.push_str(x.as_str());
            s.push_str(y.as_str());
            return Ok(Value::str(&s));
        }
    }
    match (a, b) {
        (Int(x), Int(y)) => match op {
            BinOp::Add => Ok(Int(x.wrapping_add(y))),
            BinOp::Sub => Ok(Int(x.wrapping_sub(y))),
            BinOp::Mul => Ok(Int(x.wrapping_mul(y))),
            BinOp::Div => {
                if y == 0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Int(x.wrapping_div(y)))
                }
            }
            BinOp::Mod => {
                if y == 0 {
                    Err(Error::DivisionByZero)
                } else {
                    Ok(Int(x.wrapping_rem(y)))
                }
            }
            _ => unreachable!(),
        },
        (x, y) => {
            let (fx, fy) = match (x.as_f64(), y.as_f64()) {
                (Some(fx), Some(fy)) => (fx, fy),
                _ => {
                    return Err(Error::type_err(
                        format!("arithmetic `{}`", op.symbol()),
                        format!("{} {} {}", x.type_name(), op.symbol(), y.type_name()),
                    ))
                }
            };
            let r = match op {
                BinOp::Add => fx + fy,
                BinOp::Sub => fx - fy,
                BinOp::Mul => fx * fy,
                BinOp::Div => fx / fy,
                BinOp::Mod => fx % fy,
                _ => unreachable!(),
            };
            Ok(Float(r))
        }
    }
}

fn eval_call(f: Func, args: &[Value]) -> Result<Value> {
    match f {
        Func::Abs => match args[0] {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            Value::Null => Ok(Value::Null),
            other => Err(Error::type_err("abs", other.type_name().to_owned())),
        },
        Func::Min | Func::Max => {
            let (a, b) = (args[0], args[1]);
            if matches!(a, Value::Null) || matches!(b, Value::Null) {
                return Ok(Value::Null);
            }
            let ord = a.partial_cmp_numeric(&b).ok_or_else(|| {
                Error::type_err(f.name(), format!("{} vs {}", a.type_name(), b.type_name()))
            })?;
            let take_a = if f == Func::Min {
                ord.is_le()
            } else {
                ord.is_ge()
            };
            Ok(if take_a { a } else { b })
        }
        Func::Contains | Func::StartsWith => match (args[0], args[1]) {
            (Value::Str(s), Value::Str(needle)) => {
                let pass = if f == Func::Contains {
                    s.as_str().contains(needle.as_str())
                } else {
                    s.as_str().starts_with(needle.as_str())
                };
                Ok(Value::Bool(pass))
            }
            (a, b) => Err(Error::type_err(
                f.name(),
                format!("{}, {}", a.type_name(), b.type_name()),
            )),
        },
        Func::Len => match args[0] {
            Value::Str(s) => Ok(Value::Int(s.as_str().len() as i64)),
            other => Err(Error::type_err("len", other.type_name().to_owned())),
        },
        Func::Coalesce => Ok(args
            .iter()
            .copied()
            .find(|v| !matches!(v, Value::Null))
            .unwrap_or(Value::Null)),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Name(n) => write!(f, "{n}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(not ({e}))"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(pairs: &[(&str, Value)]) -> Vec<(Symbol, Value)> {
        pairs.iter().map(|(n, v)| (Symbol::intern(n), *v)).collect()
    }

    #[test]
    fn literals_and_names() {
        let bindings = scope(&[("x", Value::Int(10))]);
        let s = SliceScope(&bindings);
        assert_eq!(Expr::lit(5i64).eval(&s).unwrap(), Value::Int(5));
        assert_eq!(Expr::name("x").eval(&s).unwrap(), Value::Int(10));
        assert!(matches!(
            Expr::name("y").eval(&s),
            Err(Error::UnboundName(_))
        ));
    }

    #[test]
    fn arithmetic_tower() {
        let s = EmptyScope;
        assert_eq!(
            Expr::lit(2i64).add(Expr::lit(3i64)).eval(&s).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Expr::lit(2i64).add(Expr::lit(0.5)).eval(&s).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Expr::lit(7i64)
                .sub(Expr::lit(2i64))
                .mul(Expr::lit(3i64))
                .eval(&s)
                .unwrap(),
            Value::Int(15)
        );
        assert_eq!(
            Expr::Binary(
                BinOp::Div,
                Box::new(Expr::lit(7i64)),
                Box::new(Expr::lit(2i64))
            )
            .eval(&s)
            .unwrap(),
            Value::Int(3),
            "integer division truncates"
        );
        assert_eq!(
            Expr::Binary(
                BinOp::Mod,
                Box::new(Expr::lit(7i64)),
                Box::new(Expr::lit(4i64))
            )
            .eval(&s)
            .unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn division_by_zero() {
        let s = EmptyScope;
        let e = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::lit(1i64)),
            Box::new(Expr::lit(0i64)),
        );
        assert_eq!(e.eval(&s), Err(Error::DivisionByZero));
        // Float division by zero yields inf, not an error.
        let e = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::lit(1.0)),
            Box::new(Expr::lit(0.0)),
        );
        assert_eq!(e.eval(&s).unwrap(), Value::Float(f64::INFINITY));
    }

    #[test]
    fn null_propagation() {
        let s = EmptyScope;
        assert_eq!(
            Expr::lit(Value::Null)
                .add(Expr::lit(1i64))
                .eval(&s)
                .unwrap(),
            Value::Null
        );
        // Null comparisons are false, equality with Null only for Null.
        assert_eq!(
            Expr::lit(Value::Null).lt(Expr::lit(1i64)).eval(&s).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::lit(Value::Null)
                .eq(Expr::lit(Value::Null))
                .eval(&s)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::lit(Value::Null).eq(Expr::lit(0i64)).eval(&s).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn comparison_and_equality() {
        let s = EmptyScope;
        assert_eq!(
            Expr::lit(3i64).eq(Expr::lit(3.0)).eval(&s).unwrap(),
            Value::Bool(true),
            "numeric tower equality"
        );
        assert_eq!(
            Expr::lit(3i64).eq(Expr::lit("3")).eval(&s).unwrap(),
            Value::Bool(false),
            "cross-type equality is false, not an error"
        );
        assert_eq!(
            Expr::lit("a").lt(Expr::lit("b")).eval(&s).unwrap(),
            Value::Bool(true)
        );
        assert!(
            Expr::lit(1i64).lt(Expr::lit("b")).eval(&s).is_err(),
            "ordering across types is a type error"
        );
    }

    #[test]
    fn short_circuit() {
        let s = EmptyScope;
        // `false and <unbound>` must not evaluate the right side.
        let e = Expr::lit(false).and(Expr::name("nope"));
        assert_eq!(e.eval(&s).unwrap(), Value::Bool(false));
        let e = Expr::lit(true).or(Expr::name("nope"));
        assert_eq!(e.eval(&s).unwrap(), Value::Bool(true));
        let e = Expr::lit(true).and(Expr::lit(0i64));
        assert_eq!(
            e.eval(&s).unwrap(),
            Value::Bool(true),
            "truthiness of Int(0)"
        );
    }

    #[test]
    fn not_and_neg() {
        let s = EmptyScope;
        assert_eq!(Expr::lit(true).not().eval(&s).unwrap(), Value::Bool(false));
        assert_eq!(
            Expr::Unary(UnOp::Neg, Box::new(Expr::lit(3i64)))
                .eval(&s)
                .unwrap(),
            Value::Int(-3)
        );
        assert!(Expr::Unary(UnOp::Neg, Box::new(Expr::lit("a")))
            .eval(&s)
            .is_err());
    }

    #[test]
    fn string_ops() {
        let s = EmptyScope;
        assert_eq!(
            Expr::lit("foo").add(Expr::lit("bar")).eval(&s).unwrap(),
            Value::str("foobar")
        );
        assert_eq!(
            Expr::Call(Func::Contains, vec![Expr::lit("hello"), Expr::lit("ell")])
                .eval(&s)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::Call(Func::StartsWith, vec![Expr::lit("hello"), Expr::lit("he")])
                .eval(&s)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::Call(Func::Len, vec![Expr::lit("héllo")])
                .eval(&s)
                .unwrap(),
            Value::Int(6),
            "len counts bytes"
        );
    }

    #[test]
    fn functions() {
        let s = EmptyScope;
        assert_eq!(
            Expr::Call(Func::Abs, vec![Expr::lit(-4i64)])
                .eval(&s)
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            Expr::Call(Func::Min, vec![Expr::lit(4i64), Expr::lit(2.5)])
                .eval(&s)
                .unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Expr::Call(Func::Max, vec![Expr::lit(4i64), Expr::lit(2.5)])
                .eval(&s)
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            Expr::Call(
                Func::Coalesce,
                vec![
                    Expr::lit(Value::Null),
                    Expr::lit(Value::Null),
                    Expr::lit(7i64)
                ]
            )
            .eval(&s)
            .unwrap(),
            Value::Int(7)
        );
        assert!(matches!(
            Expr::Call(Func::Abs, vec![]).eval(&s),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn free_names_collected() {
        let e = Expr::name("a").add(Expr::name("b")).lt(Expr::Call(
            Func::Min,
            vec![Expr::name("a"), Expr::lit(1i64)],
        ));
        let names: Vec<&str> = e.free_names().iter().map(|s| s.as_str()).collect();
        let mut expected = vec!["a", "b"];
        expected.sort_unstable_by_key(|n| Symbol::intern(n).index());
        assert_eq!(names, expected);
    }

    #[test]
    fn display_round_readable() {
        let e = Expr::name("x").add(Expr::lit(1i64)).gt(Expr::lit(10i64));
        assert_eq!(e.to_string(), "((x + 1) > 10)");
    }
}
