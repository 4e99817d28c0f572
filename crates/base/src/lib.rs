#![warn(missing_docs)]
//! # fenestra-base
//!
//! Shared substrate for the Fenestra explicit-state stream processing
//! system (a prototype of Margara, Dell'Aglio & Bernstein, *Break the
//! Windows: Explicit State Management for Stream Processing Systems*,
//! EDBT 2017).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`time`] — logical timestamps, durations, and half-open validity
//!   intervals (`[start, end)`), the paper's "time of validity".
//! * [`value`] — the dynamically typed [`value::Value`] carried by
//!   stream records and state facts. Totally ordered and hashable
//!   (floats use IEEE total ordering) so values can key indexes.
//! * [`symbol`] — a global thread-safe string interner with lock-free
//!   resolution; attributes, stream names, and string values are
//!   interned [`symbol::Symbol`]s, compared and hashed by symbol.
//! * [`record`] — compact field/value records and stream events.
//! * [`parse`] — shared lexer + expression parser for the DSLs.
//! * [`expr`] — a small expression language (field refs, literals,
//!   arithmetic, comparison, boolean logic, string ops) shared by
//!   stream filters, state-management rules, and the query engine.
//! * [`hash`] — a multiply-rotate hasher for maps keyed by the
//!   program's own ids and symbols.
//! * [`error`] — the common error type.

pub mod error;
pub mod expr;
pub mod hash;
pub mod parse;
pub mod record;
pub mod symbol;
pub mod time;
pub mod value;

pub use error::{Error, Result};
pub use expr::Expr;
pub use record::{Event, FieldId, Record, StreamId};
pub use symbol::Symbol;
pub use time::{Duration, Interval, Timestamp};
pub use value::Value;
