#![warn(missing_docs)]
//! # fenestra-query
//!
//! On-demand queries over the state repository — the paper's
//! "queryable state" benefit (§3.2): "the proposed model enables the
//! users to query the state on-demand, potentially referring to
//! historical data", which "would not be possible using only stream
//! processing technologies".
//!
//! Queries are conjunctive triple patterns with variables, filters,
//! projection, and a **temporal qualifier**:
//!
//! * `current` — the open facts (default);
//! * `asof t` — the state as it was valid at instant `t`;
//! * `during a b` — bindings whose facts' validity overlaps `[a, b)`;
//! * `history e attr` — the full timeline of one (entity, attribute).
//!
//! ```text
//! select ?u ?room
//! where { ?u status "active" . ?u room ?room }
//! filter ?room != "lobby"
//! asof 150
//! ```
//!
//! Because the reasoner materializes derived facts *into* the store
//! (with `Derived` provenance), queries transparently see inferred
//! knowledge; pass [`exec::QueryOptions::exclude_derived`] to restrict
//! results to asserted facts.

pub mod ast;
pub mod cache;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod split;
pub mod sql;
pub mod window;

pub use ast::{Query, Term, TimeSpec, TriplePattern};
pub use cache::{CacheStats, PlanCache};
pub use exec::{execute, Bindings, QueryOptions};
pub use parser::{parse_query, ParsedQuery};
pub use plan::{
    compile, parse_statement, physical_kind, render_explain, strip_explain, CachedPlan,
    LogicalPlan, PhysicalPlan, PlanOutput, Statement, WindowPhys,
};
pub use split::{merge_history, merge_rows, partial_select, PlanPart};
pub use sql::{parse_select_stmt, SelectStmt, WindowKind};
pub use window::WindowPartials;
