//! The query planner: logical plans, rewrite rules, physical plans.
//!
//! Every statement — legacy query-language or the SQL dialect — goes
//! through the same pipeline:
//!
//! ```text
//! text ─parse→ Statement ─build→ LogicalPlan ─rewrite→ LogicalPlan
//!      ─lower→ PhysicalPlan ─execute→ rows / history spans
//! ```
//!
//! The rewrite pass applies three rules, each recorded by name so
//! `EXPLAIN` can show what fired:
//!
//! * **`projection_pruning`** — the projection is absorbed into the
//!   state scan, so fanned-out shards ship only projected columns.
//! * **`predicate_pushdown`** — `col == literal` conjuncts (string or
//!   boolean literals) become constant triple patterns inside the
//!   scan, executing below the shard fan-out instead of after it.
//!   Only equality is pushed: `==` never type-errors, so the rewrite
//!   is exactly semantics-preserving; ordering comparisons can error
//!   and stay in the filter stage.
//! * **`window_normalization`** — `sliding(s, s)` becomes
//!   `tumbling(s)`, and window durations normalize to milliseconds.
//!
//! Physical select plans fold back into a single [`Query`] executed by
//! the [`crate::exec`] machinery; windowed statements lower to a
//! [`WindowPhys`] (see [`crate::window`]). Partitioned state runs every
//! physical plan as one shard part per store plus one merge (see
//! [`crate::split`]), whatever the shard count.

use crate::ast::{Query, Term, TimeSpec, TriplePattern};
use crate::exec::{Bindings, QueryOptions};
use crate::parser::{parse_query, ParsedQuery};
use crate::sql::{parse_select_stmt, AggName, SelectItem, SelectStmt, WindowKind};
use fenestra_base::error::{Error, Result};
use fenestra_base::expr::{BinOp, Expr};
use fenestra_base::parse::{lex, Tok};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::{Interval, Timestamp};
use fenestra_base::value::Value;
use fenestra_temporal::{Provenance, TemporalStore};
use std::sync::Arc;

/// One aggregate column of a window plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggField {
    /// The function.
    pub func: AggName,
    /// Input column (`None` for `count(*)`).
    pub column: Option<Symbol>,
    /// Output row field.
    pub output: Symbol,
}

impl std::fmt::Display for AggField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.column {
            Some(c) => write!(f, "{}({c}) AS {}", self.func.name(), self.output),
            None => write!(f, "{}(*) AS {}", self.func.name(), self.output),
        }
    }
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan the state repository with conjunctive triple patterns.
    StateScan {
        /// The patterns.
        patterns: Vec<TriplePattern>,
        /// Temporal qualifier.
        time: TimeSpec,
        /// Columns the scan emits (empty = all variables). Filled in
        /// by the `projection_pruning` rewrite.
        select: Vec<Symbol>,
    },
    /// Scan one attribute's full fact timeline across all entities.
    FactScan {
        /// The attribute.
        attr: Symbol,
        /// Validity-overlap restriction (`None` = all history).
        range: Option<(Timestamp, Timestamp)>,
    },
    /// Timeline of one `(entity, attribute)`.
    HistoryScan {
        /// Entity name.
        entity: Symbol,
        /// Attribute.
        attr: Symbol,
    },
    /// Keep rows satisfying every predicate.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// The predicates (conjunctive).
        predicates: Vec<Expr>,
    },
    /// Project to named columns, in order.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Output columns (empty = all, first-mention order).
        columns: Vec<Symbol>,
    },
    /// Window the input by event time and aggregate per group.
    WindowAggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// The window.
        window: WindowKind,
        /// Grouping keys.
        keys: Vec<Symbol>,
        /// Aggregate columns.
        aggs: Vec<AggField>,
        /// Output columns, in statement order.
        columns: Vec<Symbol>,
    },
    /// Replace rows with their count.
    Count {
        /// Input.
        input: Box<LogicalPlan>,
    },
    /// Keep at most `n` rows.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// The bound.
        n: usize,
    },
}

/// A physical plan: what actually executes.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// A conjunctive select, folded back into one [`Query`] so it runs
    /// on the existing executor (per shard, merged by the caller).
    Select {
        /// The folded query.
        query: Arc<Query>,
    },
    /// A history lookup (fanned out, merged by `(start, shard, seq)`).
    History {
        /// Entity name.
        entity: Symbol,
        /// Attribute.
        attr: Symbol,
    },
    /// A windowed aggregation over fact timelines.
    WindowAgg(Arc<WindowPhys>),
}

/// Physical windowed aggregation in two phases: each shard folds its
/// facts into partial aggregates ([`WindowPhys::partials`]), and the
/// coordinator merges them and fires the windows
/// ([`WindowPhys::merge`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPhys {
    /// The attribute whose timeline is scanned.
    pub attr: Symbol,
    /// Row-level predicates over `{entity, attr}` (entity is the
    /// entity *name* here, unlike state scans).
    pub filters: Vec<Expr>,
    /// Validity-overlap restriction.
    pub range: Option<(Timestamp, Timestamp)>,
    /// The (normalized) window.
    pub window: WindowKind,
    /// Grouping keys (`entity` and/or the attribute column).
    pub keys: Vec<Symbol>,
    /// Aggregate columns.
    pub aggs: Vec<AggField>,
    /// Output columns, in statement order.
    pub columns: Vec<Symbol>,
    /// Row bound applied after aggregation.
    pub limit: Option<usize>,
}

/// The result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// Row output (selects and window aggregations).
    Rows(Vec<Bindings>),
    /// History spans of one `(entity, attribute)`.
    History(Vec<(Interval, Value, Provenance)>),
}

impl PlanOutput {
    /// The rows, if this is a row result.
    pub fn rows(&self) -> Option<&[Bindings]> {
        match self {
            PlanOutput::Rows(r) => Some(r),
            PlanOutput::History(_) => None,
        }
    }

    /// Number of rows / timeline entries.
    pub fn len(&self) -> usize {
        match self {
            PlanOutput::Rows(r) => r.len(),
            PlanOutput::History(h) => h.len(),
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A compiled statement, as stored in the plan cache and shared by
/// every consumer of the same statement text (queries and watches).
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The statement text (trimmed; empty for programmatic plans).
    pub text: String,
    /// `"legacy"` or `"sql"`.
    pub dialect: &'static str,
    /// The logical plan, before rewrites.
    pub logical: LogicalPlan,
    /// The physical plan, after rewrites and lowering.
    pub physical: PhysicalPlan,
    /// Names of the rewrite rules that fired, in application order.
    pub rules: Vec<&'static str>,
    /// Wall time the compile took (µs).
    pub compile_us: u64,
}

/// A statement in either dialect.
#[derive(Debug, Clone)]
pub enum Statement {
    /// Legacy query-language statement.
    Legacy(ParsedQuery),
    /// SQL-dialect statement.
    Sql(SelectStmt),
}

/// If `src` starts with the (case-insensitive) word `explain`, strip
/// it and return `(true, rest)`; the rest is the plan-cache key.
pub fn strip_explain(src: &str) -> (bool, &str) {
    let s = src.trim_start();
    // Compare bytes: byte 7 may fall inside a multi-byte character.
    let b = s.as_bytes();
    if b.len() > 7 && b[..7].eq_ignore_ascii_case(b"explain") && b[7].is_ascii_whitespace() {
        (true, s[7..].trim_start())
    } else {
        (false, s)
    }
}

/// Parse a statement, deciding the dialect by shape: `select ?…` and
/// `select count ?…` and `history …` are the legacy language;
/// any other `SELECT` is the SQL dialect.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let toks = lex(src)?;
    let t = |i: usize| toks.get(i).map(|t| &t.tok);
    let is_sql = match t(0) {
        Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("select") => {
            let legacy_vars = matches!(t(1), Some(Tok::Punct("?")));
            let legacy_count = matches!(t(1), Some(Tok::Ident(k)) if k == "count")
                && matches!(t(2), Some(Tok::Punct("?")));
            !legacy_vars && !legacy_count
        }
        _ => false,
    };
    if is_sql {
        Ok(Statement::Sql(parse_select_stmt(src)?))
    } else {
        Ok(Statement::Legacy(parse_query(src)?))
    }
}

// ----- logical plan construction --------------------------------------------

/// Build the logical plan of a legacy statement. Lossless: folding the
/// (unrewritten) plan back yields the same [`Query`].
pub fn build_legacy(parsed: &ParsedQuery) -> LogicalPlan {
    match parsed {
        ParsedQuery::History { entity, attr } => LogicalPlan::HistoryScan {
            entity: *entity,
            attr: *attr,
        },
        ParsedQuery::Select(q) => {
            let mut node = LogicalPlan::StateScan {
                patterns: q.patterns.clone(),
                time: q.time,
                select: Vec::new(),
            };
            if !q.filters.is_empty() {
                node = LogicalPlan::Filter {
                    input: Box::new(node),
                    predicates: q.filters.clone(),
                };
            }
            node = LogicalPlan::Project {
                input: Box::new(node),
                columns: q.select.clone(),
            };
            if let Some(n) = q.limit {
                node = LogicalPlan::Limit {
                    input: Box::new(node),
                    n,
                };
            }
            if q.count_only {
                node = LogicalPlan::Count {
                    input: Box::new(node),
                };
            }
            node
        }
    }
}

fn expr_names(e: &Expr, out: &mut Vec<Symbol>) {
    match e {
        Expr::Lit(_) => {}
        Expr::Name(n) => {
            if !out.contains(n) {
                out.push(*n);
            }
        }
        Expr::Unary(_, a) => expr_names(a, out),
        Expr::Binary(_, a, b) => {
            expr_names(a, out);
            expr_names(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_names(a, out);
            }
        }
    }
}

/// Split a predicate into its top-level conjuncts.
fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary(BinOp::And, a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// `name == literal` (either side order), if the conjunct has that shape.
fn as_eq_const(e: &Expr) -> Option<(Symbol, Value)> {
    let Expr::Binary(BinOp::Eq, a, b) = e else {
        return None;
    };
    match (a.as_ref(), b.as_ref()) {
        (Expr::Name(n), Expr::Lit(v)) | (Expr::Lit(v), Expr::Name(n)) => Some((*n, *v)),
        _ => None,
    }
}

pub(crate) fn entity_col() -> Symbol {
    Symbol::intern("entity")
}

fn window_cols() -> [Symbol; 2] {
    [Symbol::intern("window_start"), Symbol::intern("window_end")]
}

/// Build the logical plan of a SQL statement, validating it against
/// the dialect's planning rules.
pub fn build_sql(stmt: &SelectStmt) -> Result<LogicalPlan> {
    if stmt.source.as_str() != "state" {
        return Err(Error::Invalid(format!(
            "unknown source `{}` (the only queryable source is `state`)",
            stmt.source
        )));
    }
    if stmt.items.is_empty() {
        return Err(Error::Invalid("SELECT needs at least one item".into()));
    }
    match stmt.window {
        Some(window) => build_sql_windowed(stmt, window),
        None => build_sql_state(stmt),
    }
}

fn build_sql_state(stmt: &SelectStmt) -> Result<LogicalPlan> {
    let entity = entity_col();
    // A sole `count(*)` counts distinct rows; a sole `count(col)`
    // counts distinct values of that column. Any other aggregate needs
    // a window.
    let count_item: Option<Option<Symbol>> = match (stmt.items.len(), &stmt.items[0]) {
        (
            1,
            SelectItem::Agg {
                func: AggName::Count,
                column,
                ..
            },
        ) => Some(*column),
        _ => None,
    };
    if count_item.is_none()
        && stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { .. }))
    {
        return Err(Error::Invalid(
            "aggregates require a GROUP BY window function (tumbling/sliding/session); \
             only a bare count(*) / count(col) works without one"
                .into(),
        ));
    }
    if !stmt.keys.is_empty() {
        return Err(Error::Invalid(
            "GROUP BY without a window function is not supported; \
             add tumbling(...), sliding(...), or session(...)"
                .into(),
        ));
    }
    // Referenced columns, first-mention order: items, then WHERE.
    let mut referenced: Vec<Symbol> = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Column(c) = item {
            if !referenced.contains(c) {
                referenced.push(*c);
            }
        }
    }
    if let Some(Some(c)) = count_item {
        if c != entity && !referenced.contains(&c) {
            referenced.push(c);
        }
    }
    let preds = stmt
        .where_clause
        .as_ref()
        .map(conjuncts)
        .unwrap_or_default();
    for p in &preds {
        expr_names(p, &mut referenced);
    }
    for w in window_cols() {
        if referenced.contains(&w) {
            return Err(Error::Invalid(format!(
                "`{w}` is only available under a GROUP BY window function"
            )));
        }
    }
    // The entity pseudo-column: an `entity = "name"` conjunct pins the
    // scan to one entity; any other WHERE use of `entity` is rejected
    // (entity variables bind to ids, not names, during matching).
    let mut entity_const: Option<Value> = None;
    let mut filters = Vec::new();
    for p in preds {
        let mut names = Vec::new();
        expr_names(&p, &mut names);
        if names.contains(&entity) {
            match as_eq_const(&p) {
                Some((n, v @ Value::Str(_))) if n == entity && entity_const.is_none() => {
                    entity_const = Some(v);
                }
                _ => {
                    return Err(Error::Invalid(
                        "the `entity` pseudo-column supports only one `entity = \"name\"` \
                         equality in WHERE"
                            .into(),
                    ));
                }
            }
        } else {
            filters.push(p);
        }
    }
    let attrs: Vec<Symbol> = referenced
        .iter()
        .copied()
        .filter(|c| *c != entity)
        .collect();
    if attrs.is_empty() {
        return Err(Error::Invalid(
            "the statement references no attribute columns; select or filter at least one".into(),
        ));
    }
    let entity_projected = stmt
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Column(c) if *c == entity));
    if entity_projected && entity_const.is_some() {
        return Err(Error::Invalid(
            "selecting `entity` while pinning it with `entity = \"...\"` is redundant; \
             drop one of the two"
                .into(),
        ));
    }
    let e_term = match entity_const {
        Some(v) => Term::Const(v),
        None => Term::Var(entity),
    };
    let patterns: Vec<TriplePattern> = attrs
        .iter()
        .map(|a| TriplePattern {
            e: e_term.clone(),
            a: *a,
            v: Term::Var(*a),
        })
        .collect();
    let mut node = LogicalPlan::StateScan {
        patterns,
        time: stmt.time,
        select: Vec::new(),
    };
    if !filters.is_empty() {
        node = LogicalPlan::Filter {
            input: Box::new(node),
            predicates: filters,
        };
    }
    let columns: Vec<Symbol> = match count_item {
        // count(*) counts distinct (entity, attrs) combinations — the
        // legacy `select count ?…` over every bound variable.
        Some(None) => {
            let mut cols = Vec::new();
            if matches!(e_term, Term::Var(_)) {
                cols.push(entity);
            }
            cols.extend(attrs.iter().copied());
            cols
        }
        // count(col) counts distinct values of that column.
        Some(Some(c)) => vec![c],
        None => stmt.items.iter().map(|i| i.output_name()).collect(),
    };
    node = LogicalPlan::Project {
        input: Box::new(node),
        columns,
    };
    if let Some(n) = stmt.limit {
        node = LogicalPlan::Limit {
            input: Box::new(node),
            n,
        };
    }
    if count_item.is_some() {
        node = LogicalPlan::Count {
            input: Box::new(node),
        };
    }
    Ok(node)
}

fn build_sql_windowed(stmt: &SelectStmt, window: WindowKind) -> Result<LogicalPlan> {
    let entity = entity_col();
    let [wstart, wend] = window_cols();
    // Exactly one attribute column may be referenced.
    let mut attrs: Vec<Symbol> = Vec::new();
    let mut note = |c: Symbol| {
        if c != entity && c != wstart && c != wend && !attrs.contains(&c) {
            attrs.push(c);
        }
    };
    for item in &stmt.items {
        match item {
            SelectItem::Column(c) => note(*c),
            SelectItem::Agg {
                column: Some(c), ..
            } => note(*c),
            SelectItem::Agg { .. } => {}
        }
    }
    for k in &stmt.keys {
        note(*k);
    }
    let mut where_names = Vec::new();
    if let Some(w) = &stmt.where_clause {
        expr_names(w, &mut where_names);
    }
    for n in &where_names {
        note(*n);
    }
    if attrs.len() != 1 {
        return Err(Error::Invalid(format!(
            "windowed statements read exactly one attribute column (got {})",
            if attrs.is_empty() {
                "none; name one, e.g. count(attr)".to_string()
            } else {
                attrs
                    .iter()
                    .map(|a| a.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        )));
    }
    let attr = attrs[0];
    for k in &stmt.keys {
        if *k != entity && *k != attr {
            return Err(Error::Invalid(format!(
                "GROUP BY key `{k}` must be `entity` or the scanned attribute column `{attr}`"
            )));
        }
    }
    let mut aggs = Vec::new();
    let mut outputs: Vec<Symbol> = Vec::new();
    for item in &stmt.items {
        let out = item.output_name();
        if outputs.contains(&out) {
            return Err(Error::Invalid(format!(
                "duplicate output column `{out}`; add AS aliases"
            )));
        }
        outputs.push(out);
        match item {
            SelectItem::Column(c) => {
                if *c != wstart && *c != wend && !stmt.keys.contains(c) {
                    return Err(Error::Invalid(format!(
                        "column `{c}` must appear in GROUP BY (or be window_start/window_end)"
                    )));
                }
            }
            SelectItem::Agg { func, column, .. } => {
                if *func != AggName::Count && *column != Some(attr) {
                    return Err(Error::Invalid(format!(
                        "aggregate input must be the scanned attribute column `{attr}`"
                    )));
                }
                aggs.push(AggField {
                    func: *func,
                    column: *column,
                    output: out,
                });
            }
        }
    }
    if aggs.is_empty() {
        return Err(Error::Invalid(
            "windowed statements need at least one aggregate item".into(),
        ));
    }
    let range = match stmt.time {
        TimeSpec::Current => None,
        TimeSpec::During(a, b) => Some((a, b)),
        TimeSpec::AsOf(_) => {
            return Err(Error::Invalid(
                "windowed statements take DURING a TO b (a time range), not AS OF".into(),
            ));
        }
    };
    let mut node = LogicalPlan::FactScan { attr, range };
    let preds = stmt
        .where_clause
        .as_ref()
        .map(conjuncts)
        .unwrap_or_default();
    if !preds.is_empty() {
        node = LogicalPlan::Filter {
            input: Box::new(node),
            predicates: preds,
        };
    }
    node = LogicalPlan::WindowAggregate {
        input: Box::new(node),
        window,
        keys: stmt.keys.clone(),
        aggs,
        columns: outputs,
    };
    if let Some(n) = stmt.limit {
        node = LogicalPlan::Limit {
            input: Box::new(node),
            n,
        };
    }
    Ok(node)
}

// ----- rewrites --------------------------------------------------------------

fn scan_variables(patterns: &[TriplePattern]) -> Vec<Symbol> {
    let mut out = Vec::new();
    for p in patterns {
        for t in [&p.e, &p.v] {
            if let Some(v) = t.as_var() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Apply the rewrite rules, returning the rewritten plan and the names
/// of the rules that fired.
pub fn rewrite(plan: LogicalPlan) -> (LogicalPlan, Vec<&'static str>) {
    let mut rules = Vec::new();
    let plan = rewrite_node(plan, &mut rules);
    (plan, rules)
}

fn note_rule(rules: &mut Vec<&'static str>, name: &'static str) {
    if !rules.contains(&name) {
        rules.push(name);
    }
}

fn rewrite_node(plan: LogicalPlan, rules: &mut Vec<&'static str>) -> LogicalPlan {
    match plan {
        // Window normalization: sliding with hop == size is tumbling.
        LogicalPlan::WindowAggregate {
            input,
            window,
            keys,
            aggs,
            columns,
        } => {
            let window = match window {
                WindowKind::Sliding { size_ms, hop_ms } if size_ms == hop_ms => {
                    note_rule(rules, "window_normalization");
                    WindowKind::Tumbling { size_ms }
                }
                other => other,
            };
            LogicalPlan::WindowAggregate {
                input: Box::new(rewrite_node(*input, rules)),
                window,
                keys,
                aggs,
                columns,
            }
        }
        // Projection pruning: absorb the projection into the scan so
        // shards ship only projected columns. Absorb *before* visiting
        // the children — predicate pushdown needs the scan's column
        // list to know a filtered column is not emitted.
        LogicalPlan::Project { input, columns } => match absorb_projection(*input, &columns, rules)
        {
            Ok(absorbed) => rewrite_node(absorbed, rules),
            Err(input) => LogicalPlan::Project {
                input: Box::new(rewrite_node(input, rules)),
                columns,
            },
        },
        LogicalPlan::Filter { input, predicates } => {
            let input = rewrite_node(*input, rules);
            push_predicates(input, predicates, rules)
        }
        LogicalPlan::Count { input } => LogicalPlan::Count {
            input: Box::new(rewrite_node(*input, rules)),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(rewrite_node(*input, rules)),
            n,
        },
        leaf => leaf,
    }
}

/// Try to absorb a projection into the scan below (possibly through a
/// filter). Returns the absorbed tree, or the untouched input on Err.
fn absorb_projection(
    input: LogicalPlan,
    columns: &[Symbol],
    rules: &mut Vec<&'static str>,
) -> std::result::Result<LogicalPlan, LogicalPlan> {
    match input {
        LogicalPlan::StateScan {
            patterns,
            time,
            select,
        } if select.is_empty() => {
            if !columns.is_empty() && columns.len() < scan_variables(&patterns).len() {
                note_rule(rules, "projection_pruning");
            }
            Ok(LogicalPlan::StateScan {
                patterns,
                time,
                select: columns.to_vec(),
            })
        }
        LogicalPlan::Filter { input, predicates } => {
            match absorb_projection(*input, columns, rules) {
                Ok(absorbed) => Ok(LogicalPlan::Filter {
                    input: Box::new(absorbed),
                    predicates,
                }),
                Err(inner) => Err(LogicalPlan::Filter {
                    input: Box::new(inner),
                    predicates,
                }),
            }
        }
        other => Err(other),
    }
}

/// Push `col == literal` conjuncts into the scan's triple patterns.
fn push_predicates(
    input: LogicalPlan,
    predicates: Vec<Expr>,
    rules: &mut Vec<&'static str>,
) -> LogicalPlan {
    let LogicalPlan::StateScan {
        mut patterns,
        time,
        select,
    } = input
    else {
        if predicates.is_empty() {
            return input;
        }
        return LogicalPlan::Filter {
            input: Box::new(input),
            predicates,
        };
    };
    let mut kept: Vec<Expr> = Vec::new();
    for (i, p) in predicates.iter().enumerate() {
        let pushed = (|| {
            let (n, v) = as_eq_const(p)?;
            // Only total-equality types: `==` on strings/booleans is
            // exactly the pattern-constant match, so substituting is
            // semantics-preserving. Numeric literals stay in the
            // filter (the numeric tower equates Int 3 and Float 3.0;
            // pattern constants would not).
            if !matches!(v, Value::Str(_) | Value::Bool(_)) {
                return None;
            }
            // The scan must not emit the column (pruned projection),
            // and no other predicate may reference it.
            if select.is_empty() || select.contains(&n) {
                return None;
            }
            for (j, other) in predicates.iter().enumerate() {
                if i != j {
                    let mut names = Vec::new();
                    expr_names(other, &mut names);
                    if names.contains(&n) {
                        return None;
                    }
                }
            }
            // Exactly one value-position binding, no entity-position use.
            let mut value_hits = Vec::new();
            for (pi, pat) in patterns.iter().enumerate() {
                if pat.e.as_var() == Some(n) {
                    return None;
                }
                if pat.v.as_var() == Some(n) {
                    value_hits.push(pi);
                }
            }
            if value_hits.len() != 1 {
                return None;
            }
            Some((value_hits[0], v))
        })();
        match pushed {
            Some((pi, v)) => {
                patterns[pi].v = Term::Const(v);
                note_rule(rules, "predicate_pushdown");
            }
            None => kept.push(p.clone()),
        }
    }
    let scan = LogicalPlan::StateScan {
        patterns,
        time,
        select,
    };
    if kept.is_empty() {
        scan
    } else {
        LogicalPlan::Filter {
            input: Box::new(scan),
            predicates: kept,
        }
    }
}

// ----- lowering ---------------------------------------------------------------

/// Fold a (rewritten) select tree back into one [`Query`]. `None` if
/// the tree is not a select shape.
pub fn fold_select(plan: &LogicalPlan) -> Option<Query> {
    let mut q = Query::new();
    fn walk(p: &LogicalPlan, q: &mut Query) -> Option<()> {
        match p {
            LogicalPlan::Count { input } => {
                q.count_only = true;
                walk(input, q)
            }
            LogicalPlan::Limit { input, n } => {
                q.limit = Some(*n);
                walk(input, q)
            }
            LogicalPlan::Project { input, columns } => {
                q.select = columns.clone();
                walk(input, q)
            }
            LogicalPlan::Filter { input, predicates } => {
                q.filters = predicates.clone();
                walk(input, q)
            }
            LogicalPlan::StateScan {
                patterns,
                time,
                select,
            } => {
                q.patterns = patterns.clone();
                q.time = *time;
                if q.select.is_empty() {
                    q.select = select.clone();
                }
                Some(())
            }
            _ => None,
        }
    }
    walk(plan, &mut q)?;
    Some(q)
}

/// Lower a rewritten logical plan to a physical plan.
pub fn lower(plan: &LogicalPlan) -> Result<PhysicalPlan> {
    if let LogicalPlan::HistoryScan { entity, attr } = plan {
        return Ok(PhysicalPlan::History {
            entity: *entity,
            attr: *attr,
        });
    }
    if let Some(phys) = lower_window(plan) {
        return Ok(PhysicalPlan::WindowAgg(Arc::new(phys)));
    }
    match fold_select(plan) {
        Some(q) => Ok(PhysicalPlan::Select { query: Arc::new(q) }),
        None => Err(Error::Invalid(
            "plan does not lower to a physical plan".into(),
        )),
    }
}

fn lower_window(plan: &LogicalPlan) -> Option<WindowPhys> {
    let (limit, inner) = match plan {
        LogicalPlan::Limit { input, n } => (Some(*n), input.as_ref()),
        other => (None, other),
    };
    let LogicalPlan::WindowAggregate {
        input,
        window,
        keys,
        aggs,
        columns,
    } = inner
    else {
        return None;
    };
    let (filters, scan) = match input.as_ref() {
        LogicalPlan::Filter { input, predicates } => (predicates.clone(), input.as_ref()),
        other => (Vec::new(), other),
    };
    let LogicalPlan::FactScan { attr, range } = scan else {
        return None;
    };
    Some(WindowPhys {
        attr: *attr,
        filters,
        range: *range,
        window: *window,
        keys: keys.clone(),
        aggs: aggs.clone(),
        columns: columns.clone(),
        limit,
    })
}

// ----- compilation ------------------------------------------------------------

/// Compile a statement text into a cached plan (parse → build →
/// rewrite → lower), timing itself.
pub fn compile(src: &str) -> Result<CachedPlan> {
    let started = std::time::Instant::now();
    let text = src.trim().to_string();
    let (dialect, logical) = match parse_statement(&text)? {
        Statement::Legacy(parsed) => ("legacy", build_legacy(&parsed)),
        Statement::Sql(stmt) => ("sql", build_sql(&stmt)?),
    };
    let (rewritten, rules) = rewrite(logical.clone());
    let physical = lower(&rewritten)?;
    Ok(CachedPlan {
        text,
        dialect,
        logical,
        physical,
        rules,
        compile_us: started.elapsed().as_micros() as u64,
    })
}

impl CachedPlan {
    /// Compile a programmatic [`Query`] (the embedded watch path).
    pub fn from_query(q: Query) -> CachedPlan {
        let started = std::time::Instant::now();
        let logical = build_legacy(&ParsedQuery::Select(q));
        let (rewritten, rules) = rewrite(logical.clone());
        let physical = lower(&rewritten).expect("select plans always lower");
        CachedPlan {
            text: String::new(),
            dialect: "legacy",
            logical,
            physical,
            rules,
            compile_us: started.elapsed().as_micros() as u64,
        }
    }

    /// Whether the plan produces rows (watchable); history plans don't.
    pub fn is_watchable(&self) -> bool {
        !matches!(self.physical, PhysicalPlan::History { .. })
    }

    /// Execute against one store.
    pub fn execute(&self, store: &TemporalStore, opts: QueryOptions) -> Result<PlanOutput> {
        match &self.physical {
            PhysicalPlan::Select { query } => Ok(PlanOutput::Rows(crate::exec::execute_with(
                store, query, opts,
            )?)),
            PhysicalPlan::History { entity, attr } => {
                let Some(e) = store.lookup_entity(*entity) else {
                    return Err(Error::Invalid(format!("unknown entity `{entity}`")));
                };
                Ok(PlanOutput::History(store.history(e, *attr)))
            }
            PhysicalPlan::WindowAgg(w) => Ok(PlanOutput::Rows(w.execute_local(store)?)),
        }
    }

    /// [`CachedPlan::execute`] for a caller that reads the rows as a
    /// set (a watch): the same rows, not in name order
    /// ([`crate::exec::execute_set`]).
    pub fn execute_set(&self, store: &TemporalStore, opts: QueryOptions) -> Result<PlanOutput> {
        match &self.physical {
            PhysicalPlan::Select { query } => Ok(PlanOutput::Rows(crate::exec::execute_set(
                store, query, opts,
            )?)),
            _ => self.execute(store, opts),
        }
    }
}

// ----- rendering (EXPLAIN) ----------------------------------------------------

fn fmt_term(t: &Term) -> String {
    match t {
        Term::Var(v) => format!("?{v}"),
        Term::Const(v) => format!("{v}"),
    }
}

fn fmt_patterns(patterns: &[TriplePattern]) -> String {
    patterns
        .iter()
        .map(|p| format!("{} {} {}", fmt_term(&p.e), p.a, fmt_term(&p.v)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn fmt_time(t: TimeSpec) -> String {
    match t {
        TimeSpec::Current => "current".into(),
        TimeSpec::AsOf(t) => format!("asof {}", t.millis()),
        TimeSpec::During(a, b) => format!("during [{}, {})", a.millis(), b.millis()),
    }
}

fn fmt_symbols(syms: &[Symbol]) -> String {
    syms.iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn fmt_exprs(exprs: &[Expr]) -> String {
    exprs
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn fmt_aggs(aggs: &[AggField]) -> String {
    aggs.iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn fmt_range(range: &Option<(Timestamp, Timestamp)>) -> String {
    match range {
        None => "full".into(),
        Some((a, b)) => format!("[{}, {})", a.millis(), b.millis()),
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(text);
    out.push('\n');
}

/// Render a logical plan as an indented tree (one node per line).
pub fn render_logical(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    fn walk(p: &LogicalPlan, depth: usize, out: &mut String) {
        match p {
            LogicalPlan::StateScan {
                patterns,
                time,
                select,
            } => {
                let sel = if select.is_empty() {
                    "*".to_string()
                } else {
                    fmt_symbols(select)
                };
                line(
                    out,
                    depth,
                    &format!(
                        "StateScan patterns=[{}] time={} select=[{sel}]",
                        fmt_patterns(patterns),
                        fmt_time(*time)
                    ),
                );
            }
            LogicalPlan::FactScan { attr, range } => {
                line(
                    out,
                    depth,
                    &format!("FactScan attr={attr} range={}", fmt_range(range)),
                );
            }
            LogicalPlan::HistoryScan { entity, attr } => {
                line(
                    out,
                    depth,
                    &format!("HistoryScan entity=\"{entity}\" attr={attr}"),
                );
            }
            LogicalPlan::Filter { input, predicates } => {
                line(
                    out,
                    depth,
                    &format!("Filter preds=[{}]", fmt_exprs(predicates)),
                );
                walk(input, depth + 1, out);
            }
            LogicalPlan::Project { input, columns } => {
                let cols = if columns.is_empty() {
                    "*".to_string()
                } else {
                    fmt_symbols(columns)
                };
                line(out, depth, &format!("Project cols=[{cols}]"));
                walk(input, depth + 1, out);
            }
            LogicalPlan::WindowAggregate {
                input,
                window,
                keys,
                aggs,
                columns,
            } => {
                line(
                    out,
                    depth,
                    &format!(
                        "WindowAggregate window={window} keys=[{}] aggs=[{}] emit=[{}]",
                        fmt_symbols(keys),
                        fmt_aggs(aggs),
                        fmt_symbols(columns)
                    ),
                );
                walk(input, depth + 1, out);
            }
            LogicalPlan::Count { input } => {
                line(out, depth, "Count");
                walk(input, depth + 1, out);
            }
            LogicalPlan::Limit { input, n } => {
                line(out, depth, &format!("Limit n={n}"));
                walk(input, depth + 1, out);
            }
        }
    }
    walk(plan, 0, &mut out);
    out
}

/// Render a physical plan as an indented tree, showing the shard
/// fan-out / merge boundary. Every shard count, one included, runs a
/// per-shard part and a merge, so every count renders the same tree.
pub fn render_physical(plan: &PhysicalPlan, shards: usize) -> String {
    let mut out = String::new();
    match plan {
        PhysicalPlan::Select { query } => {
            let mut depth = 0;
            if query.count_only {
                line(&mut out, depth, "Count");
                depth += 1;
            }
            if let Some(n) = query.limit {
                line(&mut out, depth, &format!("Limit n={n}"));
                depth += 1;
            }
            line(
                &mut out,
                depth,
                &format!("Merge shards={shards} sort=rows dedup=true"),
            );
            depth += 1;
            let sel = if query.select.is_empty() {
                "*".to_string()
            } else {
                fmt_symbols(&query.select)
            };
            line(
                &mut out,
                depth,
                &format!(
                    "StateScan partial patterns=[{}] filters=[{}] time={} select=[{sel}]",
                    fmt_patterns(&query.patterns),
                    fmt_exprs(&query.filters),
                    fmt_time(query.time)
                ),
            );
        }
        PhysicalPlan::History { entity, attr } => {
            line(
                &mut out,
                0,
                &format!("HistoryMerge shards={shards} order=(start, shard, seq)"),
            );
            line(
                &mut out,
                1,
                &format!("HistoryScan entity=\"{entity}\" attr={attr}"),
            );
        }
        PhysicalPlan::WindowAgg(w) => {
            let mut depth = 0;
            if let Some(n) = w.limit {
                line(&mut out, depth, &format!("Limit n={n}"));
                depth += 1;
            }
            line(
                &mut out,
                depth,
                &format!(
                    "WindowMerge shards={shards} window={} emit=[{}]",
                    w.window,
                    fmt_symbols(&w.columns)
                ),
            );
            depth += 1;
            let partial = match w.window {
                WindowKind::Session { gap_ms } => format!("SessionPartial gap={gap_ms}"),
                _ => format!("PanePartial pane={}", w.pane_len()),
            };
            line(
                &mut out,
                depth,
                &format!(
                    "{partial} keys=[{}] aggs=[{}]",
                    fmt_symbols(&w.keys),
                    fmt_aggs(&w.aggs)
                ),
            );
            depth += 1;
            line(
                &mut out,
                depth,
                &format!(
                    "FactScan attr={} range={} filters=[{}]",
                    w.attr,
                    fmt_range(&w.range),
                    fmt_exprs(&w.filters)
                ),
            );
        }
    }
    out
}

/// Render the `EXPLAIN` payload: the logical tree (pre-rewrite), the
/// physical tree (post-rewrite, with the shard boundary), and the
/// rewrite rules that fired.
pub fn render_explain(plan: &CachedPlan, shards: usize) -> (String, String) {
    (
        render_logical(&plan.logical),
        render_physical(&plan.physical, shards),
    )
}

/// One-line summary of a physical plan's kind (for logs and stats).
pub fn physical_kind(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::Select { .. } => "select",
        PhysicalPlan::History { .. } => "history",
        PhysicalPlan::WindowAgg(_) => "window_agg",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_temporal::AttrSchema;

    fn store() -> TemporalStore {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v1 = s.named_entity("v1");
        let v2 = s.named_entity("v2");
        s.replace_at(v1, "room", "lobby", Timestamp::new(10))
            .unwrap();
        s.replace_at(v2, "room", "lab", Timestamp::new(20)).unwrap();
        s.replace_at(v1, "room", "lab", Timestamp::new(150))
            .unwrap();
        s
    }

    fn rows(plan: &CachedPlan, s: &TemporalStore) -> Vec<Bindings> {
        match plan.execute(s, QueryOptions::default()).unwrap() {
            PlanOutput::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn legacy_statements_compile_and_run() {
        let s = store();
        let plan = compile("select ?v where { ?v room \"lab\" }").unwrap();
        assert_eq!(plan.dialect, "legacy");
        assert_eq!(rows(&plan, &s).len(), 2);
        let plan = compile("history \"v1\" room").unwrap();
        match plan.execute(&s, QueryOptions::default()).unwrap() {
            PlanOutput::History(spans) => assert_eq!(spans.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn legacy_plan_matches_direct_execution() {
        let s = store();
        for src in [
            "select ?v where { ?v room ?r }",
            "select ?v ?r where { ?v room ?r } filter r != \"lobby\"",
            "select count ?v where { ?v room ?r } limit 1",
            "select ?v where { ?v room \"lab\" } asof 100",
            "select ?r where { \"v1\" room ?r } during 0 200",
            // Pushdown fires here; results must not change.
            "select ?v where { ?v room ?r } filter r == \"lab\"",
        ] {
            let direct = match parse_query(src).unwrap() {
                ParsedQuery::Select(q) => crate::exec::execute(&s, &q).unwrap(),
                _ => unreachable!(),
            };
            let plan = compile(src).unwrap();
            assert_eq!(rows(&plan, &s), direct, "plan != direct for `{src}`");
        }
    }

    #[test]
    fn sql_matches_legacy_equivalent() {
        let s = store();
        let sql = compile("SELECT entity, room FROM state WHERE room != \"lobby\"").unwrap();
        assert_eq!(sql.dialect, "sql");
        let legacy =
            compile("select ?entity ?room where { ?entity room ?room } filter room != \"lobby\"")
                .unwrap();
        assert_eq!(rows(&sql, &s), rows(&legacy, &s));
    }

    #[test]
    fn non_ascii_literals_match_in_both_dialects() {
        let mut s = store();
        let v3 = s.named_entity("v3");
        s.replace_at(v3, "room", "café", Timestamp::new(30))
            .unwrap();
        for src in [
            "select ?v where { ?v room \"café\" }",
            "SELECT entity FROM state WHERE room = \"café\"",
        ] {
            let got = rows(&compile(src).unwrap(), &s);
            assert_eq!(got.len(), 1, "{src}");
            assert_eq!(got[0][0].1, Value::Id(v3), "{src}");
        }
    }

    #[test]
    fn sql_entity_pin_becomes_pattern_constant() {
        let s = store();
        let plan = compile("SELECT room FROM state WHERE entity = \"v1\"").unwrap();
        let got = rows(&plan, &s);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0].1, Value::str("lab"));
        match &plan.physical {
            PhysicalPlan::Select { query } => {
                assert_eq!(query.patterns[0].e, Term::Const(Value::str("v1")));
                assert!(query.filters.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pushdown_rewrites_value_position() {
        let plan = compile("SELECT entity FROM state WHERE room = \"lab\"").unwrap();
        assert!(
            plan.rules.contains(&"predicate_pushdown"),
            "{:?}",
            plan.rules
        );
        match &plan.physical {
            PhysicalPlan::Select { query } => {
                assert_eq!(query.patterns[0].v, Term::Const(Value::str("lab")));
                assert!(query.filters.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pushdown_skips_projected_and_numeric_columns() {
        // Projected column: must stay a filter.
        let plan = compile("SELECT entity, room FROM state WHERE room = \"lab\"").unwrap();
        assert!(!plan.rules.contains(&"predicate_pushdown"));
        // Numeric literal: the numeric tower equates 3 and 3.0; a
        // pattern constant would not, so it stays a filter.
        let plan = compile("SELECT entity FROM state WHERE heat = 3").unwrap();
        assert!(!plan.rules.contains(&"predicate_pushdown"));
    }

    #[test]
    fn golden_explain_pushdown() {
        let plan = compile("SELECT entity FROM state WHERE room = \"lab\"").unwrap();
        let (logical, physical) = render_explain(&plan, 4);
        assert_eq!(
            logical,
            "Project cols=[entity]\n\
             \x20 Filter preds=[(room == \"lab\")]\n\
             \x20   StateScan patterns=[?entity room ?room] time=current select=[*]\n"
        );
        assert_eq!(
            physical,
            "Merge shards=4 sort=rows dedup=true\n\
             \x20 StateScan partial patterns=[?entity room \"lab\"] filters=[] time=current select=[entity]\n"
        );
    }

    #[test]
    fn golden_explain_one_shard_shows_the_merge() {
        let plan = compile("select ?v where { ?v room \"lab\" } limit 2").unwrap();
        let (_, physical) = render_explain(&plan, 1);
        assert_eq!(
            physical,
            "Limit n=2\n\
             \x20 Merge shards=1 sort=rows dedup=true\n\
             \x20   StateScan partial patterns=[?v room \"lab\"] filters=[] time=current select=[v]\n"
        );
        let plan = compile("history v1 room").unwrap();
        let (_, physical) = render_explain(&plan, 1);
        assert_eq!(
            physical,
            "HistoryMerge shards=1 order=(start, shard, seq)\n\
             \x20 HistoryScan entity=\"v1\" attr=room\n"
        );
    }

    #[test]
    fn rows_are_ordered_by_entity_name_before_limit() {
        // Created in an order that is not name order, so entity-id
        // order and name order differ.
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        for (i, v) in ["zed", "mia", "amy", "bob"].into_iter().enumerate() {
            let e = s.named_entity(v);
            s.replace_at(e, "room", "lab", Timestamp::new(10 + i as u64))
                .unwrap();
        }
        let names = |src: &str| -> Vec<String> {
            rows(&compile(src).unwrap(), &s)
                .iter()
                .map(|row| match row[0].1 {
                    Value::Id(e) => s.entity_name(e).unwrap().to_string(),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        assert_eq!(
            names("select ?v where { ?v room \"lab\" } limit 2"),
            ["amy", "bob"]
        );
        assert_eq!(
            names("select ?v where { ?v room \"lab\" }"),
            ["amy", "bob", "mia", "zed"]
        );
        // A watch reads the same rows as a set.
        for src in [
            "select ?v where { ?v room \"lab\" } limit 2",
            "select ?v where { ?v room \"lab\" }",
        ] {
            let plan = compile(src).unwrap();
            let set = |out: PlanOutput| -> std::collections::BTreeSet<Bindings> {
                out.rows().unwrap().iter().cloned().collect()
            };
            assert_eq!(
                set(plan.execute_set(&s, QueryOptions::default()).unwrap()),
                set(plan.execute(&s, QueryOptions::default()).unwrap()),
                "{src}"
            );
        }
    }

    #[test]
    fn golden_explain_window_normalization() {
        let plan = compile(
            "SELECT window_start, count(*) AS n FROM state WHERE room != \"hall\" \
             GROUP BY sliding(10s, 10s) DURING 0 TO 1m",
        )
        .unwrap();
        assert_eq!(plan.rules, vec!["window_normalization"]);
        let (_, physical) = render_explain(&plan, 2);
        assert_eq!(
            physical,
            "WindowMerge shards=2 window=tumbling(10000) emit=[window_start, n]\n\
             \x20 PanePartial pane=10000 keys=[] aggs=[count(*) AS n]\n\
             \x20   FactScan attr=room range=[0, 60000) filters=[(room != \"hall\")]\n"
        );
        let plan = compile(
            "SELECT entity, max(room) AS hi FROM state GROUP BY session(5s), entity LIMIT 3",
        )
        .unwrap();
        let (_, physical) = render_explain(&plan, 1);
        assert_eq!(
            physical,
            "Limit n=3\n\
             \x20 WindowMerge shards=1 window=session(5000) emit=[entity, hi]\n\
             \x20   SessionPartial gap=5000 keys=[entity] aggs=[max(room) AS hi]\n\
             \x20     FactScan attr=room range=full filters=[]\n"
        );
    }

    #[test]
    fn windowed_plan_counts_transitions() {
        let s = store();
        let plan =
            compile("SELECT window_start, count(room) AS n FROM state GROUP BY tumbling(100)")
                .unwrap();
        let got = rows(&plan, &s);
        // Transitions at 10, 20 (window 0) and 150 (window 100).
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0],
            vec![
                (
                    Symbol::intern("window_start"),
                    Value::Time(Timestamp::new(0))
                ),
                (Symbol::intern("n"), Value::Int(2)),
            ]
        );
        assert_eq!(got[1][1].1, Value::Int(1));
    }

    #[test]
    fn windowed_group_by_entity() {
        let s = store();
        let plan =
            compile("SELECT entity, count(room) AS n FROM state GROUP BY tumbling(1000), entity")
                .unwrap();
        let got = rows(&plan, &s);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][0].1, Value::str("v1"));
        assert_eq!(got[0][1].1, Value::Int(2));
    }

    #[test]
    fn partials_of_split_stores_merge_like_one_store() {
        let whole = store();
        // The same facts split over two stores, one entity each.
        let mut a = TemporalStore::new();
        a.declare_attr("room", AttrSchema::one());
        let v1 = a.named_entity("v1");
        a.replace_at(v1, "room", "lobby", Timestamp::new(10))
            .unwrap();
        a.replace_at(v1, "room", "lab", Timestamp::new(150))
            .unwrap();
        let mut b = TemporalStore::new();
        b.declare_attr("room", AttrSchema::one());
        let v2 = b.named_entity("v2");
        b.replace_at(v2, "room", "lab", Timestamp::new(20)).unwrap();
        for src in [
            "SELECT window_start, count(room) AS n FROM state GROUP BY tumbling(100)",
            "SELECT window_start, room, count(*) AS n FROM state GROUP BY room, sliding(200, 100)",
            "SELECT window_start, window_end, count(room) AS n FROM state GROUP BY session(15)",
        ] {
            let plan = compile(src).unwrap();
            let PhysicalPlan::WindowAgg(w) = &plan.physical else {
                panic!("expected window plan");
            };
            let local = w.execute_local(&whole).unwrap();
            let parts = vec![w.partials(&a).unwrap(), w.partials(&b).unwrap()];
            assert_eq!(w.merge(parts).unwrap(), local, "{src}");
            // The fact-batch path folds into the same partials.
            let facts = w.collect_facts(&whole).unwrap();
            assert_eq!(w.aggregate(facts).unwrap(), local, "{src}");
        }
    }

    #[test]
    fn sql_planning_errors() {
        for bad in [
            "SELECT x FROM nowhere",                                  // unknown source
            "SELECT sum(x) FROM state",                               // agg without window
            "SELECT x FROM state GROUP BY x",                         // group-by without window
            "SELECT entity FROM state",                               // no attribute columns
            "SELECT window_start FROM state",                         // window col without window
            "SELECT x FROM state WHERE entity != \"a\"",              // non-eq entity predicate
            "SELECT x, count(*) FROM state GROUP BY tumbling(1s)",    // x not grouped
            "SELECT count(*) FROM state GROUP BY tumbling(1s)",       // no attr col
            "SELECT sum(x) FROM state GROUP BY tumbling(1s) AS OF 5", // window + AS OF
            "SELECT sum(x), sum(x) FROM state GROUP BY tumbling(1s)", // dup outputs
        ] {
            assert!(compile(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn explain_strips() {
        assert!(strip_explain("explain select ?v where { ?v a ?b }").0);
        assert_eq!(
            strip_explain("EXPLAIN SELECT x FROM state"),
            (true, "SELECT x FROM state")
        );
        assert!(!strip_explain("select ?v where { ?v a ?b }").0);
        assert!(!strip_explain("explainx").0);
        // Byte 7 falls inside a two-byte character.
        assert_eq!(strip_explain("ééééé"), (false, "ééééé"));
    }

    #[test]
    fn watchable_split() {
        assert!(compile("select ?v where { ?v room ?r }")
            .unwrap()
            .is_watchable());
        assert!(!compile("history \"v1\" room").unwrap().is_watchable());
    }
}
