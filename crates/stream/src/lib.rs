#![warn(missing_docs)]
//! # fenestra-stream
//!
//! The **stream processing component** of Fenestra — and, deliberately,
//! a faithful implementation of the window-centric paradigm the paper
//! critiques (CQL-style windows over streams, relational operators,
//! relation-to-stream output). It serves double duty:
//!
//! 1. as the substrate on which Fenestra's stream-processing rules run
//!    (augmented with state access through [`ops::state`]), and
//! 2. as the *baseline* system for every experiment: fixed count/time
//!    windows, sliding windows, session windows (Google Dataflow \[1\]),
//!    predicate windows (Ghanem et al. \[8\]), and frames (Grossniklaus
//!    et al. \[9\]), with recompute, incremental, and pane-based
//!    (Li et al. \[10\]) aggregation strategies.
//!
//! ## Architecture
//!
//! A dataflow [`graph::Graph`] of push-based [`operator::Operator`]s,
//! driven by an event-time [`executor::Executor`] with bounded
//! out-of-orderness watermarks. Operators never see wall-clock time.
//!
//! ```
//! use fenestra_stream::prelude::*;
//! use fenestra_base::{Event, Duration};
//!
//! let mut g = Graph::new();
//! let filter = g.add_op(Filter::new(Expr::name("amount").gt(Expr::lit(10i64))));
//! g.connect_source("sales", filter);
//! let win = g.add_op(
//!     TimeWindowOp::tumbling(Duration::millis(100))
//!         .aggregate(AggSpec::sum("amount", "total")),
//! );
//! g.connect(filter, win);
//! let sink = g.add_sink();
//! g.connect(win, sink.node);
//!
//! let mut ex = Executor::new(g);
//! for i in 0..10u64 {
//!     ex.push(Event::from_pairs("sales", i * 30, [("amount", 20i64)]));
//! }
//! ex.finish();
//! let out = sink.take();
//! assert!(!out.is_empty());
//! ```

pub mod aggregate;
pub mod executor;
pub mod graph;
pub mod metrics;
pub mod oneshot;
pub mod operator;
pub mod ops;
pub mod watermark;
pub mod window;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::aggregate::{AggFunc, AggSpec};
    pub use crate::executor::Executor;
    pub use crate::graph::{Graph, NodeId, SinkHandle};
    pub use crate::operator::{Emitter, Operator};
    pub use crate::ops::filter::Filter;
    pub use crate::ops::join::{JoinSide, WindowJoin};
    pub use crate::ops::map::{Derive, Project, Rename};
    pub use crate::ops::state::{StateEnrich, StateGate, StateProvider};
    pub use crate::ops::union::Union;
    pub use crate::watermark::WatermarkPolicy;
    pub use crate::window::count::CountWindowOp;
    pub use crate::window::landmark::LandmarkWindowOp;
    pub use crate::window::predicate::{FrameKind, FrameOp, PredicateWindowOp};
    pub use crate::window::session::SessionWindowOp;
    pub use crate::window::time::{SlidingStrategy, TimeWindowOp};
    pub use crate::window::EmitMode;
    pub use fenestra_base::expr::Expr;
}
