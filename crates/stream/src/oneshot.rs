//! One-shot batch execution of window operators.
//!
//! Takes a *finite, timestamp-sorted* batch of events, drives them
//! through a freshly built dataflow graph containing one window
//! operator, and hands back the fired window rows. The query planner's
//! windowed statements do not run through it (they aggregate per shard
//! and merge partials, see `fenestra-query`'s `window` module); it is
//! the reference their differential test compares against.
//!
//! Because the batch is sorted and finite, the executor runs with the
//! strict watermark policy and a final `finish()` flushes every
//! pending window — the adapter is deterministic: same batch in, same
//! rows out.

use crate::aggregate::AggSpec;
use crate::executor::Executor;
use crate::graph::Graph;
use crate::watermark::WatermarkPolicy;
use crate::window::session::SessionWindowOp;
use crate::window::time::TimeWindowOp;
use fenestra_base::error::{Error, Result};
use fenestra_base::record::{Event, Record};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::Duration;

/// The window shapes a one-shot batch run supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchWindow {
    /// Fixed windows of `size`, aligned at epoch.
    Tumbling(Duration),
    /// Overlapping windows of `size` every `hop`.
    Sliding(Duration, Duration),
    /// Gap-based session windows.
    Session(Duration),
}

/// Run `events` (must be sorted by timestamp) through one window
/// operator with the given grouping keys and aggregates, and return
/// the fired rows (each stamped with `window_start`/`window_end`) in
/// firing order.
pub fn run_window_batch(
    window: BatchWindow,
    keys: &[Symbol],
    aggs: &[AggSpec],
    events: Vec<Event>,
) -> Result<Vec<Record>> {
    let stream: Symbol = match events.first() {
        Some(ev) => ev.stream,
        None => return Ok(Vec::new()),
    };
    let mut g = Graph::new();
    let node = match window {
        BatchWindow::Tumbling(size) => {
            if size.as_millis() == 0 {
                return Err(Error::Invalid("window size must be positive".into()));
            }
            let mut op = TimeWindowOp::tumbling(size).group_by(keys.iter().copied());
            for spec in aggs {
                op = op.aggregate(*spec);
            }
            g.add_op(op)
        }
        BatchWindow::Sliding(size, hop) => {
            if size.as_millis() == 0 || hop.as_millis() == 0 {
                return Err(Error::Invalid(
                    "window size and hop must be positive".into(),
                ));
            }
            let mut op = TimeWindowOp::sliding(size, hop).group_by(keys.iter().copied());
            for spec in aggs {
                op = op.aggregate(*spec);
            }
            g.add_op(op)
        }
        BatchWindow::Session(gap) => {
            if gap.as_millis() == 0 {
                return Err(Error::Invalid("session gap must be positive".into()));
            }
            let mut op = SessionWindowOp::new(gap).group_by(keys.iter().copied());
            for spec in aggs {
                op = op.aggregate(*spec);
            }
            g.add_op(op)
        }
    };
    g.connect_source(stream, node);
    let sink = g.add_sink();
    g.connect(node, sink.node);
    let mut ex = Executor::try_with_policy(g, WatermarkPolicy::strict())?;
    ex.run(events);
    ex.finish();
    Ok(sink.take().into_iter().map(|ev| ev.record).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{window_end_field, window_start_field};
    use fenestra_base::time::Timestamp;
    use fenestra_base::value::Value;

    fn ev(ts: u64, room: &str) -> Event {
        Event::from_pairs("facts", ts, [("room", Value::str(room))])
    }

    #[test]
    fn tumbling_batch_counts_per_group() {
        let events = vec![ev(10, "a"), ev(20, "b"), ev(30, "a"), ev(110, "a")];
        let rows = run_window_batch(
            BatchWindow::Tumbling(Duration::millis(100)),
            &[Symbol::intern("room")],
            &[AggSpec::count("n")],
            events,
        )
        .unwrap();
        assert_eq!(rows.len(), 3, "two groups in w0, one in w1");
        let first = rows
            .iter()
            .find(|r| {
                r.get("room") == Some(&Value::str("a"))
                    && r.get(window_start_field()) == Some(&Value::Time(Timestamp::new(0)))
            })
            .unwrap();
        assert_eq!(first.get("n"), Some(&Value::Int(2)));
        assert_eq!(
            first.get(window_end_field()),
            Some(&Value::Time(Timestamp::new(100)))
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let rows = run_window_batch(
            BatchWindow::Tumbling(Duration::millis(100)),
            &[],
            &[AggSpec::count("n")],
            Vec::new(),
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn zero_size_window_errors() {
        assert!(run_window_batch(
            BatchWindow::Tumbling(Duration::millis(0)),
            &[],
            &[AggSpec::count("n")],
            vec![ev(1, "a")],
        )
        .is_err());
    }

    #[test]
    fn session_batch_splits_on_gap() {
        let events = vec![ev(0, "a"), ev(10, "a"), ev(500, "a")];
        let rows = run_window_batch(
            BatchWindow::Session(Duration::millis(100)),
            &[],
            &[AggSpec::count("n")],
            events,
        )
        .unwrap();
        assert_eq!(rows.len(), 2, "gap of 490 closes the first session");
        assert_eq!(rows[0].get("n"), Some(&Value::Int(2)));
        assert_eq!(rows[1].get("n"), Some(&Value::Int(1)));
    }
}
