//! E11 — ablations over Fenestra's own design choices (not a paper
//! claim; DESIGN.md calls these out as knobs worth quantifying):
//!
//! * WAL journaling on/off (durability tax on the store hot path);
//! * interaction semantics (`StateFirst` / `StreamFirst` / `Snapshot`);
//! * lateness bound (reorder-buffer cost when input is in order);
//! * auto-reasoning on/off under classification churn.

use crate::table::{fmt_f, Table};
use crate::time_it;
use fenestra_base::record::Event;
use fenestra_base::time::{Duration, Timestamp};
use fenestra_base::value::Value;
use fenestra_core::{Engine, EngineConfig, Semantics};
use fenestra_reason::{Axiom, Ontology};
use fenestra_temporal::{AttrSchema, TemporalStore};
use fenestra_workloads::{ClickstreamConfig, ClickstreamWorkload};

const RULES: &str = r#"
    rule enter:
      on clicks where action == "enter"
      replace $(user).status = "active"
    rule leave:
      on clicks where action == "leave"
      if state($(user)).status == "active"
      retract $(user).status = "active"
"#;

fn engine_throughput(events: &[Event], cfg: EngineConfig) -> f64 {
    let mut engine = Engine::new(cfg);
    engine.declare_attr("status", AttrSchema::one());
    engine.add_rules_text(RULES).unwrap();
    let (_, secs) = time_it(|| {
        engine.run(events.iter().cloned());
        engine.finish();
    });
    events.len() as f64 / secs
}

/// Replace throughput of one store with or without its journal: `n`
/// replaces over 500 visitors and 13 rooms. Returns the ops/s and the
/// number of journaled ops left in the store.
fn wal_replace_rate(wal: bool, n: u64) -> (f64, usize) {
    let mut store = if wal {
        TemporalStore::new()
    } else {
        TemporalStore::without_wal()
    };
    store.declare_attr("room", AttrSchema::one());
    let ids: Vec<_> = (0..500u64)
        .map(|v| store.named_entity(format!("v{v}").as_str()))
        .collect();
    let (_, secs) = time_it(|| {
        for i in 0..n {
            store
                .replace_at(
                    ids[(i % 500) as usize],
                    "room",
                    format!("r{}", i % 13).as_str(),
                    Timestamp::new(i + 1),
                )
                .unwrap();
        }
    });
    (n as f64 / secs, store.journal_len())
}

/// Run E11.
pub fn run() -> Table {
    let mut t = Table::new(
        "E11: ablations over Fenestra design choices",
        &["knob", "setting", "metric", "value"],
    );

    // --- WAL on/off on the store hot path. ---------------------------------
    let n = 100_000u64;
    for wal in [true, false] {
        let (rate, _) = wal_replace_rate(wal, n);
        t.row(vec![
            "WAL journaling".into(),
            if wal { "on" } else { "off" }.into(),
            "replace ops/s".into(),
            fmt_f(rate),
        ]);
    }

    // --- Interaction semantics. --------------------------------------------
    let w = ClickstreamWorkload::generate(&ClickstreamConfig {
        users: 50,
        sessions: 400,
        ..Default::default()
    });
    for (name, sem) in [
        ("StateFirst", Semantics::StateFirst),
        ("StreamFirst", Semantics::StreamFirst),
        ("Snapshot", Semantics::Snapshot),
    ] {
        let tput = engine_throughput(
            &w.events,
            EngineConfig {
                semantics: sem,
                ..EngineConfig::default()
            },
        );
        t.row(vec![
            "semantics".into(),
            name.into(),
            "events/s".into(),
            fmt_f(tput),
        ]);
    }

    // --- Lateness bound (in-order input pays the buffer anyway). ------------
    for lateness in [0u64, 1_000, 60_000] {
        let tput = engine_throughput(
            &w.events,
            EngineConfig {
                max_lateness: Duration::millis(lateness),
                ..EngineConfig::default()
            },
        );
        t.row(vec![
            "lateness bound".into(),
            format!("{lateness}ms"),
            "events/s".into(),
            fmt_f(tput),
        ]);
    }

    // --- Auto-reasoning under churn. -----------------------------------------
    let churn: Vec<Event> = (0..2_000u64)
        .map(|i| {
            Event::from_pairs(
                "catalog",
                i + 1,
                [
                    ("product", Value::str(&format!("p{}", i % 100))),
                    ("class", Value::str(&format!("c0_{}", i % 4))),
                ],
            )
        })
        .collect();
    let taxonomy = {
        let mut axioms = Vec::new();
        for d in 0..4 {
            for w in 0..4 {
                axioms.push(Axiom::SubClassOf(
                    Value::str(&format!("c{d}_{w}")),
                    Value::str(&format!("c{}_{}", d + 1, w / 2)),
                ));
            }
        }
        Ontology::from_axioms(axioms)
    };
    for auto in [false, true] {
        let mut engine = Engine::new(EngineConfig {
            auto_reason: auto,
            ..EngineConfig::default()
        });
        engine.declare_attr("type", AttrSchema::one());
        engine.set_ontology(taxonomy.clone());
        engine
            .add_rules_text("rule cls:\n on catalog\n replace $(product).type = class")
            .unwrap();
        let (_, secs) = time_it(|| {
            engine.run(churn.iter().cloned());
            engine.finish();
            if !auto {
                engine.reason_now().unwrap();
            }
        });
        t.row(vec![
            "reasoning".into(),
            if auto {
                "per-transition"
            } else {
                "once-at-end"
            }
            .into(),
            "events/s".into(),
            fmt_f(churn.len() as f64 / secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::wal_replace_rate;

    #[test]
    fn e11_runs() {
        let t = super::run();
        assert_eq!(t.rows.len(), 10);
    }

    #[test]
    fn only_the_journaling_store_journals() {
        assert_eq!(wal_replace_rate(false, 1000).1, 0);
        assert!(wal_replace_rate(true, 1000).1 >= 1000);
    }

    /// WAL-off does strictly less work than WAL-on, so it must not be
    /// slower. One wall-clock run of each reads the host as much as the
    /// code while other tests run beside it, so this compares the
    /// medians of 5 alternating runs, with 20 % slack.
    #[test]
    fn wal_off_is_not_slower_than_wal_on() {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            on.push(wal_replace_rate(true, 100_000).0);
            off.push(wal_replace_rate(false, 100_000).0);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (on, off) = (median(&mut on), median(&mut off));
        assert!(
            off > on * 0.8,
            "wal-off {off} vs wal-on {on} (medians of 5)"
        );
    }
}
