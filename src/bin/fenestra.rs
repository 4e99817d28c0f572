//! The `fenestra` command-line tool.
//!
//! ```text
//! fenestra run --rules RULES.fen --events EVENTS.jsonl
//!              [--attr name:one|many]... [--save STATE.json]
//!              [--query "select ..."]...
//!     Feed a JSONL event log through a rule program, print metrics,
//!     optionally run queries against the resulting state and/or save
//!     a state snapshot.
//!
//! fenestra query --state STATE.json "select ?v where { ?v room ?r }"
//!     Run one query against a saved state snapshot.
//!
//! fenestra demo
//!     A self-contained demonstration (no files needed).
//! ```

use fenestra::core::{Engine, EngineConfig, QueryResult};
use fenestra::io::events_from_jsonl;
use fenestra::prelude::*;
use fenestra::temporal::persist;
use fenestra::temporal::TemporalStore;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
fenestra — explicit state management for stream processing

USAGE:
  fenestra run --rules FILE --events FILE [--attr name:one]...
               [--ontology FILE] [--save FILE] [--query TEXT]...
               [--lateness MS] [--metrics-json]
  fenestra query --state FILE QUERY
  fenestra inspect --state FILE
  fenestra demo
";

fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_all(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    while let Some(v) = take_opt(args, flag)? {
        out.push(v);
    }
    Ok(out)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let rules_path = take_opt(&mut args, "--rules")?.ok_or("run needs --rules FILE")?;
    let events_path = take_opt(&mut args, "--events")?.ok_or("run needs --events FILE")?;
    let save = take_opt(&mut args, "--save")?;
    let lateness: u64 = take_opt(&mut args, "--lateness")?
        .map(|s| s.parse().map_err(|_| "--lateness must be an integer"))
        .transpose()?
        .unwrap_or(0);
    let attrs = take_all(&mut args, "--attr")?;
    let queries = take_all(&mut args, "--query")?;
    let ontology = take_opt(&mut args, "--ontology")?;
    let metrics_json = take_flag(&mut args, "--metrics-json");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let mut engine = Engine::new(EngineConfig {
        max_lateness: Duration::millis(lateness),
        auto_reason: ontology.is_some(),
        ..EngineConfig::default()
    });
    if let Some(path) = &ontology {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let ont = fenestra::reason::parse_ontology(&src).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "loaded ontology with {} axiom(s) from {path}",
            ont.axioms().len()
        );
        engine.set_ontology(ont);
    }
    for spec in attrs {
        let (name, card) = spec
            .split_once(':')
            .ok_or_else(|| format!("--attr `{spec}` must be name:one or name:many"))?;
        let schema = match card {
            "one" => AttrSchema::one(),
            "many" => AttrSchema::many(),
            other => return Err(format!("unknown cardinality `{other}`")),
        };
        engine.declare_attr(name, schema);
    }

    let rules_src =
        std::fs::read_to_string(&rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
    let n = engine
        .add_rules_text(&rules_src)
        .map_err(|e| format!("{rules_path}: {e}"))?;
    eprintln!("loaded {n} rule(s) from {rules_path}");

    let events_src =
        std::fs::read_to_string(&events_path).map_err(|e| format!("{events_path}: {e}"))?;
    let events = events_from_jsonl(&events_src).map_err(|e| format!("{events_path}: {e}"))?;
    eprintln!("feeding {} event(s) from {events_path}", events.len());
    engine.run(events);
    engine.finish();

    let m = engine.metrics();
    if metrics_json {
        // One machine-readable JSON object on stdout — same shape the
        // fenestrad `stats` command reports under "engine".
        println!("{}", m.readings().json());
    } else {
        eprintln!(
            "done: {} events ({} late-dropped), {} rule firings, {} transitions, {} guard-blocked, {} errors",
            m.events, m.late_dropped, m.rule_fired, m.transitions, m.guard_blocked, m.rule_errors
        );
    }

    for q in queries {
        let r = engine.query(&q).map_err(|e| e.to_string())?;
        let store = engine.store();
        print_result(&q, r, Some(&store));
    }
    if let Some(path) = save {
        let store = engine.store();
        persist::save(&store, &path).map_err(|e| e.to_string())?;
        eprintln!("state snapshot written to {path}");
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let state_path = take_opt(&mut args, "--state")?.ok_or("query needs --state FILE")?;
    if args.len() != 1 {
        return Err("query needs exactly one query string".into());
    }
    let store = persist::load(&state_path).map_err(|e| format!("{state_path}: {e}"))?;
    let q = &args[0];
    let plan = fenestra::query::compile(q).map_err(|e| e.to_string())?;
    let out = plan
        .execute(&store, fenestra::query::QueryOptions::default())
        .map_err(|e| e.to_string())?;
    print_result(q, out, Some(&store));
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let state_path = take_opt(&mut args, "--state")?.ok_or("inspect needs --state FILE")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let store = persist::load(&state_path).map_err(|e| format!("{state_path}: {e}"))?;
    println!("state snapshot: {state_path}");
    println!("  revision:         {}", store.revision());
    println!("  last transition:  {}", store.last_transition());
    println!("  named entities:   {}", store.named_entities().count());
    println!("  open facts:       {}", store.open_fact_count());
    println!("  stored facts:     {}", store.stored_fact_count());
    let stats = store.stats();
    println!(
        "  transitions:      {} ({} asserts, {} retracts, {} replaces)",
        stats.transitions(),
        stats.asserts,
        stats.retracts,
        stats.replaces
    );
    println!("  open facts per attribute:");
    for (attr, n) in store.open_attr_counts() {
        println!("    {attr:20} {n}");
    }
    Ok(())
}

/// Render a value, resolving entity ids to their registered names.
fn show(v: &Value, store: Option<&TemporalStore>) -> String {
    if let (Value::Id(e), Some(s)) = (v, store) {
        if let Some(name) = s.entity_name(*e) {
            return name.as_str().to_owned();
        }
    }
    v.to_string()
}

fn print_result(q: &str, r: QueryResult, store: Option<&TemporalStore>) {
    println!("query> {q}");
    match r {
        QueryResult::Rows(rows) => {
            for row in &rows {
                let cells: Vec<String> = row
                    .iter()
                    .map(|(n, v)| format!("?{n}={}", show(v, store)))
                    .collect();
                println!("  {}", cells.join("  "));
            }
            println!("  ({} row(s))", rows.len());
        }
        QueryResult::History(h) => {
            for (iv, v, prov) in &h {
                println!("  {iv} {v} [{prov}]");
            }
            println!("  ({} interval(s))", h.len());
        }
    }
}

fn cmd_demo() -> Result<(), String> {
    let mut engine = Engine::with_defaults();
    engine.declare_attr("room", AttrSchema::one());
    engine
        .add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
        .map_err(|e| e.to_string())?;
    let jsonl = r#"
        {"stream":"sensors","ts":10,"visitor":"alice","room":"lobby"}
        {"stream":"sensors","ts":15,"visitor":"bob","room":"lobby"}
        {"stream":"sensors","ts":20,"visitor":"alice","room":"lab"}
    "#;
    engine.run(events_from_jsonl(jsonl).map_err(|e| e.to_string())?);
    engine.finish();
    let rows = engine
        .query("select ?v ?r where { ?v room ?r }")
        .map_err(|e| e.to_string())?;
    let hist = engine
        .query("history alice room")
        .map_err(|e| e.to_string())?;
    let store = engine.store();
    print_result("select ?v ?r where { ?v room ?r }", rows, Some(&store));
    print_result("history alice room", hist, Some(&store));
    Ok(())
}
