//! CLI integration tests: drive the `fenestra` binary end-to-end.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fenestra")
}

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("fenestra-cli-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn demo_runs() {
    let out = Command::new(bin()).arg("demo").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("?v=alice"));
    assert!(stdout.contains("[t10, t20)"));
}

#[test]
fn run_then_query_snapshot() {
    let dir = tmpdir();
    let rules = dir.join("rules.fen");
    let events = dir.join("events.jsonl");
    let state = dir.join("state.json");
    std::fs::write(
        &rules,
        "rule mv:\n  on sensors\n  replace $(visitor).room = room\n",
    )
    .unwrap();
    std::fs::write(
        &events,
        r#"{"stream":"sensors","ts":10,"visitor":"v1","room":"a"}
{"stream":"sensors","ts":20,"visitor":"v1","room":"b"}
{"stream":"sensors","ts":30,"visitor":"v2","room":"a"}
"#,
    )
    .unwrap();

    let out = Command::new(bin())
        .args([
            "run",
            "--rules",
            rules.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--attr",
            "room:one",
            "--save",
            state.to_str().unwrap(),
            "--query",
            r#"select ?v where { ?v room "a" }"#,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("?v=v2"), "{stdout}");
    assert!(stdout.contains("(1 row(s))"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 transitions"), "{stderr}");

    // Query the snapshot, including history.
    let out = Command::new(bin())
        .args([
            "query",
            "--state",
            state.to_str().unwrap(),
            "history v1 room",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(2 interval(s))"), "{stdout}");

    let out = Command::new(bin())
        .args([
            "query",
            "--state",
            state.to_str().unwrap(),
            r#"select ?v ?r where { ?v room ?r } asof 15"#,
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("?r=\"a\""), "{stdout}");
    assert!(stdout.contains("(1 row(s))"), "{stdout}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = Command::new(bin()).arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = Command::new(bin())
        .args(["run", "--rules", "/nonexistent", "--events", "/nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = Command::new(bin())
        .args([
            "query",
            "--state",
            "/nonexistent",
            "select ?x where { ?x a 1 }",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = Command::new(bin()).arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn run_with_ontology() {
    let dir = tmpdir();
    let rules = dir.join("cls.fen");
    let events = dir.join("catalog.jsonl");
    let ont = dir.join("taxonomy.ont");
    std::fs::write(
        &rules,
        "rule cls:\n  on catalog\n  replace $(product).type = class\n",
    )
    .unwrap();
    std::fs::write(
        &events,
        r#"{"stream":"catalog","ts":1,"product":"p1","class":"toy_cars"}
{"stream":"catalog","ts":2,"product":"p2","class":"books"}
"#,
    )
    .unwrap();
    std::fs::write(
        &ont,
        "class toy_cars < toys\nclass toys < products\nclass books < products\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .args([
            "run",
            "--rules",
            rules.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--ontology",
            ont.to_str().unwrap(),
            "--query",
            r#"select ?p where { ?p type "products" }"#,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(2 row(s))"),
        "derived memberships: {stdout}"
    );
}

#[test]
fn inspect_summarizes_snapshot() {
    let dir = tmpdir();
    let rules = dir.join("r2.fen");
    let events = dir.join("e2.jsonl");
    let state = dir.join("s2.json");
    std::fs::write(&rules, "rule mv:\n on sensors\n replace $(v).room = room\n").unwrap();
    std::fs::write(
        &events,
        "{\"stream\":\"sensors\",\"ts\":1,\"v\":\"a\",\"room\":\"x\"}\n{\"stream\":\"sensors\",\"ts\":2,\"v\":\"a\",\"room\":\"y\"}\n",
    )
    .unwrap();
    let ok = Command::new(bin())
        .args([
            "run",
            "--rules",
            rules.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--save",
            state.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(ok.success());
    let out = Command::new(bin())
        .args(["inspect", "--state", state.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("named entities:   1"), "{stdout}");
    assert!(stdout.contains("open facts:       1"), "{stdout}");
    assert!(stdout.contains("room"), "{stdout}");
}

/// Golden: the whole `--metrics-json` line of a fixed run, pinning the
/// engine counters' names, order and values.
#[test]
fn metrics_json_line_matches_golden() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let out = Command::new(bin())
        .args([
            "run",
            "--rules",
            &format!("{data}/catalog.rules"),
            "--events",
            &format!("{data}/catalog.jsonl"),
            "--ontology",
            &format!("{data}/taxonomy.ont"),
            "--metrics-json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            r#"{"events":4,"late_dropped":0,"rule_fired":4,"transitions":4,"#,
            r#""guard_blocked":0,"rule_errors":0,"reason_asserted":8,"#,
            r#""reason_retracted":0,"reason_syncs":4,"ttl_expired":0}"#,
            "\n"
        )
    );
}
