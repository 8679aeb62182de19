//! Output fixtures: every `spec-lint --json` report parses to the same
//! value as the fixture under `tests/fixtures/`. The fixtures were
//! captured from the hand-formatted writer the `Json` renderer replaced,
//! so this pins key names, key order and values across the change while
//! leaving whitespace free. `crates/serve/tests/serve_protocol.rs` holds
//! the same check for the daemon's `lint` and `audit` responses.
//!
//! Audits run with `--jobs 1`: concurrent workers may race to fill the
//! same inclusion memo entry, which moves counts between
//! `inclusion_checks` and `inclusion_hits` in the `stats` block.

use hierarchy_automata::json::Json;
use std::process::Command;

/// `(fixture, arguments, exit status)`.
#[rustfmt::skip]
const CASES: &[(&str, &[&str], i32)] = &[
    ("rules", &["rules", "--json"], 0),
    ("program_list", &["program", "--list", "--json"], 0),
    ("program", &["program", "--json"], 0),
    ("examples", &["examples", "--json"], 0),
    ("formula", &["formula", "--json", "G (a & !a)"], 1),
    ("audit", &["audit", "--json", "--jobs", "1", "--props", "p,q",
                "G p", "!F !p", "F q", "G (p -> F q)", "G !p"], 1),
];

fn fixture(name: &str) -> Json {
    let path = format!("{}/tests/fixtures/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(text.trim_end()).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn json_reports_parse_to_the_fixture_values() {
    for &(name, args, status) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_spec-lint"))
            .args(args)
            .output()
            .expect("run spec-lint");
        assert_eq!(out.status.code(), Some(status), "exit status of {args:?}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        assert_eq!(stdout.lines().count(), 1, "{args:?} prints one line");
        let got = Json::parse(stdout.trim_end()).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        assert_eq!(got, fixture(name), "spec-lint {args:?}");
    }
}
