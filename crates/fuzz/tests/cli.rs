//! The `irlt-fuzz` exit-status contract the CI random sweep relies on:
//! a campaign that executes nothing, or never reaches an oracle
//! agreement, exits 2 so the job fails instead of passing vacuously.

use std::process::{Command, Output};

fn irlt_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_irlt-fuzz"))
        .args(args)
        .output()
        .expect("irlt-fuzz runs")
}

#[test]
fn vacuous_random_campaign_exits_2() {
    let out = irlt_fuzz(&["--mode", "random", "--cases", "0", "--min-cases", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("executed nothing meaningful"), "{stderr}");
}

#[test]
fn small_random_campaign_agrees_and_exits_0() {
    let out = irlt_fuzz(&[
        "--mode",
        "random",
        "--cases",
        "64",
        "--min-cases",
        "0",
        "--seed",
        "1992",
        "--no-search",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("64 executed"), "{stdout}");
}
