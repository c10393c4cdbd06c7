//! `repro` refuses what it cannot run: a misspelled target or flag must
//! exit 2 with a usage message instead of silently running nothing.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains(needle), "stderr:\n{stderr}");
    assert!(stderr.contains("usage: repro"), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn misspelled_target_exits_2() {
    let out = repro(&["--scale", "smoke", "tabel2"]);
    assert_usage_error(&out, "unknown target `tabel2`");
}

#[test]
fn misspelled_flag_exits_2() {
    let out = repro(&["--scal", "smoke"]);
    assert_usage_error(&out, "unknown flag `--scal`");
}

#[test]
fn json_without_a_directory_exits_2() {
    let out = repro(&["table1", "--json"]);
    assert_usage_error(&out, "--json expects a directory");
}
