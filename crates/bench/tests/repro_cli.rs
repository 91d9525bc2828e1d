//! The `repro` command line: listing, name lookup, option checking and
//! the files one run writes.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

#[test]
fn list_prints_one_line_per_experiment() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 14, "{stdout}");
}

#[test]
fn unknown_name_fails_and_suggests_a_close_one() {
    let out = repro(&["fig1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment 'fig1'"), "{stderr}");
    assert!(stderr.contains("did you mean 'fig"), "{stderr}");
}

#[test]
fn scale_zero_is_rejected() {
    let out = repro(&["model", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn a_run_writes_its_text_and_csv() {
    let dir = std::env::temp_dir().join(format!("rocket-repro-cli-{}", std::process::id()));
    let out = repro(&["model", "--scale", "20", "--out", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("model.txt")).unwrap();
    let csv = std::fs::read_to_string(dir.join("model.csv")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), format!("{text}\n"));
    assert!(csv.starts_with("app,tmin_s,sim_s,ratio\n"), "{csv}");
    assert_eq!(csv.lines().count(), 4, "header + one row per app");
}
