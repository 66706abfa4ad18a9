//! `simcore_bench` mode flags: a flag the chosen mode would ignore is a
//! usage error (exit 2), not a silently skipped gate.

use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simcore_bench"))
        .args(args)
        .output()
        .expect("simcore_bench runs")
}

#[test]
fn check_does_not_combine_with_a_mode() {
    for mode in ["--events", "--service", "--soak"] {
        let out = bench(&[mode, "--check"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode} --check: {stderr}");
        assert!(stderr.contains("usage: simcore_bench"), "{mode} --check: {stderr}");
    }
}

#[test]
fn two_modes_are_rejected() {
    for pair in [["--service", "--events"], ["--events", "--soak"], ["--soak", "--service"]] {
        let out = bench(&pair);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{pair:?}: {stderr}");
        assert!(stderr.contains("separate modes"), "{pair:?}: {stderr}");
    }
}
