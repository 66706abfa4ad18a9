//! `relief-cli` argument validation: bad knobs print an error and exit 1,
//! never reach a library assertion.

use std::process::Command;

#[test]
fn zero_counts_are_argument_errors() {
    for (flag, msg) in [
        ("--partitions", "error: --partitions must be at least 1"),
        ("--jobs", "error: --jobs must be at least 1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_relief-cli"))
            .args(["--mix", "CL", "--policy", "relief", flag, "0"])
            .output()
            .expect("relief-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0: {stderr}");
        assert!(stderr.contains(msg), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
    }
}
