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

/// Time flags convert to u64 picoseconds; a value that would wrap must be
/// rejected, not silently run a near-zero window.
#[test]
fn time_flags_that_overflow_picoseconds_are_argument_errors() {
    for (args, msg) in [
        (&["--continuous", "--limit-ms", "18446744074"][..], "error: --limit-ms out of range"),
        (&["--arrival", "det", "--duration-us", "18446744073710"][..], "error: --duration-us out of range"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_relief-cli"))
            .args(["--mix", "CL", "--policy", "relief"])
            .args(args)
            .output()
            .expect("relief-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
