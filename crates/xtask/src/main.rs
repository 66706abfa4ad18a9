//! `cargo run -p xtask -- <check|bench>` — the hermetic CI gate and the
//! wall-clock benchmark front end.
//!
//! `check` verifies what the sandboxed environment actually guarantees:
//!
//! 1. `cargo build --offline --workspace --benches` — the tree, including
//!    every benchmark target, builds with zero network access (no registry
//!    dependencies may creep back in).
//! 2. `cargo clippy --offline <every library crate> --all-targets --
//!    -D warnings` — all library crates stay lint-clean, including the
//!    `clippy::unwrap_used` / `clippy::expect_used` gates their crate
//!    roots opt into (tests carry a blanket allow; the few non-test
//!    `expect`s document event-loop invariants via explicit
//!    file/function-level allows). Skipped with a notice when the
//!    clippy component is not installed.
//! 3. `unit` — `cargo test --offline --workspace --lib`: every library
//!    crate's unit tests, which a root-package `cargo test` never runs.
//!    Among them are the `BinaryHeap`-oracle property tests that pin the
//!    event queue's and the chunk lane's `(time, seq)` dispatch order.
//! 4. `campaign_smoke` (release) — the deterministic campaign engine
//!    executes a small grid serially and with two workers and proves the
//!    reports byte-identical.
//! 5. `cache-hygiene` — the standard campaign-cache directory holds no
//!    entries written under a stale schema version or code-version salt
//!    (they can never hit again; `cache_hygiene --purge` deletes them).
//!    `chaos-smoke` (release) — the chaos campaign binary executes a
//!    small fault × overload grid with the self-healing stack on,
//!    `soak-smoke` (release) — a short bounded-memory MMPP soak whose
//!    deterministic report must be byte-identical at `--jobs` 1 and 2
//!    and whose live-slot high-water mark must stay under the
//!    configured bound (instance recycling keeps memory O(in-flight)),
//!    `invariants` proves the end-of-run conservation checks also
//!    hold in a release build via the `invariants` feature, and
//!    `only-smoke` renders one artifact with `all_experiments --only
//!    table2 --no-cache` and checks that an unknown `--only` name exits 2.
//! 6. The determinism, conformance, and property test suites:
//!    `campaign_engine`, `campaign_cache` (the content-addressed
//!    incremental-campaign store: warm reruns simulate zero cells with
//!    byte-identical reports, corrupt entries fall back to simulation,
//!    salt bumps invalidate), `golden_experiments`,
//!    `scheduler_conformance`, `metamorphic_properties`,
//!    `fault_injection`, `service_mode` (the open-loop streaming
//!    frontend: byte-identical reports at any `--jobs`, bit-inert when
//!    disabled, admission accounting), `chaos_conformance` (memory-side
//!    fault domains, circuit breakers, timeouts and hedges, the
//!    simulation watchdog, and the campaign-cache round trip),
//!    `queue_equivalence`,
//!    `soa_equivalence` (the hot path pinned bit for bit to committed
//!    FNV-1a digests of stats, accounting, prediction samples and
//!    traces, under all eleven policies, twenty seeds, faults, and
//!    service mode), `recycling_equivalence` (generational instance
//!    recycling pinned to digests likewise: stale timeouts dropped on
//!    recycled slots, live-slot high-water below launched instances,
//!    bounded-memory mode observation-only), `dispatch_equivalence`
//!    (the chunk lane's merged dispatch pinned to digests of the full
//!    trace text: watchdog trips, stale completions of cancelled
//!    transfers, time-limit truncation), and `oracle_conformance`
//!    (the ahead-of-time scheduling bound: oracle ≤ every online
//!    policy, prediction = replay bit-exactly, beam-width monotonicity,
//!    recorded-run replay differentials).
//! 7. `xtask bench --check` — a short run of the hot-path benchmark that
//!    validates the `BENCH_simcore.json` schema and then gates on the
//!    committed baseline: the fresh run's fastest pass, as ns/event over
//!    the calibration kernel's ms (a fixed SplitMix64 fill plus sort,
//!    timed beside every pass so host speed cancels), must stay within
//!    10 % of the committed median of that ratio; absolute ns/event is
//!    printed and recorded alongside (skipped with a notice when no
//!    baseline is committed). A reduced soak is gated the same way, at
//!    60 %, against the newest committed `+soak` trajectory entry.
//!
//! `check --suite <name>[,<name>...]` runs a subset of those steps by
//! name (see `check --list-suites` for the names); everything else is
//! skipped. Unknown names abort with the list of valid ones.
//!
//! `bench` (release) measures the simulation hot path over a pinned
//! campaign subset beside the calibration kernel, writes
//! `BENCH_simcore.json` (schema v3) at the repo root, and appends the run's
//! medians to the `BENCH_trajectory.json` history (see README.md).
//! Extra arguments (`--iters N`, `--out PATH`, `--check`,
//! `--tolerance PCT`, `--service`, `--soak`, `--smoke`, `--jobs N`) are
//! forwarded to the
//! `simcore_bench` binary; `bench --service` times the open-loop
//! service subset and appends a `+service` trajectory entry instead,
//! and `bench --soak` drives the
//! million-request bounded-memory MMPP soak, appending a `+soak` entry
//! that also records peak RSS, the live-slot high-water mark and the
//! calibration kernel's ms. `bench --check` additionally gates a reduced
//! soak against the committed `+soak` entry and the live-set bound;
//! `--check` does not combine with the other modes.
//!
//! Exit code is nonzero if any executed step fails.

use std::process::{Command, ExitCode};

fn run(desc: &str, cmd: &mut Command) -> bool {
    println!("==> {desc}");
    match cmd.status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("xtask: '{desc}' failed with {status}");
            false
        }
        Err(e) => {
            eprintln!("xtask: cannot spawn '{desc}': {e}");
            false
        }
    }
}

fn have_clippy() -> bool {
    Command::new("cargo")
        .args(["clippy", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// The integration-test suites step 6 runs, as `(package, test target)`.
const TEST_SUITES: [(&str, &str); 13] = [
    ("relief-bench", "campaign_engine"),
    ("relief-bench", "campaign_cache"),
    ("relief", "golden_experiments"),
    ("relief", "scheduler_conformance"),
    ("relief", "metamorphic_properties"),
    ("relief", "fault_injection"),
    ("relief", "service_mode"),
    ("relief", "chaos_conformance"),
    ("relief", "queue_equivalence"),
    ("relief", "soa_equivalence"),
    ("relief", "recycling_equivalence"),
    ("relief", "dispatch_equivalence"),
    ("relief", "oracle_conformance"),
];

/// Names accepted by `check --suite` that are not test targets.
const META_SUITES: [&str; 10] = [
    "build",
    "lint",
    "unit",
    "campaign-smoke",
    "cache-hygiene",
    "chaos-smoke",
    "soak-smoke",
    "invariants",
    "only-smoke",
    "bench-check",
];

fn print_suites() {
    println!("check suites (for --suite <name>[,<name>...]):");
    for name in META_SUITES {
        println!("  {name}");
    }
    for (package, suite) in TEST_SUITES {
        println!("  {suite}  (cargo test -p {package} --test {suite})");
    }
}

/// Parses `check` arguments into a suite filter. `None` = run everything.
fn parse_suite_filter(args: &[String]) -> Result<Option<Vec<String>>, String> {
    let mut filter: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--suite" => {
                let v = it.next().ok_or("--suite needs a value")?;
                let names = filter.get_or_insert_with(Vec::new);
                names.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--list-suites" => {
                print_suites();
                std::process::exit(0);
            }
            other => return Err(format!("unknown check option '{other}'")),
        }
    }
    if let Some(names) = &filter {
        let known = |n: &str| {
            META_SUITES.contains(&n) || TEST_SUITES.iter().any(|&(_, s)| s == n)
        };
        for n in names {
            if !known(n) {
                print_suites();
                return Err(format!("unknown suite '{n}'"));
            }
        }
        if names.is_empty() {
            return Err("--suite needs at least one name".into());
        }
    }
    Ok(filter)
}

fn check(args: &[String]) -> ExitCode {
    let filter = match parse_suite_filter(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let wants = |name: &str| filter.as_ref().is_none_or(|f| f.iter().any(|n| n == name));

    let mut ok = true;
    if wants("build") {
        ok &= run(
            "cargo build --offline --workspace --benches",
            Command::new("cargo").args(["build", "--offline", "--workspace", "--benches"]),
        );
    }
    if wants("lint") {
        if have_clippy() {
            const LIB_CRATES: [&str; 13] = [
                "relief-sim",
                "relief-dag",
                "relief-mem",
                "relief-core",
                "relief-fault",
                "relief-service",
                "relief-accel",
                "relief-workloads",
                "relief-metrics",
                "relief-trace",
                "relief-oracle",
                "relief-bench",
                "relief",
            ];
            let mut args: Vec<&str> = vec!["clippy", "--offline"];
            for c in LIB_CRATES {
                args.extend(["-p", c]);
            }
            args.extend(["--all-targets", "--", "-D", "warnings"]);
            ok &= run(
                "cargo clippy --offline <library crates> --all-targets -- -D warnings",
                Command::new("cargo").args(&args),
            );
        } else {
            println!("==> clippy component not installed; skipping lint gate");
        }
    }
    if wants("unit") {
        ok &= run(
            "cargo test --offline --workspace --lib",
            Command::new("cargo").args(["test", "--offline", "--workspace", "--lib"]),
        );
    }
    if wants("campaign-smoke") {
        ok &= run(
            "campaign engine smoke test (jobs=1 vs jobs=2)",
            Command::new("cargo").args([
                "run",
                "--offline",
                "--release",
                "-p",
                "relief-bench",
                "--bin",
                "campaign_smoke",
            ]),
        );
    }
    if wants("cache-hygiene") {
        ok &= run(
            "campaign-cache hygiene (no stale schema/salt entries)",
            Command::new("cargo").args([
                "run",
                "--offline",
                "-p",
                "relief-bench",
                "--bin",
                "cache_hygiene",
            ]),
        );
    }
    if wants("chaos-smoke") {
        ok &= run(
            "chaos campaign smoke run (faults + overload, self-healing on)",
            Command::new("cargo").args([
                "run",
                "--offline",
                "--release",
                "-p",
                "relief-bench",
                "--bin",
                "chaos",
                "--",
                "--fault-rate",
                "0,0.02",
                "--rate",
                "300",
                "--duration-us",
                "10000",
                "--warmup-us",
                "1000",
                "--jobs",
                "2",
                "--no-cache",
            ]),
        );
    }
    if wants("soak-smoke") {
        ok &= run(
            "soak smoke run (bounded-memory serving, jobs=1 vs jobs=2)",
            &mut bench_command(&["--soak".to_string(), "--smoke".to_string()]),
        );
    }
    if wants("invariants") {
        ok &= run(
            "release-mode conservation invariants (--features invariants)",
            Command::new("cargo").args([
                "test",
                "--offline",
                "--release",
                "--features",
                "invariants",
                "-p",
                "relief",
                "--test",
                "chaos_conformance",
            ]),
        );
    }
    if wants("only-smoke") {
        let all_experiments = |only: &str| {
            let mut cmd = Command::new("cargo");
            cmd.args(["run", "--offline", "--release", "-q", "-p", "relief-bench"]);
            cmd.args(["--bin", "all_experiments", "--", "--only", only, "--no-cache"]);
            cmd
        };
        ok &= run("all_experiments --only table2 --no-cache", &mut all_experiments("table2"));
        println!("==> all_experiments --only <unknown> exits 2");
        let status = all_experiments("no-such-artifact").output().map(|o| o.status.code());
        if !matches!(status, Ok(Some(2))) {
            eprintln!("xtask: unknown --only name gave {status:?}, expected exit code 2");
            ok = false;
        }
    }
    for (package, suite) in TEST_SUITES {
        if !wants(suite) {
            continue;
        }
        ok &= run(
            &format!("cargo test --offline -p {package} --test {suite}"),
            Command::new("cargo").args(["test", "--offline", "-p", package, "--test", suite]),
        );
    }
    if wants("bench-check") {
        ok &= run(
            "hot-path benchmark smoke run (xtask bench --check)",
            &mut bench_command(&["--check".to_string()]),
        );
    }
    if ok {
        println!("xtask check: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `simcore_bench` invocation with `args` forwarded verbatim.
fn bench_command(args: &[String]) -> Command {
    let mut cmd = Command::new("cargo");
    cmd.args([
        "run",
        "--offline",
        "--release",
        "-p",
        "relief-bench",
        "--bin",
        "simcore_bench",
        "--",
    ]);
    cmd.args(args);
    cmd
}

fn bench(args: &[String]) -> ExitCode {
    if run("simulation hot-path benchmark (simcore_bench)", &mut bench_command(args)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("bench") => bench(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <check [--suite NAMES] [--list-suites] | bench [--iters N] [--out PATH] [--check] [--tolerance PCT] [--service] [--soak [--smoke] [--jobs N]]>"
            );
            ExitCode::from(2)
        }
    }
}
