//! Wall-clock cost of the simulation hot path.
//!
//! The `walltime` family times the same pinned campaign subset that
//! `xtask bench` uses for `BENCH_simcore.json`, but broken out per case so
//! a regression can be localised: one line per case with ns per
//! dispatched simulator event, then the whole-subset aggregate.

use relief_bench::walltime::{pinned_subset, run_cases};

fn main() {
    println!("[walltime]");
    let cases = pinned_subset();
    for case in &cases {
        let sample = run_cases(std::slice::from_ref(case));
        println!(
            "walltime/{:<28} {:>9} events {:>10.1} ns/event",
            format!("{}/{}", case.label, case.policy.name()),
            sample.events,
            sample.ns_per_event(),
        );
    }
    let total = run_cases(&cases);
    println!(
        "walltime/{:<28} {:>9} events {:>10.1} ns/event  {:>12.0} events/s",
        "subset",
        total.events,
        total.ns_per_event(),
        total.events_per_sec(),
    );
}
