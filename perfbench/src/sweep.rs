//! `--sweep-capacity`: the one-off sweep that pins
//! [`CAPACITY_RATE`](crate::workload::CAPACITY_RATE).
//!
//! For each per-tenant rate it runs the `serve_capacity` cells of the
//! default seed over one and over two horizons. A rate is within capacity
//! when the Latency class's p99 sojourn meets its deadline, at most 1 % of
//! arrivals are shed (the in-flight cap never fills), and doubling the
//! horizon does not raise the p99 by more than 10 % (no growing backlog).

use crate::workload::{
    capacity_specs, derive, latency_deadline_us, CAPACITY_HORIZON_PS, CAPACITY_RATE,
    DEFAULT_SEED, SERVE_STREAMS,
};
use relief_bench::campaign::{self, ExecOptions};
use relief_metrics::Histogram;
use std::process::ExitCode;

/// Rates swept, requests/s per tenant.
const RATES: [f64; 13] =
    [30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 70.0, 80.0, 90.0, 100.0, 115.0, 130.0];

/// Latency-class p99 sojourn (µs), attainment, and the shares of arrivals
/// shed by the in-flight cap and by breakers, of the capacity cells at
/// `rate` over `horizon_ps`.
fn measure(rate: f64, horizon_ps: u64, jobs: usize) -> Result<(f64, f64, f64, f64), String> {
    let specs = (0..SERVE_STREAMS)
        .flat_map(|k| capacity_specs(rate, derive(DEFAULT_SEED, k), horizon_ps))
        .collect();
    let results = campaign::execute(specs, &ExecOptions { jobs, ..ExecOptions::default() });
    if let Some((label, e)) = results.failures().first() {
        return Err(format!("{label}: {e}"));
    }
    let mut sojourn = Histogram::default();
    let (mut met, mut arrivals, mut shed, mut breaker, mut all) = (0, 0, 0, 0, 0);
    for o in &results.outcomes {
        if let Ok(rec) = &o.outcome {
            let svc = &rec.result.stats.service;
            sojourn.merge(&svc.classes[0].sojourn);
            met += svc.classes[0].dag_deadlines_met;
            arrivals += svc.classes[0].arrivals;
            shed += svc.shed_bucket() + svc.shed_capacity();
            breaker += svc.shed_breaker();
            all += svc.arrivals();
        }
    }
    let p99 = sojourn.quantile_ps(0.99).map_or(0.0, |ps| ps as f64 / 1e6);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Ok((p99, ratio(met, arrivals) * 100.0, ratio(shed, all) * 100.0, ratio(breaker, all) * 100.0))
}

/// Runs the sweep and prints one row per rate.
pub fn run(jobs: usize) -> ExitCode {
    let deadline = latency_deadline_us();
    println!(
        "serve_capacity sweep: seed {DEFAULT_SEED}, {SERVE_STREAMS} streams x FCFS/RELIEF, \
         horizon {} s (and doubled), Latency deadline {deadline:.0} us",
        CAPACITY_HORIZON_PS as f64 / 1e12
    );
    println!("rate/s  p99 us  p99 2x us  att lat %  cap shed %  brk shed %  within");
    let mut capacity = 0.0;
    let mut below = true;
    for rate in RATES {
        let row = measure(rate, CAPACITY_HORIZON_PS, jobs)
            .and_then(|one| measure(rate, 2 * CAPACITY_HORIZON_PS, jobs).map(|two| (one, two)));
        let ((p99, att, shed, brk), (p99_2, _, shed_2, _)) = match row {
            Ok(r) => r,
            Err(e) => {
                eprintln!("rate {rate}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let within = p99 <= deadline && shed.max(shed_2) <= 1.0 && p99_2 <= 1.1 * p99;
        // Capacity is the top of the run of passing rates from the bottom.
        below &= within;
        if below {
            capacity = rate;
        }
        println!(
            "{rate:>6.0}  {p99:>6.0}  {p99_2:>9.0}  {att:>9.1}  {shed:>10.2}  {brk:>10.2}  {}",
            if within { "yes" } else { "no" }
        );
    }
    println!(
        "capacity: {capacity:.0} req/s per tenant; pinned rate {CAPACITY_RATE:.0} = {:.0} % of it",
        CAPACITY_RATE / capacity.max(1.0) * 100.0
    );
    ExitCode::SUCCESS
}
