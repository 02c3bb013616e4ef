//! The untraced run: end-to-end metrics with tracing off.
//!
//! One process runs one workload as a closed loop: build the experiment,
//! run it (timed as `run_s`), check its outputs, and start the next run
//! only after the previous one finished, until the measuring window
//! closes. Every run uses the same seed, so every run's CSV must be
//! byte-identical to the first one's. Between runs, back-to-back builds
//! time set-up on its own, so set-up samples the same stretch of host time
//! as the runs.

use std::time::{Duration, Instant};

use fedmigr_core::{RunConfig, RunMetrics};

use crate::check::{guarded, invariants, same_csv, Tally};
use crate::report::Report;
use crate::stats::{fnv_hex, median};
use crate::workload::Workload;

/// Fewest measured runs, whatever the window.
pub const MIN_RUNS: usize = 3;
/// Share of the window spent timing back-to-back set-ups between the
/// measured runs; `setup_s` is their median.
const SETUP_SHARE: f64 = 0.1;
/// Fewest timed set-ups, whatever the window.
const MIN_SETUPS: usize = 5;

/// Switches the program's own observability (kernel accounting and span
/// histograms) on or off.
pub fn set_observation(on: bool) {
    fedmigr_tensor::kcount::set_enabled(on);
    fedmigr_telemetry::global().set_spans_enabled(on);
}

/// Builds and runs `w` once under `cfg`, checking the invariants and the
/// CSV against `reference`. Returns the run's wall seconds and metrics, or
/// why it failed.
pub fn checked_run(
    w: Workload,
    seed: u64,
    cfg: &RunConfig,
    reference: &mut Option<String>,
) -> Result<(f64, RunMetrics), String> {
    let mut exp = guarded(|| w.build(seed))?;
    let (dt, m) = guarded(|| {
        let t = Instant::now();
        let m = exp.run(cfg);
        (t.elapsed().as_secs_f64(), m)
    })?;
    invariants(&m, cfg)?;
    same_csv(reference, m.to_csv())?;
    Ok((dt, m))
}

/// Times back-to-back builds of `w`, appending each build's seconds to
/// `setup_s`, until `spent` (the wall time of every timed build and its
/// drop so far) reaches `until` and at least [`MIN_SETUPS`] builds were
/// timed. Each timer stops before the built experiment is dropped. A build
/// that panics is counted as a failed attempt and ends this batch.
fn time_setups(
    w: Workload,
    seed: u64,
    until: f64,
    spent: &mut f64,
    setup_s: &mut Vec<f64>,
    tally: &mut Tally,
) {
    while setup_s.len() < MIN_SETUPS || *spent < until {
        let t = Instant::now();
        let built = guarded(|| w.build(seed));
        let dt = t.elapsed().as_secs_f64();
        if let Err(e) = &built {
            tally.record("set-up", Some(e));
            return;
        }
        drop(built);
        *spent += t.elapsed().as_secs_f64();
        setup_s.push(dt);
    }
}

/// Summary of the untraced run, printed beside the result line.
pub struct Summary {
    pub runs: usize,
    pub setups: usize,
    pub csv_fnv: String,
    /// Final test accuracy. Printed, not a bounded metric: it varies from
    /// seed to seed far more than any bound allows (on `dense_comm` it sits
    /// at chance), so it serves as a determinism check through the CSV.
    pub final_accuracy: Option<f64>,
}

/// Measures runs of `epochs` of `w` under `seed` for `seconds`.
pub fn measure(w: Workload, seed: u64, epochs: usize, seconds: f64) -> (Report, Summary) {
    set_observation(false);
    let cfg = w.config(seed, epochs);
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut reference = None;
    let (mut run_s, mut setup_s, mut setup_spent) = (Vec::new(), Vec::new(), 0.0);
    let (mut peak_rss_mb, mut last) = (None, None);
    while (tally.attempted as usize) < MIN_RUNS || start.elapsed() < window {
        let run = checked_run(w, seed, &cfg, &mut reference);
        tally.record(&format!("run {}", tally.attempted + 1), run.as_ref().err());
        if let Ok((dt, m)) = run {
            run_s.push(dt);
            // Read after the first run, while the process has built and run
            // the workload once: later runs only add allocator retention,
            // which varies with thread timing.
            if peak_rss_mb.is_none() {
                peak_rss_mb = fedmigr_telemetry::peak_rss_bytes().map(|b| b as f64 / 1e6);
            }
            last = Some(m);
        }
        // The run itself built the workload once, so these builds are warm.
        let until = SETUP_SHARE * start.elapsed().as_secs_f64();
        time_setups(w, seed, until, &mut setup_spent, &mut setup_s, &mut tally);
    }

    let mut report =
        Report { attempted: tally.attempted, failed: tally.failed, metrics: Vec::new() };
    if let Some(m) = &last {
        report.push("run_s", "s", median(&run_s));
        report.push("setup_s", "s", median(&setup_s));
        report.push("peak_rss_mb", "MB", peak_rss_mb.unwrap_or(0.0));
        report.push("sim_makespan_s", "s", m.sim_time());
        report.push("traffic_mb", "MB", m.traffic().total() as f64 / 1e6);
    }
    let summary = Summary {
        runs: run_s.len(),
        setups: setup_s.len(),
        csv_fnv: reference.as_deref().map_or_else(|| "none".into(), |csv| fnv_hex(csv.as_bytes())),
        final_accuracy: last.as_ref().map(RunMetrics::final_accuracy),
    };
    (report, summary)
}
