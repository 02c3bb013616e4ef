//! Output checks applied to every run. A run that fails any of them, or
//! panics, is counted as a failed run; nothing is skipped.

use fedmigr_core::{RunConfig, RunMetrics};

/// Checks the invariants every completed run must satisfy: it ran the
/// configured epochs, every accuracy lies in [0, 1], every loss and the
/// virtual makespan are finite, and it moved traffic.
pub fn invariants(m: &RunMetrics, cfg: &RunConfig) -> Result<(), String> {
    if m.epochs() != cfg.epochs {
        return Err(format!("ran {} epochs, configured {}", m.epochs(), cfg.epochs));
    }
    for r in &m.records {
        if !r.train_loss.is_finite() {
            return Err(format!("epoch {}: non-finite train loss {}", r.epoch, r.train_loss));
        }
        if let Some(acc) = r.test_accuracy {
            if !(0.0..=1.0).contains(&acc) {
                return Err(format!("epoch {}: accuracy {acc} outside [0, 1]", r.epoch));
            }
        }
    }
    if m.records.iter().all(|r| r.test_accuracy.is_none()) {
        return Err("no evaluation recorded".into());
    }
    if m.traffic().total() == 0 {
        return Err("no traffic recorded".into());
    }
    let t = m.sim_time();
    if !(t.is_finite() && t > 0.0) {
        return Err(format!("virtual makespan {t} is not positive and finite"));
    }
    Ok(())
}

/// Checks that a run's CSV is byte-identical to the reference CSV of an
/// earlier run of the same seed (the first successful run sets it).
pub fn same_csv(reference: &mut Option<String>, csv: String) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(csv);
            Ok(())
        }
        Some(r) if *r == csv => Ok(()),
        Some(r) => {
            let line = r.lines().zip(csv.lines()).position(|(a, b)| a != b);
            Err(format!(
                "CSV differs from an earlier run of the same seed (first differing line: {})",
                line.map_or_else(|| "length".to_string(), |l| (l + 1).to_string())
            ))
        }
    }
}

/// Tallies attempted and failed runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records the outcome of one attempted run, logging a failure.
    pub fn record(&mut self, what: &str, error: Option<&String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            eprintln!("perfbench: {what} failed its output check: {e}");
        }
    }
}

/// Runs `f`, turning a panic into a failed outcome.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panicked: {msg}")
    })
}
