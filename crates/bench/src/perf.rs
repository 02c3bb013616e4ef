//! Continuous performance benchmarks: a fixed matrix of micro and
//! end-to-end timings, a versioned JSON report (`BENCH_perf.json`), and the
//! diff logic behind the `fedmigr_perf_diff` CI gate.
//!
//! The `fedmigr_perf` binary runs every benchmark named here with a
//! warmup/repeat/median-of-N protocol and writes a [`PerfReport`]. CI
//! compares that report against the checked-in
//! `results/baselines/perf_baseline.json` with [`diff_reports`], which
//! fails the job when a benchmark's median slows past the tolerated ratio
//! — the same exit-code contract as `fedmigr_diff` (0 clean, 1 regressed,
//! 2 usage/parse error).
//!
//! Medians are compared, not means: one preempted repeat on a shared CI
//! runner should not fail the gate, a consistent slowdown should.

use std::collections::BTreeMap;
use std::time::Instant;

use fedmigr_telemetry::trace::{json_num, json_str, JsonValue};

/// Bumped whenever the report layout or the benchmark matrix changes
/// incompatibly; the differ refuses to compare across versions.
pub const PERF_SCHEMA_VERSION: u32 = 1;

/// One benchmark's measured timings.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfEntry {
    /// Stable benchmark name (`kernel_*`, `nn_*`, `codec_*`, `planner_*`,
    /// `flow_*`, `e2e_*`).
    pub name: String,
    /// Median wall nanoseconds across the repeats.
    pub median_ns: u64,
    /// Fastest repeat, the low-noise floor.
    pub min_ns: u64,
    /// Number of timed repeats (after warmup).
    pub repeats: u32,
}

/// A full benchmark run: schema version plus one entry per benchmark.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Schema version of the report ([`PERF_SCHEMA_VERSION`] when written).
    pub version: u32,
    /// `true` when produced with `--quick` (fewer repeats, smaller e2e
    /// workloads) — quick reports are only comparable to quick baselines.
    pub quick: bool,
    /// Entries in execution order.
    pub benchmarks: Vec<PerfEntry>,
}

impl PerfReport {
    /// Serializes to the versioned JSON document checked in as the
    /// baseline (sorted keys, one benchmark object per line for reviewable
    /// diffs).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", json_num(self.version as f64)));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            let sep = if i + 1 == self.benchmarks.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {}, \"min_ns\": {}, \"repeats\": {}}}{sep}\n",
                json_str(&b.name),
                json_num(b.median_ns as f64),
                json_num(b.min_ns as f64),
                json_num(b.repeats as f64),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report, rejecting unknown schema versions.
    pub fn parse(text: &str) -> Result<PerfReport, String> {
        let v = JsonValue::parse(text)?;
        let obj = v.as_object().ok_or("perf report: not a JSON object")?;
        let version = field_u64(obj, "version")? as u32;
        if version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "perf report schema v{version} is not the supported v{PERF_SCHEMA_VERSION}; \
                 regenerate the baseline"
            ));
        }
        let quick = matches!(obj.get("quick"), Some(JsonValue::Bool(true)));
        let list = match obj.get("benchmarks") {
            Some(JsonValue::Array(a)) => a,
            _ => return Err("perf report: missing benchmarks array".into()),
        };
        let mut benchmarks = Vec::with_capacity(list.len());
        for item in list {
            let b = item.as_object().ok_or("perf report: benchmark is not an object")?;
            benchmarks.push(PerfEntry {
                name: b
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("perf report: benchmark without a name")?
                    .to_string(),
                median_ns: field_u64(b, "median_ns")?,
                min_ns: field_u64(b, "min_ns")?,
                repeats: field_u64(b, "repeats")? as u32,
            });
        }
        Ok(PerfReport { version, quick, benchmarks })
    }
}

fn field_u64(obj: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("perf report: missing or bad {key:?}"))
}

/// Regression budgets for [`diff_reports`].
#[derive(Clone, Copy, Debug)]
pub struct PerfTolerances {
    /// A benchmark regresses when `current_median > baseline_median *
    /// max_ratio` (default 1.6 — an injected 2× slowdown must fail, one
    /// noisy CI scheduler tick must not).
    pub max_ratio: f64,
    /// Benchmarks whose baseline *and* current medians are below this are
    /// never flagged: sub-threshold timings are timer jitter, not signal.
    pub noise_floor_ns: u64,
}

impl Default for PerfTolerances {
    fn default() -> Self {
        Self { max_ratio: 1.6, noise_floor_ns: 20_000 }
    }
}

/// One benchmark that slowed past its budget (or disappeared).
#[derive(Clone, Debug)]
pub struct PerfRegression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median nanoseconds.
    pub baseline_ns: u64,
    /// Current median nanoseconds (0 when the benchmark vanished).
    pub current_ns: u64,
    /// `current / baseline`, or infinity for a vanished benchmark.
    pub ratio: f64,
}

impl PerfRegression {
    /// Human-readable one-liner for the CI log.
    pub fn describe(&self) -> String {
        if self.current_ns == 0 {
            format!("{}: present in baseline but missing from current run", self.name)
        } else {
            format!(
                "{}: {:.3} ms -> {:.3} ms ({:.2}x slower)",
                self.name,
                self.baseline_ns as f64 / 1e6,
                self.current_ns as f64 / 1e6,
                self.ratio,
            )
        }
    }
}

/// Compares `current` against `baseline`, returning every benchmark that
/// regressed past `tol`. New benchmarks (in current, not baseline) are
/// fine — they get a baseline entry on the next refresh. Vanished
/// benchmarks are regressions: a silently dropped benchmark is how
/// coverage rots.
pub fn diff_reports(
    baseline: &PerfReport,
    current: &PerfReport,
    tol: &PerfTolerances,
) -> Result<Vec<PerfRegression>, String> {
    if baseline.version != current.version {
        return Err(format!(
            "schema mismatch: baseline v{} vs current v{}",
            baseline.version, current.version
        ));
    }
    if baseline.quick != current.quick {
        return Err(format!(
            "mode mismatch: baseline quick={} vs current quick={}; compare like with like",
            baseline.quick, current.quick
        ));
    }
    let cur: BTreeMap<&str, &PerfEntry> =
        current.benchmarks.iter().map(|b| (b.name.as_str(), b)).collect();
    let mut regs = Vec::new();
    for base in &baseline.benchmarks {
        match cur.get(base.name.as_str()) {
            None => regs.push(PerfRegression {
                name: base.name.clone(),
                baseline_ns: base.median_ns,
                current_ns: 0,
                ratio: f64::INFINITY,
            }),
            Some(c) => {
                if base.median_ns < tol.noise_floor_ns && c.median_ns < tol.noise_floor_ns {
                    continue;
                }
                let ratio = c.median_ns as f64 / (base.median_ns.max(1)) as f64;
                if ratio > tol.max_ratio {
                    regs.push(PerfRegression {
                        name: base.name.clone(),
                        baseline_ns: base.median_ns,
                        current_ns: c.median_ns,
                        ratio,
                    });
                }
            }
        }
    }
    Ok(regs)
}

/// Times `f` with `warmup` untimed then `repeats` timed invocations and
/// returns the median/min entry. `repeats` is clamped to at least 1.
pub fn measure<F: FnMut()>(name: &str, warmup: u32, repeats: u32, mut f: F) -> PerfEntry {
    for _ in 0..warmup {
        f();
    }
    let repeats = repeats.max(1);
    let mut times: Vec<u64> = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        times.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    times.sort_unstable();
    PerfEntry {
        name: name.to_string(),
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            version: PERF_SCHEMA_VERSION,
            quick: false,
            benchmarks: pairs
                .iter()
                .map(|&(name, median_ns)| PerfEntry {
                    name: name.into(),
                    median_ns,
                    min_ns: median_ns / 2,
                    repeats: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(&[("kernel_matmul_128", 2_000_000), ("e2e_dense_lockstep", 90_000_000)]);
        let parsed = PerfReport::parse(&r.to_json()).expect("own output parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn rejects_unknown_schema_version() {
        let mut r = report(&[("kernel_matmul_128", 1_000_000)]);
        r.version = PERF_SCHEMA_VERSION + 1;
        assert!(PerfReport::parse(&r.to_json()).is_err());
    }

    #[test]
    fn injected_2x_regression_is_caught_and_equal_runs_pass() {
        let base = report(&[
            ("kernel_matmul_128", 2_000_000),
            ("codec_int8_roundtrip", 5_000_000),
            ("e2e_dense_lockstep", 90_000_000),
        ]);
        let tol = PerfTolerances::default();

        // Identical run: clean.
        assert!(diff_reports(&base, &base, &tol).unwrap().is_empty());

        // One benchmark slowed 2x: exactly that one is flagged.
        let mut slow = base.clone();
        slow.benchmarks[1].median_ns *= 2;
        let regs = diff_reports(&base, &slow, &tol).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "codec_int8_roundtrip");
        assert!((regs[0].ratio - 2.0).abs() < 1e-9);
        assert!(regs[0].describe().contains("codec_int8_roundtrip"));

        // Within-budget wobble (1.3x) passes.
        let mut wobble = base.clone();
        wobble.benchmarks[0].median_ns = wobble.benchmarks[0].median_ns * 13 / 10;
        assert!(diff_reports(&base, &wobble, &tol).unwrap().is_empty());
    }

    #[test]
    fn vanished_benchmark_and_noise_floor() {
        let base = report(&[("kernel_matmul_128", 2_000_000), ("kernel_tiny", 5_000)]);
        let tol = PerfTolerances::default();

        // Dropped benchmark fails the gate.
        let cur = report(&[("kernel_matmul_128", 2_000_000)]);
        let regs = diff_reports(&base, &cur, &tol).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].current_ns, 0);
        assert!(regs[0].describe().contains("missing"));

        // A 3x swing below the noise floor is ignored.
        let noisy = report(&[("kernel_matmul_128", 2_000_000), ("kernel_tiny", 15_000)]);
        assert!(diff_reports(&base, &noisy, &tol).unwrap().is_empty());

        // New benchmarks in current are not regressions.
        let extra =
            report(&[("kernel_matmul_128", 2_000_000), ("kernel_tiny", 5_000), ("new_one", 1)]);
        assert!(diff_reports(&base, &extra, &tol).unwrap().is_empty());
    }

    #[test]
    fn mode_and_version_mismatches_are_errors() {
        let base = report(&[("kernel_matmul_128", 1_000_000)]);
        let mut quick = base.clone();
        quick.quick = true;
        assert!(diff_reports(&base, &quick, &PerfTolerances::default()).is_err());
        let mut other = base.clone();
        other.version += 1;
        assert!(diff_reports(&base, &other, &PerfTolerances::default()).is_err());
    }

    #[test]
    fn measure_reports_sane_ordering() {
        let e = measure("spin", 1, 5, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(e.repeats, 5);
        assert!(e.min_ns <= e.median_ns);
        assert!(e.median_ns > 0);
    }
}
