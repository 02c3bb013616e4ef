//! The result line: `{"correct", "attempted", "failed", "metrics"}`,
//! written with every digit of each value and parsed back losslessly.

use std::collections::BTreeMap;

use fedmigr_telemetry::trace::{json_str, JsonValue};

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// A benchmark run's result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Whether `s` is a valid metric or workload name: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// Whether `s` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// Formats a finite value with the shortest representation that parses
/// back to the same `f64` (`{:?}` writes `1.0` and `1e-7`, both valid JSON).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite");
    format!("{v:?}")
}

impl Report {
    /// Whether every attempted run passed its output checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Adds a metric; non-finite values are recorded as a failure instead,
    /// since they cannot be written losslessly.
    pub fn push(&mut self, name: &str, unit: &str, value: f64) {
        debug_assert!(valid_name(name) && valid_unit(unit), "bad metric {name} [{unit}]");
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            self.failed += 1;
            return;
        }
        self.metrics.push(Metric { name: name.into(), unit: unit.into(), value });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    num(m.value),
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line written by [`Report::to_json`]. Metrics come
    /// back sorted by name.
    pub fn parse(line: &str) -> Result<Report, String> {
        let v = JsonValue::parse(line)?;
        let obj = v.as_object().ok_or("result is not an object")?;
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let count = |k: &str| {
            obj[k]
                .as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or(format!("{k} is not a whole number"))
        };
        let report = Report {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: parse_metrics(obj["metrics"].as_object().ok_or("metrics is not an object")?)?,
        };
        let correct = matches!(obj["correct"], JsonValue::Bool(true));
        if correct != report.correct() {
            return Err("correct disagrees with attempted/failed".into());
        }
        Ok(report)
    }
}

fn parse_metrics(map: &BTreeMap<String, JsonValue>) -> Result<Vec<Metric>, String> {
    map.iter()
        .map(|(name, m)| {
            let m = m.as_object().ok_or(format!("metric {name} is not an object"))?;
            if m.len() != 2 {
                return Err(format!("metric {name} must have exactly value and unit"));
            }
            Ok(Metric {
                name: name.clone(),
                value: m.get("value").and_then(JsonValue::as_f64).ok_or("missing value")?,
                unit: m.get("unit").and_then(JsonValue::as_str).ok_or("missing unit")?.into(),
            })
        })
        .collect()
}
