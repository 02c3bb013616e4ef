//! Host fingerprint recorded with every result, so two result sets can be
//! told apart: core count, CPU model, compiler and git revision (`unknown`
//! outside a git checkout).

use fedmigr_telemetry::trace::json_str;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The fingerprint as a JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev())
    )
}
