//! The CLI rejects configurations its runner cannot execute up front, as a
//! usage error (exit 2) naming the offending option, before building any
//! dataset, fleet or model.

use std::process::Command;

#[test]
fn unsupported_fleet_codec_exits_2_naming_the_codec() {
    let out = Command::new(env!("CARGO_BIN_EXE_fedmigr"))
        .args(["--fleet", "--fleet-clients", "200", "--codec", "int8", "--epochs", "2"])
        .output()
        .expect("the fedmigr binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error: fleet mode requires the identity codec"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "a usage error, not a panic: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs: {}", String::from_utf8_lossy(&out.stdout));
}
