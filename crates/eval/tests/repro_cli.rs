//! `repro`'s command table is checked while the arguments are parsed.

use std::process::Command;

#[test]
fn unknown_command_is_rejected_before_any_dataset_is_generated() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuch")
        .output()
        .expect("running repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command nosuch"), "{stderr}");
    assert!(stderr.contains("tables-1-6"), "usage lists the commands");
    assert!(
        !stderr.contains("generating synthetic datasets"),
        "rejected only after the datasets were built:\n{stderr}"
    );
}
