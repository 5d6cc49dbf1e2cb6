//! The `monitor` binary's usage errors: an argument it does not know
//! and a flag left without its value exit with status 2 before any
//! world is built, as `pipeline`'s do. A mistyped `--epoch 1`, a bare
//! `--epochs` and a bare `--out-dir` once each ran the default twelve
//! epochs and exited 0.

use std::process::Command;

#[test]
fn unknown_arguments_and_flags_without_values_are_usage_errors() {
    for args in [&["--epoch", "1"][..], &["--epochs"], &["--out-dir"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_monitor"))
            .args(args)
            // Small, should a regression start a run after all.
            .env("GOVSCAN_SCALE", "0.01")
            .output()
            .expect("the monitor binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "monitor {args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: monitor"),
            "monitor {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "monitor {args:?} printed a report");
    }
}
