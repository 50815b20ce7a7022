//! The `idde chaos` command on fault specs it must refuse: the process
//! exits 1 with an error message instead of panicking.

use std::process::Command;

#[test]
fn overflowing_fault_window_exits_one_with_an_error() {
    for spec in ["link:13-17@5+18446744073709551615", "rand:2022:1:0:0@9+18446744073709551615"] {
        let output = Command::new(env!("CARGO_BIN_EXE_idde"))
            .args(["chaos", "--servers", "20", "--users", "50", "--data", "3", "--seed", "1"])
            .args(["--spec", spec])
            .output()
            .expect("the idde binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{spec}: {stderr}");
        assert!(stderr.starts_with("error: "), "{spec}: {stderr}");
        assert!(stderr.contains("overflows the tick counter"), "{spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
    }
}
