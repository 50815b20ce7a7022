//! The `idde` commands on degenerate input: a zero server count is refused
//! at parse time, a scenario whose sites lie absurdly far apart is served
//! through the linear-scan fallback of the spatial index instead of
//! panicking, and a non-finite area corner is reported as malformed input.

use std::path::PathBuf;
use std::process::{Command, Output};

fn idde(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_idde")).args(args).output().expect("the idde binary runs")
}

#[test]
fn zero_servers_exits_two_with_a_usage_error() {
    for args in [
        &["generate", "--servers", "0", "--users", "5", "--data", "1"][..],
        &["serve", "--servers", "0", "--ticks", "5"],
        &["chaos", "--servers", "0", "--spec", "server:0@1+1"],
    ] {
        let output = idde(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--servers needs a positive server count"), "{args:?}: {stderr}");
    }
}

#[test]
fn far_apart_sites_are_served_without_a_spatial_grid_panic() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let base = dir.join("far-apart-base.idde");
    let base_arg = base.to_str().unwrap();
    let output =
        idde(&["generate", "--servers", "12", "--users", "40", "--data", "3", "--out", base_arg]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(&base).unwrap();
    // Server 0 at (1e300, 1e300): a finite extent too large to count cells
    // in usize. Servers 0 and 1 at ±1e308: an extent that overflows f64.
    for (name, sites) in [("far", &["1e300 1e300"][..]), ("overflow", &["1e308 0", "-1e308 0"])] {
        let mut rewritten = text.clone();
        for (id, x_y) in sites.iter().enumerate() {
            let line = text.lines().find(|l| l.starts_with(&format!("server {id} "))).unwrap();
            let fields: Vec<&str> = line.split_whitespace().collect();
            rewritten =
                rewritten.replace(line, &format!("server {id} {x_y} {}", fields[4..].join(" ")));
        }
        let scenario = dir.join(format!("{name}.idde"));
        std::fs::write(&scenario, rewritten).unwrap();
        let path = scenario.to_str().unwrap();
        for args in [
            &["info", "--scenario", path][..],
            &["solve", "--scenario", path],
            &["serve", "--scenario", path, "--ticks", "20", "--audit", "5", "--csv", "-"],
        ] {
            let output = idde(args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(output.status.success(), "{name} {args:?}: {stderr}");
        }
    }
}

#[test]
fn a_non_finite_area_corner_is_malformed_input() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("nan-area.idde");
    std::fs::write(&path, "# idde scenario v1\narea 0 0 NaN 1400\n").unwrap();
    let output = idde(&["info", "--scenario", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("malformed input: line 2: area corners must be finite"), "{stderr}");
}
