//! Rendering experiment results: terminal tables and CSV files.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::runner::{PointResult, SetResult};

/// Renders one set's mean `R_avg` series as an ASCII table — the data of
/// the paper's Fig. 3(a)/4(a)/5(a)/6(a).
pub fn rate_table(result: &SetResult) -> String {
    metric_table(result, "R_avg (MB/s)", |p, a| p.approaches[a].rate_summary().mean)
}

/// Renders one set's mean `L_avg` series — Fig. 3(b)/4(b)/5(b)/6(b).
pub fn latency_table(result: &SetResult) -> String {
    metric_table(result, "L_avg (ms)", |p, a| p.approaches[a].latency_summary().mean)
}

/// Renders one set's mean computation-time series — the data of Fig. 7.
pub fn time_table(result: &SetResult) -> String {
    metric_table(result, "time (s)", |p, a| p.approaches[a].time_summary().mean)
}

fn metric_table(
    result: &SetResult,
    metric: &str,
    value: impl Fn(&PointResult, usize) -> f64,
) -> String {
    let mut out = String::new();
    let names: Vec<&str> = result.points[0].approaches.iter().map(|a| a.name).collect();
    let _ = writeln!(out, "Set #{} — {} vs {}", result.set.id, metric, result.set.varied);
    let _ = write!(out, "{:>10}", result.set.varied.split(' ').next_back().unwrap_or("x"));
    for name in &names {
        let _ = write!(out, "{name:>12}");
    }
    let _ = writeln!(out);
    for point in &result.points {
        let _ = write!(out, "{:>10}", format_x(result.set.x_value(&point.point)));
        for a in 0..names.len() {
            let _ = write!(out, "{:>12.4}", value(point, a));
        }
        let _ = writeln!(out);
    }
    out
}

fn format_x(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.1}")
    }
}

/// Writes one set's full per-point statistics as CSV:
/// `x,approach,metric,count,mean,std,min,q1,median,q3,max` rows for the
/// three metrics.
pub fn write_csv(result: &SetResult, path: &Path) -> io::Result<()> {
    let mut out = String::from("x,approach,metric,count,mean,std,min,q1,median,q3,max\n");
    for point in &result.points {
        let x = result.set.x_value(&point.point);
        for a in &point.approaches {
            for (metric, s) in [
                ("rate_mbps", a.rate_summary()),
                ("latency_ms", a.latency_summary()),
                ("time_s", a.time_summary()),
            ] {
                let _ = writeln!(
                    out,
                    "{x},{},{metric},{},{},{},{},{},{},{},{}",
                    a.name, s.count, s.mean, s.std, s.min, s.q1, s.median, s.q3, s.max
                );
            }
        }
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentPoint, ExperimentSet};
    use crate::runner::ApproachSamples;

    fn fake_result() -> SetResult {
        let set = ExperimentSet {
            id: 1,
            varied: "Number of Edge Servers N",
            points: vec![
                ExperimentPoint { n: 20, m: 200, k: 5, density: 1.0 },
                ExperimentPoint { n: 25, m: 200, k: 5, density: 1.0 },
            ],
        };
        let mk = |name, base: f64| ApproachSamples {
            name,
            rates: vec![base, base + 2.0],
            latencies: vec![base / 10.0, base / 10.0 + 0.5],
            times: vec![0.01, 0.02],
        };
        SetResult {
            points: set
                .points
                .iter()
                .map(|p| PointResult {
                    point: *p,
                    approaches: vec![mk("IDDE-G", 100.0), mk("SAA", 60.0)],
                })
                .collect(),
            set,
        }
    }

    #[test]
    fn tables_contain_headers_and_values() {
        let r = fake_result();
        let t = rate_table(&r);
        assert!(t.contains("Set #1"), "{t}");
        assert!(t.contains("IDDE-G"));
        assert!(t.contains("SAA"));
        assert!(t.contains("101.0000"), "{t}"); // mean of 100, 102
        let t = latency_table(&r);
        assert!(t.contains("L_avg"));
        let t = time_table(&r);
        assert!(t.contains("time (s)"));
    }

    #[test]
    fn csv_round_trip() {
        let r = fake_result();
        let dir = std::env::temp_dir().join("idde-sim-report-test");
        let path = dir.join("set1.csv");
        write_csv(&r, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        // header + 2 points × 2 approaches × 3 metrics
        assert_eq!(lines.len(), 1 + 12);
        assert!(lines[0].starts_with("x,approach,metric"));
        assert!(content.contains("20,IDDE-G,rate_mbps,2,101,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
