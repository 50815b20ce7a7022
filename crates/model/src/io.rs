//! Plain-text scenario serialisation.
//!
//! A human-readable, diff-friendly, line-oriented format so scenarios can be
//! saved, shared and replayed (the `idde` CLI's `generate`/`solve` round
//! trip). One record per line, whitespace-separated, `#` comments:
//!
//! ```text
//! # idde scenario v1
//! area 0 0 1800 1400
//! server 0 120.5 340.0 250.0 3 200 120
//! user 0 80.0 300.0 2.5 200
//! data 0 60
//! request 0 0
//! ```
//!
//! Field order: `area min_x min_y max_x max_y`,
//! `server id x y radius channels bandwidth storage`,
//! `user id x y power max_rate`, `data id size`, `request user data`.
//! Ids, `channels` and the request fields are unsigned integers; every
//! other field is a real number. Ids must be dense and in order (they are
//! validated on read). The area's corners must be finite and, when an area
//! is declared, every user must lie inside it (servers may lie anywhere).

use std::fmt::Write as _;
use std::str::FromStr;

use crate::error::ModelError;
use crate::geometry::{Point, Rect};
use crate::ids::{DataId, UserId};
use crate::scenario::{Scenario, ScenarioBuilder};
use crate::units::{MegaBytes, MegaBytesPerSec, Watts};

/// Magic first line of the format.
pub const HEADER: &str = "# idde scenario v1";

/// Serialises a scenario to the plain-text format.
pub fn to_string(scenario: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(
        out,
        "area {} {} {} {}",
        scenario.area.min.x, scenario.area.min.y, scenario.area.max.x, scenario.area.max.y
    );
    for s in &scenario.servers {
        let _ = writeln!(
            out,
            "server {} {} {} {} {} {} {}",
            s.id,
            s.position.x,
            s.position.y,
            s.coverage_radius_m,
            s.num_channels,
            s.channel_bandwidth.value(),
            s.storage.value()
        );
    }
    for u in &scenario.users {
        let _ = writeln!(
            out,
            "user {} {} {} {} {}",
            u.id,
            u.position.x,
            u.position.y,
            u.power.value(),
            u.max_rate.value()
        );
    }
    for d in &scenario.data {
        let _ = writeln!(out, "data {} {}", d.id, d.size.value());
    }
    for (u, d) in scenario.requests.pairs() {
        let _ = writeln!(out, "request {u} {d}");
    }
    out
}

/// Parses a scenario from the plain-text format. The coverage relation is
/// recomputed from geometry; the result is fully validated.
pub fn from_str(text: &str) -> Result<Scenario, ModelError> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break l.trim(),
            None => return Err(ModelError::Malformed("empty scenario file".into())),
        }
    };
    if header != HEADER {
        return Err(ModelError::Malformed(format!("bad header {header:?}, expected {HEADER:?}")));
    }

    let mut builder = ScenarioBuilder::new();
    let mut area: Option<Rect> = None;
    let mut servers = 0usize;
    let mut users = 0usize;
    let mut user_lines: Vec<usize> = Vec::new();
    let mut data = 0usize;
    let mut requests: Vec<(UserId, DataId)> = Vec::new();

    for (lineno, raw) in lines {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[0] {
            "area" => {
                let x0 = parse::<f64>(lineno, fields.get(1), "area min x")?;
                let y0 = parse::<f64>(lineno, fields.get(2), "area min y")?;
                let x1 = parse::<f64>(lineno, fields.get(3), "area max x")?;
                let y1 = parse::<f64>(lineno, fields.get(4), "area max y")?;
                if ![x0, y0, x1, y1].iter().all(|v| v.is_finite()) {
                    return Err(bad(lineno, "area corners must be finite"));
                }
                area = Some(Rect::new(Point::new(x0, y0), Point::new(x1, y1)));
            }
            "server" => {
                let id = parse::<usize>(lineno, fields.get(1), "server id")?;
                if id != servers {
                    return Err(bad(lineno, &format!("server id {id} out of order")));
                }
                let x = parse::<f64>(lineno, fields.get(2), "x")?;
                let y = parse::<f64>(lineno, fields.get(3), "y")?;
                let radius = parse::<f64>(lineno, fields.get(4), "radius")?;
                let channels = parse::<u16>(lineno, fields.get(5), "channels")?;
                let bandwidth = parse::<f64>(lineno, fields.get(6), "bandwidth")?;
                let storage = parse::<f64>(lineno, fields.get(7), "storage")?;
                builder.server(
                    Point::new(x, y),
                    radius,
                    channels,
                    MegaBytesPerSec(bandwidth),
                    MegaBytes(storage),
                );
                servers += 1;
            }
            "user" => {
                let id = parse::<usize>(lineno, fields.get(1), "user id")?;
                if id != users {
                    return Err(bad(lineno, &format!("user id {id} out of order")));
                }
                let x = parse::<f64>(lineno, fields.get(2), "x")?;
                let y = parse::<f64>(lineno, fields.get(3), "y")?;
                let power = parse::<f64>(lineno, fields.get(4), "power")?;
                let max_rate = parse::<f64>(lineno, fields.get(5), "max_rate")?;
                builder.user(Point::new(x, y), Watts(power), MegaBytesPerSec(max_rate));
                user_lines.push(lineno);
                users += 1;
            }
            "data" => {
                let id = parse::<usize>(lineno, fields.get(1), "data id")?;
                if id != data {
                    return Err(bad(lineno, &format!("data id {id} out of order")));
                }
                let size = parse::<f64>(lineno, fields.get(2), "size")?;
                builder.data(MegaBytes(size));
                data += 1;
            }
            "request" => {
                let u = parse::<u32>(lineno, fields.get(1), "request user")?;
                let d = parse::<u32>(lineno, fields.get(2), "request data")?;
                if u as usize >= users {
                    return Err(inconsistent(
                        lineno,
                        &format!("request references unknown user {u}"),
                    ));
                }
                if d as usize >= data {
                    return Err(inconsistent(
                        lineno,
                        &format!("request references unknown data {d}"),
                    ));
                }
                requests.push((UserId(u), DataId(d)));
            }
            other => return Err(bad(lineno, &format!("unknown record {other:?}"))),
        }
    }
    for (u, d) in requests {
        builder.request(u, d);
    }
    let Some(area) = area else {
        return builder.build();
    };
    let scenario = builder.area(area).build()?;
    // The engine's move clamp would teleport an outside user onto the
    // boundary on its first move; reject the file instead.
    for (user, &lineno) in scenario.users.iter().zip(&user_lines) {
        if !area.contains(user.position) {
            return Err(inconsistent(lineno, &format!("user {} lies outside the area", user.id)));
        }
    }
    Ok(scenario)
}

/// A syntax error on line `lineno` (0-based): the record cannot be read.
fn bad(lineno: usize, msg: &str) -> ModelError {
    ModelError::Malformed(format!("line {}: {msg}", lineno + 1))
}

/// A record on line `lineno` (0-based) that reads fine but contradicts
/// another: a request naming an undeclared user or item, a user outside
/// the declared area.
fn inconsistent(lineno: usize, msg: &str) -> ModelError {
    ModelError::Inconsistent(format!("line {}: {msg}", lineno + 1))
}

/// Parses one whitespace-separated field as a `T`; integer fields thus
/// reject minus signs, fractions, exponents and out-of-range values.
fn parse<T: FromStr>(lineno: usize, field: Option<&&str>, what: &str) -> Result<T, ModelError> {
    field
        .ok_or_else(|| bad(lineno, &format!("missing {what}")))?
        .parse::<T>()
        .map_err(|_| bad(lineno, &format!("bad {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn round_trip_preserves_everything() {
        for scenario in [testkit::fig2_example(), testkit::tiny_overlap(), testkit::degenerate()] {
            let text = to_string(&scenario);
            let parsed = from_str(&text).expect("round trip must parse");
            assert_eq!(parsed.servers, scenario.servers);
            assert_eq!(parsed.users, scenario.users);
            assert_eq!(parsed.data, scenario.data);
            assert_eq!(parsed.requests, scenario.requests);
            assert_eq!(parsed.coverage, scenario.coverage);
            assert_eq!(parsed.area, scenario.area);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let scenario = testkit::tiny_overlap();
        let mut text = to_string(&scenario);
        text = text.replace("data 0", "\n# catalogue starts here\ndata 0");
        text.push_str("\n   \n# trailing comment\n");
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed.data, scenario.data);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("not a header\n").is_err());
        assert!(from_str(HEADER).is_ok(), "empty scenario is legal");
        let bad_record = format!("{HEADER}\nfrobnicate 1 2 3\n");
        assert!(from_str(&bad_record).is_err());
        let out_of_order = format!("{HEADER}\nserver 5 0 0 100 1 200 30\n");
        assert!(from_str(&out_of_order).is_err());
        let dangling_request = format!("{HEADER}\nrequest 0 0\n");
        assert!(from_str(&dangling_request).is_err());
        let short_server = format!("{HEADER}\nserver 0 1.0 2.0\n");
        assert!(from_str(&short_server).is_err());
        let bad_number = format!("{HEADER}\ndata 0 many\n");
        assert!(from_str(&bad_number).is_err());
    }

    #[test]
    fn random_scenarios_round_trip() {
        use crate::geometry::Point;
        use crate::scenario::ScenarioBuilder;
        use crate::units::{MegaBytes, MegaBytesPerSec, Watts};
        use rand::{Rng, SeedableRng};

        for seed in 0..25u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut b = ScenarioBuilder::new();
            let n = rng.gen_range(1..8);
            let m = rng.gen_range(0..12);
            let k = rng.gen_range(0..5);
            for _ in 0..n {
                b.server(
                    Point::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)),
                    rng.gen_range(50.0..400.0),
                    rng.gen_range(1..5),
                    MegaBytesPerSec(rng.gen_range(50.0..400.0)),
                    MegaBytes(rng.gen_range(0.0..300.0)),
                );
            }
            let mut users = Vec::new();
            for _ in 0..m {
                users.push(b.user(
                    Point::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)),
                    Watts(rng.gen_range(0.5..5.0)),
                    MegaBytesPerSec(rng.gen_range(50.0..400.0)),
                ));
            }
            let mut data = Vec::new();
            for _ in 0..k {
                data.push(b.data(MegaBytes(rng.gen_range(1.0..100.0))));
            }
            for &u in &users {
                if !data.is_empty() && rng.gen_bool(0.7) {
                    b.request(u, data[rng.gen_range(0..data.len())]);
                }
            }
            let scenario = b.build().unwrap();
            let parsed = from_str(&to_string(&scenario)).unwrap();
            assert_eq!(parsed.servers, scenario.servers, "seed {seed}");
            assert_eq!(parsed.users, scenario.users, "seed {seed}");
            assert_eq!(parsed.data, scenario.data, "seed {seed}");
            assert_eq!(parsed.requests, scenario.requests, "seed {seed}");
        }
    }

    /// Asserts that `record`, after the header, is rejected as malformed on
    /// line 2 with a message naming `what`.
    fn assert_rejected(record: &str, what: &str) {
        let text = format!("{HEADER}\n{record}\n");
        match from_str(&text) {
            Err(ModelError::Malformed(msg)) => {
                assert!(msg.contains("line 2") && msg.contains(what), "{record:?}: {msg}")
            }
            other => panic!("{record:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn negative_request_fields_are_rejected() {
        let valid = format!("{HEADER}\nuser 0 0 0 1 100\ndata 0 10\ndata 1 10\n");
        assert!(from_str(&format!("{valid}request 0 1\n")).is_ok());
        let err = from_str(&format!("{valid}request -1 1.9\n")).unwrap_err();
        assert!(err.to_string().contains("line 5: bad request user"), "{err}");
        assert_rejected("request 0 -2", "bad request data");
        assert_rejected("request 0 1.9", "bad request data");
    }

    #[test]
    fn fractional_ids_are_rejected() {
        assert_rejected("server 0.4 0 0 100 1 200 30", "bad server id");
        assert_rejected("user 0.0 0 0 1 100", "bad user id");
        assert_rejected("data 1e0 10", "bad data id");
    }

    #[test]
    fn out_of_range_channel_counts_are_rejected() {
        assert!(from_str(&format!("{HEADER}\nserver 0 0 0 100 65535 200 30\n")).is_ok());
        assert_rejected("server 0 0 0 100 1e11 200 30", "bad channels");
        assert_rejected("server 0 0 0 100 65536 200 30", "bad channels");
        assert_rejected("server 0 0 0 100 2.5 200 30", "bad channels");
    }

    #[test]
    fn documented_example_parses() {
        let doc = include_str!("io.rs");
        let example: String = doc
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| format!("{}\n", l.trim_start_matches("//!").trim_start()))
            .collect();
        assert!(example.starts_with(HEADER), "{example:?}");
        let scenario = from_str(&example).expect("the module-doc example must parse");
        assert_eq!((scenario.num_servers(), scenario.num_users(), scenario.num_data()), (1, 1, 1));
        assert_eq!(scenario.area, Rect::with_size(1800.0, 1400.0));
    }

    #[test]
    fn non_finite_area_corners_are_rejected() {
        for corners in ["0 0 NaN 1400", "inf 0 1800 1400", "0 -inf 1800 1400", "0 0 1800 nan"] {
            assert_rejected(&format!("area {corners}"), "area corners must be finite");
        }
    }

    #[test]
    fn users_outside_the_area_are_rejected() {
        let area = "area 0 0 100 100\n";
        let inside = format!("{HEADER}\n{area}user 0 0 100 1 100\n");
        assert!(from_str(&inside).is_ok(), "the border is inside");
        let outside = format!("{HEADER}\n{area}user 0 50 50 1 100\n\nuser 1 100.5 50 1 100\n");
        let err = from_str(&outside).unwrap_err();
        assert!(err.to_string().contains("line 5: user 1 lies outside the area"), "{err}");
        assert!(matches!(err, ModelError::Inconsistent(_)), "a cross-reference check: {err:?}");
        // The area may follow the users it bounds; servers may lie anywhere.
        let late = format!("{HEADER}\nserver 0 -1e308 0 100 1 200 30\nuser 0 -5 0 1 100\n{area}");
        assert!(from_str(&late).unwrap_err().to_string().contains("line 3: user 0"));
        let far_server = format!("{HEADER}\nserver 0 -1e308 0 100 1 200 30\n{area}");
        assert!(from_str(&far_server).is_ok());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let text = format!("{HEADER}\n\nwhatever\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }
}
