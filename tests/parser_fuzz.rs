//! Seeded mutation fuzzing of the parsers that read outside input: the
//! scenario reader, the fault-spec parser plus its compiler, and the EUA
//! CSV loader. Each mutant of a valid input (two tokens swapped, a token
//! replaced by an edge value, a truncation or a flipped bit) must come back
//! as `Ok` or as a typed error; a panic fails the test and names the mutant.

use std::panic::{catch_unwind, AssertUnwindSafe};

use idde::chaos::FaultSpec;
use idde::eua::csv::load_base_population;
use idde::model::{io, testkit};
use idde::net::{generate_topology, TopologyConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Mutants per parser: enough to cover every mutation kind many times over
/// while keeping the suite fast.
const MUTANTS: usize = 300;

/// Values that sit on a parser's edges: signs, fractions, overflow,
/// non-finite numbers and an empty token.
const EDGE_TOKENS: [&str; 8] =
    ["0", "-1", "1.5", "1e308", "NaN", "inf", "18446744073709551616", ""];

fn is_separator(c: char) -> bool {
    c.is_whitespace() || matches!(c, ',' | ':' | '@' | '+' | '-')
}

/// Applies one to three seeded mutations to `text`. A token is a run of
/// non-separators with the one separator that ends it.
fn mutate(text: &str, rng: &mut ChaCha8Rng) -> String {
    let mut text = text.to_string();
    for _ in 0..rng.gen_range(1..=3) {
        let mut tokens: Vec<String> =
            text.split_inclusive(is_separator).map(String::from).collect();
        if tokens.is_empty() {
            break;
        }
        let (i, j) = (rng.gen_range(0..tokens.len()), rng.gen_range(0..tokens.len()));
        let mut bytes = text.into_bytes();
        text = match rng.gen_range(0..4) {
            0 => {
                tokens.swap(i, j);
                tokens.concat()
            }
            1 => {
                let end = tokens[i].trim_start_matches(|c| !is_separator(c)).to_string();
                tokens[i] = format!("{}{end}", EDGE_TOKENS[rng.gen_range(0..EDGE_TOKENS.len())]);
                tokens.concat()
            }
            2 => String::from_utf8_lossy(&bytes[..rng.gen_range(0..bytes.len())]).into_owned(),
            _ => {
                let k = rng.gen_range(0..bytes.len());
                bytes[k] ^= 1u8 << rng.gen_range(0..8u32);
                String::from_utf8_lossy(&bytes).into_owned()
            }
        };
    }
    text
}

/// Runs `parse` on `MUTANTS` mutants of `valid` and fails on the first one
/// that panics.
fn fuzz(seed: u64, valid: &str, parse: impl Fn(&str)) {
    parse(valid);
    let mut rng = idde::seeded_rng(seed);
    for n in 0..MUTANTS {
        let mutant = mutate(valid, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| parse(&mutant))).is_err() {
            panic!("mutant {n} (seed {seed}) panicked the parser:\n{mutant}");
        }
    }
}

#[test]
fn scenario_reader_never_panics() {
    let valid = io::to_string(&testkit::fig2_example());
    assert!(io::from_str(&valid).is_ok());
    fuzz(1, &valid, |text| {
        let _ = io::from_str(text);
    });
}

#[test]
fn fault_spec_parse_and_compile_never_panic() {
    let topology = generate_topology(12, &TopologyConfig::paper(1.5), &mut idde::seeded_rng(3));
    let graph = topology.graph();
    let link = graph.links()[0];
    let valid = format!(
        "server:3@40+80, link:{}-{}@30+60, jam:1@20+30:1e-3, deg:{}-{}@5+10:0.5, \
         rand:2022:2:1:1@200+60",
        link.a, link.b, link.a, link.b
    );
    assert!(FaultSpec::parse(&valid).unwrap().compile(graph).is_ok());
    fuzz(2, &valid, |text| {
        if let Ok(spec) = FaultSpec::parse(text) {
            let _ = spec.compile(graph);
        }
    });
}

#[test]
fn eua_csv_loader_never_panics() {
    const SERVERS: &str = "SITE_ID,NAME,LATITUDE,LONGITUDE,STATE\n\
                           1,site-a,-37.8136,144.9631,VIC\n\
                           2,site-b,-37.8150,144.9660,VIC\n";
    const USERS: &str = "Latitude,Longitude\n-37.8140,144.9640\n-37.8145,144.9650\n";
    let dir = std::env::temp_dir().join(format!("idde-parser-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (servers, users) = (dir.join("servers.csv"), dir.join("users.csv"));
    let load = |servers_csv: &str, users_csv: &str| {
        std::fs::write(&servers, servers_csv).unwrap();
        std::fs::write(&users, users_csv).unwrap();
        let _ = load_base_population(&servers, &users, (100.0, 150.0), &mut idde::seeded_rng(4));
    };
    fuzz(5, SERVERS, |text| load(text, USERS));
    fuzz(6, USERS, |text| load(SERVERS, text));
    std::fs::remove_dir_all(&dir).unwrap();
}
