//! Untrusted text never panics.
//!
//! Sweep specs, threat schedules and JSON configs arrive from files and
//! command lines. Their parsers must answer every input with `Ok` or their
//! typed error: never a panic, and never an abort such as a stack overflow
//! (which would kill this test binary). The inputs are the committed
//! `experiments/*.toml` specs, a threat-schedule line and
//! `FedMsConfig::tiny`'s JSON, each mutated a few times at random: a bit
//! flip, a deleted byte, a duplicated run of bytes, or an inserted `[`, `{`
//! or `"`. Every mutated text goes to `SweepSpec::parse`,
//! `ThreatSchedule::parse` and `serde_json::from_str::<FedMsConfig>`
//! followed by `FedMsConfig::validate`.

use fedms::exp::SweepSpec;
use fedms::tensor::rng::rng_for;
use fedms::{FedMsConfig, ThreatSchedule};
use rand::rngs::StdRng;
use rand::Rng;

/// Mutated variants of each input.
const CASES: usize = 300;

/// The unmutated inputs, by name.
fn inputs() -> Vec<(String, Vec<u8>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/experiments");
    let mut inputs: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("experiments/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .map(|path| (path.display().to_string(), std::fs::read(&path).expect("spec")))
        .collect();
    inputs.sort();
    assert!(inputs.len() >= 6, "expected the committed specs in {dir}");
    let schedule = "50..80: compromise=1|3, attack=random:-10:10; 60..: partition=5";
    inputs.push(("threat schedule".into(), schedule.into()));
    let config = serde_json::to_string_pretty(&FedMsConfig::tiny(7)).expect("config JSON");
    inputs.push(("FedMsConfig::tiny".into(), config.into()));
    inputs
}

/// Applies one to four random byte mutations to `bytes`.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..4) {
            0 if at < bytes.len() => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 if at < bytes.len() => {
                let end = (at + rng.gen_range(1..=16usize)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
            _ => bytes.insert(at, [b'[', b'{', b'"'][rng.gen_range(0..3usize)]),
        }
    }
}

/// Feeds `text` to every parser, discarding each `Result`: only a panic
/// (or an abort) fails the case.
fn parse_all(text: &str) {
    let _ = SweepSpec::parse(text);
    let _ = ThreatSchedule::parse(text);
    if let Ok(config) = serde_json::from_str::<FedMsConfig>(text) {
        let _ = config.validate();
    }
}

#[test]
fn mutated_specs_schedules_and_configs_never_panic() {
    for (i, (name, original)) in inputs().into_iter().enumerate() {
        // The unmutated input must parse, or its mutations probe nothing.
        let text = String::from_utf8(original.clone()).expect("UTF-8 input");
        let parsed = if name.ends_with(".toml") {
            SweepSpec::parse(&text).is_ok()
        } else if name == "threat schedule" {
            ThreatSchedule::parse(&text).is_ok()
        } else {
            serde_json::from_str::<FedMsConfig>(&text).is_ok_and(|c| c.validate().is_ok())
        };
        assert!(parsed, "{name} does not parse unmutated");
        let mut rng = rng_for(0xF022, &[i as u64]);
        for case in 0..CASES {
            let mut bytes = original.clone();
            mutate(&mut rng, &mut bytes);
            let text = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| parse_all(&text));
            assert!(outcome.is_ok(), "{name}, case {case}: a parser panicked on {text:?}");
        }
    }
}
