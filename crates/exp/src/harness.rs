//! Shared harness helpers: the environment knobs sweeps honour and the
//! Table-II defaults the `table2` bench binary prints.
//!
//! The spec runner, the CLI and the bench binaries read the environment the
//! same way, through one strict parser ([`HarnessEnv`]).

use std::fmt;

use fedms_core::{CoreError, FedMsConfig, Result};

/// Rounds a run takes when neither a spec nor `FEDMS_ROUNDS` names them.
const DEFAULT_ROUNDS: usize = 60;
/// The most rounds a `FEDMS_FAST=1` smoke run takes.
const FAST_ROUNDS: usize = 10;

/// A harness environment variable set to a value it cannot take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub var: &'static str,
    /// The value it was set to.
    pub value: String,
    /// What the value has to be.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

impl From<EnvError> for CoreError {
    fn from(e: EnvError) -> Self {
        CoreError::BadConfig(e.to_string())
    }
}

/// The harness knobs of the environment, read strictly: a variable that is
/// set to a value it cannot take is an [`EnvError`], never ignored. A
/// variable set to the empty string counts as unset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarnessEnv {
    /// `FEDMS_ROUNDS`: a positive round count that replaces the spec's.
    pub(crate) rounds: Option<usize>,
    /// `FEDMS_FAST`: `1` caps the rounds at 10, `0` leaves them.
    pub(crate) fast: bool,
    /// `FEDMS_SEEDS`: comma-separated seeds that replace the spec's.
    pub(crate) seeds: Option<Vec<u64>>,
    /// `FEDMS_THREADS`: a positive worker-thread count.
    pub(crate) threads: Option<usize>,
}

impl HarnessEnv {
    /// Reads the knobs through `var`, which maps a variable name to its
    /// value (`None` when unset).
    ///
    /// # Errors
    ///
    /// Returns an [`EnvError`] naming the first variable whose value does
    /// not parse.
    pub(crate) fn parse(
        var: impl Fn(&'static str) -> Option<String>,
    ) -> std::result::Result<Self, EnvError> {
        let get = |name| var(name).filter(|v| !v.is_empty());
        let bad = |var, value: &str, expected| EnvError { var, value: value.to_string(), expected };
        let positive = |name| {
            get(name)
                .map(|v| match v.trim().parse() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err(bad(name, &v, "a positive integer")),
                })
                .transpose()
        };
        let fast = match get("FEDMS_FAST").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(bad("FEDMS_FAST", v, "0 or 1")),
        };
        let seeds = get("FEDMS_SEEDS")
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().parse())
                    .collect::<std::result::Result<Vec<u64>, _>>()
                    .map_err(|_| bad("FEDMS_SEEDS", &v, "a comma-separated list of seeds"))
            })
            .transpose()?;
        Ok(HarnessEnv {
            rounds: positive("FEDMS_ROUNDS")?,
            fast,
            seeds,
            threads: positive("FEDMS_THREADS")?,
        })
    }

    /// Reads the knobs from the process environment.
    ///
    /// # Errors
    ///
    /// Returns an [`EnvError`] naming the first variable whose value does
    /// not parse.
    pub fn from_env() -> std::result::Result<Self, EnvError> {
        Self::parse(|name| std::env::var(name).ok())
    }

    /// The rounds of a run that asks for `rounds`: `FEDMS_ROUNDS` replaces
    /// them, and `FEDMS_FAST=1` caps the result at 10 (a smoke run never
    /// runs *longer* than asked).
    pub(crate) fn rounds_or(&self, rounds: usize) -> usize {
        let rounds = self.rounds.unwrap_or(rounds);
        if self.fast {
            rounds.min(FAST_ROUNDS)
        } else {
            rounds
        }
    }
}

#[cfg(test)]
impl HarnessEnv {
    /// Parses an environment holding exactly `vars`.
    pub(crate) fn from_vars(vars: &[(&str, &str)]) -> std::result::Result<Self, EnvError> {
        Self::parse(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }
}

/// Number of training rounds requested via the environment
/// (`FEDMS_ROUNDS`, default 60, capped at 10 by `FEDMS_FAST=1`).
///
/// # Errors
///
/// Returns an [`EnvError`] if a harness variable does not parse.
pub fn rounds_from_env() -> std::result::Result<usize, EnvError> {
    Ok(HarnessEnv::from_env()?.rounds_or(DEFAULT_ROUNDS))
}

/// Worker-thread count requested via `FEDMS_THREADS`, defaulting to the
/// machine's available parallelism.
///
/// # Errors
///
/// Returns an [`EnvError`] if a harness variable does not parse.
pub fn threads_from_env() -> std::result::Result<usize, EnvError> {
    Ok(HarnessEnv::from_env()?
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
}

/// The experiment defaults shared by every accuracy figure: Table II plus
/// the calibrated substitutions documented in DESIGN.md.
///
/// # Errors
///
/// Propagates configuration errors and harness variables that do not
/// parse.
pub fn harness_defaults(seed: u64) -> Result<FedMsConfig> {
    let mut cfg = FedMsConfig::paper_defaults(seed)?;
    cfg.rounds = rounds_from_env()?;
    cfg.eval_every = (cfg.rounds / 20).max(1);
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        assert_eq!(HarnessEnv::from_vars(&[]).unwrap(), HarnessEnv::default());
        let empty = [("FEDMS_ROUNDS", ""), ("FEDMS_SEEDS", ""), ("FEDMS_THREADS", "")];
        assert_eq!(HarnessEnv::from_vars(&empty).unwrap(), HarnessEnv::default());
        assert_eq!(HarnessEnv::default().rounds_or(DEFAULT_ROUNDS), 60);
    }

    #[test]
    fn well_formed_values_parse() {
        let env = HarnessEnv::from_vars(&[
            ("FEDMS_ROUNDS", "6"),
            ("FEDMS_SEEDS", "1, 2,3"),
            ("FEDMS_THREADS", " 4 "),
            ("FEDMS_FAST", "0"),
        ])
        .unwrap();
        let want = HarnessEnv {
            rounds: Some(6),
            fast: false,
            seeds: Some(vec![1, 2, 3]),
            threads: Some(4),
        };
        assert_eq!(env, want);
        assert_eq!(env.rounds_or(60), 6);
    }

    #[test]
    fn fast_caps_the_rounds_without_raising_them() {
        let fast = HarnessEnv::from_vars(&[("FEDMS_FAST", "1")]).unwrap();
        assert_eq!(fast.rounds_or(60), 10);
        assert_eq!(fast.rounds_or(4), 4);
        assert_eq!(
            HarnessEnv::from_vars(&[("FEDMS_FAST", "1"), ("FEDMS_ROUNDS", "30")])
                .unwrap()
                .rounds_or(4),
            10
        );
    }

    #[test]
    fn malformed_values_name_the_variable_and_the_value() {
        for (var, value, expected) in [
            ("FEDMS_SEEDS", "1,x,3", "seeds"),
            ("FEDMS_SEEDS", "1,,3", "seeds"),
            ("FEDMS_SEEDS", "1,2,", "seeds"),
            ("FEDMS_SEEDS", "-1", "seeds"),
            ("FEDMS_ROUNDS", "6O", "positive integer"),
            ("FEDMS_ROUNDS", "0", "positive integer"),
            ("FEDMS_ROUNDS", "-3", "positive integer"),
            ("FEDMS_THREADS", "abc", "positive integer"),
            ("FEDMS_THREADS", "0", "positive integer"),
            ("FEDMS_FAST", "yes", "0 or 1"),
        ] {
            let e = HarnessEnv::from_vars(&[(var, value)]).unwrap_err();
            assert_eq!((e.var, e.value.as_str()), (var, value));
            let text = e.to_string();
            assert!(text.contains(var) && text.contains(value), "{text}");
            assert!(text.contains(expected), "{text}");
        }
    }

    #[test]
    fn harness_defaults_track_env_rounds() {
        // The process environment is read, never written (tests run in
        // parallel): whatever it holds, the defaults follow it.
        if let Ok(rounds) = rounds_from_env() {
            let cfg = harness_defaults(42).unwrap();
            assert_eq!(cfg.rounds, rounds);
            assert_eq!(cfg.eval_every, (cfg.rounds / 20).max(1));
        }
    }
}
