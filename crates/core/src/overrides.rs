//! The override key table: the one place a knob's text form becomes a
//! [`FedMsConfig`] field, for sweep specs and `fedms run` flags alike.
//! Kind values (`attack`, `client_attack`, `filter`, `server_filter`,
//! `upload`) share one grammar, `name[:param[:param]]`: missing trailing
//! parameters take the paper defaults and extra parameters are an error.

use std::str::FromStr;

use fedms_aggregation::EstimatorPolicy;
use fedms_attacks::{AttackKind, ClientAttackKind};
use fedms_nn::LrSchedule;
use fedms_sim::{DegradedMode, NetModel, ThreatSchedule, UploadStrategy};
use fedms_tensor::BackendKind;

use crate::{CoreError, FedMsConfig, FilterKind, Result, TransportKind};

impl FedMsConfig {
    /// Applies text `(key, value)` overrides such as `("epsilon", "0.2")`.
    ///
    /// Pairs apply in dependency order, stable within each group: sizes
    /// (`clients`, `servers`), Byzantine counts (`byzantine`, `epsilon`,
    /// `byzantine_clients`), every other key, then the filters. So ε sets
    /// `B = round(ε·P)` with the final `P`, and a `matched` filter sees the
    /// final `B` and `P` (a `server_filter` the Byzantine clients and `K`).
    /// A positive `straggler_servers` implies a one-round delay, and
    /// `backoff_base_ms` lifts `backoff_cap_ms` to at least itself.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] naming the key and value of an unknown key
    /// or unparsable value, with `self` left unchanged. Cross-field
    /// feasibility is left to [`FedMsConfig::validate`].
    pub fn apply(&mut self, overrides: &[(&str, &str)]) -> Result<()> {
        let mut pairs = overrides.to_vec();
        pairs.sort_by_key(|(key, _)| phase_of(key));
        let mut next = self.clone();
        for (key, value) in pairs {
            next.set(key, value)
                .map_err(|e| CoreError::BadConfig(format!("`{key}` = {value:?}: {e}")))?;
        }
        *self = next;
        Ok(())
    }

    fn set(&mut self, key: &str, v: &str) -> std::result::Result<(), String> {
        match key {
            "clients" => self.clients = parse(v)?,
            "servers" => self.servers = parse(v)?,
            "byzantine" => self.byzantine_count = parse(v)?,
            "epsilon" => {
                let eps: f64 = parse(v)?;
                if !(0.0..=1.0).contains(&eps) {
                    return Err(format!("epsilon {eps} outside [0, 1]"));
                }
                self.byzantine_count = (eps * self.servers as f64).round() as usize;
            }
            "byzantine_clients" => self.byzantine_clients = parse(v)?,
            "attack" => self.attack = AttackKind::parse(v)?,
            "client_attack" => self.client_attack = parse_client_attack(v)?,
            "equivocate" => self.equivocate = parse(v)?,
            "filter" => self.filter = parse_filter(v, self.byzantine_count, self.servers)?,
            "server_filter" => {
                self.server_filter = parse_filter(v, self.byzantine_clients, self.clients)?;
            }
            "upload" => self.upload = parse_upload(v)?,
            "local_epochs" => self.local_epochs = parse(v)?,
            "batch_size" => self.batch_size = parse(v)?,
            "lr" => self.schedule = LrSchedule::Constant(parse::<f64>(v)? as f32),
            "dirichlet_alpha" => self.dirichlet_alpha = parse(v)?,
            "rounds" => self.rounds = parse(v)?,
            "participation" => self.participation = parse(v)?,
            "cohort" => self.cohort = parse(v)?,
            "shard_samples" => self.shard_samples = parse(v)?,
            "eval_clients" => self.eval_clients = parse(v)?,
            "upload_drop_rate" => self.upload_drop_rate = parse(v)?,
            "crashed_servers" => self.fault.crashed_servers = parse(v)?,
            "crash_round" => self.fault.crash_round = parse(v)?,
            "straggler_servers" => {
                self.fault.straggler_servers = parse(v)?;
                if self.fault.straggler_servers > 0 && self.fault.straggler_delay == 0 {
                    self.fault.straggler_delay = 1;
                }
            }
            "straggler_delay" => self.fault.straggler_delay = parse(v)?,
            "downlink_omission" => self.fault.downlink_omission = parse(v)?,
            "duplicate_rate" => self.fault.duplicate_rate = parse(v)?,
            "retry_budget" => self.recovery.retry_budget = parse(v)?,
            "attempt_timeout_ms" => self.recovery.attempt_timeout_ms = parse(v)?,
            "backoff_base_ms" => {
                self.recovery.backoff_base_ms = parse(v)?;
                self.recovery.backoff_cap_ms =
                    self.recovery.backoff_cap_ms.max(self.recovery.backoff_base_ms);
            }
            "backoff_cap_ms" => self.recovery.backoff_cap_ms = parse(v)?,
            "failover" => self.recovery.failover = parse(v)?,
            "proceed_degraded" => {
                self.recovery.on_degraded =
                    if parse(v)? { DegradedMode::Proceed } else { DegradedMode::Abort };
            }
            "threat_schedule" => {
                self.threat = ThreatSchedule::parse(v).map_err(|e| e.to_string())?
            }
            "estimate_b" => {
                self.estimator =
                    if parse(v)? { EstimatorPolicy::enabled() } else { EstimatorPolicy::default() };
            }
            "backend" => self.backend = BackendKind::parse(v)?,
            "transport" => {
                self.transport = match v {
                    "local" => TransportKind::Local,
                    "net" => TransportKind::Net,
                    other => return Err(format!("unknown transport `{other}` (local|net)")),
                };
            }
            "net_profile" => {
                self.net_model = match v {
                    "ideal" => NetModel::ideal(),
                    "edge" => NetModel::edge(),
                    other => return Err(format!("unknown net profile `{other}` (ideal|edge)")),
                };
            }
            other => return Err(format!("unknown override key `{other}`")),
        }
        Ok(())
    }
}

/// The dependency group a key applies in (see [`FedMsConfig::apply`]).
fn phase_of(key: &str) -> u8 {
    match key {
        "clients" | "servers" => 0,
        "byzantine" | "epsilon" | "byzantine_clients" => 1,
        "filter" | "server_filter" => 3,
        _ => 2,
    }
}

fn parse<T: FromStr>(v: &str) -> std::result::Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{e}"))
}

/// Parses a client attack, named by its [`ClientAttackKind::label`].
fn parse_client_attack(s: &str) -> std::result::Result<ClientAttackKind, String> {
    let mut p = s.split(':').map(str::trim);
    let kind = match p.next().unwrap_or_default() {
        "sign_flip" => ClientAttackKind::SignFlip { scale: param(&mut p, 1.0)? },
        "noise" => ClientAttackKind::Noise { std: param(&mut p, 1.0)? },
        "random" => {
            ClientAttackKind::Random { lo: param(&mut p, -10.0)?, hi: param(&mut p, 10.0)? }
        }
        "amplify" => ClientAttackKind::Amplify { factor: param(&mut p, 10.0)? },
        "label_flip" => ClientAttackKind::LabelFlip { offset: param(&mut p, 1)? },
        other => return Err(format!("unknown client attack `{other}`")),
    };
    end(p, kind)
}

/// Parses a filter. `trimmed:matched` resolves β = b/p and
/// `adaptive:matched` resolves trim = b.
fn parse_filter(s: &str, b: usize, servers: usize) -> std::result::Result<FilterKind, String> {
    let mut p = s.split(':').map(str::trim).peekable();
    let kind = match p.next().unwrap_or_default() {
        "mean" => FilterKind::Mean,
        "trimmed" if p.next_if_eq(&"matched").is_some() => {
            if servers == 0 {
                return Err("matched trim rate needs servers > 0".into());
            }
            FilterKind::fedms(b, servers)
        }
        "trimmed" => FilterKind::TrimmedMean { beta: param(&mut p, 0.2)? },
        "adaptive" if p.next_if_eq(&"matched").is_some() => FilterKind::fedms_adaptive(b),
        "adaptive" => FilterKind::AdaptiveTrimmedMean { trim: param(&mut p, 1)? },
        "median" => FilterKind::Median,
        "krum" => FilterKind::Krum { f: param(&mut p, 1)? },
        "multikrum" => FilterKind::MultiKrum { f: param(&mut p, 1)?, m: param(&mut p, 2)? },
        "geomedian" => FilterKind::GeometricMedian,
        "bulyan" => FilterKind::Bulyan { f: param(&mut p, 1)? },
        "centeredclip" => FilterKind::CenteredClip { tau: param(&mut p, 1.0)? },
        "normbound" => FilterKind::NormBound { factor: param(&mut p, 3.0)? },
        other => return Err(format!("unknown filter `{other}`")),
    };
    end(p, kind)
}

/// Parses an upload strategy: `sparse`, `full` or `redundant:<k>`.
fn parse_upload(s: &str) -> std::result::Result<UploadStrategy, String> {
    let mut p = s.split(':').map(str::trim);
    let kind = match p.next().unwrap_or_default() {
        "sparse" => UploadStrategy::Sparse,
        "full" => UploadStrategy::Full,
        "redundant" => UploadStrategy::Redundant(param(&mut p, 2)?),
        other => return Err(format!("unknown upload strategy `{other}`")),
    };
    end(p, kind)
}

/// The next parameter of a kind string, or `default` past its end.
fn param<'a, T: FromStr>(
    p: &mut impl Iterator<Item = &'a str>,
    default: T,
) -> std::result::Result<T, String> {
    p.next().map_or(Ok(default), |s| s.parse().map_err(|_| format!("bad parameter `{s}`")))
}

/// `kind`, unless a parameter beyond its arity is left.
fn end<'a, K>(mut p: impl Iterator<Item = &'a str>, kind: K) -> std::result::Result<K, String> {
    match p.next() {
        None => Ok(kind),
        Some(extra) => Err(format!("unexpected parameter `{extra}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn applied(pairs: &[(&str, &str)]) -> FedMsConfig {
        let mut cfg = FedMsConfig::tiny(0);
        cfg.apply(pairs).unwrap();
        cfg
    }

    #[test]
    fn attack_filter_upload_parsers() {
        for (s, want) in [
            ("benign", AttackKind::Benign),
            ("zero", AttackKind::Zero),
            ("noise", AttackKind::Noise { std: 1.0 }),
            ("noise:1.5", AttackKind::Noise { std: 1.5 }),
            ("noise:2.5", AttackKind::Noise { std: 2.5 }),
            ("random", AttackKind::Random { lo: -10.0, hi: 10.0 }),
            ("random:-10:10", AttackKind::Random { lo: -10.0, hi: 10.0 }),
            ("random:-1:1", AttackKind::Random { lo: -1.0, hi: 1.0 }),
            ("safeguard", AttackKind::Safeguard { gamma: 0.6 }),
            ("safeguard:0.6", AttackKind::Safeguard { gamma: 0.6 }),
            ("backward", AttackKind::Backward { delay: 2 }),
            ("backward:2", AttackKind::Backward { delay: 2 }),
            ("backward:5", AttackKind::Backward { delay: 5 }),
            ("sign_flip", AttackKind::SignFlip { scale: 1.0 }),
            ("sign_flip:2.0", AttackKind::SignFlip { scale: 2.0 }),
            ("alie", AttackKind::Alie { z: 1.0 }),
            ("alie:1.0", AttackKind::Alie { z: 1.0 }),
            ("ipm", AttackKind::Ipm { epsilon: 0.5 }),
            ("ipm:0.5", AttackKind::Ipm { epsilon: 0.5 }),
        ] {
            assert_eq!(AttackKind::parse(s), Ok(want), "{s}");
        }
        for s in ["", "noise:abc", "signflip", "benign:1", "benign:5", "noise:1:2"] {
            assert!(AttackKind::parse(s).is_err(), "{s}");
        }
        assert_eq!(
            parse_client_attack("label_flip:2"),
            Ok(ClientAttackKind::LabelFlip { offset: 2 })
        );
        assert_eq!(parse_client_attack("sign_flip"), Ok(ClientAttackKind::SignFlip { scale: 1.0 }));
        assert!(parse_client_attack("labelflip").is_err());
        for (s, b, p, want) in [
            ("trimmed:0.3", 0, 10, FilterKind::TrimmedMean { beta: 0.3 }),
            ("trimmed:matched", 3, 10, FilterKind::TrimmedMean { beta: 0.3 }),
            ("adaptive:matched", 2, 10, FilterKind::AdaptiveTrimmedMean { trim: 2 }),
            ("multikrum:2:4", 0, 10, FilterKind::MultiKrum { f: 2, m: 4 }),
        ] {
            assert_eq!(parse_filter(s, b, p), Ok(want), "{s}");
        }
        for s in ["quantum", "mean:0.3", "trimmed:0.2:9", "trimmed:matched:0.3"] {
            assert!(parse_filter(s, 0, 10).is_err(), "{s}");
        }
        assert!(parse_filter("trimmed:matched", 0, 0).is_err());
        assert_eq!(parse_upload("redundant:3"), Ok(UploadStrategy::Redundant(3)));
        assert!(parse_upload("carrier-pigeon").is_err());
        assert!(parse_upload("sparse:3").is_err());
    }

    #[test]
    fn keys_apply_in_dependency_order() {
        // The filter is listed first but resolves against the final B and P.
        let cfg = applied(&[("filter", "trimmed:matched"), ("epsilon", "0.2"), ("servers", "10")]);
        assert_eq!(cfg.byzantine_count, 2);
        assert_eq!(cfg.filter, FilterKind::TrimmedMean { beta: 0.2 });
        let cfg = applied(&[("server_filter", "adaptive:matched"), ("byzantine_clients", "3")]);
        assert_eq!(cfg.server_filter, FilterKind::AdaptiveTrimmedMean { trim: 3 });
    }

    #[test]
    fn coupled_keys_follow_their_rules() {
        assert_eq!(applied(&[("straggler_servers", "1")]).fault.straggler_delay, 1);
        assert_eq!(applied(&[("straggler_servers", "0")]).fault.straggler_delay, 0);
        // The disabled policy's cap is 1 s: a larger base lifts it, a
        // smaller one leaves it.
        assert_eq!(applied(&[("backoff_base_ms", "5000")]).recovery.backoff_cap_ms, 5000);
        assert_eq!(applied(&[("backoff_base_ms", "5")]).recovery.backoff_cap_ms, 1000);
        let cfg = applied(&[("estimate_b", "true"), ("proceed_degraded", "true")]);
        assert!(cfg.estimator.enabled);
        assert_eq!(cfg.recovery.on_degraded, DegradedMode::Proceed);
        let cfg = applied(&[("transport", "net"), ("net_profile", "edge")]);
        assert_eq!((cfg.transport, cfg.net_model), (TransportKind::Net, NetModel::edge()));
    }

    #[test]
    fn bad_values_name_the_key_and_leave_the_config_unchanged() {
        for (key, value, needle) in [
            ("retry_budget", "4294967297", "`retry_budget`"),
            ("wat", "1", "unknown override key `wat`"),
            ("epsilon", "1.5", "outside [0, 1]"),
            ("transport", "carrier-pigeon", "\"carrier-pigeon\""),
            ("clients", "-1", "`clients`"),
        ] {
            let mut cfg = FedMsConfig::tiny(0);
            let e = cfg.apply(&[("servers", "9"), (key, value)]).unwrap_err();
            assert!(e.to_string().contains(needle), "{key}={value}: {e}");
            assert_eq!(cfg, FedMsConfig::tiny(0), "{key}={value}");
        }
    }
}
