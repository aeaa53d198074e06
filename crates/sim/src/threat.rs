//! Dynamic threat schedules: time-varying compromise, partitions and
//! frame corruption.
//!
//! Fed-MS assumes a *static* Byzantine census — `B` of `P` servers are
//! malicious from round 0. Real edge deployments are messier: an honest
//! aggregator can be compromised mid-run and later re-imaged, links
//! partition and heal, and frames arrive corrupted. A [`ThreatSchedule`]
//! describes such an adversary as a list of [`ThreatEpoch`]s, each active
//! over a half-open round range, and the engine replays it
//! deterministically: which servers lie (and how), which are unreachable,
//! and how lossy the wire is are all pure functions of `(schedule, round)`.
//!
//! Three effect layers:
//!
//! * **Compromise** — an honest server's `ServerAttack` switches from
//!   `Benign` to the epoch's [`AttackKind`] while the epoch is active, then
//!   heals. Only *honest* servers may be scheduled: the static Byzantine
//!   set from [`crate::Topology`] is permanent.
//! * **Partition** — at the network layer, the scheduled servers become
//!   unreachable: uploads to them are dropped at the sender and their
//!   disseminations never cross the link. Partitions are realized by
//!   [`crate::net::NetTransport`] (there is a wire to cut);
//!   [`crate::LocalTransport`] models no wire and ignores them.
//! * **Corruption** — each frame on the wire is independently corrupted
//!   with probability `corrupt_rate` (a seed-deterministic bit flip in the
//!   frame header), so the receiver surfaces a typed
//!   [`crate::WireError`] and the payload is lost to the round.
//!
//! The trivial schedule (`ThreatSchedule::default()`) instantiates no
//! machinery at all: engine runs are bit-identical to a build without this
//! module (property-tested in `tests/threat.rs`).
//!
//! # Schedule grammar
//!
//! [`ThreatSchedule::parse`] accepts a compact one-line form for the CLI
//! (`--threat-schedule`) and experiment specs:
//!
//! ```text
//! schedule  := epoch (';' epoch)*
//! epoch     := range ':' directive (',' directive)*
//! range     := START '..' END        half-open [START, END)
//!            | START '..'            open-ended
//!            | START                 open-ended (same as START..)
//! directive := 'compromise=' ids     servers to compromise
//!            | 'attack=' kind        attack mounted (default random:-10:10)
//!            | 'partition=' ids      servers cut off at the network layer
//!            | 'corrupt=' rate       per-frame corruption probability
//! ids       := id ('|' id)*
//! kind      := name (':' param)*     e.g. noise:1.0, random:-10:10, ipm:0.5
//! ```
//!
//! `kind` is [`AttackKind::parse`]'s grammar, the same one sweep specs use
//! for `attack`: missing trailing parameters take the paper defaults.
//!
//! Example: `50..80:compromise=1|3,attack=random:-10:10;60..:partition=2`
//! compromises servers 1 and 3 for rounds 50–79 with the paper's random
//! attack, and partitions server 2 from round 60 onward.

use std::collections::{BTreeMap, BTreeSet};

use fedms_attacks::AttackKind;
use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// The attack mounted on compromised servers when an epoch names none:
/// the paper's uniform-replacement attack on `[-10, 10)`.
pub const DEFAULT_COMPROMISE_ATTACK: AttackKind = AttackKind::Random { lo: -10.0, hi: 10.0 };

/// One contiguous phase of the threat timeline: over rounds
/// `[start, end)` the listed servers are compromised and/or partitioned
/// and frames corrupt at `corrupt_rate`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ThreatEpoch {
    /// First round (0-based, inclusive) in which the epoch is active.
    #[serde(default)]
    pub start: usize,
    /// First round in which the epoch is no longer active (exclusive);
    /// `None` keeps it active for the rest of the run.
    #[serde(default)]
    pub end: Option<usize>,
    /// Honest servers compromised while the epoch is active.
    #[serde(default)]
    pub compromise: Vec<usize>,
    /// The attack the compromised servers mount; `None` means
    /// [`DEFAULT_COMPROMISE_ATTACK`].
    #[serde(default)]
    pub attack: Option<AttackKind>,
    /// Servers unreachable at the network layer while the epoch is active.
    #[serde(default)]
    pub partition: Vec<usize>,
    /// Probability an individual wire frame is corrupted in transit.
    #[serde(default)]
    pub corrupt_rate: f64,
}

impl ThreatEpoch {
    /// Whether the epoch is active in `round`.
    pub fn active(&self, round: usize) -> bool {
        round >= self.start && self.end.is_none_or(|end| round < end)
    }

    /// Whether the epoch injects nothing even when active.
    pub fn is_trivial(&self) -> bool {
        self.compromise.is_empty() && self.partition.is_empty() && self.corrupt_rate == 0.0
    }

    /// The attack compromised servers mount
    /// ([`DEFAULT_COMPROMISE_ATTACK`] unless the epoch names one).
    pub fn attack_kind(&self) -> AttackKind {
        self.attack.unwrap_or(DEFAULT_COMPROMISE_ATTACK)
    }
}

/// A full threat timeline: an ordered list of epochs. Later epochs win
/// where they overlap an earlier one (per server for compromise; the
/// partition set is the union, the corruption rate the maximum).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ThreatSchedule {
    /// The epochs, in declaration order.
    #[serde(default)]
    pub epochs: Vec<ThreatEpoch>,
}

/// The resolved threat state for one round, computed by
/// [`ThreatSchedule::view`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThreatView {
    /// Compromised servers and the attack each mounts this round.
    pub compromised: BTreeMap<usize, AttackKind>,
    /// Servers unreachable at the network layer this round.
    pub partitioned: BTreeSet<usize>,
    /// Per-frame corruption probability this round.
    pub corrupt_rate: f64,
}

impl ThreatView {
    /// Whether the view injects nothing this round.
    pub fn is_trivial(&self) -> bool {
        self.compromised.is_empty() && self.partitioned.is_empty() && self.corrupt_rate == 0.0
    }

    /// The network-layer slice of this view, handed to the transport.
    pub fn net_threat(&self) -> NetThreat {
        NetThreat {
            partitioned: self.partitioned.iter().copied().collect(),
            corrupt_rate: self.corrupt_rate,
        }
    }
}

/// The network-layer effects of the current threat view: which servers are
/// unreachable and how lossy the wire is. Passed to
/// [`crate::Transport::set_net_threat`] each round the schedule is
/// non-trivial.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetThreat {
    /// Servers cut off from every client (uplink and downlink).
    pub partitioned: Vec<usize>,
    /// Probability an individual wire frame is corrupted in transit.
    pub corrupt_rate: f64,
}

impl NetThreat {
    /// Whether this carries no network-layer effect.
    pub fn is_trivial(&self) -> bool {
        self.partitioned.is_empty() && self.corrupt_rate == 0.0
    }

    /// Whether `server` is partitioned.
    pub fn is_partitioned(&self, server: usize) -> bool {
        self.partitioned.contains(&server)
    }
}

impl ThreatSchedule {
    /// The empty schedule: no epochs, no effects.
    pub fn none() -> Self {
        ThreatSchedule::default()
    }

    /// Whether the schedule can never inject anything. A trivial schedule
    /// leaves the engine bit-identical to a run without one.
    pub fn is_trivial(&self) -> bool {
        self.epochs.iter().all(ThreatEpoch::is_trivial)
    }

    /// Resolves the threat state for `round`: which servers are
    /// compromised (and with what), which are partitioned, and the frame
    /// corruption rate.
    pub fn view(&self, round: usize) -> ThreatView {
        let mut view = ThreatView::default();
        for epoch in self.epochs.iter().filter(|e| e.active(round)) {
            for &id in &epoch.compromise {
                view.compromised.insert(id, epoch.attack_kind());
            }
            view.partitioned.extend(epoch.partition.iter().copied());
            view.corrupt_rate = view.corrupt_rate.max(epoch.corrupt_rate);
        }
        view
    }

    /// Index of the last declared epoch active in `round`, if any — the
    /// "current epoch" reported in events and degraded-quorum errors.
    pub fn epoch_index(&self, round: usize) -> Option<usize> {
        self.epochs.iter().rposition(|e| e.active(round) && !e.is_trivial())
    }

    /// Validates the schedule against a federation of `num_servers` with
    /// the given static Byzantine set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for out-of-range server ids, a
    /// compromise of an already-Byzantine server (the static set is
    /// permanent), empty round ranges, bad corruption rates, or attacks
    /// whose parameters fail to build.
    pub fn validate(&self, num_servers: usize, byzantine: &[usize]) -> Result<()> {
        for (i, epoch) in self.epochs.iter().enumerate() {
            if let Some(end) = epoch.end {
                if end <= epoch.start {
                    return Err(SimError::BadConfig(format!(
                        "threat epoch {i}: empty round range {}..{end}",
                        epoch.start
                    )));
                }
            }
            for &id in epoch.compromise.iter().chain(&epoch.partition) {
                if id >= num_servers {
                    return Err(SimError::BadConfig(format!(
                        "threat epoch {i}: server {id} out of range (federation has {num_servers})"
                    )));
                }
            }
            for &id in &epoch.compromise {
                if byzantine.contains(&id) {
                    return Err(SimError::BadConfig(format!(
                        "threat epoch {i}: server {id} is already statically Byzantine"
                    )));
                }
            }
            if !(epoch.corrupt_rate.is_finite() && (0.0..1.0).contains(&epoch.corrupt_rate)) {
                return Err(SimError::BadConfig(format!(
                    "threat epoch {i}: corrupt rate must be in [0, 1), got {}",
                    epoch.corrupt_rate
                )));
            }
            if !epoch.compromise.is_empty() {
                epoch.attack_kind().build().map_err(|e| {
                    SimError::BadConfig(format!("threat epoch {i}: bad attack: {e}"))
                })?;
            }
        }
        Ok(())
    }

    /// Parses the compact one-line schedule grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] describing the offending token.
    pub fn parse(spec: &str) -> Result<Self> {
        let mut epochs = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (range, directives) = part.split_once(':').ok_or_else(|| {
                SimError::BadConfig(format!("threat epoch '{part}': expected RANGE:DIRECTIVES"))
            })?;
            let mut epoch = ThreatEpoch::default();
            let range = range.trim();
            if let Some((start, end)) = range.split_once("..") {
                epoch.start = parse_usize("epoch start", start)?;
                let end = end.trim();
                epoch.end =
                    if end.is_empty() { None } else { Some(parse_usize("epoch end", end)?) };
            } else {
                epoch.start = parse_usize("epoch start", range)?;
            }
            for directive in directives.split(',') {
                let directive = directive.trim();
                if directive.is_empty() {
                    continue;
                }
                let (key, value) = directive.split_once('=').ok_or_else(|| {
                    SimError::BadConfig(format!(
                        "threat directive '{directive}': expected key=value"
                    ))
                })?;
                match key.trim() {
                    "compromise" => epoch.compromise = parse_ids(value)?,
                    "partition" => epoch.partition = parse_ids(value)?,
                    "attack" => {
                        let kind = AttackKind::parse(value.trim());
                        epoch.attack =
                            Some(kind.map_err(|e| SimError::BadConfig(format!("attack: {e}")))?);
                    }
                    "corrupt" => {
                        epoch.corrupt_rate = value.trim().parse().map_err(|_| {
                            SimError::BadConfig(format!("bad corrupt rate '{}'", value.trim()))
                        })?;
                    }
                    other => {
                        return Err(SimError::BadConfig(format!(
                            "unknown threat directive '{other}' \
                             (expected compromise/attack/partition/corrupt)"
                        )));
                    }
                }
            }
            epochs.push(epoch);
        }
        Ok(ThreatSchedule { epochs })
    }
}

fn parse_usize(what: &str, s: &str) -> Result<usize> {
    s.trim().parse().map_err(|_| SimError::BadConfig(format!("bad {what} '{}'", s.trim())))
}

fn parse_ids(s: &str) -> Result<Vec<usize>> {
    s.split('|').map(|id| parse_usize("server id", id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_trivial_everywhere() {
        let s = ThreatSchedule::none();
        assert!(s.is_trivial());
        for round in [0, 7, 100] {
            assert!(s.view(round).is_trivial());
            assert_eq!(s.epoch_index(round), None);
        }
    }

    #[test]
    fn epoch_ranges_are_half_open() {
        let e = ThreatEpoch { start: 5, end: Some(8), ..ThreatEpoch::default() };
        assert!(!e.active(4));
        assert!(e.active(5));
        assert!(e.active(7));
        assert!(!e.active(8));
        let open = ThreatEpoch { start: 3, end: None, ..ThreatEpoch::default() };
        assert!(open.active(1_000_000));
        assert!(!open.active(2));
    }

    #[test]
    fn view_resolves_overlaps_later_epoch_wins() {
        let s = ThreatSchedule {
            epochs: vec![
                ThreatEpoch {
                    start: 0,
                    end: None,
                    compromise: vec![1],
                    attack: Some(AttackKind::Zero),
                    partition: vec![2],
                    corrupt_rate: 0.1,
                },
                ThreatEpoch {
                    start: 10,
                    end: Some(20),
                    compromise: vec![1, 3],
                    attack: Some(AttackKind::SignFlip { scale: 1.0 }),
                    partition: vec![4],
                    corrupt_rate: 0.05,
                },
            ],
        };
        let early = s.view(5);
        assert_eq!(early.compromised.get(&1), Some(&AttackKind::Zero));
        assert_eq!(early.partitioned.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(early.corrupt_rate, 0.1);
        assert_eq!(s.epoch_index(5), Some(0));
        let mid = s.view(15);
        // Later epoch rebinds server 1's attack and adds server 3.
        assert_eq!(mid.compromised.get(&1), Some(&AttackKind::SignFlip { scale: 1.0 }));
        assert_eq!(mid.compromised.get(&3), Some(&AttackKind::SignFlip { scale: 1.0 }));
        // Partition is the union, corruption the max over active epochs.
        assert_eq!(mid.partitioned.iter().copied().collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(mid.corrupt_rate, 0.1);
        assert_eq!(s.epoch_index(15), Some(1));
        assert_eq!(s.epoch_index(25), Some(0));
    }

    #[test]
    fn parse_full_grammar() {
        let s = ThreatSchedule::parse(
            "50..80:compromise=1|3,attack=random:-10:10;60..:partition=2,corrupt=0.01;90:compromise=5",
        )
        .unwrap();
        assert_eq!(s.epochs.len(), 3);
        assert_eq!(s.epochs[0].start, 50);
        assert_eq!(s.epochs[0].end, Some(80));
        assert_eq!(s.epochs[0].compromise, vec![1, 3]);
        assert_eq!(s.epochs[0].attack, Some(AttackKind::Random { lo: -10.0, hi: 10.0 }));
        assert_eq!(s.epochs[1].start, 60);
        assert_eq!(s.epochs[1].end, None);
        assert_eq!(s.epochs[1].partition, vec![2]);
        assert_eq!(s.epochs[1].corrupt_rate, 0.01);
        // Bare round = open-ended; default attack applies.
        assert_eq!(s.epochs[2].start, 90);
        assert_eq!(s.epochs[2].end, None);
        assert_eq!(s.epochs[2].attack, None);
        assert_eq!(s.epochs[2].attack_kind(), DEFAULT_COMPROMISE_ATTACK);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "compromise=1",           // no range separator
            "5..3:compromise=1",      // parses, fails validate below
            "1..2:compromise=",       // empty id
            "1..2:frobnicate=3",      // unknown directive
            "1..2:corrupt=sometimes", // bad rate
            "x..2:compromise=1",      // bad start
            "1..y:compromise=1",      // bad end
            "1..2:attack=warp:1",     // unknown attack
            "1..2:attack=noise:1:2",  // wrong arity
            "1..2:compromise",        // directive without '='
        ] {
            if bad == "5..3:compromise=1" {
                let s = ThreatSchedule::parse(bad).unwrap();
                assert!(s.validate(10, &[]).is_err(), "{bad} should fail validation");
            } else {
                assert!(ThreatSchedule::parse(bad).is_err(), "{bad} should fail to parse");
            }
        }
    }

    #[test]
    fn validation_guards_ids_ranges_and_rates() {
        let ok = ThreatSchedule::parse("5..10:compromise=1,partition=2").unwrap();
        assert!(ok.validate(4, &[0]).is_ok());
        // Out-of-range server.
        assert!(ok.validate(2, &[0]).is_err());
        // Compromise of a statically Byzantine server.
        assert!(ok.validate(4, &[1]).is_err());
        // Empty range.
        let empty = ThreatSchedule {
            epochs: vec![ThreatEpoch { start: 5, end: Some(5), ..ThreatEpoch::default() }],
        };
        assert!(empty.validate(4, &[]).is_err());
        // Bad corruption rate.
        let hot = ThreatSchedule {
            epochs: vec![ThreatEpoch { corrupt_rate: 1.0, ..ThreatEpoch::default() }],
        };
        assert!(hot.validate(4, &[]).is_err());
        // Bad attack parameters surface at validation time.
        let bad_attack = ThreatSchedule {
            epochs: vec![ThreatEpoch {
                compromise: vec![1],
                attack: Some(AttackKind::Noise { std: -1.0 }),
                ..ThreatEpoch::default()
            }],
        };
        assert!(bad_attack.validate(4, &[]).is_err());
    }

    #[test]
    fn serde_roundtrip_and_defaults() {
        let s = ThreatSchedule::parse("50..80:compromise=1,attack=ipm:0.5,corrupt=0.01").unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: ThreatSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let empty: ThreatSchedule = serde_json::from_str("{}").unwrap();
        assert!(empty.is_trivial());
    }

    #[test]
    fn net_threat_slice() {
        let s = ThreatSchedule::parse("0..:partition=1|3,corrupt=0.25").unwrap();
        let net = s.view(0).net_threat();
        assert!(!net.is_trivial());
        assert!(net.is_partitioned(1));
        assert!(net.is_partitioned(3));
        assert!(!net.is_partitioned(2));
        assert_eq!(net.corrupt_rate, 0.25);
        assert!(NetThreat::default().is_trivial());
    }
}
