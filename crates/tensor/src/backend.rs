//! The backend selection that configs and spec files carry.

/// Serializable backend selection carried by configs and spec files.
///
/// Nothing reads it: every layer calls the functions in [`crate::kernels`].
/// It stays because `FedMsConfig` serialises the field into every config
/// hash, and because roundbench writes `EngineConfig` out field by field;
/// the change that moves roundbench onto `FedMsConfig::build_engine`
/// (ROADMAP item 3) may drop it.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum BackendKind {
    /// The bit-exact kernels in [`crate::kernels`] (the default and the
    /// only value).
    #[default]
    Scalar,
}

impl BackendKind {
    /// Parses a CLI/spec token (`"scalar"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(BackendKind::Scalar),
            other => Err(format!("unknown backend `{other}` (expected scalar)")),
        }
    }

    /// The token form accepted by [`BackendKind::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_round_trips() {
        assert_eq!(BackendKind::parse("scalar").unwrap(), BackendKind::Scalar);
        assert!(BackendKind::parse("gpu").is_err());
        assert_eq!(BackendKind::Scalar.to_string(), "scalar");
        assert_eq!(BackendKind::Scalar.as_str(), "scalar");
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
        let json = serde_json::to_string(&BackendKind::Scalar).unwrap();
        let back: BackendKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, BackendKind::Scalar);
    }

    #[test]
    fn blocked_is_an_unknown_backend() {
        // The blocked backend is gone: its token parses as any unknown one.
        let err = BackendKind::parse("blocked").unwrap_err();
        assert_eq!(err, "unknown backend `blocked` (expected scalar)");
        assert!(serde_json::from_str::<BackendKind>("\"Blocked\"").is_err());
    }
}
