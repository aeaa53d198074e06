//! The backend selection that configs carry.

/// Serializable backend selection carried by configs.
///
/// Nothing reads it: every layer calls the functions in [`crate::kernels`].
/// It stays because `FedMsConfig` serialises the field into every config
/// hash, and because roundbench writes `EngineConfig` out field by field;
/// the change that moves roundbench onto `FedMsConfig::build_engine`
/// (ROADMAP item 3) may drop it. With one value there is nothing to
/// select, so no spec key or CLI flag names it; a JSON config may, and
/// deserialising rejects any other variant.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum BackendKind {
    /// The bit-exact kernels in [`crate::kernels`] (the default and the
    /// only value).
    #[default]
    Scalar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_round_trips() {
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
        let json = serde_json::to_string(&BackendKind::Scalar).unwrap();
        let back: BackendKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, BackendKind::Scalar);
    }

    #[test]
    fn blocked_is_an_unknown_backend() {
        // The blocked backend is gone: a config naming it does not load.
        assert!(serde_json::from_str::<BackendKind>("\"Blocked\"").is_err());
    }
}
