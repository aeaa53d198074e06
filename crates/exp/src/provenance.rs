//! Provenance-stamped results files.
//!
//! The old `save_json` wrote `results/<name>.json`, silently clobbering
//! whatever a previous run (possibly of different code, at a different git
//! rev) had produced. The stamped writer keeps history instead:
//!
//! * the artifact lands at `results/<name>-<hash8>.json`, where the hash is
//!   FNV-1a over the serialized payload — identical reruns land on the
//!   identical file, distinct results never collide;
//! * the artifact wraps the payload with a [`Provenance`] block (git rev,
//!   content hash, producing tool);
//! * `results/<name>.json` becomes a **symlink** to the newest artifact
//!   (with a JSON pointer file as the fallback where symlinks are
//!   unavailable), so the conventional path keeps working while prior
//!   artifacts survive.

use fedms_core::fnv1a64_hex;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Who/what produced a results artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse --short HEAD` at write time (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// FNV-1a hash (16 hex digits) of the serialized payload.
    pub content_hash: String,
    /// The producing binary or subsystem (e.g. `"fedms exp run"`).
    pub tool: String,
}

/// Writes `value` to `dir/<name>-<hash8>.json` with a [`Provenance`] stamp
/// and points `dir/<name>.json` at it.
///
/// Returns the artifact path.
///
/// # Errors
///
/// Propagates serialization and I/O failures.
pub fn save_json_stamped_in<T: Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
    tool: &str,
) -> io::Result<PathBuf> {
    let payload =
        serde_json::to_string_pretty(value).map_err(|e| io::Error::other(e.to_string()))?;
    let content_hash = fnv1a64_hex(payload.as_bytes());
    let provenance = Provenance {
        git_rev: crate::store::git_rev(),
        content_hash: content_hash.clone(),
        tool: tool.to_string(),
    };
    let artifact_name = format!("{name}-{}.json", &content_hash[..8]);
    std::fs::create_dir_all(dir)?;
    let artifact = dir.join(&artifact_name);
    let mut stamped = serde_json::Map::new();
    stamped.insert(
        "provenance".to_string(),
        serde_json::to_value(&provenance).map_err(|e| io::Error::other(e.to_string()))?,
    );
    stamped.insert(
        "data".to_string(),
        serde_json::to_value(value).map_err(|e| io::Error::other(e.to_string()))?,
    );
    let body =
        serde_json::to_string_pretty(&stamped).map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(&artifact, body)?;
    point_latest(dir, name, &artifact_name)?;
    Ok(artifact)
}

/// Points `dir/<name>.json` at `artifact_name`: a relative symlink where
/// possible, a small JSON pointer file otherwise.
fn point_latest(dir: &Path, name: &str, artifact_name: &str) -> io::Result<()> {
    let latest = dir.join(format!("{name}.json"));
    // Remove whatever is there — a stale symlink, an old-style plain file,
    // or a pointer file. (`symlink_metadata` so a dangling link still
    // registers as present.)
    if std::fs::symlink_metadata(&latest).is_ok() {
        std::fs::remove_file(&latest)?;
    }
    #[cfg(unix)]
    {
        if std::os::unix::fs::symlink(artifact_name, &latest).is_ok() {
            return Ok(());
        }
    }
    let pointer = format!("{{\n  \"latest\": \"{artifact_name}\"\n}}\n");
    std::fs::write(&latest, pointer)
}

/// Stamped drop-in for the bench harness's historical `save_json`: writes
/// under `results/` relative to the working directory, best effort (a
/// warning on failure rather than aborting the experiment output).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    match save_json_stamped_in(Path::new("results"), name, value, "fedms-bench") {
        Ok(path) => println!("results saved to {} (latest: results/{name}.json)", path.display()),
        Err(e) => eprintln!("warning: could not save results/{name}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fedms-exp-prov-{}-{tag}", std::process::id()))
    }

    #[test]
    fn stamps_and_points_latest_without_clobbering() {
        let dir = tmp("stamp");
        let _ = std::fs::remove_dir_all(&dir);
        let a = save_json_stamped_in(&dir, "fig9", &vec![1, 2, 3], "test").unwrap();
        let b = save_json_stamped_in(&dir, "fig9", &vec![4, 5, 6], "test").unwrap();
        assert_ne!(a, b, "distinct payloads must land on distinct artifacts");
        assert!(a.exists() && b.exists(), "history must survive");
        let latest = dir.join("fig9.json");
        let resolved = std::fs::read_to_string(&latest).unwrap();
        assert!(resolved.contains("4"), "latest must follow the newest artifact");
        // Identical payload → identical artifact, no duplicate history.
        let c = save_json_stamped_in(&dir, "fig9", &vec![4, 5, 6], "test").unwrap();
        assert_eq!(b, c);
        // The stamp carries provenance.
        let body = std::fs::read_to_string(&b).unwrap();
        for needle in ["provenance", "git_rev", "content_hash", "\"tool\": \"test\""] {
            assert!(body.contains(needle), "missing {needle} in {body}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_a_plain_file_latest() {
        let dir = tmp("plain");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("old.json"), b"{}").unwrap();
        save_json_stamped_in(&dir, "old", &42u32, "test").unwrap();
        let body = std::fs::read_to_string(dir.join("old.json")).unwrap();
        assert!(body.contains("42"), "pointer must now resolve to the stamped artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
