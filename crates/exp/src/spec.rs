//! Declarative sweep specs: parse, validate, expand.
//!
//! A spec is a small TOML-subset document (see [`crate::toml`]) with three
//! tables:
//!
//! ```toml
//! [experiment]           # run identity and global knobs
//! name = "fig3"          # required; names the run directory
//! title = "..."          # optional, printed at sweep start
//! seeds = [42, 43]       # default [42]
//! rounds = 60            # default 60
//! scale = "paper"        # "paper" (Table II) or "tiny" (test scale)
//! eval_every = 3         # default max(rounds/20, 1)
//! checkpoint_every = 0   # engine snapshot cadence, 0 = off
//!
//! [base]                 # overrides applied to every cell
//! byzantine = 2
//! attack = "noise"
//!
//! [grid]                 # each key is an axis; cells = cross product
//! filter = ["trimmed:0.2", "mean"]
//! epsilon = [0.0, 0.1, 0.2, 0.3]
//! ```
//!
//! Expansion crosses the grid axes in declaration order, applies `[base]`
//! then the cell's axis values to the scale's base config, crosses with the
//! seed list, and **deduplicates** trials whose resolved `(config, seed)`
//! coincide. `[base]` and `[grid]` keys are [`FedMsConfig::apply`]'s
//! override keys and their values reach it as text, so attack and filter
//! values are its compact `kind[:param[:param]]` strings; `trimmed:matched`
//! resolves β = B/P per cell (the paper's matched trim rate),
//! `adaptive:matched` resolves trim = B.
//!
//! The spec is the whole input: nothing outside its source changes the
//! trials, so [`SweepSpec::default_run_id`], which hashes that source,
//! names exactly the trials that run.

use crate::toml::{self, Value};
use crate::trial::Trial;
use fedms_core::{fnv1a64_hex, FedMsConfig};
use std::fmt;

/// A spec-level failure: parse error, unknown key, bad value, infeasible
/// config.
#[derive(Debug, Clone)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<toml::TomlError> for SpecError {
    fn from(e: toml::TomlError) -> Self {
        SpecError(e.to_string())
    }
}

/// The base configuration a spec's overrides start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// [`FedMsConfig::paper_defaults`] — Table II (K=50, P=10).
    Paper,
    /// [`FedMsConfig::tiny`] — the 8-client/4-server test federation.
    Tiny,
}

/// A parsed, validated sweep spec, ready to expand into trials.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// `[experiment] name` — names the run directory.
    pub name: String,
    /// `[experiment] title`, printed at sweep start.
    pub title: String,
    /// Seed list the grid is crossed with.
    pub seeds: Vec<u64>,
    /// Training rounds per trial.
    pub rounds: usize,
    /// Evaluation cadence; `None` = auto (`max(rounds/20, 1)`).
    pub eval_every: Option<usize>,
    /// Base config preset.
    pub scale: Scale,
    /// Engine-snapshot cadence for long trials (0 = off).
    pub checkpoint_every: usize,
    /// `[base]` overrides in declaration order.
    pub base: Vec<(String, Value)>,
    /// `[grid]` axes in declaration order.
    pub axes: Vec<(String, Vec<Value>)>,
    /// The verbatim spec source (hashed for the run id, copied into the
    /// run directory).
    pub source: String,
}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

impl SweepSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending key or line for parse
    /// failures, unknown keys/tables, and malformed values.
    pub fn parse(source: &str) -> Result<SweepSpec, SpecError> {
        let doc = toml::parse(source)?;
        for table in &doc.tables {
            match table.name.as_str() {
                "experiment" | "base" | "grid" => {}
                "" => return Err(bad("keys before any table header; start with [experiment]")),
                other => return Err(bad(format!("unknown table [{other}]"))),
            }
        }
        let exp = doc.table("experiment").ok_or_else(|| bad("missing [experiment] table"))?;
        for entry in &exp.entries {
            match entry.key.as_str() {
                "name" | "title" | "seeds" | "rounds" | "scale" | "eval_every"
                | "checkpoint_every" => {}
                other => {
                    return Err(bad(format!(
                        "line {}: unknown [experiment] key `{other}`",
                        entry.line
                    )))
                }
            }
        }
        let name = exp
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("[experiment] needs a string `name`"))?
            .to_string();
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(bad(format!("experiment name `{name}` must be a nonempty slug")));
        }
        let title = exp.get("title").and_then(Value::as_str).unwrap_or(&name).to_string();
        let seeds = match exp.get("seeds") {
            None => vec![42],
            Some(v) => {
                let items = v.as_array().ok_or_else(|| bad("`seeds` must be an array"))?;
                let mut seeds = Vec::new();
                for item in items {
                    let i = item
                        .as_int()
                        .filter(|&i| i >= 0)
                        .ok_or_else(|| bad("`seeds` entries must be non-negative integers"))?;
                    seeds.push(i as u64);
                }
                if seeds.is_empty() {
                    return Err(bad("`seeds` must not be empty"));
                }
                seeds
            }
        };
        let rounds = match exp.get("rounds") {
            None => 60,
            Some(v) => usize_value(v).map_err(|e| bad(format!("`rounds`: {e}")))?,
        };
        if rounds == 0 {
            return Err(bad("`rounds` must be positive"));
        }
        let eval_every = match exp.get("eval_every") {
            None => None,
            Some(v) => {
                let n = usize_value(v).map_err(|e| bad(format!("`eval_every`: {e}")))?;
                if n == 0 {
                    return Err(bad("`eval_every` must be positive"));
                }
                Some(n)
            }
        };
        let scale = match exp.get("scale").map(|v| v.as_str().unwrap_or_default()) {
            None | Some("paper") => Scale::Paper,
            Some("tiny") => Scale::Tiny,
            Some(other) => return Err(bad(format!("unknown scale `{other}` (paper|tiny)"))),
        };
        let checkpoint_every = match exp.get("checkpoint_every") {
            None => 0,
            Some(v) => usize_value(v).map_err(|e| bad(format!("`checkpoint_every`: {e}")))?,
        };

        let mut base = Vec::new();
        if let Some(table) = doc.table("base") {
            for entry in &table.entries {
                if matches!(entry.value, Value::Array(_)) {
                    return Err(bad(format!(
                        "line {}: [base] values are scalars; put axis `{}` under [grid]",
                        entry.line, entry.key
                    )));
                }
                check_entry(&entry.key, &entry.value, entry.line)?;
                base.push((entry.key.clone(), entry.value.clone()));
            }
        }
        let mut axes = Vec::new();
        if let Some(table) = doc.table("grid") {
            for entry in &table.entries {
                let values = entry
                    .value
                    .as_array()
                    .ok_or_else(|| {
                        bad(format!(
                            "line {}: [grid] values are arrays; scalar `{}` belongs in [base]",
                            entry.line, entry.key
                        ))
                    })?
                    .to_vec();
                if values.is_empty() {
                    return Err(bad(format!("line {}: axis `{}` is empty", entry.line, entry.key)));
                }
                for value in &values {
                    check_entry(&entry.key, value, entry.line)?;
                }
                axes.push((entry.key.clone(), values));
            }
        }

        let spec = SweepSpec {
            name,
            title,
            seeds,
            rounds,
            eval_every,
            scale,
            checkpoint_every,
            base,
            axes,
            source: source.to_string(),
        };
        // Surface bad cell values at parse time, not mid-sweep.
        spec.expand()?;
        Ok(spec)
    }

    /// The spec-source hash (16 hex digits) — the run's identity.
    pub fn spec_hash(&self) -> String {
        fnv1a64_hex(self.source.as_bytes())
    }

    /// The default run id: `<name>-<spec-hash8>`. Deterministic, so
    /// re-running an unchanged spec resumes its own run directory.
    pub fn default_run_id(&self) -> String {
        format!("{}-{}", self.name, &self.spec_hash()[..8])
    }

    /// Expands the grid into the deduplicated trial list:
    /// `cells(axes) × seeds`, minus trials whose resolved `(config, seed)`
    /// duplicate an earlier one.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the cell for malformed override
    /// values or configs that fail [`FedMsConfig::validate`].
    pub fn expand(&self) -> Result<Vec<Trial>, SpecError> {
        let mut trials = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let cells = self.cells();
        for cell in &cells {
            let label = if cell.is_empty() {
                "base".to_string()
            } else {
                cell.iter()
                    .map(|(k, v)| format!("{k}={}", v.display()))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let axes: Vec<(String, String)> =
                cell.iter().map(|(k, v)| (k.clone(), v.display())).collect();
            for &seed in &self.seeds {
                let config = self
                    .resolve_config(cell, seed)
                    .map_err(|e| bad(format!("cell `{label}`: {e}")))?;
                config.validate().map_err(|e| bad(format!("cell `{label}`: {e}")))?;
                // Checkpoint segments must align with the evaluation grid
                // only when eval_every == 1; otherwise segment boundaries
                // add evaluation points. Both are deterministic; see
                // `trial::execute_trial`.
                let config_hash = config.stable_hash_hex();
                if !seen.insert((config_hash.clone(), seed)) {
                    continue; // duplicate cell (e.g. vanilla × every epsilon=0 variant)
                }
                let id = format!("{}-s{seed}-{}", slug(&label), &config_hash[..8]);
                trials.push(Trial {
                    id,
                    label: label.clone(),
                    axes: axes.clone(),
                    seed,
                    config,
                    config_hash,
                    checkpoint_every: self.checkpoint_every,
                });
            }
        }
        Ok(trials)
    }

    /// The grid cells (axis assignments) in odometer order, last axis
    /// fastest. A gridless spec has one empty cell.
    fn cells(&self) -> Vec<Vec<(String, Value)>> {
        let mut cells: Vec<Vec<(String, Value)>> = vec![Vec::new()];
        for (key, values) in &self.axes {
            let mut next = Vec::with_capacity(cells.len() * values.len());
            for cell in &cells {
                for v in values {
                    let mut c = cell.clone();
                    c.push((key.clone(), v.clone()));
                    next.push(c);
                }
            }
            cells = next;
        }
        cells
    }

    /// Resolves one cell to a full config: the scale's base config, then
    /// `[base]` overrides, then cell overrides (cell wins), with filters
    /// applied last so `matched` sees the final `B`/`P`.
    fn resolve_config(&self, cell: &[(String, Value)], seed: u64) -> Result<FedMsConfig, String> {
        let mut cfg = match self.scale {
            Scale::Paper => FedMsConfig::paper_defaults(seed).map_err(|e| e.to_string())?,
            Scale::Tiny => FedMsConfig::tiny(seed),
        };
        cfg.seed = seed;
        cfg.rounds = self.rounds;
        cfg.eval_every = self.eval_every.unwrap_or_else(|| (self.rounds / 20).max(1));

        // Merge [base] then the cell, cell entries overriding same-key base
        // entries; `apply` orders the keys by dependency.
        let mut merged: Vec<(&str, String)> = Vec::new();
        for (k, v) in self.base.iter().chain(cell.iter()) {
            if let Some(slot) = merged.iter_mut().find(|(mk, _)| mk == k) {
                slot.1 = v.display();
            } else {
                merged.push((k, v.display()));
            }
        }
        let pairs: Vec<(&str, &str)> = merged.iter().map(|(k, v)| (*k, v.as_str())).collect();
        cfg.apply(&pairs).map_err(|e| e.to_string())?;
        Ok(cfg)
    }
}

/// Rejects an unknown key or a value that does not parse, naming its line.
fn check_entry(key: &str, value: &Value, line: usize) -> Result<(), SpecError> {
    FedMsConfig::tiny(0)
        .apply(&[(key, &value.display())])
        .map_err(|e| bad(format!("line {line}: {e}")))
}

fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_dash = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push_str("cell");
    }
    out
}

fn usize_value(v: &Value) -> Result<usize, String> {
    v.as_int()
        .filter(|&i| i >= 0)
        .map(|i| i as usize)
        .ok_or_else(|| format!("expected a non-negative integer, got {}", v.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_attacks::AttackKind;
    use fedms_core::FilterKind;

    const FIG3ISH: &str = r#"
[experiment]
name = "fig3ish"
seeds = [1, 2]
rounds = 4
scale = "tiny"
eval_every = 1

[base]
attack = "noise"

[grid]
epsilon = [0.0, 0.25]
filter = ["trimmed:matched", "mean"]
"#;

    #[test]
    fn parses_and_expands_the_grid() {
        let spec = SweepSpec::parse(FIG3ISH).unwrap();
        assert_eq!(spec.name, "fig3ish");
        assert_eq!(spec.seeds, vec![1, 2]);
        assert_eq!(spec.scale, Scale::Tiny);
        let trials = spec.expand().unwrap();
        // 2 eps × 2 filters × 2 seeds = 8; dedup removes the eps=0
        // trimmed:matched duplicate of... nothing (beta 0 vs mean differ),
        // so all 8 survive.
        assert_eq!(trials.len(), 8);
        // Axis order: epsilon declared first, so it is the slow axis.
        assert_eq!(trials[0].axes[0].0, "epsilon");
        assert!(trials.iter().all(|t| t.config.rounds == 4 && t.config.eval_every == 1));
        // matched beta resolves against the tiny federation (4 servers).
        let matched: Vec<_> =
            trials.iter().filter(|t| t.label.contains("trimmed:matched")).collect();
        assert!(matched.iter().any(|t| t.config.filter == FilterKind::TrimmedMean { beta: 0.0 }));
        assert!(matched.iter().any(|t| t.config.filter == FilterKind::TrimmedMean { beta: 0.25 }));
        // epsilon=0.25 of 4 servers → 1 Byzantine.
        assert!(trials
            .iter()
            .any(|t| t.label.contains("epsilon=0.25") && t.config.byzantine_count == 1));
        // Ids are unique and slug-shaped.
        let mut ids: Vec<_> = trials.iter().map(|t| t.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|id| id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')));
    }

    #[test]
    fn dedup_collapses_identical_cells() {
        let spec = SweepSpec::parse(
            "[experiment]\nname = \"dup\"\nscale = \"tiny\"\nrounds = 2\n\n[grid]\nfilter = [\"mean\", \"mean\"]\n",
        )
        .unwrap();
        assert_eq!(spec.expand().unwrap().len(), 1, "identical cells must deduplicate");
    }

    #[test]
    fn base_and_cell_merge_cell_wins() {
        let spec = SweepSpec::parse(
            "[experiment]\nname = \"m\"\nscale = \"tiny\"\nrounds = 2\n\n[base]\nbyzantine = 1\nattack = \"zero\"\n\n[grid]\nbyzantine = [0, 2]\n",
        )
        .unwrap();
        let trials = spec.expand().unwrap();
        assert_eq!(trials.len(), 2);
        assert_eq!(trials[0].config.byzantine_count, 0);
        assert_eq!(trials[1].config.byzantine_count, 2);
        assert!(trials.iter().all(|t| t.config.attack == AttackKind::Zero));
    }

    #[test]
    fn threat_schedule_and_estimator_keys_apply() {
        let spec = SweepSpec::parse(
            "[experiment]\nname = \"threat\"\nscale = \"tiny\"\nrounds = 2\n\n[base]\nthreat_schedule = \"1..: compromise=1, attack=zero\"\nestimate_b = true\n",
        )
        .unwrap();
        let trials = spec.expand().unwrap();
        assert_eq!(trials.len(), 1);
        let cfg = &trials[0].config;
        assert!(!cfg.threat.is_trivial());
        assert_eq!(cfg.threat.epochs.len(), 1);
        assert!(cfg.estimator.enabled);
        // A malformed schedule is rejected up front with context.
        let e = SweepSpec::parse(
            "[experiment]\nname = \"t2\"\nscale = \"tiny\"\nrounds = 2\n\n[base]\nthreat_schedule = \"1..: wat=3\"\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("threat_schedule"), "{e}");
    }

    #[test]
    fn rejects_bad_specs_with_context() {
        for (text, needle) in [
            ("rounds = 3\n", "keys before any table"),
            ("[experiment]\nrounds = 3\n", "needs a string `name`"),
            ("[experiment]\nname = \"x\"\n[grid]\nfilter = \"mean\"\n", "arrays"),
            ("[experiment]\nname = \"x\"\n[base]\nfilter = [\"mean\"]\n", "scalars"),
            ("[experiment]\nname = \"x\"\n[base]\nwat = 1\n", "unknown override key `wat`"),
            ("[experiment]\nname = \"x\"\n[weird]\na = 1\n", "unknown table"),
            ("[experiment]\nname = \"x\"\nfigure = \"3\"\n", "unknown [experiment] key"),
            ("[experiment]\nname = \"x\"\nrounds = 0\n", "positive"),
            ("[experiment]\nname = \"x\"\nseeds = []\n", "seeds"),
            (
                "[experiment]\nname = \"x\"\nscale = \"tiny\"\n[base]\nattack = \"martian\"\n",
                "unknown attack",
            ),
            ("[experiment]\nname = \"x\"\nscale = \"tiny\"\n[base]\nbyzantine = 9\n", "byzantine"),
            ("[experiment]\nname = \"x\"\n[base]\nretry_budget = 4294967297\n", "retry_budget"),
        ] {
            let e = SweepSpec::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn run_id_is_deterministic_and_tracks_source() {
        let a = SweepSpec::parse(FIG3ISH).unwrap();
        let b = SweepSpec::parse(FIG3ISH).unwrap();
        assert_eq!(a.default_run_id(), b.default_run_id());
        assert!(a.default_run_id().starts_with("fig3ish-"));
        let c = SweepSpec::parse(&FIG3ISH.replace("rounds = 4", "rounds = 3")).unwrap();
        assert_ne!(a.default_run_id(), c.default_run_id());
    }

    #[test]
    fn slug_shapes() {
        assert_eq!(slug("attack=noise, filter=trimmed:0.2"), "attack-noise-filter-trimmed-0-2");
        assert_eq!(slug("***"), "cell");
    }
}
