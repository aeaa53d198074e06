//! The bench binaries that never run the engine, and the microbench
//! harness.
//!
//! Every engine experiment of the paper's evaluation is a sweep spec under
//! `experiments/`, run with `fedms exp run`; the binaries in `src/bin/`
//! cover what is not a sweep: `fig4` (Dirichlet label histograms),
//! `table2` (the settings summary), `lemma2` (the trimmed-mean error
//! bound) and `theory` (Theorem 1 on convex quadratics). The artefact ↔
//! command mapping is tabulated in the repository README under
//! *Reproducing the paper*. Each binary prints its table and writes it to
//! `results/` through [`save_json`], as a provenance-stamped artifact with
//! a `<name>.json` pointer to the latest.
//!
//! [`perf`] is the microbench harness: `filterbench` and `nnbench` measure
//! through it, write one report schema (`BENCH_*.json`) and gate against
//! their committed baselines through one check.

pub mod perf;

pub use fedms_exp::save_json;
