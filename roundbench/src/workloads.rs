//! The benchmark's workloads and the closed loops that drive them.
//!
//! A *pass* builds one engine (timed: `setup_s`) and steps it through a
//! fixed number of rounds (each timed: `round_ms`), so its final models,
//! accuracy and comm totals are a pure function of the seed and can be
//! checked. A run repeats passes, each starting when the previous one
//! returns and taking the next of [`Workload::pass_seeds`], until its time
//! is up. The sweep workload's pass is one whole fig3 sweep through
//! `fedms-exp`'s scheduler.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fedms_aggregation::EstimatorPolicy;
use fedms_attacks::AttackKind;
use fedms_core::{fnv1a64, FedMsConfig, TransportKind};
use fedms_exp::{run_sweep_with, RunStore, SweepSpec, Trial, TrialRecord, TrialStatus};
use fedms_sim::{
    CommStats, DegradedMode, FaultSpec, ModelSpec, NetModel, RecoveryPolicy, SimulationEngine,
};

use crate::timed::build_traced;
use crate::trace::{RoundTrace, SpanSink};

/// The fig3 sweep spec as checked in.
pub const FIG3_SPEC: &str = include_str!("../../experiments/fig3.toml");

/// Worker threads of the sweep scheduler.
pub const SWEEP_WORKERS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II with MobileNetNano on the local transport.
    NanoPaper,
    /// The MLP on the net transport with faults, recovery and the B̂
    /// estimator.
    MlpEdgeFaults,
    /// The fig3 grid through the sweep scheduler.
    SweepFig3,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::NanoPaper, Workload::MlpEdgeFaults, Workload::SweepFig3];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NanoPaper => "nano_paper",
            Workload::MlpEdgeFaults => "mlp_edge_faults",
            Workload::SweepFig3 => "sweep_fig3",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds per pass (per trial for the sweep).
    pub fn rounds(self) -> usize {
        match self {
            Workload::NanoPaper => 6,
            Workload::MlpEdgeFaults => 20,
            Workload::SweepFig3 => 8,
        }
    }

    /// The input seeds an untraced run cycles its passes through, `seed`
    /// first. A `mlp_edge_faults` round costs up to a tenth more or less
    /// depending on its seed's fault and delivery draws, so its runs
    /// spread their passes over four seeds derived from `seed` rather than
    /// carry one seed's cost into the run-to-run spread.
    pub fn pass_seeds(self, seed: u64) -> Vec<u64> {
        let derived = match self {
            Workload::MlpEdgeFaults => 4,
            _ => 1,
        };
        (0..derived).map(|j| seed.wrapping_add(j * 1_000_000)).collect()
    }

    /// The engine configuration of one pass. For the sweep this is the
    /// spec's base cell, used only for the layer microprofile.
    pub fn config(self, seed: u64) -> FedMsConfig {
        let mut cfg = FedMsConfig::paper_defaults(seed).expect("Table II defaults are valid");
        cfg.rounds = self.rounds();
        cfg.threads = 0;
        match self {
            Workload::NanoPaper => {
                cfg.byzantine_count = 2;
                cfg.attack = AttackKind::Noise { std: 1.0 };
                cfg.model = ModelSpec::MobileNetNano(Default::default());
                cfg.eval_every = 1;
            }
            Workload::MlpEdgeFaults => {
                cfg.byzantine_count = 2;
                cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
                cfg.eval_every = 10;
                // One engine thread. The net transport's actor threads
                // already share the cores; a round that also splits its
                // phases over every core runs at the pace of whichever core
                // the host serves least, and on a 2-vCPU VM whose other
                // load comes and goes its round times spread three times
                // wider from run to run. Outputs do not depend on the
                // thread count.
                cfg.threads = 1;
                cfg.transport = TransportKind::Net;
                cfg.net_model = NetModel::edge();
                cfg.fault = FaultSpec {
                    crashed_servers: 1,
                    straggler_servers: 1,
                    straggler_delay: 1,
                    downlink_omission: 0.05,
                    duplicate_rate: 0.05,
                    ..FaultSpec::default()
                };
                cfg.recovery = RecoveryPolicy {
                    retry_budget: 4,
                    failover: true,
                    on_degraded: DegradedMode::Proceed,
                    ..RecoveryPolicy::disabled()
                };
                cfg.estimator = EstimatorPolicy::enabled();
            }
            Workload::SweepFig3 => {}
        }
        cfg
    }

    /// The sweep's trials for `seed`: the checked-in fig3 grid with the
    /// rounds cut to [`Workload::rounds`].
    pub fn trials(self, seed: u64) -> Result<Vec<Trial>, String> {
        let mut spec = SweepSpec::parse(FIG3_SPEC).map_err(|e| e.0)?;
        spec.rounds = self.rounds();
        spec.seeds = vec![seed];
        spec.expand().map_err(|e| e.0)
    }
}

/// Whether round `r` (0-based) of a `rounds`-round run evaluates, by the
/// rule of `SimulationEngine::run` on a fresh engine.
pub fn evaluates(r: usize, rounds: usize, eval_every: usize) -> bool {
    r.is_multiple_of(eval_every) || r + 1 == rounds
}

/// What one finished engine leaves behind, for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a over every client model's bits and the comm totals.
    pub digest: u64,
    /// `(round, mean accuracy)` at every evaluated round (empty when
    /// traced: the traced loop evaluates outside `step_round`).
    pub points: Vec<(usize, f32)>,
    /// Total comm counters.
    pub comm: CommStats,
    /// Parameter count of the model.
    pub params: usize,
}

/// FNV-1a 64 over each client model's FNV-1a 64 (of its f32 bits), in
/// client order, followed by the comm totals. Hashing model by model keeps
/// the transient buffer at one model.
pub fn digest(engine: &SimulationEngine) -> u64 {
    let mut bytes = Vec::new();
    for m in engine.client_models() {
        let bits: Vec<u8> = m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        bytes.extend_from_slice(&fnv1a64(&bits).to_le_bytes());
    }
    let c = engine.result().total_comm;
    for v in [
        c.upload_messages,
        c.download_messages,
        c.upload_bytes,
        c.download_bytes,
        c.dropped_uploads,
        c.dropped_downloads,
        c.duplicated_downloads,
        c.retried_uploads,
        c.failover_uploads,
        c.retried_downloads,
        c.deadline_misses,
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn outcome(engine: &SimulationEngine, traced: bool) -> Outcome {
    Outcome {
        digest: digest(engine),
        points: if traced { Vec::new() } else { engine.result().accuracy_series() },
        comm: engine.result().total_comm,
        params: engine.initial_model().len(),
    }
}

/// Timings of one run, appended to by every pass.
#[derive(Debug, Default)]
pub struct Samples {
    /// Engine build wall times, s.
    pub setup_s: Vec<f64>,
    /// `step_round` wall times, ms (untraced: including evaluation;
    /// traced: `step_round(false)` plus the separate evaluation).
    pub round_ms: Vec<f64>,
    /// Rounds attempted.
    pub attempted: usize,
    /// Rounds that returned `Err` (or trials that failed).
    pub failed: usize,
    /// Pass (or trial) wall times, s.
    pub busy_s: Vec<f64>,
    /// Per-pass outcomes, keyed by trial id for the sweep ("" otherwise).
    pub outcomes: Vec<BTreeMap<String, Outcome>>,
    /// The input seed of each entry of `outcomes`.
    pub pass_seeds: Vec<u64>,
    /// Largest buffer-pool high-water mark seen, bytes.
    pub pool_high_water: u64,
    /// Build-stage times of traced builds.
    pub setup_stages: Vec<crate::timed::SetupTimes>,
    /// Trial records of every sweep pass.
    pub records: Vec<Vec<TrialRecord>>,
    /// The process's peak RSS right after the first pass, bytes.
    pub first_pass_rss: u64,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.setup_s.extend(other.setup_s);
        self.round_ms.extend(other.round_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_s.extend(other.busy_s);
        self.pool_high_water = self.pool_high_water.max(other.pool_high_water);
        self.setup_stages.extend(other.setup_stages);
    }
}

/// How a pass drives its engine.
pub enum Mode {
    /// `FedMsConfig::build_engine` and `step_round(evaluate)`.
    Plain,
    /// [`build_traced`] and `step_round(false)` followed, on evaluated
    /// rounds, by a timed `evaluate_mean_accuracy()`.
    Traced(Arc<SpanSink>),
}

/// Builds and steps one engine for `cfg.rounds` rounds. `run` tags its
/// spans when traced. Returns the outcome, or the error that ended it.
pub fn run_engine(
    cfg: &FedMsConfig,
    mode: &Mode,
    run: u32,
    s: &mut Samples,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let (mut engine, trace) = match mode {
        Mode::Plain => (cfg.build_engine().map_err(|e| e.to_string())?, None),
        Mode::Traced(sink) => {
            let trace = RoundTrace::new(sink.clone(), run);
            let (engine, stages) = build_traced(cfg, &trace)?;
            s.setup_stages.push(stages);
            (engine, Some(trace))
        }
    };
    s.setup_s.push(started.elapsed().as_secs_f64());
    let rounds = cfg.rounds;
    for r in 0..rounds {
        let evaluate = evaluates(r, rounds, cfg.eval_every);
        s.attempted += 1;
        let t = Instant::now();
        let stepped = match &trace {
            None => engine.step_round(evaluate).map_err(|e| e.to_string()),
            Some(trace) => {
                trace.begin_round(r);
                let stepped = engine.step_round(false).map_err(|e| e.to_string());
                trace.end_round();
                stepped.and_then(|()| {
                    if evaluate {
                        let sink = trace.sink();
                        sink.time("phase.eval", run, r as u32, || engine.evaluate_mean_accuracy())
                            .map(drop)
                            .map_err(|e| e.to_string())
                    } else {
                        Ok(())
                    }
                })
            }
        };
        s.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = stepped {
            s.failed += 1;
            return Err(format!("round {r}: {e}"));
        }
    }
    s.pool_high_water = s.pool_high_water.max(engine.pool_stats().high_water_bytes);
    let out = outcome(&engine, trace.is_some());
    drop(engine); // joins the net transport's actor threads
    s.busy_s.push(started.elapsed().as_secs_f64());
    Ok(out)
}

/// One sweep pass: the fig3 trials through `run_sweep_with` on
/// [`SWEEP_WORKERS`] workers into a fresh run store under `store_dir`,
/// with a runner that times each trial's build and rounds. Returns the
/// sweep's wall time in s.
pub fn run_sweep_pass(
    trials: &[Trial],
    mode: &Mode,
    store_dir: &Path,
    first_run: u32,
    s: &mut Samples,
) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = RunStore::create_or_open(store_dir, "fig3").map_err(|e| e.to_string())?;
    let shared: Mutex<(Samples, BTreeMap<String, Outcome>)> = Mutex::default();
    let index: BTreeMap<&str, u32> =
        trials.iter().enumerate().map(|(i, t)| (t.id.as_str(), first_run + i as u32)).collect();
    let runner = |trial: &Trial, _checkpoint: Option<&Path>| {
        let mut local = Samples::default();
        let run = index[trial.id.as_str()];
        let result = run_trial(trial, mode, run, &mut local);
        let mut guard = shared.lock().expect("sweep samples poisoned by a panicking trial");
        guard.0.absorb(local);
        match result {
            Ok((record, out)) => {
                guard.1.insert(trial.id.clone(), out);
                record
            }
            Err(e) => TrialRecord::failed(trial, e),
        }
    };
    let t = Instant::now();
    let report = run_sweep_with(trials, &store, SWEEP_WORKERS, runner, |_| {});
    let wall = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(store_dir);
    let report = report?;
    let (local, outcomes) =
        shared.into_inner().expect("sweep samples poisoned by a panicking trial");
    s.absorb(local);
    s.outcomes.push(outcomes);
    s.records.push(report.records);
    Ok(wall)
}

/// Runs one trial as `fedms_exp::execute_trial` does (no checkpoints),
/// timing its build and rounds, and builds the same record.
pub fn run_trial(
    trial: &Trial,
    mode: &Mode,
    run: u32,
    s: &mut Samples,
) -> Result<(TrialRecord, Outcome), String> {
    let out = run_engine(&trial.config, mode, run, s)?;
    let points = out.points.clone();
    Ok((
        TrialRecord {
            trial_id: trial.id.clone(),
            label: trial.label.clone(),
            axes: trial.axes.clone(),
            seed: trial.seed,
            config_hash: trial.config_hash.clone(),
            status: TrialStatus::Completed,
            final_accuracy: points.last().map(|&(_, a)| a),
            points,
            comm: Some(out.comm),
        },
        out,
    ))
}

/// A fresh directory for a sweep pass's run store.
pub fn store_dir(out_dir: &Path, pass: usize) -> PathBuf {
    out_dir.join(format!("store-{}-{pass}", std::process::id()))
}
