//! `fedms` — command-line front end for the Fed-MS reproduction.
//!
//! ```text
//! fedms init-config <file.json>   write a template experiment config
//! fedms run [<file.json>]         run an experiment (defaults: Table II)
//! fedms exp run <spec.toml>       run a declarative sweep spec in parallel
//! fedms exp list <spec.toml>      print the trials a spec expands into
//! fedms exp check <run-dir>       verify a run directory is complete
//! fedms exp report <results.json> print a finished sweep's table
//! fedms serve <addr>              play one parameter-server round over TCP
//! fedms client <addr>             upload a model to a `fedms serve` round
//! fedms attacks                   list server/client attack kinds
//! fedms filters                   list client-side filter kinds
//! ```
//!
//! `run` prints the per-round accuracy table and, with `--out <file>`,
//! writes the full metric record as JSON. `compare` runs several configs
//! and prints a summary table (final/best accuracy, convergence speed,
//! bytes uploaded). `exp run` executes a sweep spec (see `experiments/`)
//! on a work-stealing thread pool with a resumable run store under
//! `results/runs/<run-id>/`, then writes `results/<name>.json` and prints
//! its table.

use fedms::exp::{SweepResults, SweepSpec, Trial, TrialStatus};
use fedms::sim::net::{run_client, TcpRound};
use fedms::{AttackKind, ClientAttackKind, FedMsConfig, Snapshot, Tensor};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fedms init-config <file.json>\n  fedms run [<file.json>] [--out <file>] [--rounds <n>] [--seed <n>] [--save-checkpoint <file>] [--resume <file>]\n            [--crash <n>] [--crash-round <r>] [--stragglers <n>] [--straggler-delay <r>]\n            [--downlink-omission <p>] [--duplicate-rate <p>]\n            [--retry-budget <n>] [--attempt-timeout <ms>] [--backoff-base <ms>]\n            [--failover] [--proceed-degraded]\n            [--transport <local|net>] [--net-profile <ideal|edge>]\n            [--threat-schedule <spec>] [--estimate-b] [--backend <scalar>]\n  fedms serve <addr> [--expect <n>]\n  fedms client <addr> [--client <id>] [--dim <n>] [--value <x>]\n  fedms exp run <spec.toml> [--threads <n>] [--resume <run-id>] [--out-dir <dir>] [--dry-run|--list]\n  fedms exp list <spec.toml>\n  fedms exp check <run-dir>\n  fedms exp report <results.json>\n  fedms compare <a.json> <b.json> [...]\n  fedms attacks\n  fedms filters\n\nfault flags inject benign server/link faults on top of the config's\nscenario; victims are sampled deterministically from the run seed.\nrecovery flags enable deadline-driven retries with seed-deterministic\nbackoff (--retry-budget), upload failover to alternate servers\n(--failover), and local continuation instead of aborting when a client's\nview still degrades below quorum (--proceed-degraded).\n\n--transport net runs the round loop over the concurrent NetTransport\n(versioned wire frames through an actor thread); --net-profile edge adds the\nedge-network latency/bandwidth model, making stragglers and deadline\nmisses emerge from the network itself. `serve` binds one TCP parameter\nserver for a single round (port 0 picks a free port) and `client`\nuploads to it over the same wire frames.\n\n--threat-schedule drives a dynamic threat timeline: epochs separated by\n';', each 'START..END: key=value, ...' with keys compromise=IDS,\nattack=NAME[:P[:P]], partition=IDS, corrupt=RATE (ids '|'-separated).\nExample: '50..80: compromise=1|3, attack=random:-10:10; 60..: partition=5'.\n--estimate-b turns on the online Byzantine-count estimator: the filter\nbecomes an adaptive trimmed mean driven by a per-round B-hat.\n--backend names the compute backend for client training; scalar, the\nbit-exact default, is the only one.\n\n`exp run` executes a declarative sweep spec (see experiments/*.toml) on a\nwork-stealing thread pool; records land in <out-dir>/<run-id>/ and a\nre-run (or --resume <run-id>) skips every already-completed trial. When\nevery trial completed, it writes <name>.json next to <out-dir> (results/\nfor the default results/runs) and prints one table row per grid cell;\n`exp report` prints that table again from a results file."
    );
    ExitCode::FAILURE
}

/// Exit status of a command line that names a flag without a value or with
/// a value that does not parse.
const BAD_FLAG: u8 = 2;

/// Unwraps a `Result`, or prints its error and exits the enclosing command
/// with `$status`.
macro_rules! or_exit {
    ($value:expr, $status:expr) => {
        match $value {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from($status);
            }
        }
    };
}

/// Reports a bad flag value and exits the enclosing command with status 2.
macro_rules! flag {
    ($value:expr) => {
        or_exit!($value, BAD_FLAG)
    };
}

/// Reports an error and exits the enclosing command with status 1.
macro_rules! fail {
    ($value:expr) => {
        or_exit!($value, 1)
    };
}

/// The value following `flag` on the command line.
fn flag_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a `T`.
fn flag_parse<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = flag_value(flag, it)?;
    value.parse().map_err(|e| format!("invalid value {value:?} for {flag}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "init-config" => init_config(&args[1..]),
        "run" => run(&args[1..]),
        "exp" => exp(&args[1..]),
        "compare" => compare(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "attacks" => {
            println!("server attacks (spec key attack):");
            for kind in [
                AttackKind::Benign,
                AttackKind::Noise { std: 1.0 },
                AttackKind::Random { lo: -10.0, hi: 10.0 },
                AttackKind::Safeguard { gamma: 0.6 },
                AttackKind::Backward { delay: 2 },
                AttackKind::SignFlip { scale: 1.0 },
                AttackKind::Zero,
                AttackKind::Alie { z: 1.0 },
                AttackKind::Ipm { epsilon: 0.5 },
            ] {
                println!("  {:<10} {:?}", kind.label(), kind);
            }
            println!("client attacks (spec key client_attack):");
            for kind in [
                ClientAttackKind::SignFlip { scale: 1.0 },
                ClientAttackKind::Noise { std: 1.0 },
                ClientAttackKind::Random { lo: -10.0, hi: 10.0 },
                ClientAttackKind::Amplify { factor: 10.0 },
                ClientAttackKind::LabelFlip { offset: 1 },
            ] {
                println!("  {:<10} {:?}", kind.label(), kind);
            }
            ExitCode::SUCCESS
        }
        "filters" => {
            println!("client-side filters (spec keys filter / server_filter):");
            let mut cfg = FedMsConfig::tiny(0);
            for token in [
                "mean",
                "trimmed:0.2",
                "adaptive:2",
                "median",
                "krum:2",
                "multikrum:2:4",
                "geomedian",
                "bulyan:1",
                "centeredclip:1",
                "normbound:3",
            ] {
                fail!(cfg.apply(&[("filter", token)]));
                println!("  {:<15} {:<16} {:?}", token, cfg.filter.label(), cfg.filter);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn exp(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("run") => exp_run(&args[1..]),
        Some("list") => exp_list(&args[1..]),
        Some("check") => exp_check(&args[1..]),
        Some("report") => exp_report(&args[1..]),
        _ => usage(),
    }
}

/// Parses a spec file, applies the harness env overrides, and expands it.
fn load_spec(path: &str) -> Result<(SweepSpec, Vec<Trial>), String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let mut spec = SweepSpec::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    spec.apply_env(&fedms::exp::HarnessEnv::from_env().map_err(|e| e.to_string())?);
    let trials = spec.expand().map_err(|e| format!("{path}: {e}"))?;
    Ok((spec, trials))
}

fn print_trials(spec: &SweepSpec, trials: &[Trial]) {
    println!(
        "sweep `{}`: {} trials, {} rounds, seeds {:?} -> run id {}",
        spec.name,
        trials.len(),
        spec.rounds,
        spec.seeds,
        spec.default_run_id()
    );
    for t in trials {
        println!("  {:<48} [{}]", t.id, t.label);
    }
}

fn exp_run(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut threads: Option<usize> = None;
    let mut resume: Option<&str> = None;
    let mut out_dir = "results/runs".to_string();
    let mut dry_run = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => threads = Some(flag!(flag_parse(arg, &mut it))),
            "--resume" => resume = Some(flag!(flag_value(arg, &mut it))),
            "--out-dir" => out_dir = flag!(flag_value(arg, &mut it)).to_string(),
            "--dry-run" | "--list" => dry_run = true,
            other if !other.starts_with("--") && spec_path.is_none() => spec_path = Some(other),
            other => {
                eprintln!("error: unrecognised argument {other}");
                return usage();
            }
        }
    }
    let Some(spec_path) = spec_path else {
        return usage();
    };
    if dry_run {
        return exp_list(&[spec_path.to_string()]);
    }
    let source =
        fail!(std::fs::read_to_string(spec_path)
            .map_err(|e| format!("could not read {spec_path}: {e}")));
    let threads = match threads {
        Some(threads) => threads,
        None => fail!(fedms::exp::threads_from_env()),
    };
    let (spec, store, report) = fail!(fedms::exp::run_spec_in(
        &source,
        std::path::Path::new(&out_dir),
        resume,
        threads,
        fedms::exp::print_progress,
    ));
    println!(
        "sweep `{}`: {} executed, {} skipped, {} failed -> {}",
        spec.name,
        report.executed,
        report.skipped,
        report.failed,
        store.root().display()
    );
    if report.failed > 0 {
        eprintln!(
            "error: {} trial(s) failed; re-run to retry them (completed trials are skipped)",
            report.failed
        );
        return ExitCode::FAILURE;
    }
    let results = SweepResults {
        name: spec.name.clone(),
        spec_hash: spec.spec_hash(),
        records: report.records,
    };
    print!("{}", fedms::exp::render_table(&results.records));
    // The default `results/runs` puts the results file in `results/`.
    let results_dir = match std::path::Path::new(&out_dir).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    let artifact = fail!(results
        .save_in(results_dir)
        .map_err(|e| format!("could not write the results of `{}`: {e}", spec.name)));
    println!("results saved to {}", artifact.display());
    ExitCode::SUCCESS
}

/// Prints the table of a results file written by `exp run`.
fn exp_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let (provenance, results) = fail!(SweepResults::load(std::path::Path::new(path)));
    println!(
        "sweep `{}` (spec hash {}, git {}): {} trials",
        results.name,
        results.spec_hash,
        provenance.git_rev,
        results.records.len()
    );
    print!("{}", fedms::exp::render_table(&results.records));
    ExitCode::SUCCESS
}

fn exp_list(args: &[String]) -> ExitCode {
    let Some(spec_path) = args.first() else {
        return usage();
    };
    let (spec, trials) = fail!(load_spec(spec_path));
    print_trials(&spec, &trials);
    ExitCode::SUCCESS
}

/// Verifies a run directory: the manifest must load and every trial it
/// lists must have a parseable, completed record.
fn exp_check(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        return usage();
    };
    let store = fail!(fedms::exp::RunStore::open_existing(std::path::Path::new(dir)));
    let manifest = fail!(store.load_manifest());
    let records = fail!(store.all_records().map_err(|e| format!("could not list records: {e}")));
    let mut problems = 0usize;
    let mut completed = 0usize;
    for trial in &manifest.trials {
        match records.iter().find(|(id, _)| id == &trial.id) {
            None => {
                println!("  [missing] {}", trial.id);
                problems += 1;
            }
            Some((_, Err(e))) => {
                println!("  [corrupt] {}: {e}", trial.id);
                problems += 1;
            }
            Some((_, Ok(record))) => match &record.status {
                TrialStatus::Completed => completed += 1,
                TrialStatus::Failed { error } => {
                    println!("  [failed]  {}: {error}", trial.id);
                    problems += 1;
                }
            },
        }
    }
    for (id, _) in &records {
        if !manifest.trials.iter().any(|t| &t.id == id) {
            println!("  [orphan]  {id} (not in manifest)");
            problems += 1;
        }
    }
    println!(
        "run `{}` (spec hash {}, git {}): {}/{} trials completed, {} problem(s)",
        manifest.run_id,
        manifest.spec_hash,
        manifest.git_rev,
        completed,
        manifest.trials.len(),
        problems
    );
    if problems > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn init_config(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut cfg = fail!(FedMsConfig::paper_defaults(42));
    cfg.byzantine_count = 2;
    cfg.attack = AttackKind::Random { lo: -10.0, hi: 10.0 };
    let body =
        fail!(serde_json::to_string_pretty(&cfg)
            .map_err(|e| format!("could not serialise config: {e}")));
    fail!(std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}")));
    println!("wrote template config to {path}; edit and `fedms run {path}`");
    ExitCode::SUCCESS
}

fn compare(args: &[String]) -> ExitCode {
    if args.is_empty() {
        return usage();
    }
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>12}",
        "config", "final acc", "best acc", "rnds to 90%", "upload MiB"
    );
    for path in args {
        let cfg = fail!(load_config(path));
        let result = fail!(cfg.run().map_err(|e| format!("{path}: {e}")));
        let Some(summary) = result.summary() else {
            eprintln!("error: {path}: run produced no evaluated rounds");
            return ExitCode::FAILURE;
        };
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        println!(
            "{:<24} {:>9.1}% {:>9.1}% {:>12} {:>12.1}",
            name,
            summary.final_accuracy * 100.0,
            summary.best_accuracy * 100.0,
            summary.rounds_to_90pct_of_final.map_or("-".to_string(), |r| r.to_string()),
            summary.upload_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    ExitCode::SUCCESS
}

/// Reads a JSON experiment config.
fn load_config(path: &str) -> Result<FedMsConfig, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|body| serde_json::from_str(&body).map_err(|e| e.to_string()))
        .map_err(|e| format!("could not load {path}: {e}"))
}

/// `fedms run` flags that alias a [`FedMsConfig::apply`] key:
/// `(flag, key, value)`, where a switch carries its fixed value and every
/// other flag takes the next argument.
const RUN_FLAGS: &[(&str, &str, Option<&str>)] = &[
    ("--rounds", "rounds", None),
    ("--crash", "crashed_servers", None),
    ("--crash-round", "crash_round", None),
    ("--stragglers", "straggler_servers", None),
    ("--straggler-delay", "straggler_delay", None),
    ("--downlink-omission", "downlink_omission", None),
    ("--duplicate-rate", "duplicate_rate", None),
    ("--retry-budget", "retry_budget", None),
    ("--attempt-timeout", "attempt_timeout_ms", None),
    ("--backoff-base", "backoff_base_ms", None),
    ("--failover", "failover", Some("true")),
    ("--proceed-degraded", "proceed_degraded", Some("true")),
    ("--transport", "transport", None),
    ("--net-profile", "net_profile", None),
    ("--threat-schedule", "threat_schedule", None),
    ("--estimate-b", "estimate_b", Some("true")),
    ("--backend", "backend", None),
];

fn run(args: &[String]) -> ExitCode {
    let mut config_path: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut seed: Option<u64> = None;
    let mut save_checkpoint: Option<&str> = None;
    let mut resume: Option<&str> = None;
    // (flag, key, value) in command-line order.
    let mut overrides: Vec<(&str, &str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = Some(flag!(flag_value(arg, &mut it))),
            "--seed" => seed = Some(flag!(flag_parse(arg, &mut it))),
            "--save-checkpoint" => save_checkpoint = Some(flag!(flag_value(arg, &mut it))),
            "--resume" => resume = Some(flag!(flag_value(arg, &mut it))),
            other => match RUN_FLAGS.iter().find(|(flag, ..)| *flag == other) {
                Some(&(flag, key, switch)) => {
                    let value = match switch {
                        Some(value) => value,
                        None => flag!(flag_value(flag, &mut it)),
                    };
                    overrides.push((flag, key, value));
                }
                None if !other.starts_with("--") && config_path.is_none() => {
                    config_path = Some(other)
                }
                None => {
                    eprintln!("error: unrecognised argument {other}");
                    return usage();
                }
            },
        }
    }

    let mut cfg = match config_path {
        Some(path) => fail!(load_config(path)),
        None => fail!(FedMsConfig::paper_defaults(42)),
    };
    for (flag, key, value) in overrides {
        flag!(cfg.apply(&[(key, value)]).map_err(|e| format!("{flag}: {e}")));
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }

    println!(
        "fed-ms run: K={} P={} B={} attack={} filter={} rounds={} seed={} config={}",
        cfg.clients,
        cfg.servers,
        cfg.byzantine_count,
        cfg.attack.label(),
        cfg.filter.label(),
        cfg.rounds,
        cfg.seed,
        cfg.stable_hash_hex()
    );
    if !cfg.fault.is_trivial() {
        println!(
            "faults: crash={}@round {} stragglers={}(+{} rounds) omission={} duplicates={}",
            cfg.fault.crashed_servers,
            cfg.fault.crash_round,
            cfg.fault.straggler_servers,
            cfg.fault.straggler_delay,
            cfg.fault.downlink_omission,
            cfg.fault.duplicate_rate
        );
    }
    if !cfg.threat.is_trivial() {
        println!(
            "threat schedule: {} epoch(s) — mid-run compromise/partition/corruption driven \
             from the run seed",
            cfg.threat.epochs.len()
        );
    }
    if cfg.estimator.enabled {
        println!(
            "estimator: online B-hat (decay={} scale={} threshold={} floor={} ceiling={})",
            cfg.estimator.decay(),
            cfg.estimator.scale(),
            cfg.estimator.threshold(),
            cfg.estimator.floor,
            cfg.estimator.effective_ceiling(cfg.servers),
        );
    }
    if !cfg.recovery.is_disabled() {
        println!(
            "recovery: retries={} timeout={}ms backoff={}ms(cap {}ms) failover={} degraded={}",
            cfg.recovery.retry_budget,
            cfg.recovery.attempt_timeout_ms,
            cfg.recovery.backoff_base_ms,
            cfg.recovery.backoff_cap_ms,
            cfg.recovery.failover,
            match cfg.recovery.on_degraded {
                fedms::DegradedMode::Abort => "abort",
                fedms::DegradedMode::Proceed => "proceed",
            }
        );
    }
    let mut engine = fail!(cfg.build_engine());
    println!("transport: {}", engine.transport().name());
    if let Some(path) = resume {
        let snapshot: Snapshot = fail!(std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|body| serde_json::from_str(&body).map_err(|e| e.to_string()))
            .map_err(|e| format!("could not load checkpoint {path}: {e}")));
        fail!(engine
            .restore(&snapshot)
            .map_err(|e| format!("checkpoint does not fit this config: {e}")));
        println!("resumed from {path} at round {}", snapshot.round);
    }
    let result = match engine.run(cfg.rounds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            if let fedms::SimError::DegradedQuorum { received, beta_hat, threat_epoch, .. } = e {
                match beta_hat {
                    // The estimator set the quorum bar: distinguish "B̂ is
                    // too aggressive for the surviving view" from "the
                    // servers actually died".
                    Some(trim) if received > 0 && 2 * trim >= received => eprintln!(
                        "hint: the online estimator is trimming {trim} per side, which the \
                         {received} surviving server model(s) cannot satisfy — the estimator \
                         over-trimmed (lower the estimator ceiling or raise its threshold), \
                         or ride it out with --proceed-degraded"
                    ),
                    _ => eprintln!(
                        "hint: servers went silent{}; enable the recovery layer \
                         (--retry-budget <n> and/or --failover) to repair transient losses, \
                         or --proceed-degraded to ride out the round on local models",
                        match threat_epoch {
                            Some(epoch) => format!(" (threat epoch {epoch} is active)"),
                            None => String::new(),
                        }
                    ),
                }
            }
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = save_checkpoint {
        let body = fail!(serde_json::to_string(&engine.snapshot())
            .map_err(|e| format!("could not serialise checkpoint: {e}")));
        fail!(std::fs::write(path, body)
            .map_err(|e| format!("could not write checkpoint {path}: {e}")));
        println!("checkpoint saved to {path} (round {})", engine.round());
    }
    println!("{:>6} {:>10} {:>12}", "round", "accuracy", "train loss");
    for m in &result.rounds {
        println!("{:>6} {:>9.1}% {:>12.4}", m.round, m.mean_accuracy * 100.0, m.mean_train_loss);
    }
    println!(
        "final accuracy {:.1}%  uploads {}  upload bytes {}",
        result.final_accuracy().unwrap_or(0.0) * 100.0,
        result.total_comm.upload_messages,
        result.total_comm.upload_bytes
    );
    let comm = result.total_comm;
    if comm.dropped_uploads + comm.dropped_downloads + comm.duplicated_downloads > 0 {
        println!(
            "fault losses: {} uploads dropped, {} downloads dropped, {} duplicated",
            comm.dropped_uploads, comm.dropped_downloads, comm.duplicated_downloads
        );
    }
    if comm.retried_uploads + comm.failover_uploads + comm.retried_downloads + comm.deadline_misses
        > 0
    {
        println!(
            "recovery: {} upload retries, {} failovers, {} download retransmissions, {} deadline misses",
            comm.retried_uploads, comm.failover_uploads, comm.retried_downloads, comm.deadline_misses
        );
    }
    if let Some(path) = out_path {
        let body = fail!(serde_json::to_string_pretty(&result)
            .map_err(|e| format!("could not serialise metrics: {e}")));
        fail!(std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}")));
        println!("wrote metrics to {path}");
    }
    ExitCode::SUCCESS
}

/// `fedms serve <addr> [--expect <n>]` — bind one TCP parameter server
/// and play a single aggregation round: accept connections until
/// `--expect` uploads arrive (default 1), folding each into the running
/// mean and replying with the aggregate-so-far.
fn serve(args: &[String]) -> ExitCode {
    let mut addr: Option<&str> = None;
    let mut expect: usize = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--expect" => expect = flag!(flag_parse(arg, &mut it)),
            other if !other.starts_with("--") && addr.is_none() => addr = Some(other),
            other => {
                eprintln!("error: unrecognised argument {other}");
                return usage();
            }
        }
    }
    let Some(addr) = addr else {
        return usage();
    };
    let round = fail!(TcpRound::bind(addr).map_err(|e| format!("could not bind {addr}: {e}")));
    let bound = fail!(round.local_addr());
    println!(
        "serving one round on {bound} (waiting for {expect} upload{})",
        if expect == 1 { "" } else { "s" }
    );
    let report = fail!(round.serve(expect));
    println!(
        "round complete: {} uploads, {} frames read, {} frames written",
        report.uploads, report.frames_read, report.frames_written
    );
    if let Some(agg) = report.aggregate {
        println!("aggregate: {}", preview_tensor(&agg));
    }
    ExitCode::SUCCESS
}

/// `fedms client <addr> [--client <id>] [--dim <n>] [--value <x>]` —
/// connect to a `fedms serve` round, upload a constant model of `--dim`
/// coordinates (filled with `--value`, defaulting to the client id) and
/// print the server's aggregate reply.
fn client(args: &[String]) -> ExitCode {
    let mut addr: Option<&str> = None;
    let mut client_id: usize = 0;
    let mut dim: usize = 8;
    let mut value: Option<f32> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--client" => client_id = flag!(flag_parse(arg, &mut it)),
            "--dim" => dim = flag!(flag_parse(arg, &mut it)),
            "--value" => value = Some(flag!(flag_parse(arg, &mut it))),
            other if !other.starts_with("--") && addr.is_none() => addr = Some(other),
            other => {
                eprintln!("error: unrecognised argument {other}");
                return usage();
            }
        }
    }
    let Some(addr) = addr else {
        return usage();
    };
    if dim == 0 {
        eprintln!("error: --dim must be positive");
        return ExitCode::FAILURE;
    }
    let fill = value.unwrap_or(client_id as f32);
    let model = Tensor::from_slice(&vec![fill; dim]);
    let (contributors, aggregate) = fail!(run_client(addr, client_id, &model));
    println!(
        "uploaded {dim} coordinates as client {client_id}; \
         aggregate over {contributors} contributor{}: {}",
        if contributors == 1 { "" } else { "s" },
        preview_tensor(&aggregate)
    );
    ExitCode::SUCCESS
}

/// Formats the first few coordinates of a tensor for terminal output.
fn preview_tensor(t: &Tensor) -> String {
    let data = t.as_slice();
    let head: Vec<String> = data.iter().take(8).map(|v| format!("{v:.4}")).collect();
    let tail = if data.len() > 8 { ", ..." } else { "" };
    format!("[{}{}] ({} coordinates)", head.join(", "), tail, data.len())
}
