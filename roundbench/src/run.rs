//! One benchmark run: drive a workload for its time, check its outputs
//! and reduce the samples to the metrics of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedms_bench::perf::peak_rss_bytes;
use fedms_core::fnv1a64;
use fedms_sim::CommStats;
use serde_json::Value;

use crate::profile::microprofile;
use crate::stats::{median, tail, Tail};
use crate::trace::{self_times_ms, SpanSink};
use crate::workloads::{run_engine, run_sweep_pass, store_dir, Mode, Outcome, Samples, Workload};

/// The seed whose outputs `pins.json` records.
pub const DEFAULT_SEED: u64 = 1;

/// Extra engine builds before the loop, so `setup_s` is always a median
/// of several builds.
const SETUP_SAMPLES: usize = 9;

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Rounds attempted, summed over passes and trials.
    pub attempted: usize,
    /// Rounds that returned `Err`.
    pub failed: usize,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Check failures.
    pub problems: Vec<String>,
    /// The default-seed values `pins.json` records, from the first pass.
    pub pins: Option<Value>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() { format!("{v}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the output checks compare: one pass, reduced over its trials.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    digest: u64,
    final_accuracy: f64,
    comm: CommStats,
}

fn summarize(outcomes: &BTreeMap<String, Outcome>, order: &[String]) -> Summary {
    let mut digests = Vec::new();
    let mut comm = CommStats::default();
    let mut acc = Vec::new();
    for key in order {
        let o = &outcomes[key];
        digests.extend_from_slice(&o.digest.to_le_bytes());
        comm += o.comm;
        if let Some(&(_, a)) = o.points.last() {
            acc.push(f64::from(a));
        }
    }
    Summary {
        digest: fnv1a64(&digests),
        final_accuracy: acc.iter().sum::<f64>() / acc.len().max(1) as f64,
        comm,
    }
}

fn pins_for(workload: Workload) -> Option<Value> {
    let all: Value = serde_json::from_str(include_str!("../pins.json")).ok()?;
    all.as_object()?.get(workload.name()).cloned()
}

fn summary_json(s: &Summary) -> Value {
    let mut m = BTreeMap::new();
    m.insert("digest".to_string(), Value::String(format!("{:016x}", s.digest)));
    m.insert("final_accuracy".to_string(), Value::String(format!("{}", s.final_accuracy)));
    for (k, v) in [
        ("upload_messages", s.comm.upload_messages),
        ("download_messages", s.comm.download_messages),
        ("upload_bytes", s.comm.upload_bytes),
        ("download_bytes", s.comm.download_bytes),
    ] {
        m.insert(k.to_string(), Value::String(v.to_string()));
    }
    Value::Object(m)
}

/// Checks a pass summary: against `pins.json` on the default seed,
/// against the accounting invariants otherwise.
fn check_summary(
    workload: Workload,
    seed: u64,
    s: &Summary,
    params: usize,
    clients_rounds: u64,
    problems: &mut Vec<String>,
) {
    if seed == DEFAULT_SEED {
        match pins_for(workload) {
            Some(pinned) if pinned == summary_json(s) => {}
            Some(pinned) => problems.push(format!(
                "outputs differ from pins.json: pinned {}, got {}",
                serde_json::to_string(&pinned).unwrap_or_default(),
                serde_json::to_string(&summary_json(s)).unwrap_or_default()
            )),
            None => problems.push(format!("pins.json has no entry for {}", workload.name())),
        }
        return;
    }
    if !(s.final_accuracy.is_finite() && (0.0..=1.0).contains(&s.final_accuracy)) {
        problems.push(format!("final accuracy {} is not in [0, 1]", s.final_accuracy));
    }
    let c = &s.comm;
    let bytes = 4 * params as u64;
    if c.upload_bytes != c.upload_messages * bytes
        || c.download_bytes != c.download_messages * bytes
    {
        problems.push(format!("comm bytes disagree with messages × {bytes} B: {c:?}"));
    }
    // Sparse upload: every client uploads once per round; the recovery
    // layer's retries and failovers come on top.
    if c.upload_messages.saturating_sub(c.retried_uploads + c.failover_uploads) != clients_rounds {
        problems.push(format!(
            "{} uploads ({} retried, {} failed over) for {clients_rounds} client-rounds",
            c.upload_messages, c.retried_uploads, c.failover_uploads
        ));
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Where spans, sweep stores and reports go.
    pub out_dir: std::path::PathBuf,
}

/// Runs passes of `workload` until `deadline` (at least one), appending to
/// `s`. Returns the sweep wall time of each pass (pass wall for engines).
fn drive(
    o: &Options,
    mode: &Mode,
    deadline: Instant,
    s: &mut Samples,
    errors: &mut Vec<String>,
) -> Vec<f64> {
    let mut walls = Vec::new();
    let mut pass = 0usize;
    // Traced passes keep to `--seed`: their digests are checked against
    // the untraced reference pass, which runs it.
    let seeds = match mode {
        Mode::Plain => o.workload.pass_seeds(o.seed),
        Mode::Traced(_) => vec![o.seed],
    };
    loop {
        let t = Instant::now();
        let seed = seeds[pass % seeds.len()];
        match o.workload {
            Workload::SweepFig3 => {
                let trials = match o.workload.trials(o.seed) {
                    Ok(t) => t,
                    Err(e) => {
                        errors.push(e);
                        return walls;
                    }
                };
                let first_run = (pass * trials.len()) as u32;
                match run_sweep_pass(&trials, mode, &store_dir(&o.out_dir, pass), first_run, s) {
                    Ok(wall) => {
                        walls.push(wall);
                        s.pass_seeds.push(seed);
                    }
                    Err(e) => errors.push(e),
                }
            }
            _ => {
                let cfg = o.workload.config(seed);
                match run_engine(&cfg, mode, pass as u32, s) {
                    Ok(out) => {
                        s.outcomes.push(BTreeMap::from([(String::new(), out)]));
                        s.pass_seeds.push(seed);
                    }
                    Err(e) => errors.push(e),
                }
                walls.push(t.elapsed().as_secs_f64());
            }
        }
        pass += 1;
        if pass == 1 {
            s.first_pass_rss = peak_rss_bytes().unwrap_or(0);
        }
        if !errors.is_empty() || Instant::now() >= deadline {
            return walls;
        }
    }
}

/// Trial ids in trial order (the single "" key for engine workloads).
fn order(o: &Options) -> Vec<String> {
    match o.workload {
        Workload::SweepFig3 => o
            .workload
            .trials(o.seed)
            .map(|t| t.into_iter().map(|t| t.id).collect())
            .unwrap_or_default(),
        _ => vec![String::new()],
    }
}

/// Rounds per pass, summed over its trials.
fn pass_rounds(o: &Options) -> u64 {
    (o.workload.rounds() * order(o).len()) as u64
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Fails only when the workload cannot be set up at all; failed rounds
/// and checks are reported in the [`Report`].
pub fn run(o: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| e.to_string())?;
    if o.trace {
        traced(o)
    } else {
        untraced(o)
    }
}

fn common_checks(o: &Options, s: &Samples, r: &mut Report, errors: Vec<String>) -> Option<Summary> {
    r.problems.extend(errors);
    let order = order(o);
    // The first pass of each input seed, in pass order; every later pass
    // of that seed must end the same way.
    let mut by_seed: Vec<(u64, Summary)> = Vec::new();
    for (m, &seed) in s.outcomes.iter().zip(&s.pass_seeds) {
        let summary = summarize(m, &order);
        match by_seed.iter().find(|(x, _)| *x == seed) {
            Some((_, first)) if *first != summary => {
                r.problems.push(format!("passes of seed {seed} disagree"));
            }
            Some(_) => {}
            None => by_seed.push((seed, summary)),
        }
    }
    let Some(first) = by_seed.first().map(|(_, x)| x.clone()) else {
        r.problems.push("no pass completed".into());
        return None;
    };
    for records in &s.records {
        if records.len() != order.len() || records.iter().any(|x| !x.is_completed()) {
            r.problems.push("a sweep trial did not complete".into());
        }
    }
    if s.records.windows(2).any(|w| w[0] != w[1]) {
        r.problems.push("sweep records of the same seed disagree".into());
    }
    let params = s.outcomes[0].values().next().map_or(0, |x| x.params);
    let client_rounds = o.workload.config(o.seed).clients as u64 * pass_rounds(o);
    for (seed, summary) in &by_seed {
        check_summary(o.workload, *seed, summary, params, client_rounds, &mut r.problems);
    }
    r.pins = Some(summary_json(&first));
    for (key, out) in &s.outcomes[0] {
        let pts: Vec<String> = out.points.iter().map(|(r, a)| format!("{r}:{a:.3}")).collect();
        r.notes.push(format!("accuracy {key} {}", pts.join(" ")));
    }
    Some(first)
}

fn untraced(o: &Options) -> Result<Report, String> {
    let mut r = Report::default();
    let mut s = Samples::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);
    if o.workload != Workload::SweepFig3 {
        let cfg = o.workload.config(o.seed);
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            drop(cfg.build_engine().map_err(|e| e.to_string())?);
            s.setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    let mut errors = Vec::new();
    let walls = drive(o, &Mode::Plain, deadline, &mut s, &mut errors);
    let summary = common_checks(o, &s, &mut r, errors);

    let ok_rounds = (s.attempted - s.failed) as f64;
    // The median over passes of each pass's throughput, so a slow stretch
    // of the host moves one pass, not the metric.
    let per_pass: Vec<f64> = match o.workload {
        // Rounds summed over trials per sweep wall second.
        Workload::SweepFig3 => walls.iter().map(|w| pass_rounds(o) as f64 / w).collect(),
        _ => s
            .round_ms
            .chunks_exact(o.workload.rounds())
            .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e3))
            .collect(),
    };
    r.metric("rounds_per_s", median(&per_pass), "1/s");
    r.metric("round_ms_p50", median(&s.round_ms), "ms");
    let t = tail(&s.round_ms).unwrap_or(Tail { percentile: 0, value: f64::NAN, beyond: 0 });
    r.metric("round_ms_tail", t.value, "ms");
    r.notes.push(format!(
        "round_ms_tail is p{} with {} of {} rounds beyond it; {} passes, {} setups",
        t.percentile,
        t.beyond,
        s.round_ms.len(),
        walls.len(),
        s.setup_s.len()
    ));
    r.metric("setup_s", median(&s.setup_s), "s");
    // The high-water mark after the first pass: later passes only add
    // allocator growth that depends on how many passes fit in the run.
    r.metric("peak_rss_mib", s.first_pass_rss as f64 / (1u64 << 20) as f64, "MiB");
    if let Some(first) = &summary {
        let bytes = first.comm.upload_bytes + first.comm.download_bytes;
        let per_round = bytes as f64 / pass_rounds(o) as f64;
        r.metric("comm_mib_per_round", per_round / (1u64 << 20) as f64, "MiB");
    }
    r.metric("round_success_share", ok_rounds / s.attempted.max(1) as f64, "share");
    r.attempted = s.attempted;
    r.failed = s.failed;
    r.correct = r.problems.is_empty() && s.failed == 0;
    r.notes.push(format!("ran {:.1} s", start.elapsed().as_secs_f64()));
    Ok(r)
}

/// Per-round reductions of the traced spans.
#[derive(Debug, Default)]
struct RoundRow {
    wall: f64,
    phases: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, (f64, usize)>,
    eval: Option<f64>,
}

fn traced(o: &Options) -> Result<Report, String> {
    let mut r = Report::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);

    // An untraced reference pass: its digest must equal the traced one,
    // and its round times give the tracing overhead.
    let mut plain = Samples::default();
    let mut errors = Vec::new();
    drive(o, &Mode::Plain, start, &mut plain, &mut errors);
    let reference = common_checks(o, &plain, &mut r, errors);

    let profile = microprofile(&o.workload.config(o.seed))?;

    let sink = Arc::new(SpanSink::default());
    let mut s = Samples::default();
    let mut errors = Vec::new();
    let loop_start = Instant::now();
    let walls = drive(o, &Mode::Traced(sink.clone()), deadline, &mut s, &mut errors);
    let loop_wall = loop_start.elapsed().as_secs_f64();
    r.problems.extend(errors);
    let order = order(o);
    for outcomes in &s.outcomes {
        let traced = summarize(outcomes, &order);
        if reference.as_ref().map(|x| (x.digest, x.comm)) != Some((traced.digest, traced.comm)) {
            r.problems.push(format!(
                "traced digest {:016x} differs from the untraced {:016x}",
                traced.digest,
                reference.as_ref().map_or(0, |x| x.digest)
            ));
        }
    }

    let spans = sink.spans();
    let path = o.out_dir.join(format!("spans-{}-s{}.jsonl", o.workload.name(), o.seed));
    sink.write_jsonl(&path).map_err(|e| e.to_string())?;
    r.notes.push(format!("{} spans written to {}", spans.len(), path.display()));

    // Reduce spans to per-round rows.
    let mut rows: BTreeMap<(u32, u32), RoundRow> = BTreeMap::new();
    let round_ids: std::collections::BTreeSet<u64> =
        spans.iter().filter(|x| x.name == "round").map(|x| x.id).collect();
    for x in &spans {
        let row = rows.entry((x.run, x.round)).or_default();
        match x.name {
            "round" => row.wall = x.ms(),
            "phase.eval" => row.eval = Some(x.ms()),
            n if n.starts_with("phase.") && x.parent.is_some_and(|p| round_ids.contains(&p)) => {
                *row.phases.entry(n).or_default() += x.ms();
            }
            n => {
                let c = row.calls.entry(n).or_default();
                c.0 += x.ms();
                c.1 += 1;
            }
        }
    }
    let rows: Vec<&RoundRow> = rows.values().filter(|x| x.wall > 0.0).collect();
    let per_round =
        |f: &dyn Fn(&RoundRow) -> f64| median(&rows.iter().map(|x| f(x)).collect::<Vec<_>>());
    let phase = |n: &'static str| move |x: &RoundRow| x.phases.get(n).copied().unwrap_or(0.0);
    let calls = |n: &'static str| move |x: &RoundRow| x.calls.get(n).map_or(0.0, |c| c.0);
    for (metric, span) in [
        ("phase.train_ms", "phase.train"),
        ("phase.upload_ms", "phase.upload"),
        ("phase.aggregate_ms", "phase.aggregate"),
        ("phase.disseminate_ms", "phase.disseminate"),
        ("phase.filter_ms", "phase.filter"),
    ] {
        r.metric(metric, per_round(&phase(span)), "ms");
    }
    let evals: Vec<f64> = rows.iter().filter_map(|x| x.eval).collect();
    r.metric("phase.eval_ms", median(&evals), "ms");
    let coverage = |x: &RoundRow| x.phases.values().sum::<f64>() / x.wall;
    r.metric("phase.coverage", per_round(&coverage), "share");
    let min_coverage = rows.iter().map(|x| coverage(x)).fold(f64::INFINITY, f64::min);
    if per_round(&coverage) < 0.95 {
        r.problems
            .push(format!("phase spans cover only {:.3} of step_round", per_round(&coverage)));
    }
    for (metric, span) in [
        ("transport.upload_ms", "transport.upload"),
        ("transport.server_wait_ms", "transport.server_wait"),
        ("transport.broadcast_ms", "transport.broadcast"),
        ("transport.drain_ms", "transport.drain"),
        ("agg.server_ms", "agg.server"),
        ("agg.filter_busy_ms", "agg.filter"),
        ("attack.server_ms", "attack.server"),
    ] {
        r.metric(metric, per_round(&calls(span)), "ms");
    }
    let n_rounds = rows.len().max(1) as f64;
    let filter_calls: usize =
        rows.iter().map(|x| x.calls.get("agg.filter").map_or(0, |c| c.1)).sum();
    r.metric("agg.filter_calls", filter_calls as f64 / n_rounds, "count/round");

    let counters = sink.rounds();
    let total =
        |f: &dyn Fn(&CommStats) -> u64| counters.iter().map(|c| f(&c.comm)).sum::<u64>() as f64;
    let messages = total(&|c| c.upload_messages + c.download_messages);
    let first_copies: u64 = counters.iter().map(|c| c.first_copies).sum();
    let per = |v: f64| v / counters.len().max(1) as f64;
    r.metric("transport.messages", per(messages), "count/round");
    r.metric("transport.delivered_ratio", first_copies as f64 / messages.max(1.0), "share");
    r.metric("recovery.retries", per(total(&|c| c.retried_uploads)), "count/round");
    r.metric("recovery.failovers", per(total(&|c| c.failover_uploads)), "count/round");
    r.metric("recovery.retransmissions", per(total(&|c| c.retried_downloads)), "count/round");

    for (name, v) in profile {
        r.metric(name, v, "us");
    }

    let stage = |f: &dyn Fn(&crate::timed::SetupTimes) -> f64| {
        median(&s.setup_stages.iter().map(f).collect::<Vec<_>>())
    };
    r.metric("setup.data_ms", stage(&|x| x.data_ms), "ms");
    r.metric("setup.partition_ms", stage(&|x| x.partition_ms), "ms");
    r.metric("setup.engine_ms", stage(&|x| x.engine_ms), "ms");

    // A pass is the benchmark's own "trial" on the engine workloads.
    let workers =
        if o.workload == Workload::SweepFig3 { crate::workloads::SWEEP_WORKERS } else { 1 };
    let wall =
        if o.workload == Workload::SweepFig3 { walls.iter().sum::<f64>() } else { loop_wall };
    r.metric("exp.trial_s_p50", median(&s.busy_s), "s");
    r.metric(
        "exp.worker_busy_share",
        s.busy_s.iter().sum::<f64>() / (workers as f64 * wall),
        "share",
    );
    r.metric("pool.high_water_mib", s.pool_high_water as f64 / (1u64 << 20) as f64, "MiB");
    let overhead = median(&s.round_ms) / median(&plain.round_ms) - 1.0;
    r.metric("trace.overhead_share", overhead, "share");

    r.notes.push(format!(
        "phase coverage: median {:.4}, min {:.4} over {} rounds",
        per_round(&coverage),
        min_coverage,
        rows.len()
    ));
    r.notes.push(format!(
        "round_ms_p50 traced {:.3} ms (step_round(false) + evaluation), untraced {:.3} ms",
        median(&s.round_ms),
        median(&plain.round_ms)
    ));
    // Self time per layer, as a share of the traced rounds' wall time
    // (step_round plus the evaluation that follows it).
    let traced_wall: f64 = rows.iter().map(|x| x.wall + x.eval.unwrap_or(0.0)).sum();
    for (name, ms, n) in self_times_ms(&spans) {
        r.notes.push(format!(
            "self {name:<22} {ms:>11.2} ms {:>7.2}% of traced round wall  ({n} spans)",
            100.0 * ms / traced_wall
        ));
    }
    r.attempted = s.attempted + plain.attempted;
    r.failed = s.failed + plain.failed;
    r.correct = r.problems.is_empty() && r.failed == 0;
    r.notes.push(format!("ran {:.1} s", start.elapsed().as_secs_f64()));
    Ok(r)
}

/// Writes the run's report (provenance, notes, metrics) as JSON.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_report(path: &Path, provenance: &Value, r: &Report) -> std::io::Result<()> {
    let body = format!(
        "{{\"provenance\": {}, \"notes\": {}, \"problems\": {}, \"result\": {}}}\n",
        serde_json::to_string(provenance).unwrap_or_default(),
        serde_json::to_string(&r.notes).unwrap_or_default(),
        serde_json::to_string(&r.problems).unwrap_or_default(),
        r.result_json()
    );
    std::fs::write(path, body)
}
