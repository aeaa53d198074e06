//! The microbench harness behind `filterbench` and `nnbench`.
//!
//! A [`Workload`] is measured through explicit warmup and sampling phases
//! into a serializable [`Measurement`] (median/min seconds per iteration,
//! coordinates/s, GB/s). A bench measures each fast implementation against
//! the reference it must agree with, as a [`Pair`], and [`run`] writes the
//! pairs as one report (`BENCH_*.json`, schema 2) stamped with git rev and
//! [`MachineInfo`]. Under `--check` it gates the report against a committed
//! baseline.
//!
//! The gate checks one named pair of each [`Bench`] on two counts: the fast
//! side's absolute throughput (valid only on comparable machines, so it
//! needs only half the baseline's) and the fast-vs-reference *speedup*,
//! which is machine-portable and carries the regression signal.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The report layout this build writes and reads.
const SCHEMA: u32 = 2;

/// The share of the baseline's fast-side throughput a gated run must reach.
const MIN_THROUGHPUT_RATIO: f64 = 0.5;

/// One benchmarkable unit of work.
///
/// `run` executes a single iteration and returns a checksum derived from
/// the computed output, which the harness folds into the measurement so
/// the optimizer cannot discard the work.
pub trait Workload {
    /// Display name, embedded in the persisted measurement.
    fn name(&self) -> &str;
    /// Coordinates processed by one `run` call (for coords/s reporting).
    fn coords_per_iter(&self) -> u64;
    /// Input bytes read by one `run` call (for GB/s reporting).
    fn bytes_per_iter(&self) -> u64;
    /// Executes one iteration and returns a checksum of the output.
    fn run(&mut self) -> f64;
}

/// Host identity recorded next to every measurement, so a baseline is
/// never silently compared against numbers from different hardware.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineInfo {
    /// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu_model: String,
    /// Logical core count.
    pub logical_cores: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl MachineInfo {
    /// Best-effort detection of the current host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        MachineInfo {
            cpu_model,
            logical_cores: std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// One measured workload, ready to serialize.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// The workload's name.
    pub name: String,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations averaged inside each sample.
    pub iters_per_sample: usize,
    /// Median seconds per iteration across samples — the headline number.
    pub median_secs_per_iter: f64,
    /// Fastest observed seconds per iteration (noise floor).
    pub min_secs_per_iter: f64,
    /// Coordinates per second at the median.
    pub coords_per_sec: f64,
    /// Input gigabytes per second at the median.
    pub gbytes_per_sec: f64,
    /// Checksum of the last iteration's output (anti-DCE, and a cheap
    /// cross-check that two implementations computed the same thing).
    pub checksum: f64,
}

/// Warmup/sample schedule for measuring a [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Untimed iterations before sampling (cache/branch-predictor warmup).
    pub warmup_iters: usize,
    /// Timed samples; the median is the reported figure.
    pub samples: usize,
    /// Iterations averaged within one sample.
    pub iters_per_sample: usize,
}

impl Harness {
    /// The CI schedule: fast enough for a gate, stable enough to compare
    /// medians.
    pub fn quick() -> Self {
        Harness { warmup_iters: 2, samples: 5, iters_per_sample: 2 }
    }

    /// The full schedule used to produce the committed baseline.
    pub fn full() -> Self {
        Harness { warmup_iters: 5, samples: 15, iters_per_sample: 5 }
    }

    /// Runs the warmup and sampling phases and reduces to a
    /// [`Measurement`].
    pub fn measure(&self, workload: &mut dyn Workload) -> Measurement {
        let mut checksum = 0.0f64;
        for _ in 0..self.warmup_iters {
            checksum = workload.run();
        }
        let iters = self.iters_per_sample.max(1);
        let mut secs_per_iter: Vec<f64> = Vec::with_capacity(self.samples.max(1));
        for _ in 0..self.samples.max(1) {
            let start = Instant::now();
            for _ in 0..iters {
                checksum = workload.run();
            }
            secs_per_iter.push(start.elapsed().as_secs_f64() / iters as f64);
        }
        secs_per_iter.sort_by(f64::total_cmp);
        let median = secs_per_iter[secs_per_iter.len() / 2];
        let min = secs_per_iter[0];
        Measurement {
            name: workload.name().to_string(),
            samples: secs_per_iter.len(),
            iters_per_sample: iters,
            median_secs_per_iter: median,
            min_secs_per_iter: min,
            coords_per_sec: workload.coords_per_iter() as f64 / median,
            gbytes_per_sec: workload.bytes_per_iter() as f64 / median / 1e9,
            checksum,
        }
    }
}

/// A fast implementation measured against its reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pair {
    /// The implementation under test.
    fast: Measurement,
    /// The implementation it must agree with.
    reference: Measurement,
    /// `reference.median / fast.median` — the machine-portable signal.
    speedup: f64,
}

impl Pair {
    /// Measures `fast`, then `reference`, and pairs them once their
    /// checksums agree bit for bit: every fast side computes its
    /// reference's exact bits.
    ///
    /// # Errors
    ///
    /// Names both workloads and checksums when they differ.
    pub fn measure(
        harness: &Harness,
        fast: &mut dyn Workload,
        reference: &mut dyn Workload,
    ) -> Result<Self, String> {
        let fast = harness.measure(fast);
        let reference = harness.measure(reference);
        if fast.checksum.to_bits() != reference.checksum.to_bits() {
            return Err(format!(
                "{} checksum {} disagrees with {} checksum {}",
                fast.name, fast.checksum, reference.name, reference.checksum
            ));
        }
        let speedup = reference.median_secs_per_iter / fast.median_secs_per_iter;
        Ok(Pair { fast, reference, speedup })
    }
}

/// A microbench report (`BENCH_*.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    /// Report layout version ([`SCHEMA`]).
    schema: u32,
    /// `git rev-parse --short HEAD` at measurement time.
    git_rev: String,
    /// Host the numbers were taken on.
    machine: MachineInfo,
    /// Whether the quick schedule produced these numbers.
    quick: bool,
    /// One line describing the measured shapes.
    workload: String,
    /// The measured pairs, by name.
    pairs: BTreeMap<String, Pair>,
    /// Peak resident set size of the process at the end of the measurement
    /// ([`peak_rss_bytes`]); `None` off Linux.
    peak_rss_bytes: Option<u64>,
}

impl Report {
    /// Parses a report of this build's [`SCHEMA`].
    fn parse(text: &str) -> Result<Self, String> {
        let report: Report =
            serde_json::from_str(text).map_err(|e| format!("cannot parse report: {e}"))?;
        if report.schema != SCHEMA {
            return Err(format!(
                "report has schema {} but this build reads schema {SCHEMA}",
                report.schema
            ));
        }
        Ok(report)
    }

    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Report::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
    }
}

/// A gated microbench binary: where its report goes and what `--check`
/// holds the report to.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Binary name, prefixed to every error line.
    bin: &'static str,
    /// Where the report goes when `--out` is not given.
    default_out: &'static str,
    /// The pair the gate checks.
    gated: &'static str,
    /// The least speedup the gated pair may show.
    min_speedup: f64,
}

/// `filterbench`: the blocked selection kernel against the
/// sort-per-coordinate reference. The floor is the 10× acceptance floor
/// minus a CI noise margin.
pub const FILTERBENCH: Bench = Bench {
    bin: "filterbench",
    default_out: "BENCH_filter.json",
    gated: "trimmed_mean",
    min_speedup: 8.0,
};

/// `nnbench`: the packed `kernels::matmul_transb` against the dot-product
/// loop it replaced. The floor sits well under the 8–9× the
/// kernel measures on a native build.
pub const NNBENCH: Bench =
    Bench { bin: "nnbench", default_out: "BENCH_nn.json", gated: "gemm", min_speedup: 3.0 };

impl Bench {
    /// Checks `report` against `baseline`: the gated pair's fast side must
    /// reach [`MIN_THROUGHPUT_RATIO`] of the baseline's coords/s, and its
    /// speedup must reach `min_speedup`. The error names the pair and the
    /// condition it failed.
    fn gate(&self, report: &Report, baseline: &Report) -> Result<(), String> {
        let name = self.gated;
        let (Some(now), Some(base)) = (report.pairs.get(name), baseline.pairs.get(name)) else {
            return Err(format!("{name}: missing from the report or the baseline"));
        };
        let floor = base.fast.coords_per_sec * MIN_THROUGHPUT_RATIO;
        println!(
            "gate: {name} {:.3e} coords/s vs baseline {:.3e} (floor {floor:.3e})",
            now.fast.coords_per_sec, base.fast.coords_per_sec
        );
        if now.fast.coords_per_sec < floor {
            return Err(format!(
                "{name}: {} regressed to {:.3e} coords/s < floor {floor:.3e} \
                 (baseline {:.3e} from {} on {})",
                now.fast.name,
                now.fast.coords_per_sec,
                base.fast.coords_per_sec,
                baseline.git_rev,
                baseline.machine.cpu_model,
            ));
        }
        println!("gate: {name} speedup {:.1}x vs required {:.1}x", now.speedup, self.min_speedup);
        if now.speedup < self.min_speedup {
            return Err(format!(
                "{name}: {} speedup over {} fell to {:.1}x (< {:.1}x)",
                now.fast.name, now.reference.name, now.speedup, self.min_speedup
            ));
        }
        Ok(())
    }
}

/// The flags every microbench takes.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// The short CI schedule ([`Harness::quick`]) instead of
    /// [`Harness::full`].
    quick: bool,
    /// Report path (default [`Bench::default_out`]).
    out: Option<PathBuf>,
    /// Baseline to gate against.
    check: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(a) = args.next() {
        let mut value =
            |flag: &str| args.next().map(PathBuf::from).ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value("--out")?),
            "--check" => parsed.check = Some(value("--check")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

/// The `main` of a microbench binary:
/// `<bin> [--quick] [--out PATH] [--check BASELINE]`.
///
/// Measures the pairs `measure` returns under the chosen schedule, prints
/// them, writes the report (described by `workload`) and, under `--check`,
/// gates it against the baseline. A checksum disagreement fails the run
/// before any report is written.
pub fn run(
    bench: &Bench,
    workload: &str,
    measure: impl FnOnce(&Harness) -> Result<Vec<(&'static str, Pair)>, String>,
) -> ExitCode {
    match execute(bench, workload, std::env::args().skip(1), measure) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: {e}", bench.bin);
            ExitCode::FAILURE
        }
    }
}

fn execute(
    bench: &Bench,
    workload: &str,
    args: impl Iterator<Item = String>,
    measure: impl FnOnce(&Harness) -> Result<Vec<(&'static str, Pair)>, String>,
) -> Result<(), String> {
    let args = parse_args(args)?;
    let harness = if args.quick { Harness::quick() } else { Harness::full() };
    let pairs = measure(&harness).map_err(|e| format!("CHECKSUM MISMATCH: {e}"))?;
    let report = Report {
        schema: SCHEMA,
        git_rev: fedms_exp::git_rev(),
        machine: MachineInfo::detect(),
        quick: args.quick,
        workload: workload.to_string(),
        pairs: pairs.into_iter().map(|(name, pair)| (name.to_string(), pair)).collect(),
        peak_rss_bytes: peak_rss_bytes(),
    };
    for (name, pair) in &report.pairs {
        println!(
            "{name}: {} {:.3e} coords/s ({:.2} GB/s, {:.3} ms/iter) vs {} {:.3e} coords/s: {:.1}x",
            pair.fast.name,
            pair.fast.coords_per_sec,
            pair.fast.gbytes_per_sec,
            pair.fast.median_secs_per_iter * 1e3,
            pair.reference.name,
            pair.reference.coords_per_sec,
            pair.speedup
        );
    }

    let out = args.out.unwrap_or_else(|| PathBuf::from(bench.default_out));
    let body = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(&out, body + "\n").map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("report written to {}", out.display());

    if let Some(path) = &args.check {
        bench.gate(&report, &Report::load(path)?).map_err(|e| format!("REGRESSION: {e}"))?;
        println!("gate passed");
    }
    Ok(())
}

/// Deterministic dependency-free value stream for building bench inputs
/// (xorshift64*; quality is irrelevant here, determinism is not).
pub fn pseudo_values(seed: u64, len: usize) -> Vec<f32> {
    // SplitMix64 scramble so adjacent seeds diverge (a bare `seed | 1`
    // would collapse 42 and 43 onto the same stream) and the xorshift
    // state is never zero.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state ^= state >> 30;
    state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state ^= state >> 27;
    state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    state |= 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // 24 high bits → uniform in [-0.5, 0.5).
            ((state >> 40) as f32) / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin {
        values: Vec<f32>,
    }

    impl Workload for Spin {
        fn name(&self) -> &str {
            "spin"
        }
        fn coords_per_iter(&self) -> u64 {
            self.values.len() as u64
        }
        fn bytes_per_iter(&self) -> u64 {
            4 * self.values.len() as u64
        }
        fn run(&mut self) -> f64 {
            self.values.iter().map(|&v| f64::from(v) * 1.0000001).sum()
        }
    }

    #[test]
    fn harness_produces_positive_throughput() {
        let mut w = Spin { values: pseudo_values(7, 4096) };
        let m = Harness::quick().measure(&mut w);
        assert_eq!(m.name, "spin");
        assert_eq!(m.samples, 5);
        assert!(m.median_secs_per_iter > 0.0);
        assert!(m.min_secs_per_iter <= m.median_secs_per_iter);
        assert!(m.coords_per_sec > 0.0);
        assert!(m.gbytes_per_sec > 0.0);
        assert!(m.checksum.is_finite());
    }

    #[test]
    fn machine_info_detects_something() {
        let info = MachineInfo::detect();
        assert!(info.logical_cores >= 1);
        assert!(!info.os.is_empty());
        assert!(!info.arch.is_empty());
        assert!(!info.cpu_model.is_empty());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }

    /// The committed baselines and the bench that gates against each.
    fn baselines() -> [(&'static str, Bench); 2] {
        [
            (include_str!("../../../BENCH_filter.json"), FILTERBENCH),
            (include_str!("../../../BENCH_nn.json"), NNBENCH),
        ]
    }

    fn gated<'a>(report: &'a mut Report, bench: &Bench) -> &'a mut Pair {
        report.pairs.get_mut(bench.gated).unwrap()
    }

    #[test]
    fn committed_baselines_parse_and_pass_their_own_gate() {
        for (text, bench) in baselines() {
            let baseline = Report::parse(text).unwrap();
            assert!(!baseline.quick, "{}: baselines use the full schedule", bench.bin);
            bench.gate(&baseline, &baseline).unwrap();
            // Byte for byte what the bench writes.
            assert_eq!(serde_json::to_string_pretty(&baseline).unwrap() + "\n", text);
        }
        assert!(Report::parse(
            &include_str!("../../../BENCH_nn.json").replace("\"schema\": 2", "\"schema\": 3")
        )
        .unwrap_err()
        .contains("schema 3"));
    }

    #[test]
    fn fast_side_below_half_the_baseline_fails_naming_the_pair() {
        for (text, bench) in baselines() {
            let baseline = Report::parse(text).unwrap();
            let base = baseline.pairs[bench.gated].fast.coords_per_sec;
            let mut report = baseline.clone();
            gated(&mut report, &bench).fast.coords_per_sec = 0.501 * base;
            bench.gate(&report, &baseline).unwrap();
            gated(&mut report, &bench).fast.coords_per_sec = 0.499 * base;
            let err = bench.gate(&report, &baseline).unwrap_err();
            assert!(err.starts_with(&format!("{}: ", bench.gated)), "{err}");
            assert!(err.contains("regressed"), "{err}");
        }
    }

    #[test]
    fn speedup_below_the_floor_fails_naming_the_pair() {
        for ((text, bench), floor) in baselines().into_iter().zip([8.0, 3.0]) {
            let baseline = Report::parse(text).unwrap();
            let mut report = baseline.clone();
            gated(&mut report, &bench).speedup = floor;
            bench.gate(&report, &baseline).unwrap();
            gated(&mut report, &bench).speedup = floor - 1e-6;
            let err = bench.gate(&report, &baseline).unwrap_err();
            assert!(err.starts_with(&format!("{}: ", bench.gated)), "{err}");
            assert!(err.contains("speedup"), "{err}");
        }
    }

    /// A workload whose every iteration yields `checksum`.
    struct Fixed {
        name: &'static str,
        checksum: f64,
    }

    impl Workload for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn coords_per_iter(&self) -> u64 {
            1
        }
        fn bytes_per_iter(&self) -> u64 {
            4
        }
        fn run(&mut self) -> f64 {
            self.checksum
        }
    }

    #[test]
    fn checksum_disagreement_fails_the_run() {
        let once = Harness { warmup_iters: 0, samples: 1, iters_per_sample: 1 };
        let pair = |fast: f64, reference: f64| {
            Pair::measure(
                &once,
                &mut Fixed { name: "x/fast", checksum: fast },
                &mut Fixed { name: "x/reference", checksum: reference },
            )
        };
        let one_ulp_up = f64::from_bits(1.0f64.to_bits() + 1);
        pair(1.0, 1.0).unwrap();
        let err = pair(one_ulp_up, 1.0).unwrap_err();
        assert!(err.contains("x/fast checksum") && err.contains("x/reference checksum"), "{err}");

        let out = std::env::temp_dir().join(format!("fedms-perf-{}.json", std::process::id()));
        let args = ["--quick", "--out", out.to_str().unwrap()].map(String::from).into_iter();
        let err =
            execute(&FILTERBENCH, "x", args, |_| Ok(vec![("x", pair(2.0, 1.0)?)])).unwrap_err();
        assert!(err.starts_with("CHECKSUM MISMATCH: x/fast checksum 2"), "{err}");
        assert!(!out.exists(), "a failed cross-check writes no report");
    }

    #[test]
    fn only_quick_out_and_check_are_accepted() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let parsed = parse(&["--quick", "--out", "o.json", "--check", "b.json"]).unwrap();
        let expected =
            Args { quick: true, out: Some("o.json".into()), check: Some("b.json".into()) };
        assert_eq!(parsed, expected);
        assert_eq!(parse(&[]).unwrap(), Args::default());
        for retired in ["--tolerance", "--min-speedup"] {
            assert_eq!(
                parse(&[retired, "0.5"]).unwrap_err(),
                format!("unknown argument: {retired}")
            );
        }
        assert_eq!(parse(&["--check"]).unwrap_err(), "--check needs a value");
    }

    #[test]
    fn pseudo_values_are_deterministic_and_bounded() {
        let a = pseudo_values(42, 1000);
        let b = pseudo_values(42, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-0.5..0.5).contains(v)));
        assert_ne!(a, pseudo_values(43, 1000));
    }
}
