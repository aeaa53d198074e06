//! `roundbench` — the Fed-MS round-level benchmark.
//!
//! ```text
//! roundbench --workload <nano_paper|mlp_edge_faults|sweep_fig3>
//!            [--seed <n>] [--seconds <n>] [--trace <0|1>]
//!            [--out-dir <dir>] [--steady <runs>]
//! ```
//!
//! A run prints its provenance, notes and metrics, then, as the last line
//! of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run and writes its spans as JSONL.
//! `--steady <runs>` re-runs this binary `<runs>` times on consecutive
//! seeds and prints each metric's median, quartiles, spread and the bound
//! the spread supports.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fedms_bench::perf::MachineInfo;
use fedms_roundbench::run::{run, write_report, Options, DEFAULT_SEED};
use fedms_roundbench::stats::{median, quartiles};
use fedms_roundbench::workloads::Workload;
use serde_json::Value;

const USAGE: &str = "usage: roundbench --workload <nano_paper|mlp_edge_faults|sweep_fig3> \
[--seed <n>] [--seconds <n>] [--trace <0|1>] [--out-dir <dir>] [--steady <runs>]";

struct Args {
    options: Options,
    steady: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut out_dir = None;
    let mut steady = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--steady" => {
                let v = value()?;
                steady = Some(v.parse().ok().filter(|&n: &usize| n >= 2).ok_or_else(|| bad(v))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Outputs go under the build directory: the checkout's own, or the one
    // the caller chose for cargo.
    let out_dir = out_dir.unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("roundbench/target"), PathBuf::from)
            .join("roundbench-out")
    });
    Ok(Args { options: Options { workload, seed, seconds, trace, out_dir }, steady })
}

fn provenance(o: &Options) -> Value {
    let machine = MachineInfo::detect();
    let s = |v: &str| Value::String(v.to_string());
    // Only ask git inside a checkout of its own: elsewhere it would search
    // the parent directories for one.
    let git_rev =
        if Path::new(".git").exists() { fedms_exp::git_rev() } else { "unknown".to_string() };
    Value::Object(BTreeMap::from([
        ("git_rev".to_string(), s(&git_rev)),
        ("workload".to_string(), s(o.workload.name())),
        ("seed".to_string(), Value::UInt(o.seed)),
        ("seconds".to_string(), Value::Float(o.seconds)),
        ("trace".to_string(), Value::Bool(o.trace)),
        ("nproc".to_string(), Value::UInt(machine.logical_cores as u64)),
        ("cpu_model".to_string(), s(&machine.cpu_model)),
        ("os".to_string(), s(&machine.os)),
        ("arch".to_string(), s(&machine.arch)),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args.options, runs);
    }
    let o = &args.options;
    let prov = provenance(o);
    println!("provenance {}", serde_json::to_string(&prov).unwrap_or_default());
    let report = match run(o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    if let Some(pins) = report.pins.as_ref().filter(|_| !o.trace) {
        println!("outputs {}", serde_json::to_string(pins).unwrap_or_default());
    }
    for (name, (v, unit)) in &report.metrics {
        println!("metric {name:<28} {v:>16.6} {unit}");
    }
    let path = o.out_dir.join(format!(
        "report-{}-s{}-trace{}.json",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    ));
    if let Err(e) = write_report(&path, &prov, &report) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}

/// Runs this binary `runs` times on seeds `seed, seed+1, …` and prints the
/// median, quartiles (Python's `statistics.quantiles(n=4)`), spread
/// (IQR / median) and a bound of three spreads per metric.
fn steady(o: &Options, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..runs as u64 {
        let seed = o.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", o.workload.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &o.seconds.to_string(), "--trace", if o.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&o.out_dir)
            .output();
        let last = out
            .ok()
            .filter(|x| x.status.success())
            .and_then(|x| String::from_utf8_lossy(&x.stdout).lines().last().map(str::to_string));
        let Some(result) = last.and_then(|l| serde_json::from_str::<Value>(&l).ok()) else {
            eprintln!("run with seed {seed} failed");
            return ExitCode::FAILURE;
        };
        let correct = result["correct"].as_bool() == Some(true);
        all_correct &= correct;
        let metrics = result["metrics"].as_object().cloned().unwrap_or_default();
        let line: Vec<String> = metrics
            .iter()
            .map(|(name, m)| {
                let v = m["value"].as_f64().unwrap_or(f64::NAN);
                let entry = values.entry(name.clone()).or_default();
                entry.0.push(v);
                entry.1 = m["unit"].as_str().unwrap_or_default().to_string();
                format!("{name}={v:.6}")
            })
            .collect();
        println!("seed {seed} correct={correct} {}", line.join(" "));
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, (xs, unit)) in &values {
        let m = median(xs);
        let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
        let spread = (q3 - q1) / m.abs();
        // The bound a metric can carry: three spreads, rounded up to a
        // hundredth, between 0.02 and 0.25.
        let bound = ((3.0 * spread * 100.0).ceil() / 100.0).clamp(0.02, 0.25);
        println!("{name:<28} {m:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6.2} {unit}");
    }
    println!("all runs correct: {all_correct}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
