//! The `trmean_β` filter microbench and its CI regression gate.
//!
//! Measures the blocked selection kernel
//! ([`fedms_aggregation::kernel::trimmed_mean`]) against the historical
//! sort-per-coordinate reference
//! ([`fedms_aggregation::reference::trimmed_mean`]) at the paper-scale
//! shape — `P = 10` servers, `dim = 10⁴` coordinates, `β = 0.2`
//! (trim 2 per side), one filter application per client for 1000 clients
//! per iteration. The two must agree bit for bit.
//!
//! Usage: `filterbench [--quick] [--out PATH] [--check BASELINE]`, with
//! the report written to `BENCH_filter.json` by default and the gate
//! described in [`fedms_bench::perf`] ([`FILTERBENCH`]).

use fedms_aggregation::{kernel, reference};
use fedms_bench::perf::{self, pseudo_values, Pair, Workload, FILTERBENCH};
use std::process::ExitCode;

/// Paper-scale federation shape for the filter (Table II).
const SERVERS: usize = 10;
const DIM: usize = 10_000;
const TRIM: usize = 2; // β = 0.2 of P = 10
const CLIENTS: usize = 1_000;

/// One iteration = `CLIENTS` trimmed-mean applications over the same
/// `P × dim` view set (clients share the dissemination, so sharing the
/// input is the realistic memory pattern).
struct FilterWorkload<F> {
    name: &'static str,
    views: Vec<Vec<f32>>,
    out: Vec<f32>,
    apply: F,
}

impl<F: FnMut(&[&[f32]], usize, &mut [f32])> FilterWorkload<F> {
    fn new(name: &'static str, apply: F) -> Self {
        let views: Vec<Vec<f32>> =
            (0..SERVERS).map(|s| pseudo_values(0x5EED + s as u64, DIM)).collect();
        FilterWorkload { name, views, out: vec![0.0; DIM], apply }
    }
}

impl<F: FnMut(&[&[f32]], usize, &mut [f32])> Workload for FilterWorkload<F> {
    fn name(&self) -> &str {
        self.name
    }
    fn coords_per_iter(&self) -> u64 {
        (CLIENTS * DIM) as u64
    }
    fn bytes_per_iter(&self) -> u64 {
        (CLIENTS * SERVERS * DIM * 4) as u64
    }
    fn run(&mut self) -> f64 {
        let views: Vec<&[f32]> = self.views.iter().map(Vec::as_slice).collect();
        let mut checksum = 0.0f64;
        for _ in 0..CLIENTS {
            (self.apply)(&views, TRIM, &mut self.out);
            checksum += f64::from(self.out[0]) + f64::from(self.out[DIM - 1]);
        }
        checksum
    }
}

fn main() -> ExitCode {
    let workload = format!(
        "trimmed mean: P={SERVERS} server views of dim {DIM}, trim {TRIM} per side, \
         {CLIENTS} client applications per iteration"
    );
    perf::run(&FILTERBENCH, &workload, |harness| {
        let pair = Pair::measure(
            harness,
            &mut FilterWorkload::new("trimmed_mean/kernel", kernel::trimmed_mean),
            &mut FilterWorkload::new("trimmed_mean/reference", reference::trimmed_mean),
        )?;
        Ok(vec![("trimmed_mean", pair)])
    })
}
