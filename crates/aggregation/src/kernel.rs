//! Blocked, selection-based kernels for the coordinate-wise
//! order-statistics rules (trimmed mean, median, Bulyan's stage 2).
//!
//! # Layout
//!
//! Models arrive model-major: each of the `P` models is one contiguous
//! flat `f32` slice of `D` coordinates. The naive per-coordinate loop
//! (gather a `P`-length column, `sort_by`, average the kept band) touches
//! every model once per coordinate and pays a full stable sort — with its
//! comparator indirection and, for larger `P`, an internal allocation —
//! `D` times per aggregate call. These kernels instead walk coordinates
//! in cache-sized blocks of [`BLOCK_COORDS`]:
//!
//! * a **server-major scratch buffer** (thread-local, reused across
//!   calls — the hot loop never allocates) holds one block at a time,
//!   so every model's block slice is read contiguously exactly once;
//! * the per-coordinate order statistics are computed over the scratch
//!   with one of two strategies, both `O(P)` per coordinate:
//!   a **vectorized sorting network** over totally-ordered integer keys
//!   for small federations (`P ≤` [`NETWORK_MAX`], the common regime —
//!   the paper runs `P = 10`), and **selection**
//!   (`select_nth_unstable_by` on [`f32::total_cmp`]) for larger `P`;
//! * the kept band is accumulated in `f64` in ascending value order, the
//!   same order the sort-based oracle ([`crate::reference`]) sums in, so
//!   kernel outputs are **bit-identical** to the oracle — a property the
//!   proptest suite pins down to `to_bits` equality.
//!
//! # Total order
//!
//! All comparisons use the IEEE-754 `totalOrder` predicate
//! ([`f32::total_cmp`]): `-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < +NaN`.
//! The network path realizes the same order branchlessly by mapping each
//! `f32` bit pattern to a `u32` key whose unsigned order coincides with
//! `totalOrder` (`encode_total_order`), running Batcher's odd-even
//! merge network with `u32::min`/`u32::max` compare-exchanges (which the
//! compiler auto-vectorizes across the block), and decoding the band
//! back for the sum. Values comparing equal under `totalOrder` have
//! identical bit patterns, so the two strategies (and the oracle) agree
//! bitwise even on duplicates, signed zeros, infinities and NaNs.

use std::cell::RefCell;

/// Coordinates processed per block: `P × BLOCK_COORDS` keys stay within
/// L1/L2 for every realistic federation size (`P = 32` → 32 KiB of keys).
pub const BLOCK_COORDS: usize = 256;

/// Largest federation the sorting-network strategy is used for; beyond
/// this the per-column selection strategy wins (network size grows as
/// `P·log²P` while selection stays linear).
pub const NETWORK_MAX: usize = 32;

/// Reusable per-thread scratch for the blocked kernels.
struct Scratch {
    /// Server-major key block: row `j` holds model `j`'s
    /// totally-ordered `u32` keys for the current coordinate block.
    keys: Vec<u32>,
    /// Per-coordinate `f64` accumulators for the band sum.
    acc: Vec<f64>,
    /// Coordinate-major `f32` columns for the selection strategy
    /// (column `i` of the block occupies `cols[i·P .. (i+1)·P]`).
    cols: Vec<f32>,
    /// Cached Batcher network for the last-used `P` (`pairs_for` ≠ 0).
    pairs: Vec<(usize, usize)>,
    pairs_for: usize,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            keys: Vec::new(),
            acc: Vec::new(),
            cols: Vec::new(),
            pairs: Vec::new(),
            pairs_for: 0,
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Maps an `f32` bit pattern to a `u32` whose unsigned order is exactly
/// the IEEE-754 `totalOrder` of the original float (the order
/// [`f32::total_cmp`] implements). The map is a bijection, inverted by
/// [`decode_total_order`].
#[inline(always)]
fn encode_total_order(v: f32) -> u32 {
    let b = v.to_bits();
    // Negative floats (sign bit set) reverse and drop below positives;
    // positive floats shift above them.
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`encode_total_order`].
#[inline(always)]
fn decode_total_order(k: u32) -> f32 {
    let bits = if k & 0x8000_0000 != 0 { k ^ 0x8000_0000 } else { !k };
    f32::from_bits(bits)
}

/// Comparator pairs of Batcher's odd-even merge sorting network for `n`
/// inputs (the `n < 2^k` pruning is sound: comparators always move the
/// larger element to the higher index, so the virtual `+∞` padding
/// elements never leave the top positions and every pruned comparator is
/// a no-op).
fn batcher_pairs(n: usize, pairs: &mut Vec<(usize, usize)>) {
    pairs.clear();
    if n < 2 {
        return;
    }
    let t = n.next_power_of_two();
    let mut p = t >> 1;
    while p > 0 {
        let mut q = t >> 1;
        let mut r = 0;
        let mut d = p;
        loop {
            for i in 0..t.saturating_sub(d) {
                if i & p == r && i + d < n {
                    pairs.push((i, i + d));
                }
            }
            if q == p {
                break;
            }
            d = q - p;
            q >>= 1;
            r = p;
        }
        p >>= 1;
    }
}

/// Coordinate-wise β-trimmed mean over `models` (each a flat slice of
/// equal length), discarding `trim` entries per side of every coordinate
/// and averaging the rest into `out`.
///
/// Dispatches to the vectorized sorting-network strategy for
/// `P ≤ `[`NETWORK_MAX`] and to per-column selection otherwise; both are
/// bit-identical to [`crate::reference::trimmed_mean`].
///
/// # Panics
///
/// Panics if `models` is empty, slice lengths disagree with `out`, or
/// `models.len() <= 2·trim` — callers (the [`crate::AggregationRule`]
/// impls) validate these and return typed errors instead.
pub fn trimmed_mean(models: &[&[f32]], trim: usize, out: &mut [f32]) {
    if models.len() <= NETWORK_MAX {
        trimmed_mean_network(models, trim, out);
    } else {
        trimmed_mean_selection(models, trim, out);
    }
}

/// Checks the shared kernel preconditions and returns `(P, kept⁻¹)`.
fn check_inputs(models: &[&[f32]], trim: usize, out: &[f32]) -> (usize, f64) {
    let n = models.len();
    assert!(n > 2 * trim, "kernel needs more than 2·trim models (got {n}, trim {trim})");
    for m in models {
        assert_eq!(m.len(), out.len(), "model length disagrees with output length");
    }
    (n, 1.0 / (n - 2 * trim) as f64)
}

/// The sorting-network strategy of [`trimmed_mean`]: sorts all
/// [`BLOCK_COORDS`] columns of a block simultaneously by running the
/// network's compare-exchanges as `u32::min`/`u32::max` passes over
/// whole rows — branch-free, auto-vectorized, `O(P·log²P)` comparator
/// passes per block amortizing to a handful of instructions per
/// coordinate.
pub fn trimmed_mean_network(models: &[&[f32]], trim: usize, out: &mut [f32]) {
    let (n, inv) = check_inputs(models, trim, out);
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if s.pairs_for != n {
            batcher_pairs(n, &mut s.pairs);
            s.pairs_for = n;
        }
        s.keys.resize(n * BLOCK_COORDS, 0);
        s.acc.resize(BLOCK_COORDS, 0.0);
        let mut d0 = 0usize;
        for out_block in out.chunks_mut(BLOCK_COORDS) {
            let c = out_block.len();
            // Load: one contiguous read per model, encoded to keys.
            for (j, m) in models.iter().enumerate() {
                let row = &mut s.keys[j * c..(j + 1) * c];
                for (slot, &v) in row.iter_mut().zip(&m[d0..d0 + c]) {
                    *slot = encode_total_order(v);
                }
            }
            // Sort all c columns at once: each comparator pair is one
            // min/max pass over two rows.
            for &(a, b) in &s.pairs {
                let (lo, hi) = s.keys.split_at_mut(b * c);
                let ra = &mut lo[a * c..a * c + c];
                let rb = &mut hi[..c];
                for (x, y) in ra.iter_mut().zip(rb.iter_mut()) {
                    let (mn, mx) = ((*x).min(*y), (*x).max(*y));
                    *x = mn;
                    *y = mx;
                }
            }
            // Band sum, rows in ascending order — the oracle's order.
            // `-0.0` is the IEEE additive identity (`x + -0.0 == x` for
            // every `x` including `-0.0`), and it is what
            // `Iterator::sum::<f64>` folds from — starting at `+0.0`
            // would turn an all-negative-zero band into `+0.0`.
            let acc = &mut s.acc[..c];
            acc.fill(-0.0);
            for j in trim..n - trim {
                let row = &s.keys[j * c..(j + 1) * c];
                for (slot, &k) in acc.iter_mut().zip(row) {
                    *slot += f64::from(decode_total_order(k));
                }
            }
            for (o, &sum) in out_block.iter_mut().zip(acc.iter()) {
                *o = canonical_nan((sum * inv) as f32);
            }
            d0 += c;
        }
    });
}

/// The selection strategy of [`trimmed_mean`]: per column, two
/// `select_nth_unstable_by` passes partition off the `trim` smallest and
/// largest in `O(P)`, and the kept band is ordered ascending for the
/// canonical `f64` sum.
pub fn trimmed_mean_selection(models: &[&[f32]], trim: usize, out: &mut [f32]) {
    let (n, inv) = check_inputs(models, trim, out);
    let kept = n - 2 * trim;
    for_columns(models, out, |col, o| {
        let band = if trim == 0 {
            &mut col[..]
        } else {
            // Partition the `trim` smallest to the front…
            col.select_nth_unstable_by(trim - 1, f32::total_cmp);
            let rest = &mut col[trim..];
            // …and the `trim` largest of the remainder to the back.
            rest.select_nth_unstable_by(kept - 1, f32::total_cmp);
            &mut rest[..kept]
        };
        // Ascending order makes the f64 accumulation canonical (matches
        // the full-sort oracle bitwise).
        band.sort_unstable_by(f32::total_cmp);
        let sum: f64 = band.iter().map(|&v| f64::from(v)).sum();
        *o = canonical_nan((sum * inv) as f32);
    });
}

/// Collapses an arithmetic-produced NaN to the canonical quiet NaN.
///
/// IEEE 754 (and LLVM's float semantics) leave the sign and payload of a
/// NaN produced by arithmetic unspecified, so two correct compilations
/// of the same band sum may disagree on the bits (e.g. `+∞ + -∞` yields
/// `-NaN` on x86 scalar adds but the operand NaN under a commuted
/// vector add). Pinning the result to [`f32::NAN`] keeps the
/// kernel/oracle bit-exactness contract meaningful even on poisoned
/// inputs. Selected elements (median of odd `P`) are still returned
/// verbatim — only arithmetic results pass through here.
#[inline]
pub(crate) fn canonical_nan(v: f32) -> f32 {
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

/// Coordinate-wise median (mean of the two central values for even `P`),
/// bit-identical to [`crate::reference::coordinate_median`].
///
/// # Panics
///
/// Panics if `models` is empty or slice lengths disagree with `out`.
pub fn coordinate_median(models: &[&[f32]], out: &mut [f32]) {
    let n = models.len();
    assert!(n > 0, "median kernel needs at least one model");
    for m in models {
        assert_eq!(m.len(), out.len(), "model length disagrees with output length");
    }
    if n <= NETWORK_MAX {
        // The trimmed-mean network with the tightest trim *is* the
        // median for odd P; even P needs the two central rows, so run a
        // dedicated band pass instead of reusing `trimmed_mean_network`.
        median_network(models, out);
    } else {
        for_columns(models, out, |col, o| {
            let upper = n / 2;
            let (left, mid, _) = col.select_nth_unstable_by(upper, f32::total_cmp);
            *o = if n % 2 == 1 {
                *mid
            } else {
                // The lower-middle is the max of the left partition.
                let lower = left.iter().copied().max_by(f32::total_cmp).expect("n ≥ 2");
                canonical_nan(0.5 * (lower + *mid))
            };
        });
    }
}

/// Network-strategy median: sort the block's columns, read the central
/// row(s).
fn median_network(models: &[&[f32]], out: &mut [f32]) {
    let n = models.len();
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if s.pairs_for != n {
            batcher_pairs(n, &mut s.pairs);
            s.pairs_for = n;
        }
        s.keys.resize(n * BLOCK_COORDS, 0);
        let mut d0 = 0usize;
        for out_block in out.chunks_mut(BLOCK_COORDS) {
            let c = out_block.len();
            for (j, m) in models.iter().enumerate() {
                let row = &mut s.keys[j * c..(j + 1) * c];
                for (slot, &v) in row.iter_mut().zip(&m[d0..d0 + c]) {
                    *slot = encode_total_order(v);
                }
            }
            for &(a, b) in &s.pairs {
                let (lo, hi) = s.keys.split_at_mut(b * c);
                let ra = &mut lo[a * c..a * c + c];
                let rb = &mut hi[..c];
                for (x, y) in ra.iter_mut().zip(rb.iter_mut()) {
                    let (mn, mx) = ((*x).min(*y), (*x).max(*y));
                    *x = mn;
                    *y = mx;
                }
            }
            let upper = &s.keys[(n / 2) * c..(n / 2 + 1) * c];
            if n % 2 == 1 {
                for (o, &k) in out_block.iter_mut().zip(upper) {
                    *o = decode_total_order(k);
                }
            } else {
                let lower = &s.keys[(n / 2 - 1) * c..(n / 2) * c];
                for ((o, &ku), &kl) in out_block.iter_mut().zip(upper).zip(lower) {
                    *o = canonical_nan(0.5 * (decode_total_order(kl) + decode_total_order(ku)));
                }
            }
            d0 += c;
        }
    });
}

/// Runs `f` over every coordinate's sorted (by `totalOrder`) column,
/// gathered blockwise through the reused scratch — the shared column
/// path for rules that need full per-coordinate order statistics
/// (Bulyan's stage 2). `f` receives the flat coordinate index and the
/// ascending column.
///
/// # Panics
///
/// Panics if `models` is empty or slice lengths disagree with `len`.
pub fn for_sorted_columns(models: &[&[f32]], len: usize, mut f: impl FnMut(usize, &[f32])) {
    let n = models.len();
    assert!(n > 0, "column path needs at least one model");
    for m in models {
        assert_eq!(m.len(), len, "model length disagrees");
    }
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.cols.resize(BLOCK_COORDS * n, 0.0);
        let mut d0 = 0usize;
        while d0 < len {
            let c = BLOCK_COORDS.min(len - d0);
            gather_columns(models, d0, c, &mut s.cols);
            for i in 0..c {
                let col = &mut s.cols[i * n..(i + 1) * n];
                col.sort_unstable_by(f32::total_cmp);
                f(d0 + i, col);
            }
            d0 += c;
        }
    });
}

/// Runs `per_column` over every coordinate's (unordered) column gathered
/// into the reused coordinate-major scratch; writes its result to `out`.
fn for_columns(
    models: &[&[f32]],
    out: &mut [f32],
    mut per_column: impl FnMut(&mut [f32], &mut f32),
) {
    let n = models.len();
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.cols.resize(BLOCK_COORDS * n, 0.0);
        let mut d0 = 0usize;
        for out_block in out.chunks_mut(BLOCK_COORDS) {
            let c = out_block.len();
            gather_columns(models, d0, c, &mut s.cols);
            for (i, o) in out_block.iter_mut().enumerate() {
                per_column(&mut s.cols[i * n..(i + 1) * n], o);
            }
            d0 += c;
        }
    });
}

/// Transposes the coordinate block `[d0, d0 + c)` of `models` into
/// coordinate-major columns: `cols[i·P + j] = models[j][d0 + i]`. Each
/// model's block slice is read contiguously once.
fn gather_columns(models: &[&[f32]], d0: usize, c: usize, cols: &mut [f32]) {
    let n = models.len();
    for (j, m) in models.iter().enumerate() {
        for (i, &v) in m[d0..d0 + c].iter().enumerate() {
            cols[i * n + j] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_key_is_monotone_bijection() {
        let samples = [
            f32::NEG_INFINITY,
            -1e30,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            1e30,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for &a in &samples {
            // Bijection: decode(encode(x)) is bit-identical to x.
            assert_eq!(decode_total_order(encode_total_order(a)).to_bits(), a.to_bits());
            for &b in &samples {
                // Monotone: key order ⇔ total_cmp order.
                assert_eq!(
                    encode_total_order(a).cmp(&encode_total_order(b)),
                    a.total_cmp(&b),
                    "key order diverged from total_cmp for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batcher_network_sorts_every_size() {
        let mut pairs = Vec::new();
        for n in 1..=33usize {
            batcher_pairs(n, &mut pairs);
            // Exhaustive 0/1 principle is overkill here; a dense battery
            // of adversarial permutations still catches wiring bugs.
            for seed in 0..40u64 {
                let mut v: Vec<u32> =
                    (0..n).map(|i| ((i as u64 * 2654435761 + seed * 40503) % 97) as u32).collect();
                if seed % 3 == 0 {
                    v.reverse();
                }
                for &(a, b) in &pairs {
                    if v[a] > v[b] {
                        v.swap(a, b);
                    }
                }
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "network failed for n={n}");
            }
        }
    }

    #[test]
    fn network_and_selection_agree_bitwise() {
        let models: Vec<Vec<f32>> = (0..10)
            .map(|j| (0..777).map(|i| ((i * 31 + j * 17) % 101) as f32 - 50.0).collect())
            .collect();
        let views: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
        let mut a = vec![0.0f32; 777];
        let mut b = vec![0.0f32; 777];
        trimmed_mean_network(&views, 2, &mut a);
        trimmed_mean_selection(&views, 2, &mut b);
        let (ab, bb): (Vec<u32>, Vec<u32>) =
            (a.iter().map(|v| v.to_bits()).collect(), b.iter().map(|v| v.to_bits()).collect());
        assert_eq!(ab, bb);
    }

    #[test]
    #[should_panic(expected = "more than 2·trim")]
    fn rejects_over_trimming() {
        let m = [1.0f32, 2.0];
        let views: Vec<&[f32]> = vec![&m, &m];
        let mut out = vec![0.0f32; 2];
        trimmed_mean(&views, 1, &mut out);
    }
}
