//! Bit-packed binary-state kernels for the sampling hot path.
//!
//! Every hot loop in the stack moves RBM states around as dense `f64`
//! 0/1 matrices and pays a full dense GEMM for products whose left
//! operand is binary. The paper's accelerator economics rest on exactly
//! this structure — binary node states driving an analog vector-matrix
//! product (§3.2) — and the same structure is free throughput in
//! software: a batch of binary states packs 64 states per `u64` word,
//! and `states · W` reduces to *summing the weight rows selected by the
//! set bits* — no multiplies, zero states skipped 64 at a time.
//!
//! The packed product is **bit-identical** to the scalar row-loop
//! reference kernel ([`scalar_ref_gemm`]): both accumulate the fan-in
//! terms of every output element in ascending index order, and skipping
//! an exact-zero term is a floating-point no-op (`x + 0.0 == x` for
//! every finite `x`, and `1.0 · w == w`; an infinite or NaN weight
//! makes the reference's `0 · w` term NaN, so for non-finite weights
//! the packed product equals the selected-row sum instead). It is
//! equally bit-identical
//! to the vendored `ndarray` GEMM's non-transposed kernels, which
//! accumulate in the same `ikj` order — so flipping a sampler between
//! the packed and dense kernels never changes a sampled bit, only the
//! time it takes to produce it. [`GsKernel`](crate::GsKernel) selects
//! between them; [`HardwareCounters`](ember_substrate::HardwareCounters)
//! records which kernel served each call
//! (`packed_kernel_calls` / `dense_kernel_calls`).
//!
//! # Example
//!
//! ```
//! use ember_core::kernels::{binary_gemm, BitMatrix};
//! use ndarray::{arr1, arr2, Array2};
//!
//! let states = arr2(&[[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]);
//! let w = arr2(&[[0.5, -1.0], [9.0, 9.0], [0.25, 2.0]]);
//! let bits = BitMatrix::from_batch(&states).expect("binary batch");
//! let out = binary_gemm(&bits, &w, Some(&arr1(&[0.0, 1.0]).view()));
//! assert_eq!(out, arr2(&[[0.75, 2.0], [0.0, 1.0]]));
//! ```

use ndarray::{Array1, Array2, ArrayView1};

// The SIMD kernel tier lives next to the vendored GEMM it accelerates
// (`ndarray::simd`); re-exported here so substrate code, benches, and
// deployments can inspect or pin the tier through the facade.
pub use ndarray::simd::{active_tier, force_tier, simd_active, SimdTier};

/// Number of `u64` words needed to hold `cols` bits.
fn words_for(cols: usize) -> usize {
    cols.div_ceil(64)
}

/// A batch of binary states packed row-major into `u64` words: bit `j`
/// of row `r` lives at word `j / 64`, bit position `j % 64` (LSB
/// first). Rows are padded to a whole word; padding bits are always
/// zero.
///
/// This is the in-flight representation of everything the substrates
/// exchange after the first half-step: comparator latches, thresholded
/// BRIM node voltages, Metropolis spin read-outs — all exact `{0, 1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix of the given logical dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// Packs a dense batch of **exactly binary** levels. Returns `None`
    /// if any entry is neither `0.0` nor `1.0` — the caller falls back
    /// to the dense kernel (multi-bit DTC gray levels, or a hostile
    /// input).
    ///
    /// The scan is branchless per element (comparisons fold into the
    /// word and a validity accumulator), so packing costs a small
    /// fraction of the product it enables even on wide batches.
    pub fn from_batch(batch: &Array2<f64>) -> Option<Self> {
        let (rows, cols) = batch.dim();
        let mut packed = BitMatrix::zeros(rows, cols);
        let data = batch.as_slice();
        let mut all_binary = true;
        for (r, row) in data.chunks(cols.max(1)).enumerate().take(rows) {
            let words = &mut packed.words[r * packed.words_per_row..(r + 1) * packed.words_per_row];
            for (word, chunk) in words.iter_mut().zip(row.chunks(64)) {
                let mut w = 0u64;
                for (j, &x) in chunk.iter().enumerate() {
                    w |= u64::from(x == 1.0) << j;
                    all_binary &= x == 0.0 || x == 1.0;
                }
                *word = w;
            }
        }
        all_binary.then_some(packed)
    }

    /// Logical row count.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Logical column count (bits per row).
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Words per packed row (`ncols` rounded up to a whole `u64`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Mutable packed words of row `r` — the seam the BRIM's packed
    /// threshold reads write into without materializing a `Vec<bool>`.
    ///
    /// Writers must keep the padding bits (bit positions ≥ `ncols()` of
    /// the last word) zero; [`binary_gemm`] relies on it.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_words_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// The bit at `(r, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, r: usize, j: usize) -> bool {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        (self.row_words(r)[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Sets the bit at `(r, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, r: usize, j: usize, bit: bool) {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        let word = &mut self.row_words_mut(r)[j / 64];
        if bit {
            *word |= 1u64 << (j % 64);
        } else {
            *word &= !(1u64 << (j % 64));
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The column indices of row `r`'s set bits, ascending — the order
    /// every packed kernel adds the selected weight rows in.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_ones(&self, r: usize) -> RowOnes<'_> {
        let words = self.row_words(r);
        RowOnes {
            words,
            base: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }

    /// Unpacks to the dense `f64` 0/1 representation the `Substrate`
    /// API exchanges.
    pub fn to_dense(&self) -> Array2<f64> {
        let mut data = vec![0.0; self.rows * self.cols];
        for (r, out) in data.chunks_mut(self.cols.max(1)).enumerate() {
            for j in self.row_ones(r) {
                out[j] = 1.0;
            }
        }
        Array2::from_shape_vec((self.rows, self.cols), data).expect("consistent dims")
    }
}

/// Iterator over one packed row's set-bit column indices in ascending
/// order ([`BitMatrix::row_ones`]): lowest set bit first, a word at a
/// time, so zero words cost one test each. (A `flat_map` over the words
/// reads the same but took ~1.5× as long to build the GEMM's offset
/// lists.)
#[derive(Debug, Clone)]
pub struct RowOnes<'a> {
    words: &'a [u64],
    /// Column index of bit 0 of the current word.
    base: usize,
    /// The current word's not-yet-yielded bits.
    bits: u64,
}

impl Iterator for RowOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.words = self.words.get(1..).filter(|rest| !rest.is_empty())?;
            self.base += 64;
            self.bits = self.words[0];
        }
        let j = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(j)
    }
}

/// One packed row × `W`: set bits collected in ascending index order
/// into the `idx` scratch, then accumulated by the register-tiled tier
/// kernel ([`ndarray::simd::sum_selected_rows`]) — the only arithmetic
/// the packed product performs (selected weight rows are *summed*,
/// never multiplied).
fn binary_gemv(orow: &mut [f64], states: &BitMatrix, r: usize, wdata: &[f64], idx: &mut Vec<u32>) {
    idx.clear();
    idx.extend(states.row_ones(r).map(|i| i as u32));
    ndarray::simd::sum_selected_rows(orow, wdata, orow.len(), idx);
}

/// Minimum batch-chunk size for the transposed-mask block path: below
/// this the per-row register-tiled kernel wins (the block path's gain
/// is amortizing the weight stream over many rows).
const BLOCK_MIN_ROWS: usize = 8;

/// Whether the transposed-mask block kernel beats the per-row stream
/// for this product shape (measured on the AVX2 tier). The block
/// scatter wins when the output rows are short enough that the per-row
/// weight stream is stride-bound but long enough to amortize the
/// per-weight-row mask walk, the fan-in is tall enough that
/// deduplicating the weight stream matters, and the output row stride
/// does not alias a handful of L1 sets (4 KiB-multiple strides map
/// every row to the same sets and thrash the scatter's working set).
fn block_path_wins(fan_in: usize, out_width: usize, rows_here: usize) -> bool {
    rows_here >= BLOCK_MIN_ROWS
        && fan_in >= 2 * out_width
        && (128..=448).contains(&out_width)
        && !(out_width * 8).is_multiple_of(4096)
}

/// Minimum batch size for the AVX-512 multi-row kernel: one full
/// eight-row group. Smaller products (a lone interactive row, a pair
/// that coalesced) stay on the AVX2 per-row kernel, so sparse
/// interactive traffic does not switch the core into 512-bit code.
const MULTI_MIN_ROWS: usize = 8;
/// Minimum mean set bits per row for the AVX-512 multi-row kernel.
/// Below it the kernel's set-up (grouping the rows by list length,
/// aligning the tiles) is not repaid: the visible direction of a served
/// chain selects ~2 hidden rows per state row.
const MULTI_MIN_ONES_PER_ROW: usize = 8;

/// Whether the AVX-512 multi-row kernel
/// ([`ndarray::simd::sum_selected_rows_multi`]) takes this product:
/// only on the AVX-512 tier, for at least [`MULTI_MIN_ROWS`] rows
/// averaging at least [`MULTI_MIN_ONES_PER_ROW`] set bits, and only
/// while every weight-row offset fits its `u32` list entry.
fn multi_path_wins(states: &BitMatrix, w_len: usize) -> bool {
    let rows = states.nrows();
    ndarray::simd::active_tier() == SimdTier::Avx512
        && rows >= MULTI_MIN_ROWS
        && u32::try_from(w_len).is_ok()
        && states.count_ones() >= MULTI_MIN_ONES_PER_ROW * rows
}

/// `states · W (+ bias)` with a bit-packed binary left operand: the
/// weight rows selected by the set bits are accumulated in ascending
/// index order — no multiplies, zero states skipped a word (64 states)
/// at a time. Three kernels share the work, chosen by shape and tier:
///
/// * On the AVX-512 tier, batches of at least 8 rows averaging at
///   least 8 set bits per row (the hidden half-step of a coalesced
///   group, a training minibatch) go through the multi-row kernel
///   ([`ndarray::simd::sum_selected_rows_multi`]) over per-row lists of
///   weight-row offsets: eight rows' sums stay in registers while each
///   weight tile is fetched once for the eight of them. Measured on a
///   Sapphire Rapids core in a hot loop, it beat the AVX2 paths at 8–64
///   rows for every density from 8 to 380 set bits per row (1.3–3×;
///   64×784→200 at density 0.48: ~0.6 ms → ~0.38 ms), and lost only
///   below ~4 set bits per row (the visible direction) and for lone
///   rows with a handful of set bits.
/// * Otherwise, on any tier, shapes for which `block_path_wins` go
///   through the transposed-mask block kernel
///   ([`ndarray::simd::sum_selected_rows_block`], in 64-row chunks),
///   which streams the weight matrix from L2 once per chunk instead of
///   once per batch row.
/// * Everything else — lone rows, the sparse visible direction of a
///   served chain — uses the per-row register-tiled kernel
///   ([`ndarray::simd::sum_selected_rows`]).
///
/// Per output element the addition chain is identical on every path,
/// so the choice is invisible in the bits.
///
/// Bit-identical to [`scalar_ref_gemm`] on the unpacked batch for
/// finite weights (see the module docs for why), and therefore to the
/// dense `ikj` GEMM the samplers used before this kernel existed.
///
/// # Panics
///
/// Panics if `states.ncols() != w.nrows()` or the bias length differs
/// from `w.ncols()`.
pub fn binary_gemm(
    states: &BitMatrix,
    w: &Array2<f64>,
    bias: Option<&ArrayView1<'_, f64>>,
) -> Array2<f64> {
    let (fan_in, out_width) = w.dim();
    assert_eq!(states.ncols(), fan_in, "fan-in mismatch (binary_gemm)");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_width, "fan-out mismatch (binary_gemm)");
    }
    let wdata = w.as_slice();
    let nrows = states.nrows();
    let mut data = vec![0.0; nrows * out_width];
    if multi_path_wins(states, wdata.len()) {
        let mut offsets: Vec<u32> = Vec::with_capacity(states.count_ones());
        let mut ends: Vec<usize> = Vec::with_capacity(nrows);
        for r in 0..nrows {
            offsets.extend(states.row_ones(r).map(|i| (i * out_width) as u32));
            ends.push(offsets.len());
        }
        ndarray::simd::sum_selected_rows_multi(&mut data, out_width, wdata, &offsets, &ends);
    } else {
        let mut idx: Vec<u32> = Vec::with_capacity(fan_in);
        let mut tmask: Vec<u64> = Vec::new();
        for (chunk, out) in data.chunks_mut(64 * out_width.max(1)).enumerate() {
            let start = chunk * 64;
            let rows_here = (nrows - start).min(64);
            if !block_path_wins(fan_in, out_width, rows_here) {
                for (r, orow) in (start..).zip(out.chunks_mut(out_width)) {
                    binary_gemv(orow, states, r, wdata, &mut idx);
                }
            } else {
                // Transpose this chunk's selection bits: bit `r` of
                // `tmask[i]` says chunk row `r` selects weight row `i`.
                tmask.clear();
                tmask.resize(fan_in, 0);
                for r in 0..rows_here {
                    for i in states.row_ones(start + r) {
                        tmask[i] |= 1u64 << r;
                    }
                }
                ndarray::simd::sum_selected_rows_block(out, out_width, wdata, &tmask);
            }
        }
    }
    if let Some(b) = bias {
        for orow in data.chunks_mut(out_width.max(1)) {
            for (o, &x) in orow.iter_mut().zip(b.iter()) {
                *o += x;
            }
        }
    }
    Array2::from_shape_vec((states.nrows(), out_width), data).expect("consistent dims")
}

/// The scalar row-loop reference kernel: `out[r][j] = Σ_i states[r][i] ·
/// W[i][j] (+ bias[j])`, fan-in terms accumulated in ascending index
/// order, zero terms *included*. This is the summation order of the
/// seed's row-at-a-time sampling strategy
/// (`AnalogSampler::sample_layer_reference`), kept here as the pinned
/// ground truth the packed kernel is property-tested against.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn scalar_ref_gemm(
    states: &Array2<f64>,
    w: &Array2<f64>,
    bias: Option<&ArrayView1<'_, f64>>,
) -> Array2<f64> {
    let (fan_in, out_width) = w.dim();
    assert_eq!(states.ncols(), fan_in, "fan-in mismatch (scalar_ref_gemm)");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_width, "fan-out mismatch (scalar_ref_gemm)");
    }
    let mut out = Array2::zeros((states.nrows(), out_width));
    for r in 0..states.nrows() {
        for j in 0..out_width {
            let mut acc = 0.0;
            for i in 0..fan_in {
                acc += states[[r, i]] * w[[i, j]];
            }
            if let Some(b) = bias {
                acc += b[j];
            }
            out[[r, j]] = acc;
        }
    }
    out
}

/// Whether every entry of `batch` is exactly `0.0` or `1.0` — the
/// precondition for packing, and the documented domain on which every
/// `Substrate::quantize_batch` implementation is the identity (so
/// callers may skip quantization entirely for binary feedback).
pub fn is_binary(batch: &Array2<f64>) -> bool {
    batch.iter().all(|&x| x == 0.0 || x == 1.0)
}

/// The serial per-chain local-field kernel: for ONE exactly-binary
/// input row, `field[j] = Σ_{i : input[i] == 1} w[i][j]` — the weight
/// rows selected by the set states, accumulated in ascending index
/// order on the SIMD tier. This is the single-chain counterpart of
/// [`binary_gemm`], and the piece a serial Gibbs chain actually spends
/// its time in: no batch exists to amortize a GEMM over, so the only
/// speedup available is making each row's field evaluation itself
/// vector-wide. Used by `GsEngine::SerialReference`
/// (`SoftwareGibbs::sample_hidden_row` / `sample_visible_row`; the
/// reverse direction passes the cached `Wᵀ`), and mirrored by the
/// BRIM per-row power-cycle path and the annealer's per-spin sweeps,
/// which run the same [`ndarray::simd`] primitives through the
/// vendored GEMV.
///
/// Bit-identical to [`scalar_ref_field_row`] — and therefore to the
/// field loop of `AnalogSampler::sample_layer_reference` — by the
/// module-docs argument: per output element both sides add the same
/// terms in the same ascending-`i` order, skipped zero terms are
/// floating-point no-ops, and `1.0 · w == w`.
///
/// Returns `None` when the input row is not exactly binary (multi-bit
/// DTC gray levels): callers fall back to the dense scalar reference.
///
/// # Panics
///
/// Panics if `input.len() != w.nrows()`.
pub fn binary_field_row(input: &ArrayView1<'_, f64>, w: &Array2<f64>) -> Option<Array1<f64>> {
    let (fan_in, out_width) = w.dim();
    assert_eq!(input.len(), fan_in, "fan-in mismatch (binary_field_row)");
    let mut idx: Vec<u32> = Vec::with_capacity(fan_in);
    for (i, &x) in input.iter().enumerate() {
        if x == 1.0 {
            idx.push(i as u32);
        } else if x != 0.0 {
            return None;
        }
    }
    let mut field = vec![0.0; out_width];
    ndarray::simd::sum_selected_rows(&mut field, w.as_slice(), out_width, &idx);
    Some(Array1::from_vec(field))
}

/// Scalar reference for [`binary_field_row`]: the field loop of
/// `AnalogSampler::sample_layer_reference` without the bias term —
/// `field[j] = Σ_i input[i] · w[i][j]`, ascending `i`, zero terms
/// included, folded from `+0.0`. Pinned ground truth for the
/// serial-field proptests.
///
/// The fold is written out explicitly rather than via
/// `Iterator::sum`, which returns a lone term unchanged and so can
/// yield `-0.0` for a single-fan-in zero input where the fold gives
/// `+0.0`. The sign of that zero is unobservable in sampled bits
/// (bias add and sigmoid erase it), but this reference pins *field*
/// bits exactly.
///
/// # Panics
///
/// Panics if `input.len() != w.nrows()`.
pub fn scalar_ref_field_row(input: &ArrayView1<'_, f64>, w: &Array2<f64>) -> Array1<f64> {
    let (fan_in, out_width) = w.dim();
    assert_eq!(
        input.len(),
        fan_in,
        "fan-in mismatch (scalar_ref_field_row)"
    );
    Array1::from_shape_fn(out_width, |j| {
        let mut acc = 0.0;
        for i in 0..fan_in {
            acc += input[i] * w[[i, j]];
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::{arr1, arr2};
    use rand::{Rng, SeedableRng};

    #[test]
    fn pack_rejects_non_binary() {
        let gray = arr2(&[[0.0, 0.5], [1.0, 0.0]]);
        assert!(BitMatrix::from_batch(&gray).is_none());
        assert!(!is_binary(&gray));
        let binary = arr2(&[[0.0, 1.0], [1.0, 0.0]]);
        assert!(BitMatrix::from_batch(&binary).is_some());
        assert!(is_binary(&binary));
    }

    #[test]
    fn pack_unpack_roundtrip_at_word_boundaries() {
        for cols in [1, 63, 64, 65, 127, 128, 130] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(cols as u64);
            let dense = Array2::from_shape_fn((3, cols), |_| f64::from(rng.random_bool(0.5)));
            let bits = BitMatrix::from_batch(&dense).expect("binary");
            assert_eq!(bits.to_dense(), dense, "cols = {cols}");
            assert_eq!(bits.count_ones() as f64, dense.sum(), "cols = {cols}");
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut bits = BitMatrix::zeros(2, 70);
        assert!(!bits.get(1, 69));
        bits.set(1, 69, true);
        assert!(bits.get(1, 69));
        assert_eq!(bits.count_ones(), 1);
        bits.set(1, 69, false);
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn binary_gemm_selects_weight_rows() {
        let states = arr2(&[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]);
        let w = arr2(&[[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]]);
        let bits = BitMatrix::from_batch(&states).unwrap();
        let out = binary_gemm(&bits, &w, None);
        assert_eq!(out, arr2(&[[101.0, 202.0], [10.0, 20.0]]));
        let with_bias = binary_gemm(&bits, &w, Some(&arr1(&[0.5, -0.5]).view()));
        assert_eq!(with_bias, arr2(&[[101.5, 201.5], [10.5, 19.5]]));
    }

    #[test]
    fn binary_gemm_bit_identical_to_scalar_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Batch sizes straddle the per-row/block threshold and the
        // 64-row chunk boundary of the transposed-mask block path, and
        // the last two shapes satisfy `block_path_wins` so the
        // transposed scatter itself is exercised end to end (on the
        // AVX-512 tier they take the multi-row kernel instead).
        for &(rows, fan_in, out) in &[
            (5, 67, 9),
            (1, 64, 3),
            (8, 130, 17),
            (64, 300, 130),
            (67, 521, 131),
        ] {
            let states = Array2::from_shape_fn((rows, fan_in), |_| f64::from(rng.random_bool(0.4)));
            let w = Array2::from_shape_fn((fan_in, out), |_| rng.random_range(-1.0..1.0));
            let bias = ndarray::Array1::from_shape_fn(out, |_| rng.random_range(-1.0..1.0));
            let bits = BitMatrix::from_batch(&states).unwrap();
            let packed = binary_gemm(&bits, &w, Some(&bias.view()));
            let reference = scalar_ref_gemm(&states, &w, Some(&bias.view()));
            let packed_bits: Vec<u64> = packed.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(packed_bits, ref_bits, "{rows}x{fan_in}x{out}");
        }
    }

    #[test]
    fn binary_gemm_bit_identical_to_dense_dot() {
        // The vendored GEMM's non-transposed kernels accumulate in the
        // same ikj order, so the packed product must match `.dot()`
        // bitwise too — the property that lets the packed kernel be the
        // default without perturbing a single golden bit.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let states = Array2::from_shape_fn((6, 100), |_| f64::from(rng.random_bool(0.3)));
        let w = Array2::from_shape_fn((100, 11), |_| rng.random_range(-1.0..1.0));
        let bits = BitMatrix::from_batch(&states).unwrap();
        let packed = binary_gemm(&bits, &w, None);
        let dense = states.dot(&w);
        let packed_bits: Vec<u64> = packed.iter().map(|x| x.to_bits()).collect();
        let dense_bits: Vec<u64> = dense.iter().map(|x| x.to_bits()).collect();
        assert_eq!(packed_bits, dense_bits);
    }

    #[test]
    #[should_panic(expected = "fan-in mismatch")]
    fn binary_gemm_rejects_mismatched_fan_in() {
        let bits = BitMatrix::zeros(1, 3);
        let w = Array2::zeros((4, 2));
        let _ = binary_gemm(&bits, &w, None);
    }
}
