//! Broadcast-FMA register tiles: the arithmetic of the convolutions and of
//! the dense products `x·w` and `xᵀ·dy`.
//!
//! All three products of a convolution step (see [`crate::conv2d`]) have one
//! operand whose contracted elements sit in an NHWC tensor where they are,
//! and one whose *other* axis — filters, or patch columns — is contiguous in
//! memory; a dense layer's forward and weight gradient are those of a 1×1
//! convolution over one-pixel images (see [`mod@crate::matmul`]) and run
//! through the same functions. So one kernel serves them all: a tile of `R`
//! accumulator rows × `V` vectors (eight lanes, or sixteen on
//! [`KernelKind::Avx512Fma`]), and per contraction step one scalar
//! **broadcast** per row, read in place from the tensor, fused into the
//! row's vectors against `V` vector loads of the other operand:
//!
//! ```text
//! acc[r][v] = fma(bcast a[a_off[r] + steps[t]], b[t·sb + L·v ..], acc[r][v])
//! ```
//!
//! Nothing is packed, staged or transposed. Where step `t` finds its scalar
//! is a table the caller fills once per panel and every tile of the panel
//! shares, so the step loop is flat — no image-row or kernel-row boundaries
//! inside it. `a` is only ever read one scalar at a time; how much of a `b`
//! row must be readable is [`b_row_len`]'s answer, per kind.
//!
//! **Tile shapes.** 8×1, 6×2 or 3×3 (rows × vectors), picked from the vector
//! count so it divides evenly: 8–12 independent FMA chains cover the FMA
//! latency, and accumulators + `V` operand vectors + one broadcast fit the
//! 16 ymm registers (a 4×3 tile spills on every step). The zmm tile keeps
//! the shapes, at 16 lanes twice the elements: of the taller ones its 32
//! registers would hold, 12×1 and 16×1 read ~10 % faster than 8×1 on an
//! `f = 16` forward probe and nothing on the Cifar10 search end to end, 8×2
//! read like 6×2, and 12×2 was slower (twelve row pointers spill).
//!
//! **Ragged edges.** The ymm tile reads and writes whole vectors: callers pad
//! `b`'s rows to a multiple of [`LANES`], and a chunk with a ragged last
//! vector or a short last tile goes through a stack copy of the tile. The zmm
//! tile needs neither: every `b` load and every `c` load and store is under a
//! lane mask built from `lanes`, so nothing past a row's `lanes` elements is
//! touched, and rows past `rows` point at a stack dummy. A vector dimension of
//! at most eight lanes stays on the ymm tile even where AVX-512 is selected
//! ([`tile_kind`]): a half-masked zmm measured slower than a full ymm there.
//!
//! **Bits.** A lane is one output element's chain: steps ascending, one
//! multiply-add per step, fused or not exactly as the GEMM micro-kernel of
//! the same [`KernelKind`] fuses, started from `+0.0` and stored or added
//! into `c` as a `KC` panel ([`Mode::Store`], [`Mode::Add`]), or picked up
//! from `c` where the last strip left it ([`Mode::Extend`]: the undivided
//! chain of the small-problem loop). That is the contraction
//! [`mod@crate::matmul`] pins, so which tile, strip or thread an element lands
//! in is never part of its value.

use crate::matmul::KernelKind;

/// Lanes of one accumulator vector (a ymm register, or what the portable
/// loop treats as one).
pub(crate) const LANES: usize = 8;

/// Lanes of one zmm accumulator vector.
const ZMM_LANES: usize = 16;

/// Tallest tile: callers size their per-row offset arrays with it.
pub(crate) const MAX_TILE_ROWS: usize = 8;

/// Lanes of `kernel`'s accumulator vectors.
fn vector_lanes(kernel: KernelKind) -> usize {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512Fma => ZMM_LANES,
        _ => LANES,
    }
}

/// The kind whose tile runs a vector dimension of `lanes` elements when the
/// process selected `kernel`: `kernel` itself, except that AVX-512 hands
/// eight lanes or fewer to the ymm tile — a zmm with half its lanes masked
/// off is slower than a whole ymm. A choice of width, never of a value.
pub(crate) fn tile_kind(kernel: KernelKind, lanes: usize) -> KernelKind {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512Fma if lanes <= LANES => KernelKind::Avx2Fma,
        _ => kernel,
    }
}

/// How many elements of each `b` row `kernel`'s tile reads for a vector
/// dimension of `lanes`: the lanes alone where loads are masked, else the
/// whole vectors they round up to (callers pad `b`'s rows to that).
pub(crate) fn b_row_len(kernel: KernelKind, lanes: usize) -> usize {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512Fma => lanes,
        _ => lanes.next_multiple_of(LANES),
    }
}

/// Rows of `kernel`'s tile for a vector dimension of `lanes` elements.
pub(crate) fn tile_rows(kernel: KernelKind, lanes: usize) -> usize {
    let nv = lanes.div_ceil(vector_lanes(kernel));
    if nv.is_multiple_of(3) {
        3
    } else if nv.is_multiple_of(2) {
        6
    } else {
        8
    }
}

/// How a strip's chains begin and end in `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Start from zero, store: a contraction's first panel.
    Store,
    /// Start from zero, add to `c`: a later panel, combined in panel order.
    Add,
    /// Start from `c`, store: the same chain, continued.
    Extend,
}

/// One run of contraction steps, shared by every tile that takes them.
pub(crate) struct Strip<'a> {
    /// The broadcast operand, read in place.
    pub(crate) a: &'a [f32],
    /// Step `t` reads `a[a_off[r] + steps[t]]` for tile row `r`.
    pub(crate) steps: &'a [u32],
    /// The vector operand from the first step on: step `t` reads
    /// [`b_row_len`] elements from `b[t·sb]`.
    pub(crate) b: &'a [f32],
    pub(crate) sb: usize,
    /// Width of the vector dimension (elements of a `c` row).
    pub(crate) lanes: usize,
    pub(crate) mode: Mode,
}

/// Run `strip` for one tile: accumulator row `r < rows` contracts the
/// broadcast operand from `a_off[r]` and lands in
/// `c[c_off[r] .. c_off[r] + strip.lanes]`. Both offset slices hold
/// [`tile_rows`]`(kernel, strip.lanes)` entries; a short tile (`rows` below that)
/// repeats a valid `a_off` in the unused rows, whose sums are dropped.
pub(crate) fn strip(
    kernel: KernelKind,
    s: &Strip,
    a_off: &[usize],
    rows: usize,
    c: &mut [f32],
    c_off: &[usize],
) {
    match tile_rows(kernel, s.lanes) {
        3 => strip_tile::<3, 3>(kernel, s, a_off, rows, c, c_off),
        6 => strip_tile::<6, 2>(kernel, s, a_off, rows, c, c_off),
        _ => strip_tile::<8, 1>(kernel, s, a_off, rows, c, c_off),
    }
}

fn strip_tile<const R: usize, const V: usize>(
    kernel: KernelKind,
    s: &Strip,
    a_off: &[usize],
    rows: usize,
    c: &mut [f32],
    c_off: &[usize],
) {
    let a_off: &[usize; R] = a_off[..R].try_into().expect("sliced to R");
    let c_off: &[usize; R] = c_off[..R].try_into().expect("sliced to R");
    // Everything the unchecked kernels rely on and do not check per step:
    // whole tiles of vectors, a `b` readable as far as the kind reads it
    // (`lanes` exactly where loads are masked), in-bounds `c` rows.
    let nv = s.lanes.div_ceil(vector_lanes(kernel));
    assert!(rows <= R && nv.is_multiple_of(V) && !s.steps.is_empty());
    assert!((s.steps.len() - 1) * s.sb + b_row_len(kernel, s.lanes) <= s.b.len());
    assert!(c_off[..rows].iter().all(|&at| at + s.lanes <= c.len()));
    match kernel {
        KernelKind::Scalar => {
            strip_generic::<{ cfg!(target_feature = "fma") }, R, V>(s, a_off, rows, c, c_off)
        }
        // SAFETY: the dispatch table only selects these kinds after
        // `is_x86_feature_detected!` confirmed the features (tests gate the
        // same way); the asserts above are the bounds `strip_avx2` and
        // `strip_avx512` name.
        #[cfg(target_arch = "x86_64")]
        KernelKind::ScalarFma => unsafe { strip_scalar_fma::<R, V>(s, a_off, rows, c, c_off) },
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { strip_avx2::<R, V>(s, a_off, rows, c, c_off) },
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512Fma => unsafe { strip_avx512::<R, V>(s, a_off, rows, c, c_off) },
    }
}

/// The portable tile loop; `FUSED` pins the per-step rounding like
/// `matmul`'s generic micro-kernel. The lane loops have fixed trip counts,
/// so they vectorise against whatever the enclosing function may use.
#[inline(always)]
fn strip_generic<const FUSED: bool, const R: usize, const V: usize>(
    s: &Strip,
    a_off: &[usize; R],
    rows: usize,
    c: &mut [f32],
    c_off: &[usize; R],
) {
    for v0 in (0..s.lanes.div_ceil(LANES)).step_by(V) {
        // The lanes of `c` row `r` under accumulator vector `v`.
        let span = |r: usize, v: usize| {
            let lane0 = (v0 + v) * LANES;
            c_off[r] + lane0..c_off[r] + s.lanes.min(lane0 + LANES)
        };
        let mut acc = [[[0.0f32; LANES]; V]; R];
        if s.mode == Mode::Extend {
            for (r, acc) in acc.iter_mut().enumerate().take(rows) {
                for (v, acc) in acc.iter_mut().enumerate() {
                    let row = &c[span(r, v)];
                    acc[..row.len()].copy_from_slice(row);
                }
            }
        }
        for (t, &step) in s.steps.iter().enumerate() {
            // A step's operands in fixed-size arrays and the tile in
            // fixed-trip index loops: LLVM keeps every shape in registers
            // this way, where iterator chains left the 3×3 and 8×1 tiles
            // scalar (7–16× slower on `ScalarFma`).
            let b: [[f32; LANES]; V] = std::array::from_fn(|v| {
                s.b[t * s.sb + (v0 + v) * LANES..][..LANES].try_into().expect("LANES elements")
            });
            let x: [f32; R] = std::array::from_fn(|r| s.a[a_off[r] + step as usize]);
            for r in 0..R {
                for v in 0..V {
                    for l in 0..LANES {
                        let o = &mut acc[r][v][l];
                        *o = if FUSED { x[r].mul_add(b[v][l], *o) } else { x[r] * b[v][l] + *o };
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate().take(rows) {
            for (v, acc) in acc.iter().enumerate() {
                let row = &mut c[span(r, v)];
                if s.mode == Mode::Add {
                    row.iter_mut().zip(acc).for_each(|(o, &p)| *o += p);
                } else {
                    row.copy_from_slice(&acc[..row.len()]);
                }
            }
        }
    }
}

/// The generic tile loop compiled with hardware FMA for this one function;
/// bit-identical to [`strip_avx2`] by the pinned contraction order.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("fma")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn strip_scalar_fma<const R: usize, const V: usize>(
    s: &Strip,
    a_off: &[usize; R],
    rows: usize,
    c: &mut [f32],
    c_off: &[usize; R],
) {
    strip_generic::<true, R, V>(s, a_off, rows, c, c_off)
}

/// What a register tile reads: the broadcast rows `a[r]`, each readable
/// for `reach` elements, the strip's step table, and the vector operand from
/// the tile's first lane of the first step on, one step's row `sb` further
/// per step.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Operands<'s, const R: usize> {
    a: [*const f32; R],
    reach: usize,
    steps: &'s [u32],
    b: *const f32,
    sb: usize,
}

/// The AVX2+FMA strip: every `V`-vector chunk of the tile's rows goes
/// through [`tile_avx2`], straight into `c` where the chunk is all whole
/// vectors of a full tile, by way of a stack copy of the tile where it is
/// ragged (the last vector of a row, the last rows of a product).
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx2")` and
/// `("fma")`, and that `s.lanes.div_ceil(LANES)` is a multiple of `V`, every
/// step's `b` row holds that many whole vectors, `rows <= R`, and
/// `c[c_off[r]..][..s.lanes]` is in bounds for every `r < rows` (the asserts
/// in `strip_tile`). Reads of `a` are checked in `tile_avx2`, step by step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn strip_avx2<const R: usize, const V: usize>(
    s: &Strip,
    a_off: &[usize; R],
    rows: usize,
    c: &mut [f32],
    c_off: &[usize; R],
) {
    let a: [*const f32; R] = std::array::from_fn(|r| s.a.as_ptr().wrapping_add(a_off[r]));
    // A step may reach this far past a row's start.
    let reach = s.a.len().saturating_sub(a_off.iter().copied().max().unwrap_or(0));
    for v0 in (0..s.lanes.div_ceil(LANES)).step_by(V) {
        let lane0 = v0 * LANES;
        let ops = Operands { a, reach, steps: s.steps, b: s.b.as_ptr().add(lane0), sb: s.sb };
        // SAFETY (both calls): `reach` is what is left of `s.a` past the
        // farthest row start, `b` holds `V` whole vectors per step from
        // `lane0` on (caller's contract), and `to` points at `V` whole
        // vectors — of every row of `c` here (`rows == R`, each row in bounds
        // for `s.lanes >= lane0 + V·LANES` elements), of `tile` below.
        if rows == R && lane0 + V * LANES <= s.lanes {
            let to: [*mut f32; R] = std::array::from_fn(|r| c.as_mut_ptr().add(c_off[r] + lane0));
            tile_avx2::<R, V>(&ops, &to, s.mode);
            continue;
        }
        // The lanes of this chunk that exist in a row of `c`.
        let live = (s.lanes - lane0).min(V * LANES);
        let mut tile = [[[0.0f32; LANES]; V]; R];
        if s.mode == Mode::Extend {
            for (row, &at) in tile.iter_mut().zip(c_off).take(rows) {
                row.as_flattened_mut()[..live].copy_from_slice(&c[at + lane0..][..live]);
            }
        }
        let to: [*mut f32; R] = std::array::from_fn(|r| tile[r].as_mut_ptr().cast());
        let mode = if s.mode == Mode::Add { Mode::Store } else { s.mode };
        tile_avx2::<R, V>(&ops, &to, mode);
        for (row, &at) in tile.iter().zip(c_off).take(rows) {
            let (row, to) = (&row.as_flattened()[..live], &mut c[at + lane0..][..live]);
            if s.mode == Mode::Add {
                to.iter_mut().zip(row).for_each(|(o, &p)| *o += p);
            } else {
                to.copy_from_slice(row);
            }
        }
    }
}

/// One `R × V` register tile, start to finish: per step `V` loads of `b`,
/// then per row one `vbroadcastss` from `a` and `V` `vfmadd`s into the row's
/// accumulators — `R·V` independent chains that never leave the registers.
/// Out of line on purpose: on its own the step loop needs `R` row pointers
/// and five more integers, which fit the general registers; inlined among a
/// strip's bookkeeping the row pointers spill.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx2")` and
/// `("fma")`; `o.a[r]` must be readable for `o.reach` elements, `o.b` for `V`
/// vectors at every multiple of `o.sb` below `o.steps.len() · o.sb`, and
/// `c[r]` readable and writable for `V` vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
unsafe fn tile_avx2<const R: usize, const V: usize>(
    o: &Operands<R>,
    c: &[*mut f32; R],
    mode: Mode,
) {
    use std::arch::x86_64::*;
    let Operands { a, reach, steps, mut b, sb } = *o;
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    if mode == Mode::Extend {
        for (acc, &from) in acc.iter_mut().zip(c) {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_loadu_ps(from.add(v * LANES));
            }
        }
    }
    for &step in steps {
        let step = step as usize;
        assert!(step < reach, "contraction step outside the broadcast operand");
        let bv: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(b.add(v * LANES)));
        for r in 0..R {
            let x = _mm256_broadcast_ss(&*a[r].add(step));
            for v in 0..V {
                acc[r][v] = _mm256_fmadd_ps(x, bv[v], acc[r][v]);
            }
        }
        b = b.add(sb);
    }
    for (acc, &to) in acc.iter().zip(c) {
        for (v, &sum) in acc.iter().enumerate() {
            let to = to.add(v * LANES);
            let sum = if mode == Mode::Add { _mm256_add_ps(_mm256_loadu_ps(to), sum) } else { sum };
            _mm256_storeu_ps(to, sum);
        }
    }
}

/// The AVX-512 strip: every `V`-vector chunk of the tile's rows goes through
/// [`tile_avx512`] straight into `c`, whole or ragged — each vector of the
/// chunk carries the mask of the lanes it has below `s.lanes`, and a row past
/// `rows` lands in a stack dummy.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx512f")`, and that
/// `s.lanes.div_ceil(ZMM_LANES)` is a multiple of `V`, every step's `b` row
/// holds `s.lanes` elements, `rows <= R`, and `c[c_off[r]..][..s.lanes]` is
/// in bounds for every `r < rows` (the asserts in `strip_tile`). Reads of `a`
/// are checked in `tile_avx512`, step by step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strip_avx512<const R: usize, const V: usize>(
    s: &Strip,
    a_off: &[usize; R],
    rows: usize,
    c: &mut [f32],
    c_off: &[usize; R],
) {
    let a: [*const f32; R] = std::array::from_fn(|r| s.a.as_ptr().wrapping_add(a_off[r]));
    // A step may reach this far past a row's start.
    let reach = s.a.len().saturating_sub(a_off.iter().copied().max().unwrap_or(0));
    // Where the sums of rows past `rows` go.
    let mut dummy = [[0.0f32; ZMM_LANES]; V];
    for lane0 in (0..s.lanes).step_by(V * ZMM_LANES) {
        // Vector `v` of the chunk holds lanes `lane0 + 16v ..` of a row: all
        // sixteen, or as many as the row has left (at least one, since
        // `strip_tile` asserted the vector count is a multiple of `V`).
        let masks: [u16; V] = std::array::from_fn(|v| {
            let live = (s.lanes - lane0 - v * ZMM_LANES).min(ZMM_LANES);
            (u16::MAX) >> (ZMM_LANES - live)
        });
        // SAFETY: `lane0 < s.lanes`, so `b` points into the first step's row
        // and `to[r]` into row `r` of `c` (in bounds for `s.lanes` elements
        // from `c_off[r]`, caller's contract) or at `dummy` (`V` whole
        // vectors); `masks` admit no lane at or past `s.lanes` of either, and
        // `reach` is what is left of `s.a` past the farthest row start.
        let to: [*mut f32; R] = std::array::from_fn(|r| {
            if r < rows {
                c.as_mut_ptr().add(c_off[r] + lane0)
            } else {
                dummy.as_mut_ptr().cast()
            }
        });
        let ops = Operands { a, reach, steps: s.steps, b: s.b.as_ptr().add(lane0), sb: s.sb };
        tile_avx512::<R, V>(&ops, &to, &masks, s.mode);
    }
}

/// [`tile_avx2`] at sixteen lanes, every vector access masked: per step `V`
/// masked loads of `b`, then per row `V` `vfmadd231ps` with the scalar from
/// `a` as their embedded-broadcast memory operand (`{1to16}`) — `R·V`
/// independent chains in registers. A masked-off lane is never read or
/// written in memory; in the registers it contracts `b = 0` and is dropped.
/// Out of line for the reason `tile_avx2` is.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx512f")`; `o.a[r]`
/// must be readable for `o.reach` elements; for every `v < V`, the lanes
/// `masks[v]` admits must be readable at `o.b + 16v` at every multiple of
/// `o.sb` below `o.steps.len() · o.sb`, and readable and writable at
/// `c[r] + 16v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
unsafe fn tile_avx512<const R: usize, const V: usize>(
    o: &Operands<R>,
    c: &[*mut f32; R],
    masks: &[u16; V],
    mode: Mode,
) {
    use std::arch::x86_64::*;
    let (Operands { a, reach, steps, mut b, sb }, masks) = (*o, *masks);
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    if mode == Mode::Extend {
        for (acc, &from) in acc.iter_mut().zip(c) {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm512_maskz_loadu_ps(masks[v], from.add(v * ZMM_LANES));
            }
        }
    }
    for &step in steps {
        let step = step as usize;
        assert!(step < reach, "contraction step outside the broadcast operand");
        let bv: [__m512; V] =
            std::array::from_fn(|v| _mm512_maskz_loadu_ps(masks[v], b.add(v * ZMM_LANES)));
        for r in 0..R {
            let x = _mm512_set1_ps(*a[r].add(step));
            for v in 0..V {
                acc[r][v] = _mm512_fmadd_ps(x, bv[v], acc[r][v]);
            }
        }
        b = b.add(sb);
    }
    for (acc, &to) in acc.iter().zip(c) {
        for (v, &sum) in acc.iter().enumerate() {
            let to = to.add(v * ZMM_LANES);
            let sum = if mode == Mode::Add {
                _mm512_add_ps(_mm512_maskz_loadu_ps(masks[v], to), sum)
            } else {
                sum
            };
            _mm512_mask_storeu_ps(to, masks[v], sum);
        }
    }
}

/// `dst[i] += src[i]`: how a finished `dCol` run joins `d_input`. `kernel`
/// picks the vector width of the loop, never a value.
pub(crate) fn add_assign(kernel: KernelKind, dst: &mut [f32], src: &[f32]) {
    #[inline(always)]
    fn add(dst: &mut [f32], src: &[f32]) {
        dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v);
    }
    /// # Safety
    /// Caller must have verified `is_x86_feature_detected!("avx")`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn add_avx(dst: &mut [f32], src: &[f32]) {
        add(dst, src)
    }
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx() {
        // SAFETY: an AVX kind is only selected after feature detection.
        return unsafe { add_avx(dst, src) };
    }
    add(dst, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::available_kernels;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    /// Every kind's tile on operands cut to exactly what it may touch: `b`
    /// ends at the last step's [`b_row_len`] (the row's `lanes` under masked
    /// loads), and each `c` row is followed directly by a sentinel. All lane
    /// counts through three zmm vectors, every short tile, every [`Mode`]:
    /// the sums are the per-element chain's bits, and no sentinel moves.
    #[test]
    fn tiles_touch_nothing_past_a_rows_lanes() {
        const STEPS: usize = 5;
        let sentinel = f32::from_bits(0x7fc0_dead);
        let mut rng = Rng::seed(0xBC);
        let mut random = |len: usize| Tensor::rand_normal([len], 0.0, 1.0, &mut rng).into_vec();
        for kernel in available_kernels() {
            let fused = kernel != KernelKind::Scalar || cfg!(target_feature = "fma");
            for lanes in 1..=49 {
                let tile = tile_rows(kernel, lanes);
                // Rows of `a` overlap, as patches do; the table skips about.
                let a = random(tile + 2 * STEPS);
                let steps: [u32; STEPS] = [0, 2, 3, 7, 2 * STEPS as u32 - 1];
                let a_off: Vec<usize> = (0..tile).collect();
                let sb = lanes + 3;
                let b = random((STEPS - 1) * sb + b_row_len(kernel, lanes));
                let c_off: Vec<usize> = (0..tile).map(|r| r * (lanes + 1)).collect();
                for rows in 1..=tile {
                    for mode in [Mode::Store, Mode::Add, Mode::Extend] {
                        let mut c = random(tile * (lanes + 1));
                        c_off.iter().for_each(|&at| c[at + lanes] = sentinel);
                        let before = c.clone();
                        let s = Strip { a: &a, steps: &steps, b: &b, sb, lanes, mode };
                        strip(kernel, &s, &a_off, rows, &mut c, &c_off);
                        for r in 0..tile {
                            let what =
                                format!("{kernel:?} lanes {lanes} rows {rows} {mode:?} r{r}");
                            let at = c_off[r];
                            assert_eq!(c[at + lanes].to_bits(), sentinel.to_bits(), "{what}");
                            for l in 0..lanes {
                                let start = if mode == Mode::Extend { before[at + l] } else { 0.0 };
                                let sum = steps.iter().enumerate().fold(start, |acc, (t, &st)| {
                                    let (x, y) = (a[a_off[r] + st as usize], b[t * sb + l]);
                                    if fused {
                                        x.mul_add(y, acc)
                                    } else {
                                        x * y + acc
                                    }
                                });
                                let want = match mode {
                                    _ if r >= rows => before[at + l],
                                    Mode::Add => before[at + l] + sum,
                                    _ => sum,
                                };
                                assert_eq!(c[at + l].to_bits(), want.to_bits(), "{what} lane {l}");
                            }
                        }
                    }
                }
            }
        }
    }
}
