//! LU and LU-Contig: blocked dense LU factorization without pivoting.
//!
//! The SPLASH-2 pair differs only in data layout, which is exactly what the
//! paper uses them for:
//!
//! * **LU** keeps the matrix in one row-major array, so a B×B block's rows
//!   are strided and share 64-byte lines with neighbouring blocks — heavy
//!   false sharing at fine granularity (Table 2 raises its block size to
//!   128 bytes).
//! * **LU-Contig** allocates every B×B block contiguously (2 KB), each homed
//!   at its owning processor (the home-placement optimization), and Table 2
//!   raises the coherence granularity to the whole 2 KB block.
//!
//! Blocks are assigned to processors in a 2-D scatter; each step factors the
//! diagonal block, updates the perimeter, then the interior, with barriers
//! between phases.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{Addr, BlockHint, HomeHint};

use crate::driver::{assert_close, Body, DsmApp, PlanOpts, Preset};

/// Cycles charged per fused multiply-add in the block kernels.
///
/// Deliberately above the hardware's ~1 cycle: the simulator runs scaled-
/// down matrices (256² instead of the paper's 1024²), so per-flop weight is
/// raised to restore the paper's compute-to-communication ratio (see
/// EXPERIMENTS.md, "problem-size scaling").
const FMA_CYCLES: u64 = 40;

/// Block placement: either one row-major array or per-block allocations.
#[derive(Clone, Debug)]
enum Layout {
    /// Row-major `n × n` array at `base`.
    RowMajor { base: Addr },
    /// One allocation per block, indexed `[bi * nb + bj]`.
    Blocked { blocks: Rc<Vec<Addr>> },
}

/// The LU kernel (both layouts).
#[derive(Clone, Debug)]
pub struct Lu {
    n: usize,
    b: usize,
    contig: bool,
    /// Table 2 granularity hints requested at construction.
    pub(crate) vg_hint: bool,
    init: Rc<Vec<f64>>,
}

impl Lu {
    /// Row-major (false-sharing) variant, the paper's "LU".
    pub fn new(preset: Preset, variable_granularity: bool) -> Self {
        Self::build(preset, false, variable_granularity)
    }

    fn build(preset: Preset, contig: bool, vg_hint: bool) -> Self {
        // All presets share the panel size `b`: profile-guided hinting
        // (advisor_sweep) profiles on Tiny and replays on Default/Large, so
        // the ownership structure within a coherence block — which is set
        // by `b`, not `n` — must be representative across presets.
        let (n, b) = match preset {
            Preset::Tiny => (64, 16),
            Preset::Default => (256, 16),
            Preset::Large => (384, 16),
        };
        let init = Rc::new(gen_matrix(n));
        Lu { n, b, contig, vg_hint, init }
    }

    fn nb(&self) -> usize {
        self.n / self.b
    }

    /// 2-D scatter owner of block `(bi, bj)`.
    fn owner(&self, procs: u32, bi: usize, bj: usize) -> u32 {
        let pr = (procs as f64).sqrt() as u32;
        let pr = (1..=pr).rev().find(|d| procs.is_multiple_of(*d)).unwrap_or(1);
        let pc = procs / pr;
        ((bi as u32 % pr) * pc) + (bj as u32 % pc)
    }
}

/// Deterministic diagonally dominant test matrix.
fn gen_matrix(n: usize) -> Vec<f64> {
    let mut rng = shasta_sim::SplitMix64::new(0x1u64 + n as u64);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = rng.range_f64(-1.0, 1.0);
        }
        a[i * n + i] += n as f64;
    }
    a
}

/// Native blocked LU, identical operation order to the parallel kernel.
fn reference_lu(a: &mut [f64], n: usize, b: usize) {
    let nb = n / b;
    let get = |a: &[f64], bi: usize, bj: usize| -> Vec<f64> {
        let mut out = vec![0.0; b * b];
        for r in 0..b {
            out[r * b..r * b + b]
                .copy_from_slice(&a[(bi * b + r) * n + bj * b..(bi * b + r) * n + bj * b + b]);
        }
        out
    };
    let put = |a: &mut [f64], bi: usize, bj: usize, blk: &[f64]| {
        for r in 0..b {
            a[(bi * b + r) * n + bj * b..(bi * b + r) * n + bj * b + b]
                .copy_from_slice(&blk[r * b..r * b + b]);
        }
    };
    for k in 0..nb {
        let mut diag = get(a, k, k);
        factor_block(&mut diag, b);
        put(a, k, k, &diag);
        for j in k + 1..nb {
            let mut blk = get(a, k, j);
            solve_lower(&diag, &mut blk, b);
            put(a, k, j, &blk);
        }
        for i in k + 1..nb {
            let mut blk = get(a, i, k);
            solve_upper(&diag, &mut blk, b);
            put(a, i, k, &blk);
        }
        for i in k + 1..nb {
            let lik = get(a, i, k);
            for j in k + 1..nb {
                let ukj = get(a, k, j);
                let mut aij = get(a, i, j);
                gemm_sub(&mut aij, &lik, &ukj, b);
                put(a, i, j, &aij);
            }
        }
    }
}

/// In-place LU of a B×B block (no pivoting).
fn factor_block(d: &mut [f64], b: usize) {
    for k in 0..b {
        let pivot = d[k * b + k];
        for i in k + 1..b {
            d[i * b + k] /= pivot;
            for j in k + 1..b {
                d[i * b + j] -= d[i * b + k] * d[k * b + j];
            }
        }
    }
}

/// Solves `L(diag) * X = blk` in place (row-panel update).
fn solve_lower(diag: &[f64], blk: &mut [f64], b: usize) {
    for j in 0..b {
        for i in 0..b {
            let mut x = blk[i * b + j];
            for t in 0..i {
                x -= diag[i * b + t] * blk[t * b + j];
            }
            blk[i * b + j] = x;
        }
    }
}

/// Solves `X * U(diag) = blk` in place (column-panel update).
fn solve_upper(diag: &[f64], blk: &mut [f64], b: usize) {
    for i in 0..b {
        for j in 0..b {
            let mut x = blk[i * b + j];
            for t in 0..j {
                x -= blk[i * b + t] * diag[t * b + j];
            }
            blk[i * b + j] = x / diag[j * b + j];
        }
    }
}

/// `aij -= lik * ukj`.
fn gemm_sub(aij: &mut [f64], lik: &[f64], ukj: &[f64], b: usize) {
    for i in 0..b {
        for t in 0..b {
            let l = lik[i * b + t];
            for j in 0..b {
                aij[i * b + j] -= l * ukj[t * b + j];
            }
        }
    }
}

/// Reads block `(bi, bj)` through the DSM into `out` (`b * b` values).
#[allow(clippy::too_many_arguments)]
fn read_block(
    dsm: &mut Dsm,
    layout: &Layout,
    n: usize,
    b: usize,
    bi: usize,
    bj: usize,
    out: &mut [f64],
) {
    match layout {
        Layout::RowMajor { base } => {
            for (r, row) in out.chunks_exact_mut(b).enumerate() {
                let addr = base + (((bi * b + r) * n + bj * b) * 8) as u64;
                dsm.read_f64s_into(addr, row);
            }
        }
        Layout::Blocked { blocks } => {
            let nb = n / b;
            dsm.read_f64s_into(blocks[bi * nb + bj], out);
        }
    }
}

/// Writes block `(bi, bj)` through the DSM.
fn write_block(
    dsm: &mut Dsm,
    layout: &Layout,
    n: usize,
    b: usize,
    bi: usize,
    bj: usize,
    blk: &[f64],
) {
    match layout {
        Layout::RowMajor { base } => {
            for r in 0..b {
                let addr = base + (((bi * b + r) * n + bj * b) * 8) as u64;
                dsm.write_f64s(addr, &blk[r * b..r * b + b]);
            }
        }
        Layout::Blocked { blocks } => {
            let nb = n / b;
            dsm.write_f64s(blocks[bi * nb + bj], blk);
        }
    }
}

impl DsmApp for Lu {
    fn name(&self) -> &'static str {
        if self.contig {
            "LU-Contig"
        } else {
            "LU"
        }
    }

    fn heap_bytes(&self) -> u64 {
        (self.n * self.n * 8) as u64 * 2 + (1 << 20)
    }

    fn home_placement(&self) -> bool {
        self.contig
    }

    fn has_granularity_hints(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        if self.contig {
            (220, 290)
        } else {
            (210, 200)
        }
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let (n, b, nb) = (self.n, self.b, self.nb());
        // Table 2 hints: LU 128-byte blocks; LU-Contig whole 2 KB blocks.
        let use_vg = opts.variable_granularity || self.vg_hint;
        let layout = if self.contig {
            let hint = if use_vg { BlockHint::Bytes((b * b * 8) as u64) } else { BlockHint::Line };
            let mut blocks = Vec::with_capacity(nb * nb);
            for bi in 0..nb {
                for bj in 0..nb {
                    // Home placement: each block lives at its owner.
                    let home = HomeHint::Explicit(self.owner(opts.procs, bi, bj));
                    let addr = s.malloc_labeled((b * b * 8) as u64, hint, home, "lu.block");
                    let mut flat = vec![0.0f64; b * b];
                    for r in 0..b {
                        flat[r * b..r * b + b].copy_from_slice(
                            &self.init[(bi * b + r) * n + bj * b..(bi * b + r) * n + bj * b + b],
                        );
                    }
                    s.write_f64s(addr, &flat);
                    blocks.push(addr);
                }
            }
            Layout::Blocked { blocks: Rc::new(blocks) }
        } else {
            let hint = if use_vg { BlockHint::Bytes(128) } else { BlockHint::Line };
            let base =
                s.malloc_labeled((n * n * 8) as u64, hint, HomeHint::RoundRobin, "lu.matrix");
            s.write_f64s(base, &self.init);
            Layout::RowMajor { base }
        };

        let expected = if opts.validate {
            let mut a = self.init.as_ref().clone();
            reference_lu(&mut a, n, b);
            Some(Rc::new(a))
        } else {
            None
        };

        let app = self.clone();
        let procs = opts.procs;
        (0..procs)
            .map(|p| {
                let layout = layout.clone();
                let app = app.clone();
                let expected = expected.clone();
                Box::new(move |mut dsm: Dsm| {
                    // Every block read lands in one of these: the diagonal
                    // block, the row block `lik` of an interior row, and the
                    // block being updated (`ukj` beside it for the interior).
                    let mut diag = vec![0.0f64; b * b];
                    let mut lik = vec![0.0f64; b * b];
                    let mut ukj = vec![0.0f64; b * b];
                    let mut blk = vec![0.0f64; b * b];
                    let mut barrier = 0u32;
                    for k in 0..nb {
                        if app.owner(procs, k, k) == p {
                            read_block(&mut dsm, &layout, n, b, k, k, &mut blk);
                            dsm.compute(FMA_CYCLES * (b * b * b) as u64 / 3);
                            factor_block(&mut blk, b);
                            write_block(&mut dsm, &layout, n, b, k, k, &blk);
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                        // Perimeter: row k and column k panels, reading the
                        // diagonal block before the first of them.
                        let mut have_diag = false;
                        for j in k + 1..nb {
                            if app.owner(procs, k, j) == p {
                                if !have_diag {
                                    read_block(&mut dsm, &layout, n, b, k, k, &mut diag);
                                    have_diag = true;
                                }
                                read_block(&mut dsm, &layout, n, b, k, j, &mut blk);
                                dsm.compute(FMA_CYCLES * (b * b * b) as u64 / 2);
                                solve_lower(&diag, &mut blk, b);
                                write_block(&mut dsm, &layout, n, b, k, j, &blk);
                            }
                        }
                        for i in k + 1..nb {
                            if app.owner(procs, i, k) == p {
                                if !have_diag {
                                    read_block(&mut dsm, &layout, n, b, k, k, &mut diag);
                                    have_diag = true;
                                }
                                read_block(&mut dsm, &layout, n, b, i, k, &mut blk);
                                dsm.compute(FMA_CYCLES * (b * b * b) as u64 / 2);
                                solve_upper(&diag, &mut blk, b);
                                write_block(&mut dsm, &layout, n, b, i, k, &blk);
                            }
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                        // Interior updates, reading row i's `lik` before its
                        // first owned block.
                        for i in k + 1..nb {
                            let mut have_lik = false;
                            for j in k + 1..nb {
                                if app.owner(procs, i, j) == p {
                                    if !have_lik {
                                        read_block(&mut dsm, &layout, n, b, i, k, &mut lik);
                                        have_lik = true;
                                    }
                                    read_block(&mut dsm, &layout, n, b, k, j, &mut ukj);
                                    read_block(&mut dsm, &layout, n, b, i, j, &mut blk);
                                    dsm.compute(FMA_CYCLES * (b * b * b) as u64);
                                    gemm_sub(&mut blk, &lik, &ukj, b);
                                    write_block(&mut dsm, &layout, n, b, i, j, &blk);
                                }
                            }
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                    }
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = vec![0.0f64; n * n];
                            for bi in 0..nb {
                                for bj in 0..nb {
                                    read_block(&mut dsm, &layout, n, b, bi, bj, &mut blk);
                                    for r in 0..b {
                                        got[(bi * b + r) * n + bj * b
                                            ..(bi * b + r) * n + bj * b + b]
                                            .copy_from_slice(&blk[r * b..r * b + b]);
                                    }
                                }
                            }
                            assert_close("LU", &got, &expected, 1e-9);
                        }
                        dsm.barrier(u32::MAX);
                    } else {
                        dsm.barrier(u32::MAX);
                    }
                }) as Body
            })
            .collect()
    }
}

/// The contiguous-blocks variant, the paper's "LU-Contig".
#[derive(Clone, Debug)]
pub struct LuContig(Lu);

impl LuContig {
    /// Builds the contiguous-block LU at the given preset.
    pub fn new(preset: Preset, variable_granularity: bool) -> Self {
        LuContig(Lu::build(preset, true, variable_granularity))
    }
}

impl DsmApp for LuContig {
    fn name(&self) -> &'static str {
        "LU-Contig"
    }

    fn heap_bytes(&self) -> u64 {
        self.0.heap_bytes()
    }

    fn home_placement(&self) -> bool {
        true
    }

    fn has_granularity_hints(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        self.0.check_permille()
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        self.0.plan(s, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lu_factors_correctly() {
        // Verify L*U reproduces A for a small matrix.
        let n = 16;
        let b = 8;
        let a0 = gen_matrix(n);
        let mut a = a0.clone();
        reference_lu(&mut a, n, b);
        // Reconstruct A from the in-place LU factors.
        for i in 0..n {
            for j in 0..n {
                let kmax = i.min(j);
                let mut sum = 0.0;
                for k in 0..kmax {
                    sum += a[i * n + k] * a[k * n + j];
                }
                let val = if i <= j {
                    sum + a[i * n + j] // U entry, L has implicit 1 diagonal
                } else {
                    sum + a[i * n + j] * a[j * n + j]
                };
                assert!(
                    (val - a0[i * n + j]).abs() < 1e-6,
                    "A[{i}][{j}] reconstruction failed: {val} vs {}",
                    a0[i * n + j]
                );
            }
        }
    }

    #[test]
    fn owners_cover_all_processors() {
        let lu = Lu::new(Preset::Tiny, false);
        let nb = lu.nb();
        for procs in [1u32, 2, 4, 8, 16] {
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..nb {
                for j in 0..nb {
                    let o = lu.owner(procs, i, j);
                    assert!(o < procs);
                    seen.insert(o);
                }
            }
            assert_eq!(seen.len() as u32, procs.min((nb * nb) as u32));
        }
    }
}
