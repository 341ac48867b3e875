//! Ocean: red-black Gauss–Seidel relaxation on a row-partitioned grid.
//!
//! The SPLASH-2 Ocean kernel's defining communication pattern is
//! nearest-neighbour: each processor owns a contiguous band of grid rows and
//! exchanges boundary rows with the bands above and below every sweep. With
//! the home-placement optimization (used for Ocean throughout the paper)
//! each band is homed at its owner, so all misses are boundary-row misses —
//! which is why Ocean shows the largest clustering gains in Figure 4: with
//! four processors per node, three of every four band boundaries become
//! intra-node.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};

use crate::driver::{assert_close, chunk, Body, DsmApp, PlanOpts, Preset};

/// Cycles charged per cell update (one 5-point stencil evaluation).
const STENCIL_CYCLES: u64 = 150;

/// The Ocean kernel.
#[derive(Clone, Debug)]
pub struct Ocean {
    /// Grid dimension including the fixed border (paper: 514, i.e. 512+2).
    n: usize,
    iters: usize,
    init: Rc<Vec<f64>>,
}

impl Ocean {
    /// Builds the kernel at a preset. Ocean has no Table 2 hints; the flag
    /// is accepted for registry uniformity.
    pub fn new(preset: Preset, _variable_granularity: bool) -> Self {
        let (n, iters) = match preset {
            Preset::Tiny => (18, 4),
            Preset::Default => (130, 12),
            Preset::Large => (258, 12),
        };
        let mut rng = shasta_sim::SplitMix64::new(0xC0FFEE + n as u64);
        let init: Vec<f64> = (0..n * n).map(|_| rng.range_f64(0.0, 1.0)).collect();
        Ocean { n, iters, init: Rc::new(init) }
    }

    /// Native reference: identical sweep order to the parallel kernel.
    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let mut g = self.init.as_ref().clone();
        for _ in 0..self.iters {
            for color in 0..2usize {
                let mut next = g.clone();
                for r in 1..n - 1 {
                    for c in 1..n - 1 {
                        if (r + c) % 2 == color {
                            next[r * n + c] = 0.25
                                * (g[(r - 1) * n + c]
                                    + g[(r + 1) * n + c]
                                    + g[r * n + c - 1]
                                    + g[r * n + c + 1]);
                        }
                    }
                }
                g = next;
            }
        }
        g
    }
}

impl DsmApp for Ocean {
    fn name(&self) -> &'static str {
        "Ocean"
    }

    fn heap_bytes(&self) -> u64 {
        (self.n * self.n * 8) as u64 * 2 + (1 << 20)
    }

    fn home_placement(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        (185, 245)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let n = self.n;
        let iters = self.iters;
        let procs = opts.procs;
        let row_bytes = (n * 8) as u64;
        // Interior rows 1..n-1 are banded over processors; border rows 0 and
        // n-1 live with the first/last band. Each band is its own
        // allocation, homed at its owner (home placement optimization).
        let interior = n - 2;
        let mut row_addr = vec![0u64; n];
        for p in 0..procs {
            let rows = chunk(interior, procs, p);
            let mut band: Vec<usize> = rows.map(|r| r + 1).collect();
            if p == 0 {
                band.insert(0, 0);
            }
            if p == procs - 1 {
                band.push(n - 1);
            }
            if band.is_empty() {
                continue;
            }
            let base = s.malloc_labeled(
                row_bytes * band.len() as u64,
                BlockHint::Line,
                HomeHint::Explicit(p),
                "ocean.grid",
            );
            for (i, &r) in band.iter().enumerate() {
                row_addr[r] = base + i as u64 * row_bytes;
                s.write_f64s(row_addr[r], &self.init[r * n..(r + 1) * n]);
            }
        }
        let row_addr = Rc::new(row_addr);

        let expected = opts.validate.then(|| Rc::new(self.reference()));

        (0..procs)
            .map(|p| {
                let row_addr = Rc::clone(&row_addr);
                let expected = expected.clone();
                let my_rows: Vec<usize> = chunk(interior, procs, p).map(|r| r + 1).collect();
                Box::new(move |mut dsm: Dsm| {
                    // The halo plus own band, one row after another, and
                    // the row being computed.
                    let mut band = vec![0.0f64; (my_rows.len() + 2) * n];
                    let mut new_row = vec![0.0f64; n];
                    let mut barrier = 0u32;
                    for _ in 0..iters {
                        for color in 0..2usize {
                            // Read the halo plus own band, compute, write back.
                            if let (Some(&lo), Some(&hi)) = (my_rows.first(), my_rows.last()) {
                                for (r, row) in (lo - 1..=hi + 1).zip(band.chunks_exact_mut(n)) {
                                    dsm.read_f64s_into(row_addr[r], row);
                                }
                                for (i, &r) in my_rows.iter().enumerate() {
                                    // Row r is band row i + 1, between rows i and i + 2.
                                    let row = |k: usize| &band[k * n..(k + 1) * n];
                                    let (up, mid, down) = (row(i), row(i + 1), row(i + 2));
                                    new_row.copy_from_slice(mid);
                                    dsm.compute(STENCIL_CYCLES * (n as u64 - 2) / 2);
                                    for c in 1..n - 1 {
                                        if (r + c) % 2 == color {
                                            new_row[c] =
                                                0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
                                        }
                                    }
                                    dsm.write_f64s(row_addr[r], &new_row);
                                }
                            }
                            dsm.barrier(barrier);
                            barrier += 1;
                        }
                    }
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = vec![0.0f64; n * n];
                            for (r, row) in got.chunks_exact_mut(n).enumerate() {
                                dsm.read_f64s_into(row_addr[r], row);
                            }
                            assert_close("Ocean", &got, &expected, 1e-9);
                        }
                    }
                    dsm.barrier(u32::MAX);
                }) as Body
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_relaxation_smooths() {
        let o = Ocean::new(Preset::Tiny, false);
        let out = o.reference();
        let n = o.n;
        // Interior variance decreases under relaxation.
        let var = |g: &[f64]| {
            let vals: Vec<f64> =
                (1..n - 1).flat_map(|r| (1..n - 1).map(move |c| g[r * n + c])).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64
        };
        assert!(var(&out) < var(&o.init));
    }
}
