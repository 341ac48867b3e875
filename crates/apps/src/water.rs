#![allow(clippy::needless_range_loop)] // index loops mirror the SPLASH kernels

//! Water-Nsquared and Water-Spatial: molecular dynamics with migratory
//! per-molecule force accumulation.
//!
//! These two kernels are the paper's migratory-data stress: every processor
//! accumulates pair forces into shared per-molecule records under locks, so
//! records bounce between processors *within* a node before moving to
//! another node — exactly the pattern behind Figure 8's three-downgrade
//! spikes for the Water applications.
//!
//! * **Water-Nsq** evaluates all O(n²/2) pairs, block-partitioned.
//! * **Water-Sp** bins molecules into a cell grid and evaluates only pairs
//!   in the same or neighbouring cells, partitioned by cell.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{Addr, BlockHint, HomeHint};

use crate::driver::{assert_close, chunk, read_rec, Body, DsmApp, PlanOpts, Preset};

/// Molecule record: 3 position + 3 velocity + 3 force + padding = 16 f64
/// (128 bytes, two 64-byte lines).
const REC_F64: usize = 16;
const REC_BYTES: u64 = (REC_F64 * 8) as u64;

/// Cycles charged per pair interaction evaluation.
const PAIR_CYCLES: u64 = 700;
/// Cycles charged per molecule integration step.
const INTEGRATE_CYCLES: u64 = 60;

/// Interaction cutoff and box size for the synthetic potential.
const CUTOFF: f64 = 0.45;

#[derive(Clone, Debug)]
struct WaterCommon {
    n: usize,
    steps: usize,
    /// Initial positions in the unit box.
    pos: Rc<Vec<[f64; 3]>>,
    spatial: bool,
    /// Cell-grid dimension (spatial variant only).
    g: usize,
}

/// Soft short-range pair force between `a` and `b`, acting on `a`.
fn pair_force(a: [f64; 3], b: [f64; 3]) -> Option<[f64; 3]> {
    let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if !(1e-12..CUTOFF * CUTOFF).contains(&r2) {
        return None;
    }
    // Smooth repulsive kernel, bounded at r→0.
    let k = (CUTOFF * CUTOFF - r2) / (r2 + 0.01);
    Some([d[0] * k, d[1] * k, d[2] * k])
}

impl WaterCommon {
    fn new(preset: Preset, spatial: bool) -> Self {
        let (n, steps, g) = if spatial {
            match preset {
                Preset::Tiny => (64, 2, 2),
                Preset::Default => (512, 2, 4),
                Preset::Large => (1000, 2, 5),
            }
        } else {
            match preset {
                Preset::Tiny => (32, 2, 1),
                Preset::Default => (216, 2, 1),
                Preset::Large => (343, 2, 1),
            }
        };
        let mut rng = shasta_sim::SplitMix64::new(0x3A7E5 + n as u64);
        let pos: Vec<[f64; 3]> =
            (0..n).map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64()]).collect();
        WaterCommon { n, steps, pos: Rc::new(pos), spatial, g }
    }

    fn cell_of(&self, p: [f64; 3]) -> usize {
        let g = self.g;
        let clamp = |x: f64| ((x * g as f64) as usize).min(g - 1);
        (clamp(p[0]) * g + clamp(p[1])) * g + clamp(p[2])
    }

    /// Pairs evaluated by the spatial variant: same cell or neighbouring
    /// cell, each pair once.
    fn spatial_pairs(&self, cells: &[Vec<usize>]) -> Vec<(usize, usize)> {
        let g = self.g as isize;
        let mut pairs = Vec::new();
        for cx in 0..g {
            for cy in 0..g {
                for cz in 0..g {
                    let c = ((cx * g + cy) * g + cz) as usize;
                    for dx in -1..=1isize {
                        for dy in -1..=1isize {
                            for dz in -1..=1isize {
                                let (nx, ny, nz) = (cx + dx, cy + dy, cz + dz);
                                if !(0..g).contains(&nx)
                                    || !(0..g).contains(&ny)
                                    || !(0..g).contains(&nz)
                                {
                                    continue;
                                }
                                let nc = ((nx * g + ny) * g + nz) as usize;
                                if nc < c {
                                    continue;
                                }
                                for &i in &cells[c] {
                                    for &j in &cells[nc] {
                                        if nc == c && j <= i {
                                            continue;
                                        }
                                        pairs.push((i.min(j), i.max(j)));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        pairs
    }

    /// All pairs evaluated per step, in deterministic order.
    fn pairs(&self) -> Vec<(usize, usize)> {
        if self.spatial {
            let mut cells = vec![Vec::new(); self.g * self.g * self.g];
            for (i, &p) in self.pos.iter().enumerate() {
                cells[self.cell_of(p)].push(i);
            }
            self.spatial_pairs(&cells)
        } else {
            let mut pairs = Vec::with_capacity(self.n * (self.n - 1) / 2);
            for i in 0..self.n {
                for j in i + 1..self.n {
                    pairs.push((i, j));
                }
            }
            pairs
        }
    }

    /// Native reference: same pair set, sequential accumulation.
    fn reference(&self) -> Vec<[f64; 3]> {
        let mut pos: Vec<[f64; 3]> = self.pos.as_ref().clone();
        let mut vel = vec![[0.0f64; 3]; self.n];
        let pairs = self.pairs();
        for _ in 0..self.steps {
            let mut force = vec![[0.0f64; 3]; self.n];
            for &(i, j) in &pairs {
                if let Some(f) = pair_force(pos[i], pos[j]) {
                    for d in 0..3 {
                        force[i][d] += f[d];
                        force[j][d] -= f[d];
                    }
                }
            }
            for m in 0..self.n {
                for d in 0..3 {
                    vel[m][d] += 1e-4 * force[m][d];
                    pos[m][d] += 1e-4 * vel[m][d];
                }
            }
        }
        pos
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts, name: &'static str) -> Vec<Body> {
        let n = self.n;
        let steps = self.steps;
        let procs = opts.procs;
        // Table 2: "molecule array", 2048-byte coherence blocks (Nsq only;
        // the flag is a no-op for Water-Sp, which Table 2 omits).
        let hint = if opts.variable_granularity && !self.spatial {
            BlockHint::Bytes(2_048)
        } else {
            BlockHint::Line
        };
        let mols: Addr =
            s.malloc_labeled(REC_BYTES * n as u64, hint, HomeHint::RoundRobin, "water.mols");
        for (i, p) in self.pos.iter().enumerate() {
            let mut rec = [0.0f64; REC_F64];
            rec[..3].copy_from_slice(p);
            s.write_f64s(mols + i as u64 * REC_BYTES, &rec);
        }
        let pairs = Rc::new(self.pairs());
        let expected = opts.validate.then(|| Rc::new(self.reference()));

        (0..procs)
            .map(|p| {
                let pairs = Rc::clone(&pairs);
                let expected = expected.clone();
                let my_pairs = chunk(pairs.len(), procs, p);
                let my_mols = chunk(n, procs, p);
                Box::new(move |mut dsm: Dsm| {
                    let mut barrier = 0u32;
                    let rec = |i: usize| mols + i as u64 * REC_BYTES;
                    for _ in 0..steps {
                        // Phase 1: pair forces into a private accumulator,
                        // reading positions through the DSM (read-shared).
                        let mut local: Vec<Option<[f64; 3]>> = vec![None; n];
                        let mut pos_cache: Vec<Option<[f64; 3]>> = vec![None; n];
                        for &(i, j) in &pairs[my_pairs.clone()] {
                            let mut read_pos = |dsm: &mut Dsm, m: usize| {
                                *pos_cache[m].get_or_insert_with(|| read_rec(dsm, rec(m)))
                            };
                            let pi = read_pos(&mut dsm, i);
                            let pj = read_pos(&mut dsm, j);
                            dsm.compute(PAIR_CYCLES);
                            if let Some(f) = pair_force(pi, pj) {
                                for d in 0..3 {
                                    local[i].get_or_insert([0.0; 3])[d] += f[d];
                                    local[j].get_or_insert([0.0; 3])[d] -= f[d];
                                }
                            }
                        }
                        // Phase 2: locked accumulation into the shared
                        // records — the migratory pattern — in molecule
                        // order, which is also the lock order.
                        for (m, f) in local.iter().enumerate() {
                            let Some(f) = f else { continue };
                            dsm.acquire(m as u32);
                            let cur: [f64; 3] = read_rec(&mut dsm, rec(m) + 6 * 8);
                            dsm.compute(10);
                            // Scalar (non-blocking) stores: under coarse
                            // blocks the record's block is contended, and
                            // Shasta's store path never stalls on steals.
                            for d in 0..3 {
                                dsm.store_f64(rec(m) + (6 + d as u64) * 8, cur[d] + f[d]);
                            }
                            dsm.release(m as u32);
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                        // Phase 3: owners integrate their molecules and
                        // clear forces.
                        for m in my_mols.clone() {
                            let r: [f64; 9] = read_rec(&mut dsm, rec(m));
                            dsm.compute(INTEGRATE_CYCLES);
                            for d in 0..3u64 {
                                let du = d as usize;
                                let vel = r[3 + du] + 1e-4 * r[6 + du];
                                let pos = r[du] + 1e-4 * vel;
                                dsm.store_f64(rec(m) + d * 8, pos);
                                dsm.store_f64(rec(m) + (3 + d) * 8, vel);
                                dsm.store_f64(rec(m) + (6 + d) * 8, 0.0);
                            }
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                    }
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = vec![0.0; n * 3];
                            let mut want = Vec::with_capacity(n * 3);
                            for (m, g) in got.chunks_exact_mut(3).enumerate() {
                                dsm.read_f64s_into(rec(m), g);
                                want.extend_from_slice(&expected[m]);
                            }
                            assert_close(name, &got, &want, 1e-6);
                        }
                    }
                    dsm.barrier(u32::MAX);
                }) as Body
            })
            .collect()
    }
}

/// Water-Nsquared: all-pairs force evaluation.
#[derive(Clone, Debug)]
pub struct WaterNsq(WaterCommon);

impl WaterNsq {
    /// Builds the kernel at a preset.
    pub fn new(preset: Preset, _variable_granularity: bool) -> Self {
        WaterNsq(WaterCommon::new(preset, false))
    }
}

impl DsmApp for WaterNsq {
    fn name(&self) -> &'static str {
        "Water-Nsq"
    }

    fn has_granularity_hints(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        (160, 320)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        self.0.plan(s, opts, "Water-Nsq")
    }
}

/// Water-Spatial: cell-list force evaluation.
#[derive(Clone, Debug)]
pub struct WaterSp(WaterCommon);

impl WaterSp {
    /// Builds the kernel at a preset.
    pub fn new(preset: Preset, _variable_granularity: bool) -> Self {
        WaterSp(WaterCommon::new(preset, true))
    }
}

impl DsmApp for WaterSp {
    fn name(&self) -> &'static str {
        "Water-Sp"
    }

    fn check_permille(&self) -> (u64, u64) {
        (170, 300)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        self.0.plan(s, opts, "Water-Sp")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_force_is_antisymmetric_and_cut_off() {
        let a = [0.2, 0.2, 0.2];
        let b = [0.3, 0.2, 0.2];
        let fab = pair_force(a, b).unwrap();
        let fba = pair_force(b, a).unwrap();
        for d in 0..3 {
            assert!((fab[d] + fba[d]).abs() < 1e-12);
        }
        assert!(pair_force([0.0; 3], [0.9; 3]).is_none(), "beyond cutoff");
    }

    #[test]
    fn nsq_pairs_count() {
        let w = WaterCommon::new(Preset::Tiny, false);
        assert_eq!(w.pairs().len(), w.n * (w.n - 1) / 2);
    }

    #[test]
    fn spatial_pairs_are_unique_and_local() {
        let w = WaterCommon::new(Preset::Tiny, true);
        let pairs = w.pairs();
        let set: std::collections::BTreeSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), pairs.len(), "no duplicate pairs");
        for &(i, j) in &pairs {
            assert!(i < j);
            // Cells of the pair are neighbours.
            let (ci, cj) = (w.cell_of(w.pos[i]), w.cell_of(w.pos[j]));
            let g = w.g;
            let coords =
                |c: usize| ((c / (g * g)) as isize, ((c / g) % g) as isize, (c % g) as isize);
            let (a, b) = (coords(ci), coords(cj));
            assert!((a.0 - b.0).abs() <= 1 && (a.1 - b.1).abs() <= 1 && (a.2 - b.2).abs() <= 1);
        }
    }

    #[test]
    fn reference_moves_molecules() {
        let w = WaterCommon::new(Preset::Tiny, false);
        let after = w.reference();
        let moved = after
            .iter()
            .zip(w.pos.iter())
            .any(|(a, b)| (a[0] - b[0]).abs() + (a[1] - b[1]).abs() > 0.0);
        assert!(moved);
    }
}
