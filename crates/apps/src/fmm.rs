#![allow(clippy::needless_range_loop)] // index loops mirror the SPLASH kernels

//! FMM: a 2-D fast-multipole-style N-body potential evaluation.
//!
//! The kernel keeps the communication structure of the SPLASH-2 FMM — a
//! read-shared array of box records exchanged along interaction lists, plus
//! near-field particle exchanges between neighbouring boxes — over a uniform
//! box grid with centroid ("monopole") far-field approximation. Boxes and
//! particle segments are homed at their owning processors (the paper's home
//! placement optimization); Table 2 raises the box-array granularity to
//! 256 bytes.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};

use crate::driver::{assert_close, chunk, read_rec, Body, DsmApp, PlanOpts, Preset};

/// Particle record: x, y, potential, pad → 4 f64 (32 B).
const PART_F64: usize = 4;
const PART_BYTES: u64 = (PART_F64 * 8) as u64;
/// Box record: Q, cx, cy, count, first, pad 3 → 8 f64 (64 B, one line).
const BOX_F64: usize = 8;
const BOX_BYTES: u64 = (BOX_F64 * 8) as u64;

/// Cycles per far-field (box-box) interaction.
const M2L_CYCLES: u64 = 60;
/// Cycles per near-field (particle-particle) interaction.
const P2P_CYCLES: u64 = 60;

/// The FMM kernel.
#[derive(Clone, Debug)]
pub struct Fmm {
    n: usize,
    g: usize,
    vg: bool,
    pos: Rc<Vec<[f64; 2]>>,
}

impl Fmm {
    /// Builds the kernel at a preset.
    pub fn new(preset: Preset, variable_granularity: bool) -> Self {
        let (n, g) = match preset {
            Preset::Tiny => (96, 4),
            Preset::Default => (2048, 8),
            Preset::Large => (4096, 8),
        };
        let mut rng = shasta_sim::SplitMix64::new(0xF3E + n as u64);
        let pos: Vec<[f64; 2]> = (0..n).map(|_| [rng.next_f64(), rng.next_f64()]).collect();
        Fmm { n, g, vg: variable_granularity, pos: Rc::new(pos) }
    }

    fn box_of(&self, p: [f64; 2]) -> usize {
        let g = self.g;
        let clamp = |x: f64| ((x * g as f64) as usize).min(g - 1);
        clamp(p[0]) * g + clamp(p[1])
    }

    fn neighbors(&self, b: usize) -> Vec<usize> {
        let g = self.g as isize;
        let (bx, by) = ((b / self.g) as isize, (b % self.g) as isize);
        let mut out = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                let (nx, ny) = (bx + dx, by + dy);
                if (0..g).contains(&nx) && (0..g).contains(&ny) {
                    out.push((nx * g + ny) as usize);
                }
            }
        }
        out
    }

    /// Particle indices sorted by box, plus per-box (first, count).
    fn binned(&self) -> (Vec<usize>, Vec<(usize, usize)>) {
        let nb = self.g * self.g;
        let mut by_box: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (i, &p) in self.pos.iter().enumerate() {
            by_box[self.box_of(p)].push(i);
        }
        let mut order = Vec::with_capacity(self.n);
        let mut ranges = Vec::with_capacity(nb);
        for b in 0..nb {
            ranges.push((order.len(), by_box[b].len()));
            order.extend(&by_box[b]);
        }
        (order, ranges)
    }

    /// Native reference: identical approximation and evaluation order.
    fn reference(&self) -> Vec<f64> {
        let (order, ranges) = self.binned();
        let nb = self.g * self.g;
        // P2M: box monopoles.
        let mut boxes = vec![(0.0f64, 0.0f64, 0.0f64); nb]; // (Q, cx, cy)
        for b in 0..nb {
            let (first, count) = ranges[b];
            let (mut q, mut cx, mut cy) = (0.0, 0.0, 0.0);
            for &i in &order[first..first + count] {
                q += 1.0;
                cx += self.pos[i][0];
                cy += self.pos[i][1];
            }
            if q > 0.0 {
                boxes[b] = (q, cx / q, cy / q);
            }
        }
        // Potential per particle (in box order).
        let mut pot = vec![0.0f64; self.n];
        for b in 0..nb {
            let neigh = self.neighbors(b);
            // Far-field local expansion at the box centre.
            let g = self.g as f64;
            let centre = [((b / self.g) as f64 + 0.5) / g, ((b % self.g) as f64 + 0.5) / g];
            let mut local = 0.0;
            for fb in 0..nb {
                if neigh.contains(&fb) || boxes[fb].0 == 0.0 {
                    continue;
                }
                let (q, cx, cy) = boxes[fb];
                let d2 = (centre[0] - cx).powi(2) + (centre[1] - cy).powi(2);
                local += q * 0.5 * d2.ln();
            }
            let (first, count) = ranges[b];
            for &i in &order[first..first + count] {
                let mut p = local;
                for nb_ in &neigh {
                    let (nf, nc) = ranges[*nb_];
                    for &j in &order[nf..nf + nc] {
                        if i == j {
                            continue;
                        }
                        let d2 = (self.pos[i][0] - self.pos[j][0]).powi(2)
                            + (self.pos[i][1] - self.pos[j][1]).powi(2);
                        p += 0.5 * (d2 + 1e-6).ln();
                    }
                }
                pot[i] = p;
            }
        }
        pot
    }
}

impl DsmApp for Fmm {
    fn name(&self) -> &'static str {
        "FMM"
    }

    fn home_placement(&self) -> bool {
        true
    }

    fn has_granularity_hints(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        (110, 190)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let n = self.n;
        let g = self.g;
        let nb = g * g;
        let procs = opts.procs;
        let (order, ranges) = self.binned();
        // Boxes are banded over processors by rows; particles follow their
        // box's owner (home placement).
        let owner_of_box = |b: usize| chunk_owner(nb, procs, b);
        // Table 2: box array at 256-byte granularity.
        let box_hint = if opts.variable_granularity || self.vg {
            BlockHint::Bytes(256)
        } else {
            BlockHint::Line
        };
        let boxes_addr =
            s.malloc_labeled(BOX_BYTES * nb as u64, box_hint, HomeHint::RoundRobin, "fmm.boxes");
        // Particle segments: one allocation per owner.
        let mut part_addr = vec![0u64; n]; // by sorted position
        for p in 0..procs {
            let my = chunk(nb, procs, p);
            let count: usize = my.clone().map(|b| ranges[b].1).sum();
            if count == 0 {
                continue;
            }
            let base = s.malloc_labeled(
                PART_BYTES * count as u64,
                BlockHint::Line,
                HomeHint::Explicit(p),
                "fmm.particles",
            );
            let mut off = 0u64;
            for b in my {
                let (first, cnt) = ranges[b];
                for k in first..first + cnt {
                    part_addr[k] = base + off;
                    let i = order[k];
                    s.write_f64s(base + off, &[self.pos[i][0], self.pos[i][1], 0.0, 0.0]);
                    off += PART_BYTES;
                }
            }
        }
        for b in 0..nb {
            let (first, count) = ranges[b];
            s.write_f64s(
                boxes_addr + b as u64 * BOX_BYTES,
                &[0.0, 0.0, 0.0, count as f64, first as f64, 0.0, 0.0, 0.0],
            );
        }
        let expected = opts.validate.then(|| {
            let pot = self.reference();
            // Expected per sorted slot.
            Rc::new(order.iter().map(|&i| pot[i]).collect::<Vec<f64>>())
        });
        let order = Rc::new(order);
        let ranges = Rc::new(ranges);
        let part_addr = Rc::new(part_addr);
        let app = self.clone();

        (0..procs)
            .map(|p| {
                let ranges = Rc::clone(&ranges);
                let part_addr = Rc::clone(&part_addr);
                let expected = expected.clone();
                let app = app.clone();
                let my_boxes = chunk(nb, procs, p);
                let _ = order;
                let _ = owner_of_box;
                Box::new(move |mut dsm: Dsm| {
                    let box_rec = |b: usize| boxes_addr + b as u64 * BOX_BYTES;
                    // Phase 1 (P2M): monopoles for own boxes from own
                    // (local) particles.
                    for b in my_boxes.clone() {
                        let (first, count) = ranges[b];
                        let (mut q, mut cx, mut cy) = (0.0f64, 0.0f64, 0.0f64);
                        for k in first..first + count {
                            let v: [f64; 2] = read_rec(&mut dsm, part_addr[k]);
                            q += 1.0;
                            cx += v[0];
                            cy += v[1];
                        }
                        dsm.compute(10 * count as u64 + 20);
                        let (cx, cy) = if q > 0.0 { (cx / q, cy / q) } else { (0.0, 0.0) };
                        dsm.write_f64s(
                            box_rec(b),
                            &[q, cx, cy, count as f64, first as f64, 0.0, 0.0, 0.0],
                        );
                    }
                    dsm.barrier(0);
                    // Phase 2: M2L over the read-shared box array plus
                    // near-field P2P with neighbour boxes' particles.
                    let mut box_cache: Vec<Option<[f64; 3]>> = vec![None; nb];
                    for b in my_boxes.clone() {
                        let neigh = app.neighbors(b);
                        let centre =
                            [((b / g) as f64 + 0.5) / g as f64, ((b % g) as f64 + 0.5) / g as f64];
                        let mut local = 0.0;
                        for fb in 0..nb {
                            if neigh.contains(&fb) {
                                continue;
                            }
                            let rec = *box_cache[fb]
                                .get_or_insert_with(|| read_rec(&mut dsm, box_rec(fb)));
                            dsm.compute(M2L_CYCLES);
                            let (q, cx, cy) = (rec[0], rec[1], rec[2]);
                            if q == 0.0 {
                                continue;
                            }
                            let d2 = (centre[0] - cx).powi(2) + (centre[1] - cy).powi(2);
                            local += q * 0.5 * d2.ln();
                        }
                        // Gather neighbour particles (near field).
                        let mut near: Vec<(usize, [f64; 2])> = Vec::new();
                        for nb_ in &neigh {
                            let (nf, nc) = ranges[*nb_];
                            for k in nf..nf + nc {
                                near.push((k, read_rec(&mut dsm, part_addr[k])));
                            }
                        }
                        let (first, count) = ranges[b];
                        for k in first..first + count {
                            let v: [f64; 2] = read_rec(&mut dsm, part_addr[k]);
                            let mut pot = local;
                            for (kj, pj) in &near {
                                if *kj == k {
                                    continue;
                                }
                                dsm.compute(P2P_CYCLES);
                                let d2 = (v[0] - pj[0]).powi(2) + (v[1] - pj[1]).powi(2);
                                pot += 0.5 * (d2 + 1e-6).ln();
                            }
                            dsm.store_f64(part_addr[k] + 16, pot);
                        }
                    }
                    dsm.barrier(1);
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = Vec::with_capacity(n);
                            for k in 0..n {
                                got.push(f64::from_bits(dsm.load_u64(part_addr[k] + 16)));
                            }
                            assert_close("FMM", &got, &expected, 1e-9);
                        }
                    }
                    dsm.barrier(u32::MAX);
                }) as Body
            })
            .collect()
    }
}

/// Owner of element `b` under contiguous chunking of `total` over `procs`.
fn chunk_owner(total: usize, procs: u32, b: usize) -> u32 {
    for p in 0..procs {
        if chunk(total, procs, p).contains(&b) {
            return p;
        }
    }
    procs - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_covers_all_particles() {
        let f = Fmm::new(Preset::Tiny, false);
        let (order, ranges) = f.binned();
        assert_eq!(order.len(), f.n);
        let total: usize = ranges.iter().map(|(_, c)| c).sum();
        assert_eq!(total, f.n);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..f.n).collect::<Vec<_>>());
    }

    #[test]
    fn neighbors_are_bounded() {
        let f = Fmm::new(Preset::Tiny, false);
        for b in 0..f.g * f.g {
            let n = f.neighbors(b);
            assert!((4..=9).contains(&n.len()));
            assert!(n.contains(&b));
        }
    }

    #[test]
    fn reference_potential_is_finite() {
        let f = Fmm::new(Preset::Tiny, false);
        let pot = f.reference();
        assert!(pot.iter().all(|p| p.is_finite()));
        // Potentials of log kernels with unit charges: mostly negative.
        assert!(pot.iter().filter(|p| **p < 0.0).count() > f.n / 2);
    }
}
