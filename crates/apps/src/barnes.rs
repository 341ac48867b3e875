//! Barnes: Barnes–Hut hierarchical N-body force calculation.
//!
//! The sharing pattern the paper's evaluation exercises: a read-shared
//! octree (cells fetched by every processor during the force phase) plus
//! per-body records updated by their owners. The tree is rebuilt every step
//! by processor 0 through the DSM, so the cell array migrates to exclusive
//! at node 0 and fans back out — a producer/consumer pattern whose misses
//! clustering absorbs (node mates of the first reader hit locally).
//!
//! Table 2 raises the cell/leaf array granularity to 512 bytes.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};

use crate::driver::{assert_close, chunk, read_rec, Body, DsmApp, PlanOpts, Preset};

/// Body record: pos 3, vel 3, force 3, mass, pad → 16 f64 (128 B).
const BODY_F64: usize = 16;
const BODY_BYTES: u64 = (BODY_F64 * 8) as u64;
/// Cell record: com 3, mass, half-size, children 8, pad 3 → 16 f64 (128 B).
const CELL_F64: usize = 16;
const CELL_BYTES: u64 = (CELL_F64 * 8) as u64;

/// Barnes–Hut opening angle.
const THETA: f64 = 0.6;
/// Cycles per visited tree node during force evaluation.
const VISIT_CYCLES: u64 = 400;
/// Gravitational softening.
const EPS2: f64 = 1e-4;

/// A native octree used both by the reference and to generate the shared
/// cell array.
#[derive(Clone, Debug, Default)]
struct Tree {
    /// Flattened cells: `[com3, mass, half, child0..7, pad3]` per cell.
    cells: Vec<[f64; CELL_F64]>,
}

/// Child encoding inside a cell record.
fn enc_none() -> f64 {
    0.0
}
fn enc_cell(i: usize) -> f64 {
    (i + 1) as f64
}
fn enc_body(i: usize) -> f64 {
    -((i + 1) as f64)
}

impl Tree {
    fn build(pos: &[[f64; 3]], mass: &[f64]) -> Tree {
        #[derive(Clone)]
        enum Node {
            Empty,
            Body(usize),
            Cell { children: Box<[Node; 8]>, com: [f64; 3], mass: f64 },
        }
        fn insert(node: Node, b: usize, pos: &[[f64; 3]], center: [f64; 3], half: f64) -> Node {
            match node {
                Node::Empty => Node::Body(b),
                Node::Body(other) => {
                    let cell = Node::Cell {
                        children: Box::new([
                            Node::Empty,
                            Node::Empty,
                            Node::Empty,
                            Node::Empty,
                            Node::Empty,
                            Node::Empty,
                            Node::Empty,
                            Node::Empty,
                        ]),
                        com: [0.0; 3],
                        mass: 0.0,
                    };
                    let cell = insert(cell, other, pos, center, half);
                    insert(cell, b, pos, center, half)
                }
                Node::Cell { mut children, com, mass } => {
                    let p = pos[b];
                    let mut idx = 0;
                    let mut c = center;
                    for d in 0..3 {
                        if p[d] >= center[d] {
                            idx |= 1 << d;
                            c[d] += half / 2.0;
                        } else {
                            c[d] -= half / 2.0;
                        }
                    }
                    children[idx] = insert(
                        std::mem::replace(&mut children[idx], Node::Empty),
                        b,
                        pos,
                        c,
                        half / 2.0,
                    );
                    Node::Cell { children, com, mass }
                }
            }
        }
        let mut root = Node::Empty;
        for b in 0..pos.len() {
            root = insert(root, b, pos, [0.5, 0.5, 0.5], 0.5);
        }
        // Flatten with a post-order walk computing centres of mass.
        let mut tree = Tree::default();
        fn flatten(
            node: &Node,
            half: f64,
            pos: &[[f64; 3]],
            mass: &[f64],
            tree: &mut Tree,
        ) -> (f64, [f64; 3], f64) {
            // Returns (child encoding, weighted com, mass).
            match node {
                Node::Empty => (enc_none(), [0.0; 3], 0.0),
                Node::Body(b) => {
                    let m = mass[*b];
                    (enc_body(*b), [pos[*b][0] * m, pos[*b][1] * m, pos[*b][2] * m], m)
                }
                Node::Cell { children, .. } => {
                    let idx = tree.cells.len();
                    tree.cells.push([0.0; CELL_F64]);
                    let mut com = [0.0; 3];
                    let mut m_total = 0.0;
                    let mut encs = [0.0; 8];
                    for (i, ch) in children.iter().enumerate() {
                        let (enc, c, m) = flatten(ch, half / 2.0, pos, mass, tree);
                        encs[i] = enc;
                        for d in 0..3 {
                            com[d] += c[d];
                        }
                        m_total += m;
                    }
                    let rec = &mut tree.cells[idx];
                    for d in 0..3 {
                        rec[d] = if m_total > 0.0 { com[d] / m_total } else { 0.0 };
                    }
                    rec[3] = m_total;
                    rec[4] = half;
                    rec[5..13].copy_from_slice(&encs);
                    (enc_cell(idx), com, m_total)
                }
            }
        }
        let _ = flatten(&root, 0.5, pos, mass, &mut tree);
        if tree.cells.is_empty() {
            // Degenerate single-body input: synthesize a root.
            let mut rec = [0.0; CELL_F64];
            rec[4] = 0.5;
            if !pos.is_empty() {
                rec[5] = enc_body(0);
            }
            tree.cells.push(rec);
        }
        tree
    }
}

/// Accumulated force on body `b` from the tree, via a cell accessor.
fn force_on(
    b: usize,
    pb: [f64; 3],
    read_cell: &mut dyn FnMut(usize) -> [f64; CELL_F64],
    read_body: &mut dyn FnMut(usize) -> ([f64; 3], f64),
    visits: &mut u64,
) -> [f64; 3] {
    let mut force = [0.0f64; 3];
    let mut stack = vec![enc_cell(0)];
    while let Some(enc) = stack.pop() {
        *visits += 1;
        if enc == enc_none() {
            continue;
        }
        if enc < 0.0 {
            let j = (-enc) as usize - 1;
            if j == b {
                continue;
            }
            let (pj, mj) = read_body(j);
            add_grav(&mut force, pb, pj, mj);
        } else {
            let c = enc as usize - 1;
            let rec = read_cell(c);
            let com = [rec[0], rec[1], rec[2]];
            let (m, half) = (rec[3], rec[4]);
            let d2: f64 = (0..3).map(|d| (pb[d] - com[d]) * (pb[d] - com[d])).sum();
            if (2.0 * half) * (2.0 * half) < THETA * THETA * d2 {
                add_grav(&mut force, pb, com, m);
            } else {
                for k in 0..8 {
                    stack.push(rec[5 + k]);
                }
            }
        }
    }
    force
}

fn add_grav(force: &mut [f64; 3], pb: [f64; 3], src: [f64; 3], m: f64) {
    let d = [src[0] - pb[0], src[1] - pb[1], src[2] - pb[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
    let inv = m / (r2 * r2.sqrt());
    for k in 0..3 {
        force[k] += d[k] * inv;
    }
}

/// The Barnes kernel.
#[derive(Clone, Debug)]
pub struct Barnes {
    n: usize,
    steps: usize,
    vg: bool,
    pos: Rc<Vec<[f64; 3]>>,
    mass: Rc<Vec<f64>>,
}

impl Barnes {
    /// Builds the kernel at a preset.
    pub fn new(preset: Preset, variable_granularity: bool) -> Self {
        let (n, steps) = match preset {
            Preset::Tiny => (48, 1),
            Preset::Default => (512, 2),
            Preset::Large => (1024, 2),
        };
        let mut rng = shasta_sim::SplitMix64::new(0xBA57E5 + n as u64);
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.range_f64(0.1, 0.9), rng.range_f64(0.1, 0.9), rng.range_f64(0.1, 0.9)])
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| rng.range_f64(0.5, 1.5)).collect();
        Barnes { n, steps, vg: variable_granularity, pos: Rc::new(pos), mass: Rc::new(mass) }
    }

    /// Native reference with identical traversal order.
    fn reference(&self) -> Vec<[f64; 3]> {
        let mut pos = self.pos.as_ref().clone();
        let mut vel = vec![[0.0f64; 3]; self.n];
        for _ in 0..self.steps {
            let tree = Tree::build(&pos, &self.mass);
            let forces: Vec<[f64; 3]> = (0..self.n)
                .map(|b| {
                    let mut visits = 0;
                    force_on(
                        b,
                        pos[b],
                        &mut |c| tree.cells[c],
                        &mut |j| (pos[j], self.mass[j]),
                        &mut visits,
                    )
                })
                .collect();
            for b in 0..self.n {
                for d in 0..3 {
                    vel[b][d] += 1e-3 * forces[b][d];
                    pos[b][d] += 1e-3 * vel[b][d];
                }
            }
        }
        pos
    }
}

impl DsmApp for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn has_granularity_hints(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        (75, 115)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let n = self.n;
        let steps = self.steps;
        let procs = opts.procs;
        // Table 2: cell and leaf (body) arrays at 512-byte granularity.
        let hint = if opts.variable_granularity || self.vg {
            BlockHint::Bytes(512)
        } else {
            BlockHint::Line
        };
        let bodies_addr =
            s.malloc_labeled(BODY_BYTES * n as u64, hint, HomeHint::RoundRobin, "barnes.bodies");
        let max_cells = 4 * n + 8;
        let cells_addr = s.malloc_labeled(
            CELL_BYTES * max_cells as u64,
            hint,
            HomeHint::RoundRobin,
            "barnes.cells",
        );
        // Control word: number of cells this step.
        let ctrl = s.malloc_labeled(64, BlockHint::Line, HomeHint::Explicit(0), "barnes.ctrl");
        for b in 0..n {
            let mut rec = [0.0f64; BODY_F64];
            rec[..3].copy_from_slice(&self.pos[b]);
            rec[9] = self.mass[b];
            s.write_f64s(bodies_addr + b as u64 * BODY_BYTES, &rec);
        }
        let expected = opts.validate.then(|| Rc::new(self.reference()));
        let mass = Rc::clone(&self.mass);

        (0..procs)
            .map(|p| {
                let expected = expected.clone();
                let mass = Rc::clone(&mass);
                let my_bodies = chunk(n, procs, p);
                Box::new(move |mut dsm: Dsm| {
                    let body_rec = |b: usize| bodies_addr + b as u64 * BODY_BYTES;
                    let cell_rec = |c: usize| cells_addr + c as u64 * CELL_BYTES;
                    let mut barrier = 0u32;
                    for _ in 0..steps {
                        if p == 0 {
                            // Rebuild the tree through the DSM.
                            let mut pos = Vec::with_capacity(n);
                            for b in 0..n {
                                pos.push(read_rec(&mut dsm, body_rec(b)));
                            }
                            let tree = Tree::build(&pos, &mass);
                            dsm.compute(220 * n as u64); // tree construction work
                            for (c, rec) in tree.cells.iter().enumerate() {
                                dsm.write_f64s(cell_rec(c), rec);
                            }
                            dsm.store_u64(ctrl, tree.cells.len() as u64);
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                        // Force phase: traverse the read-shared tree. A
                        // per-step native cache models the hardware cache on
                        // repeat accesses (the DSM fetch happens once).
                        let ncells = dsm.load_u64(ctrl) as usize;
                        let mut cell_cache: Vec<Option<[f64; CELL_F64]>> = vec![None; ncells];
                        let mut body_cache: Vec<Option<([f64; 3], f64)>> = vec![None; n];
                        for b in my_bodies.clone() {
                            let pb = read_rec(&mut dsm, body_rec(b));
                            let mut visits = 0u64;
                            let force = {
                                let dsm_cell = std::cell::RefCell::new(&mut dsm);
                                let mut read_cell = |c: usize| {
                                    *cell_cache[c].get_or_insert_with(|| {
                                        read_rec(&mut dsm_cell.borrow_mut(), cell_rec(c))
                                    })
                                };
                                let mut read_body = |j: usize| {
                                    *body_cache[j].get_or_insert_with(|| {
                                        let v = read_rec(&mut dsm_cell.borrow_mut(), body_rec(j));
                                        let m = f64::from_bits(
                                            dsm_cell.borrow_mut().load_u64(body_rec(j) + 9 * 8),
                                        );
                                        (v, m)
                                    })
                                };
                                force_on(b, pb, &mut read_cell, &mut read_body, &mut visits)
                            };
                            dsm.compute(VISIT_CYCLES * visits);
                            dsm.write_f64s(body_rec(b) + 6 * 8, &force);
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                        // Update phase: integrate own bodies.
                        for b in my_bodies.clone() {
                            let r: [f64; 9] = read_rec(&mut dsm, body_rec(b));
                            dsm.compute(20);
                            let mut out = [0.0f64; 9];
                            for d in 0..3 {
                                out[3 + d] = r[3 + d] + 1e-3 * r[6 + d];
                                out[d] = r[d] + 1e-3 * out[3 + d];
                                out[6 + d] = 0.0;
                            }
                            dsm.write_f64s(body_rec(b), &out);
                        }
                        dsm.barrier(barrier);
                        barrier += 1;
                    }
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = vec![0.0; n * 3];
                            let mut want = Vec::with_capacity(n * 3);
                            for (b, g) in got.chunks_exact_mut(3).enumerate() {
                                dsm.read_f64s_into(body_rec(b), g);
                                want.extend_from_slice(&expected[b]);
                            }
                            assert_close("Barnes", &got, &want, 1e-9);
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
    fn tree_mass_is_conserved() {
        let b = Barnes::new(Preset::Tiny, false);
        let tree = Tree::build(&b.pos, &b.mass);
        let total: f64 = b.mass.iter().sum();
        assert!((tree.cells[0][3] - total).abs() < 1e-9, "root mass {}", tree.cells[0][3]);
    }

    #[test]
    fn forces_match_direct_sum_for_small_theta() {
        // With the tree, far-field approximation error is bounded; compare
        // against direct summation loosely.
        let b = Barnes::new(Preset::Tiny, false);
        let tree = Tree::build(&b.pos, &b.mass);
        let mut visits = 0;
        let f_tree = force_on(
            0,
            b.pos[0],
            &mut |c| tree.cells[c],
            &mut |j| (b.pos[j], b.mass[j]),
            &mut visits,
        );
        let mut f_direct = [0.0f64; 3];
        for j in 1..b.n {
            add_grav(&mut f_direct, b.pos[0], b.pos[j], b.mass[j]);
        }
        for d in 0..3 {
            let scale = f_direct[d].abs().max(1.0);
            assert!(
                (f_tree[d] - f_direct[d]).abs() / scale < 0.2,
                "axis {d}: tree {} vs direct {}",
                f_tree[d],
                f_direct[d]
            );
        }
        assert!(visits > 0);
    }

    #[test]
    fn reference_moves_bodies() {
        let b = Barnes::new(Preset::Tiny, false);
        let after = b.reference();
        assert!(after.iter().zip(b.pos.iter()).any(|(a, o)| a != o));
    }
}
