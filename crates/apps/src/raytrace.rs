//! Raytrace: a sphere-scene ray caster with stealing task queues.
//!
//! The sharing profile of the SPLASH-2 raytracer: a read-shared scene
//! (fetched once per node and then hit locally under clustering), image
//! tiles claimed from distributed task queues (migratory queue heads), and
//! disjoint image writes. The paper notes Raytrace is the application most
//! hurt by SMP-Shasta's extra checking overhead (its FP-load checks triple),
//! which this kernel reproduces by doing its intersection math through
//! FP loads of the scene.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};

use crate::driver::{read_rec, Body, DsmApp, PlanOpts, Preset};
use crate::taskq::{deal_tasks, TaskQueues};

/// Sphere record: centre 3, radius, shade, pad 3 → 8 f64 (64 B).
const SPH_F64: usize = 8;
const SPH_BYTES: u64 = (SPH_F64 * 8) as u64;

/// Cycles per ray-sphere intersection test.
const HIT_CYCLES: u64 = 40;
/// Image tile edge in pixels.
const TILE: usize = 8;

/// The Raytrace kernel.
#[derive(Clone, Debug)]
pub struct Raytrace {
    width: usize,
    height: usize,
    spheres: Rc<Vec<[f64; 5]>>,
}

impl Raytrace {
    /// Builds the kernel at a preset. Raytrace has no Table 2 hints.
    pub fn new(preset: Preset, _variable_granularity: bool) -> Self {
        let (w, s) = match preset {
            Preset::Tiny => (32, 8),
            Preset::Default => (96, 48),
            Preset::Large => (160, 64),
        };
        let mut rng = shasta_sim::SplitMix64::new(0x7247 + w as u64);
        let spheres: Vec<[f64; 5]> = (0..s)
            .map(|_| {
                [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(2.0, 6.0),
                    rng.range_f64(0.1, 0.5),
                    rng.range_f64(0.2, 1.0),
                ]
            })
            .collect();
        Raytrace { width: w, height: w, spheres: Rc::new(spheres) }
    }

    /// Shade for the pixel ray `(px, py)` — pure function of the scene.
    fn shade(&self, px: usize, py: usize, tests: &mut u64) -> f64 {
        // Ray from origin through the image plane at z = 1.
        let dx = (px as f64 + 0.5) / self.width as f64 * 2.0 - 1.0;
        let dy = (py as f64 + 0.5) / self.height as f64 * 2.0 - 1.0;
        let len = (dx * dx + dy * dy + 1.0).sqrt();
        let d = [dx / len, dy / len, 1.0 / len];
        let mut best = f64::INFINITY;
        let mut shade = 0.0;
        for s in self.spheres.iter() {
            *tests += 1;
            let oc = [s[0], s[1], s[2]];
            let b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2];
            let c = oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - s[3] * s[3];
            let disc = b * b - c;
            if disc > 0.0 {
                let t = b - disc.sqrt();
                if t > 0.0 && t < best {
                    best = t;
                    // Lambertian-ish shade from the hit normal's z.
                    let hit = [d[0] * t - s[0], d[1] * t - s[1], d[2] * t - s[2]];
                    let nz = hit[2] / s[3];
                    shade = s[4] * (0.2 + 0.8 * nz.abs().min(1.0));
                }
            }
        }
        shade
    }

    fn tiles(&self) -> u64 {
        ((self.width / TILE) * (self.height / TILE)) as u64
    }

    /// Native reference image.
    fn reference(&self) -> Vec<f64> {
        let mut img = vec![0.0f64; self.width * self.height];
        for py in 0..self.height {
            for px in 0..self.width {
                let mut tests = 0;
                img[py * self.width + px] = self.shade(px, py, &mut tests);
            }
        }
        img
    }
}

impl DsmApp for Raytrace {
    fn name(&self) -> &'static str {
        "Raytrace"
    }

    fn check_permille(&self) -> (u64, u64) {
        (85, 250)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let (w, h) = (self.width, self.height);
        let procs = opts.procs;
        let scene_addr = s.malloc_labeled(
            SPH_BYTES * self.spheres.len() as u64,
            BlockHint::Line,
            HomeHint::Explicit(0),
            "raytrace.spheres",
        );
        for (i, sp) in self.spheres.iter().enumerate() {
            let mut rec = [0.0f64; SPH_F64];
            rec[..5].copy_from_slice(sp);
            s.write_f64s(scene_addr + i as u64 * SPH_BYTES, &rec);
        }
        let image_addr = s.malloc_labeled(
            (w * h * 8) as u64,
            BlockHint::Line,
            HomeHint::RoundRobin,
            "raytrace.image",
        );
        let queues = TaskQueues::setup(s, &deal_tasks(self.tiles(), procs), 1_000);
        let expected = opts.validate.then(|| Rc::new(self.reference()));
        let nspheres = self.spheres.len();

        (0..procs)
            .map(|p| {
                let queues = queues.clone();
                let expected = expected.clone();
                Box::new(move |mut dsm: Dsm| {
                    // Fetch the scene through the DSM (read-shared; one cold
                    // fetch per node under clustering), then trace from the
                    // local copy as hardware caches would.
                    let mut scene = Vec::with_capacity(nspheres);
                    for i in 0..nspheres {
                        scene.push(read_rec(&mut dsm, scene_addr + i as u64 * SPH_BYTES));
                    }
                    let local = Raytrace { width: w, height: h, spheres: Rc::new(scene) };
                    let tiles_x = w / TILE;
                    while let Some(task) = queues.next_task(&mut dsm, p) {
                        let (tx, ty) = ((task as usize) % tiles_x, (task as usize) / tiles_x);
                        for row in 0..TILE {
                            let py = ty * TILE + row;
                            let mut line = [0.0f64; TILE];
                            let mut tests = 0u64;
                            for (col, out) in line.iter_mut().enumerate() {
                                *out = local.shade(tx * TILE + col, py, &mut tests);
                            }
                            dsm.compute(HIT_CYCLES * tests);
                            dsm.write_f64s(image_addr + ((py * w + tx * TILE) * 8) as u64, &line);
                        }
                    }
                    dsm.barrier(0);
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = vec![0.0; w * h];
                            for (py, row) in got.chunks_exact_mut(w).enumerate() {
                                dsm.read_f64s_into(image_addr + ((py * w) * 8) as u64, row);
                            }
                            crate::driver::assert_close("Raytrace", &got, &expected, 1e-12);
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
    fn reference_image_hits_something() {
        let rt = Raytrace::new(Preset::Tiny, false);
        let img = rt.reference();
        assert!(img.iter().any(|&v| v > 0.0), "some pixel hit a sphere");
        assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn tile_count_divides_image() {
        let rt = Raytrace::new(Preset::Default, false);
        assert_eq!(rt.tiles() * (TILE * TILE) as u64, (rt.width * rt.height) as u64);
    }
}
