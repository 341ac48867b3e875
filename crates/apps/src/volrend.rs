//! Volrend: parallel-projection volume rendering with a stealing task queue.
//!
//! A read-shared density volume plus read-shared opacity and normal-shading
//! maps — the two arrays whose coherence granularity Table 2 raises to
//! 1024 bytes — rendered into image tiles distributed through task queues.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};

use crate::driver::{Body, DsmApp, PlanOpts, Preset};
use crate::taskq::{deal_tasks, TaskQueues};

/// Image tile edge in pixels.
const TILE: usize = 8;
/// Cycles per volume sample along a ray.
const SAMPLE_CYCLES: u64 = 120;
/// Bytes fetched per cached volume chunk (one line).
const CHUNK: usize = 64;

/// The Volrend kernel.
#[derive(Clone, Debug)]
pub struct Volrend {
    /// Volume edge (voxels).
    g: usize,
    /// Image edge (pixels).
    img: usize,
    vg: bool,
    volume: Rc<Vec<u8>>,
    /// Opacity transfer map indexed by voxel value.
    opacity: Rc<Vec<f64>>,
    /// Shading map indexed by voxel value (the "normal map" analogue).
    shading: Rc<Vec<f64>>,
}

impl Volrend {
    /// Builds the kernel at a preset.
    pub fn new(preset: Preset, variable_granularity: bool) -> Self {
        let (g, img) = match preset {
            Preset::Tiny => (16, 16),
            Preset::Default => (48, 64),
            Preset::Large => (64, 96),
        };
        let mut rng = shasta_sim::SplitMix64::new(0x701 + g as u64);
        // A blobby volume: a few Gaussian-ish density bumps.
        let mut volume = vec![0u8; g * g * g];
        let bumps: Vec<[f64; 3]> =
            (0..5).map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64()]).collect();
        for z in 0..g {
            for y in 0..g {
                for x in 0..g {
                    let p = [x as f64 / g as f64, y as f64 / g as f64, z as f64 / g as f64];
                    let mut v = 0.0;
                    for b in &bumps {
                        let d2 =
                            (p[0] - b[0]).powi(2) + (p[1] - b[1]).powi(2) + (p[2] - b[2]).powi(2);
                        v += (-d2 * 30.0).exp();
                    }
                    volume[(z * g + y) * g + x] = (v.min(1.0) * 255.0) as u8;
                }
            }
        }
        let opacity: Vec<f64> = (0..256).map(|i| (i as f64 / 255.0).powi(2) * 0.3).collect();
        let shading: Vec<f64> = (0..256).map(|i| 0.2 + 0.8 * (i as f64 / 255.0)).collect();
        Volrend {
            g,
            img,
            vg: variable_granularity,
            volume: Rc::new(volume),
            opacity: Rc::new(opacity),
            shading: Rc::new(shading),
        }
    }

    /// Front-to-back compositing along the ray of pixel `(px, py)`.
    fn cast(&self, px: usize, py: usize, voxel: &mut dyn FnMut(usize) -> u8) -> f64 {
        let g = self.g;
        let x = px * g / self.img;
        let y = py * g / self.img;
        let mut color = 0.0;
        let mut transparency = 1.0;
        for z in 0..g {
            let v = voxel((z * g + y) * g + x) as usize;
            let a = self.opacity[v];
            color += transparency * a * self.shading[v];
            transparency *= 1.0 - a;
            if transparency < 1e-3 {
                break;
            }
        }
        color
    }

    fn tiles(&self) -> u64 {
        ((self.img / TILE) * (self.img / TILE)) as u64
    }

    /// Native reference image.
    fn reference(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.img * self.img];
        for py in 0..self.img {
            for px in 0..self.img {
                out[py * self.img + px] = self.cast(px, py, &mut |i| self.volume[i]);
            }
        }
        out
    }
}

impl DsmApp for Volrend {
    fn name(&self) -> &'static str {
        "Volrend"
    }

    fn has_granularity_hints(&self) -> bool {
        true
    }

    fn check_permille(&self) -> (u64, u64) {
        (75, 80)
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let g = self.g;
        let img = self.img;
        let procs = opts.procs;
        let vol_bytes = (g * g * g) as u64;
        let vol_chunks = (vol_bytes as usize).div_ceil(CHUNK);
        // Table 2: opacity and normal (shading) maps at 1024-byte blocks.
        let map_hint = if opts.variable_granularity || self.vg {
            BlockHint::Bytes(1_024)
        } else {
            BlockHint::Line
        };
        let vol_addr =
            s.malloc_labeled(vol_bytes, BlockHint::Line, HomeHint::RoundRobin, "volrend.volume");
        s.write(vol_addr, &self.volume);
        let opac_addr =
            s.malloc_labeled(256 * 8, map_hint, HomeHint::Explicit(0), "volrend.opacity");
        s.write_f64s(opac_addr, &self.opacity);
        let shade_addr =
            s.malloc_labeled(256 * 8, map_hint, HomeHint::Explicit(0), "volrend.shading");
        s.write_f64s(shade_addr, &self.shading);
        let image_addr = s.malloc_labeled(
            (img * img * 8) as u64,
            BlockHint::Line,
            HomeHint::RoundRobin,
            "volrend.image",
        );
        let queues = TaskQueues::setup(s, &deal_tasks(self.tiles(), procs), 2_000);
        let expected = opts.validate.then(|| Rc::new(self.reference()));
        let app = self.clone();

        (0..procs)
            .map(|p| {
                let queues = queues.clone();
                let expected = expected.clone();
                let app = app.clone();
                Box::new(move |mut dsm: Dsm| {
                    // Read the transfer maps through the DSM once.
                    let mut opacity = vec![0.0; 256];
                    dsm.read_f64s_into(opac_addr, &mut opacity);
                    let mut shading = vec![0.0; 256];
                    dsm.read_f64s_into(shade_addr, &mut shading);
                    let local = Volrend {
                        opacity: Rc::new(opacity),
                        shading: Rc::new(shading),
                        ..app.clone()
                    };
                    // Volume voxels are fetched in line-sized chunks and
                    // cached natively (the hardware-cache analogue).
                    let mut chunks: Vec<Option<[u8; CHUNK]>> = vec![None; vol_chunks];
                    let tiles_x = img / TILE;
                    while let Some(task) = queues.next_task(&mut dsm, p) {
                        let (tx, ty) = ((task as usize) % tiles_x, (task as usize) / tiles_x);
                        for row in 0..TILE {
                            let py = ty * TILE + row;
                            let mut line = [0.0f64; TILE];
                            let mut samples = 0u64;
                            for (col, out) in line.iter_mut().enumerate() {
                                let mut voxel = |i: usize| {
                                    samples += 1;
                                    let c = i / CHUNK;
                                    let chunk = chunks[c].get_or_insert_with(|| {
                                        let mut chunk = [0; CHUNK];
                                        dsm.read_into(vol_addr + (c * CHUNK) as u64, &mut chunk);
                                        chunk
                                    });
                                    chunk[i % CHUNK]
                                };
                                *out = local.cast(tx * TILE + col, py, &mut voxel);
                            }
                            dsm.compute(SAMPLE_CYCLES * samples);
                            dsm.write_f64s(image_addr + ((py * img + tx * TILE) * 8) as u64, &line);
                        }
                    }
                    dsm.barrier(0);
                    if p == 0 {
                        if let Some(expected) = expected {
                            let mut got = vec![0.0; img * img];
                            for (py, row) in got.chunks_exact_mut(img).enumerate() {
                                dsm.read_f64s_into(image_addr + ((py * img) * 8) as u64, row);
                            }
                            crate::driver::assert_close("Volrend", &got, &expected, 1e-12);
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
    fn reference_image_is_lit() {
        let v = Volrend::new(Preset::Tiny, false);
        let img = v.reference();
        assert!(img.iter().any(|&c| c > 0.0));
        assert!(img.iter().all(|&c| c.is_finite() && c >= 0.0));
    }

    #[test]
    fn cast_terminates_early_when_opaque() {
        let v = Volrend::new(Preset::Default, false);
        let mut count = 0usize;
        let _ = v.cast(v.img / 2, v.img / 2, &mut |i| {
            count += 1;
            let _ = i;
            255
        });
        assert!(count < v.g, "early termination after opacity saturates");
    }
}
