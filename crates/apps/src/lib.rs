#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! SPLASH-2-style application kernels for the Shasta reproduction.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The paper evaluates nine SPLASH-2 applications (Table 1). Each kernel
//! here re-implements the corresponding computation against the DSM API with
//! the same *sharing pattern* — partitioning, task queues, migratory
//! per-molecule accumulation, nearest-neighbour grids, read-shared trees and
//! maps — at simulator-friendly problem sizes. Every kernel carries a native
//! sequential reference; when planned with `validate: true`, processor 0
//! checks the parallel result against it after the final barrier.
//!
//! | Kernel | Module | Dominant sharing pattern |
//! |---|---|---|
//! | Barnes | [`barnes`] | read-shared octree, per-body updates |
//! | FMM | [`fmm`] | read-shared box multipoles, neighbour lists |
//! | LU | [`lu`] | 2-D scattered blocks with row-strided false sharing |
//! | LU-Contig | [`lu`] | contiguous 2 KB blocks |
//! | Ocean | [`ocean`] | nearest-neighbour grid rows |
//! | Raytrace | [`raytrace`] | read-shared scene + stealing task queues |
//! | Volrend | [`volrend`] | read-shared volume/opacity maps + task queue |
//! | Water-Nsq | [`water`] | migratory per-molecule force accumulation |
//! | Water-Sp | [`water`] | spatial cell lists, neighbour exchange |
//!
//! # Example
//!
//! ```
//! use shasta_apps::{registry, run_app, Preset, Proto, RunConfig};
//!
//! let app = shasta_apps::lu::Lu::new(Preset::Tiny, false);
//! let stats = run_app(&app, &RunConfig::new(Proto::Smp, 4, 4).validate());
//! assert!(stats.elapsed_cycles > 0);
//! assert!(registry().iter().any(|spec| spec.name == "LU"));
//! ```

pub mod barnes;
pub mod driver;
pub mod fmm;
pub mod lu;
pub mod ocean;
pub mod raytrace;
pub mod taskq;
pub mod volrend;
pub mod water;

pub use driver::{
    registry, run_app, run_app_observed, run_app_observed_memory_home, run_app_observed_shaped,
    run_app_shaped, sequential_cycles, AppSpec, Body, DsmApp, PlanOpts, Preset, Proto, RunConfig,
};
