//! The application trait and the experiment driver.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtoMsg, ProtocolConfig, SetupCtx};
use shasta_core::space::Addr;
use shasta_memchan::Transport;
use shasta_stats::RunStats;

/// One processor's program.
pub type Body = Box<dyn FnOnce(Dsm)>;

/// Problem-size preset.
///
/// `Tiny` keeps unit/integration tests fast; `Default` matches the shape of
/// the paper's Table 1 inputs at simulator scale; `Large` is the analogue of
/// Table 3's bigger inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Preset {
    /// Very small inputs for tests.
    Tiny,
    /// The standard experiment size.
    #[default]
    Default,
    /// The larger inputs of Table 3.
    Large,
}

/// Options passed to [`DsmApp::plan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanOpts {
    /// Number of processors to plan for.
    pub procs: u32,
    /// Apply the application's Table 2 coherence-granularity hints.
    pub variable_granularity: bool,
    /// Have processor 0 validate the result against the sequential
    /// reference after the final barrier.
    pub validate: bool,
}

/// A kernel that can run on the simulated DSM.
pub trait DsmApp {
    /// Display name, matching the paper's tables (e.g. `"LU-Contig"`).
    fn name(&self) -> &'static str;

    /// Shared-heap bytes the kernel needs.
    fn heap_bytes(&self) -> u64 {
        1 << 24
    }

    /// Allocates and initializes shared data, returning one program per
    /// processor.
    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body>;

    /// Whether the paper applies the home-placement optimization to this
    /// application (§4.3: FMM, LU-Contiguous, Ocean).
    fn home_placement(&self) -> bool {
        false
    }

    /// Whether Table 2 defines granularity hints for this application.
    fn has_granularity_hints(&self) -> bool {
        false
    }

    /// Check-surrogate intensity `(base, smp)` in permille of compute — the
    /// application's instrumented instruction mix (how much of its inner-
    /// loop work is checked scalar accesses). Calibrated per application
    /// against Table 1 of the paper.
    fn check_permille(&self) -> (u64, u64) {
        (125, 205)
    }
}

/// Which protocol stack executes the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    /// Base-Shasta (clustering is forced to 1).
    Base,
    /// SMP-Shasta with the configured clustering.
    Smp,
    /// Hardware cache coherence (ANL baseline; single node).
    Hardware,
    /// The uninstrumented sequential baseline (one processor, no checks):
    /// the denominator of every speedup in the paper.
    Sequential,
    /// Base-Shasta checks on one processor (Table 1's "with Base-Shasta
    /// miss checks" column).
    CheckedSeqBase,
    /// SMP-Shasta checks on one processor (Table 1's "with SMP-Shasta miss
    /// checks" column).
    CheckedSeqSmp,
}

/// Full description of one experiment run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunConfig {
    /// Protocol stack.
    pub proto: Proto,
    /// Processor count.
    pub procs: u32,
    /// SMP-Shasta clustering degree (ignored by other protocols).
    pub clustering: u32,
    /// Apply Table 2 granularity hints.
    pub variable_granularity: bool,
    /// Validate results against the sequential reference.
    pub validate: bool,
    /// Enable the shared-directory future-work extension (SMP only).
    pub share_directory: bool,
    /// Enable the load-balanced incoming-queue future-work extension
    /// (SMP only; implies `share_directory`).
    pub load_balance: bool,
    /// Profile-guided site-label → block-size overrides (from a persisted
    /// hint file): applied to every labeled allocation during setup,
    /// replacing whatever hint the application passed.
    pub site_hints: Option<std::collections::BTreeMap<String, u64>>,
    /// Machine cost model.
    pub cost: CostModel,
}

impl RunConfig {
    /// Creates a config with paper-default cost model and no validation.
    pub fn new(proto: Proto, procs: u32, clustering: u32) -> Self {
        RunConfig {
            proto,
            procs,
            clustering,
            variable_granularity: false,
            validate: false,
            share_directory: false,
            load_balance: false,
            site_hints: None,
            cost: CostModel::alpha_4100(),
        }
    }

    /// Enables the shared-directory extension.
    pub fn share_directory(mut self) -> Self {
        self.share_directory = true;
        self
    }

    /// Enables the load-balancing extension.
    pub fn load_balance(mut self) -> Self {
        self.load_balance = true;
        self
    }

    /// Enables result validation.
    pub fn validate(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Enables the Table 2 granularity hints.
    pub fn variable_granularity(mut self) -> Self {
        self.variable_granularity = true;
        self
    }

    /// Installs profile-guided site hints (label → block bytes). The
    /// overrides replace the application's own hints for matching labels —
    /// the advisor's output drives granularity, not guesswork.
    pub fn with_site_hints(mut self, hints: std::collections::BTreeMap<String, u64>) -> Self {
        self.site_hints = Some(hints);
        self
    }
}

/// Runs `app` under `cfg` and returns the collected statistics.
///
/// # Panics
///
/// Panics on invalid topology combinations, result-validation failures, or
/// protocol-invariant violations (all of which indicate bugs, not expected
/// runtime conditions).
pub fn run_app(app: &dyn DsmApp, cfg: &RunConfig) -> RunStats {
    let (mut machine, bodies) = build_machine(app, cfg);
    machine.run(bodies)
}

/// Runs `app` under `cfg` on a caller-supplied messaging backend instead of
/// the default simulated Memory Channel. The factory receives the resolved
/// topology and cost model and returns the transport to install — e.g. the
/// real loopback transport from `shasta-transport`. This is the entry point
/// of the differential harness: identical configs run once per backend and
/// their counters are compared.
///
/// # Panics
///
/// Panics under the same conditions as [`run_app`], plus whatever the
/// transport's own failure modes are (a wire fabric panics rather than
/// silently dropping messages).
pub fn run_app_with_transport(
    app: &dyn DsmApp,
    cfg: &RunConfig,
    make: impl FnOnce(&Topology, &CostModel) -> Box<dyn Transport<ProtoMsg>>,
) -> RunStats {
    let (mut machine, bodies) = build_machine(app, cfg);
    let transport = make(machine.topology(), machine.cost_model());
    machine.set_transport(transport);
    machine.run(bodies)
}

/// Runs `app` under `cfg` with event recording enabled and returns both the
/// statistics and the captured event log. `shape` runs on the fully built
/// machine (after setup and event recording are enabled, before the run)
/// and is the place to install a heterogeneous link profile
/// (`Machine::set_net_profile`), a metrics registry
/// (`Machine::set_metrics`), a wire (`Machine::set_transport`), or other
/// per-experiment machine state; `|_| {}` installs nothing. The log keeps
/// every event of the run.
///
/// # Panics
///
/// Panics under the same conditions as [`run_app`].
pub fn run_app_observed(
    app: &dyn DsmApp,
    cfg: &RunConfig,
    shape: impl FnOnce(&mut Machine),
) -> (RunStats, shasta_obs::EventLog) {
    let (mut machine, bodies) = build_machine(app, cfg);
    machine.enable_recording();
    shape(&mut machine);
    let stats = machine.run(bodies);
    (stats, machine.take_obs())
}

/// [`run_app_observed`]: the ring capacity is ignored, as a ring keeps every
/// event. Kept for the benchmark harness, which still passes one.
///
/// # Panics
///
/// Panics under the same conditions as [`run_app`].
pub fn run_app_observed_shaped(
    app: &dyn DsmApp,
    cfg: &RunConfig,
    _ring_capacity: usize,
    shape: impl FnOnce(&mut Machine),
) -> (RunStats, shasta_obs::EventLog) {
    run_app_observed(app, cfg, shape)
}

/// Runs `app` under `cfg` without event recording but with a shaping hook
/// (see [`run_app_observed`]) — used to measure the standalone cost
/// of e.g. a metrics registry without the event recorder in the way.
///
/// # Panics
///
/// Panics under the same conditions as [`run_app`].
pub fn run_app_shaped(
    app: &dyn DsmApp,
    cfg: &RunConfig,
    shape: impl FnOnce(&mut Machine),
) -> RunStats {
    let (mut machine, bodies) = build_machine(app, cfg);
    shape(&mut machine);
    machine.run(bodies)
}

/// Runs `app` on a disaggregated **memory-home** cluster with event
/// recording: the SMP topology gains one extra physical node whose
/// processors execute no application body — they only service the home
/// directories and protocol messages of whatever blocks the allocator homes
/// there — and barriers wait only for the `cfg.procs` compute processors
/// (the same shape as the checker's `ClusterKind::MemoryHome`).
///
/// # Panics
///
/// Panics on invalid topologies and under the same conditions as
/// [`run_app`]. Only `Proto::Smp` configs are meaningful here.
pub fn run_app_observed_memory_home(
    app: &dyn DsmApp,
    cfg: &RunConfig,
    shape: impl FnOnce(&mut Machine),
) -> (RunStats, shasta_obs::EventLog) {
    assert_eq!(cfg.proto, Proto::Smp, "the memory-home shape is an SMP-Shasta experiment");
    // Mirror `paper_placement`'s node size, then append one whole node of
    // memory-only processors.
    let per_node = cfg.procs.min(4);
    let topo = Topology::new(cfg.procs + per_node, per_node, cfg.clustering).expect("topology");
    let mut proto_cfg = ProtocolConfig::smp();
    if proto_cfg.check.enabled {
        let (_, smp_pm) = app.check_permille();
        proto_cfg.check.per_compute_permille = smp_pm;
    }
    let mut machine = Machine::new(topo, cfg.cost.clone(), proto_cfg, app.heap_bytes());
    if let Some(hints) = &cfg.site_hints {
        machine.set_site_hints(hints.clone());
    }
    let opts = PlanOpts {
        procs: cfg.procs,
        variable_granularity: cfg.variable_granularity,
        validate: cfg.validate,
    };
    let mut bodies = machine.setup(|s| app.plan(s, &opts));
    assert_eq!(bodies.len(), cfg.procs as usize, "plan must produce one body per compute proc");
    // Memory-node processors finish immediately but keep serving messages.
    while bodies.len() < (cfg.procs + per_node) as usize {
        bodies.push(Box::new(|_dsm| {}));
    }
    machine.set_barrier_participants(cfg.procs);
    machine.enable_recording();
    shape(&mut machine);
    let stats = machine.run(bodies);
    (stats, machine.take_obs())
}

/// The machine and bodies every driver here runs `app` on under `cfg`, set
/// up and not yet run: for a caller that reads the machine after its run
/// (`Machine::host_counts`).
///
/// # Panics
///
/// Panics on invalid topology combinations.
pub fn build_machine(app: &dyn DsmApp, cfg: &RunConfig) -> (Machine, Vec<Body>) {
    let (procs, topo, proto_cfg) = match cfg.proto {
        Proto::Base => {
            let topo = Topology::paper_placement(cfg.procs, 1).expect("topology");
            (cfg.procs, topo, ProtocolConfig::base())
        }
        Proto::Smp => {
            let topo = Topology::paper_placement(cfg.procs, cfg.clustering).expect("topology");
            (cfg.procs, topo, ProtocolConfig::smp())
        }
        Proto::Hardware => {
            let topo = Topology::new(cfg.procs, cfg.procs, cfg.procs).expect("topology");
            (cfg.procs, topo, ProtocolConfig::hardware())
        }
        Proto::Sequential => {
            let topo = Topology::new(1, 1, 1).expect("topology");
            (1, topo, ProtocolConfig::hardware())
        }
        Proto::CheckedSeqBase => {
            let topo = Topology::new(1, 1, 1).expect("topology");
            (1, topo, ProtocolConfig::base())
        }
        Proto::CheckedSeqSmp => {
            let topo = Topology::new(1, 1, 1).expect("topology");
            (1, topo, ProtocolConfig::smp())
        }
    };
    let mut proto_cfg = proto_cfg;
    if cfg.share_directory || cfg.load_balance {
        assert_eq!(cfg.proto, Proto::Smp, "extensions apply to SMP-Shasta runs");
        proto_cfg.share_directory = cfg.share_directory;
        proto_cfg.load_balance_incoming = cfg.load_balance;
    }
    if proto_cfg.check.enabled {
        let (base_pm, smp_pm) = app.check_permille();
        proto_cfg.check.per_compute_permille = match proto_cfg.check.flavor {
            shasta_core::check::CheckFlavor::Base => base_pm,
            shasta_core::check::CheckFlavor::Smp => smp_pm,
        };
    }
    let mut machine = Machine::new(topo, cfg.cost.clone(), proto_cfg, app.heap_bytes());
    if let Some(hints) = &cfg.site_hints {
        machine.set_site_hints(hints.clone());
    }
    let opts =
        PlanOpts { procs, variable_granularity: cfg.variable_granularity, validate: cfg.validate };
    let bodies = machine.setup(|s| app.plan(s, &opts));
    (machine, bodies)
}

/// Convenience: the sequential (no checks) execution time of `app`, the
/// baseline for speedups and Table 1 overheads.
pub fn sequential_cycles(app: &dyn DsmApp) -> u64 {
    run_app(app, &RunConfig::new(Proto::Sequential, 1, 1)).elapsed_cycles
}

/// An entry in the application registry.
pub struct AppSpec {
    /// Display name.
    pub name: &'static str,
    /// Builds the kernel at a preset, with or without Table 2 hints.
    pub build: fn(Preset, bool) -> Box<dyn DsmApp>,
    /// Whether Table 2 defines granularity hints for this application.
    pub in_table2: bool,
    /// Whether Table 3 reports a larger input for this application.
    pub in_table3: bool,
}

/// All nine applications in the paper's Table 1 order.
pub fn registry() -> Vec<AppSpec> {
    vec![
        AppSpec {
            name: "Barnes",
            build: |p, vg| Box::new(crate::barnes::Barnes::new(p, vg)),
            in_table2: true,
            in_table3: true,
        },
        AppSpec {
            name: "FMM",
            build: |p, vg| Box::new(crate::fmm::Fmm::new(p, vg)),
            in_table2: true,
            in_table3: true,
        },
        AppSpec {
            name: "LU",
            build: |p, vg| Box::new(crate::lu::Lu::new(p, vg)),
            in_table2: true,
            in_table3: true,
        },
        AppSpec {
            name: "LU-Contig",
            build: |p, vg| Box::new(crate::lu::LuContig::new(p, vg)),
            in_table2: true,
            in_table3: true,
        },
        AppSpec {
            name: "Ocean",
            build: |p, vg| Box::new(crate::ocean::Ocean::new(p, vg)),
            in_table2: false,
            in_table3: true,
        },
        AppSpec {
            name: "Raytrace",
            build: |p, vg| Box::new(crate::raytrace::Raytrace::new(p, vg)),
            in_table2: false,
            in_table3: false,
        },
        AppSpec {
            name: "Volrend",
            build: |p, vg| Box::new(crate::volrend::Volrend::new(p, vg)),
            in_table2: true,
            in_table3: false,
        },
        AppSpec {
            name: "Water-Nsq",
            build: |p, vg| Box::new(crate::water::WaterNsq::new(p, vg)),
            in_table2: true,
            in_table3: true,
        },
        AppSpec {
            name: "Water-Sp",
            build: |p, vg| Box::new(crate::water::WaterSp::new(p, vg)),
            in_table2: false,
            in_table3: true,
        },
    ]
}

/// Splits `0..total` into `procs` contiguous chunks; returns chunk `p`.
pub(crate) fn chunk(total: usize, procs: u32, p: u32) -> std::ops::Range<usize> {
    let per = total.div_ceil(procs as usize);
    let lo = (p as usize * per).min(total);
    let hi = ((p as usize + 1) * per).min(total);
    lo..hi
}

/// Reads the `N`-`f64` record at `addr` into a stack array.
pub(crate) fn read_rec<const N: usize>(dsm: &mut Dsm, addr: Addr) -> [f64; N] {
    let mut rec = [0.0; N];
    dsm.read_f64s_into(addr, &mut rec);
    rec
}

/// Asserts that two floating-point slices agree within a relative tolerance.
pub(crate) fn assert_close(name: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{name}: result length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        assert!((g - w).abs() <= tol * scale, "{name}: element {i} diverged: got {g}, want {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_everything() {
        for total in [0usize, 1, 7, 64, 100] {
            for procs in [1u32, 2, 3, 8] {
                let mut covered = 0;
                for p in 0..procs {
                    covered += chunk(total, procs, p).len();
                }
                assert_eq!(covered, total, "total {total} procs {procs}");
            }
        }
    }

    #[test]
    fn registry_names_match_paper_order() {
        let names: Vec<_> = registry().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "Barnes",
                "FMM",
                "LU",
                "LU-Contig",
                "Ocean",
                "Raytrace",
                "Volrend",
                "Water-Nsq",
                "Water-Sp"
            ]
        );
        assert_eq!(registry().iter().filter(|s| s.in_table2).count(), 6);
        assert_eq!(registry().iter().filter(|s| s.in_table3).count(), 7);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn assert_close_catches_divergence() {
        assert_close("x", &[1.0, 2.0], &[1.0, 2.5], 1e-9);
    }
}
