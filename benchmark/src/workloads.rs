//! The eight workloads: what each runs, how a run is timed from outside the
//! program, and how its outputs are checked.
//!
//! A closed loop with one driver thread: the harness issues one simulated
//! machine run at a time and waits for it. The 17 host threads of a
//! 16-processor machine belong to the program, not to the load generator.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use shasta_apps::driver::run_app_with_transport;
use shasta_apps::{
    registry, run_app_observed_shaped, run_app_shaped, AppSpec, PlanOpts, Preset, Proto, RunConfig,
};
use shasta_check::{default_scenarios, policies_for_seed, run_checked_ctx, run_scenario, RunCtx};
use shasta_cluster::Topology;
use shasta_core::{BugInjection, Machine, ProtocolConfig};
use shasta_obs::{EventLog, Histogram, Registry};
use shasta_sim::SchedulePolicy;
use shasta_stats::RunStats;
use shasta_transport::{Backend, DropPlan, LoopbackTransport, Transport as _, WireCounts};

use crate::golden::Golden;
use crate::host;
use crate::hostspeed::{normalised_ms, Clocks, Probe};
use crate::metrics::{median, percentile, Values, END_TO_END, PER_LAYER};
use crate::report::Outcome;
use crate::spans::Tracer;

/// The four Table 2 kernels every machine workload runs: dense panel
/// traffic (LU), tree sharing (Barnes), all-pairs migratory sharing
/// (Water-Nsq), read-mostly maps with hot write regions (Volrend).
const KERNELS: [&str; 4] = ["LU", "Barnes", "Water-Nsq", "Volrend"];

/// Per-processor event-ring depth of recorded runs.
const RING: usize = 65_536;

/// Set-up samples a timed run reports the median of: at least
/// `SETUP_SAMPLES`, and more (up to `SETUP_SAMPLES_MAX`) while they take less
/// than `SETUP_MIN_SECONDS` altogether.
const SETUP_SAMPLES: usize = 9;
const SETUP_SAMPLES_MAX: usize = 200;
const SETUP_MIN_SECONDS: f64 = 0.6;

/// Seeds `check_sweep` explores, starting at `--seed`.
const SWEEP_SEEDS: u64 = 170;
const SWEEP_SEEDS_QUICK: u64 = 12;
/// Seeds between two readings of the handoff probe (about 200 ms): the chunk
/// is the sample `check_sweep`'s wall is the median of.
const SWEEP_CHUNK: usize = 10;

/// How one invocation measures.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Offsets `check_sweep`'s seed range. The SPLASH-2 kernels have fixed
    /// inputs and ignore it; the program never sees the seed itself.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// A fixed number of timed passes instead of a time budget.
    pub reps: Option<u32>,
    /// Tiny preset, one pass, 12 sweep seeds: a smoke run.
    pub quick: bool,
    /// Report per-layer metrics from a traced pass and the layer
    /// microbenchmarks instead of the end-to-end metrics.
    pub trace: bool,
    /// Rewrite this workload's section of `golden.json` from what it ran.
    pub bless: bool,
    /// The CPUs this process could run on before it pinned itself.
    pub host_cpus: Vec<usize>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Engine {
    Serial,
    /// `set_sim_threads(2)`: the sharded engine.
    Pdes2,
    /// Event recording on, `take_obs` inside the timed region.
    Recorded,
    /// The UDS loopback transport with this drop plan.
    Wire(DropPlan),
}

#[derive(Clone, Debug)]
struct RunSpec {
    app: &'static str,
    preset: Preset,
    cfg: RunConfig,
    engine: Engine,
}

impl RunSpec {
    fn with(&self, engine: Engine, validate: bool) -> RunSpec {
        let cfg = if validate { self.cfg.clone().validate() } else { self.cfg.clone() };
        RunSpec { cfg, engine, ..self.clone() }
    }
}

fn plan(workload: &str, quick: bool) -> Option<Vec<RunSpec>> {
    let preset = if quick { Preset::Tiny } else { Preset::Default };
    let all = |proto, procs, clustering, engine| {
        KERNELS
            .iter()
            .map(|&app| RunSpec {
                app,
                preset,
                cfg: RunConfig::new(proto, procs, clustering),
                engine,
            })
            .collect::<Vec<_>>()
    };
    Some(match workload {
        "hw16_hits" => all(Proto::Hardware, 16, 16, Engine::Serial),
        "base16_msgs" => all(Proto::Base, 16, 1, Engine::Serial),
        "smp16c4_sharing" => all(Proto::Smp, 16, 4, Engine::Serial),
        "smp16c4_pdes2" => all(Proto::Smp, 16, 4, Engine::Pdes2),
        "smp16c4_recorded" => all(Proto::Smp, 16, 4, Engine::Recorded),
        "wire_uds" => all(Proto::Smp, 16, 4, Engine::Wire(DropPlan::default()))
            .into_iter()
            .filter(|r| r.app == "LU" || r.app == "Water-Nsq")
            .collect(),
        "wire_lossy" => vec![RunSpec {
            app: "LU",
            preset: Preset::Tiny,
            cfg: RunConfig::new(Proto::Smp, 8, 4),
            engine: Engine::Wire(DropPlan { drop_every: 7 }),
        }],
        _ => return None,
    })
}

fn app_spec(name: &str) -> AppSpec {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the app registry"))
}

/// One end of a timed region. The context-switch and user/system reads are
/// part of tracing and are skipped (zeros) on timed runs.
#[derive(Clone, Copy)]
struct Mark {
    clocks: Clocks,
    switches: u64,
    cpu: (f64, f64),
}

impl Mark {
    fn traced_reads(probe: bool) -> (u64, (f64, f64)) {
        if probe {
            (host::thread_ctx_switches(), host::cpu_ms())
        } else {
            (0, (0.0, 0.0))
        }
    }

    /// The start of a region: every other read comes before the wall clock.
    fn starting(probe: bool) -> Mark {
        let (switches, cpu) = Mark::traced_reads(probe);
        Mark { clocks: Clocks::starting(), switches, cpu }
    }

    /// The end of a region: the wall clock comes first.
    fn ending(probe: bool) -> Mark {
        let clocks = Clocks::ending();
        let (switches, cpu) = Mark::traced_reads(probe);
        Mark { clocks, switches, cpu }
    }

    fn at(&self) -> Instant {
        self.clocks.at
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// One machine run as seen from outside.
struct Sample {
    t0: Instant,
    /// The kernel object (Volrend's maps, Barnes' bodies) is built.
    built: Instant,
    /// The shape hook (wire: the transport factory's return): `Machine::new`,
    /// `plan`, and `enable_obs` or the fabric connect are done.
    set_up: Instant,
    /// The timed region starts, one reading of the handoff probe later.
    start: Mark,
    /// `Machine::run` returned — for recorded runs through the public
    /// driver, `take_obs` too.
    end: Mark,
    /// `take_obs` returned, where the harness could time it separately.
    taken: Option<Clocks>,
    /// The handoff probe around the timed region: the mean of a reading just
    /// before `start` and one just after the region ended.
    handoff_ns: f64,
    /// Connecting the socket fabric and its HELLO exchange (wire runs).
    connect_ms: f64,
    stats: RunStats,
    wire: Option<WireCounts>,
    log: Option<EventLog>,
}

impl Sample {
    fn new(
        t0: Instant,
        built: Instant,
        (set_up, start): (Instant, Mark),
        end: Mark,
        stats: RunStats,
    ) -> Sample {
        Sample {
            t0,
            built,
            set_up,
            start,
            end,
            taken: None,
            handoff_ns: 0.0,
            connect_ms: 0.0,
            stats,
            wire: None,
            log: None,
        }
    }

    fn build_ms(&self) -> f64 {
        ms(self.t0, self.built)
    }

    fn setup_ms(&self) -> f64 {
        ms(self.t0, self.set_up)
    }

    fn run_ms(&self) -> f64 {
        ms(self.start.at(), self.end.at())
    }

    fn take_obs_ms(&self) -> f64 {
        self.taken.map_or(0.0, |t| ms(self.end.at(), t.at))
    }

    /// The timed region as the host's wall clock saw it: shape hook to the
    /// driver's return.
    fn wall_ms(&self) -> f64 {
        self.run_ms() + self.take_obs_ms()
    }

    /// The timed region at the reference host speed (`hostspeed`): what
    /// `wall_ms` of the report is made of.
    fn ref_ms(&self) -> f64 {
        let end = self.taken.as_ref().unwrap_or(&self.end.clocks);
        normalised_ms(&self.start.clocks, end, self.handoff_ns)
    }

    /// Time the hypervisor took from the timed region, in whole ticks.
    fn steal_ms(&self) -> f64 {
        self.taken.as_ref().unwrap_or(&self.end.clocks).steal_ms - self.start.clocks.steal_ms
    }
}

/// Unwinds a driver call out of its shape hook once set-up has been timed
/// (its two ends), so set-up can be sampled without paying for the run.
/// Raised with `resume_unwind`, which bypasses the panic hook.
struct SetupDone(Clocks, Clocks);

/// Runs `spec` once through the public drivers, with a reading of `cal`
/// on either side of the timed region. `reg` is attached to the machine (or
/// the wire transport) when tracing; `probe` adds the context-switch and
/// user/system reads around the run; `setup_only` leaves through
/// [`SetupDone`] instead of running the machine.
fn run_once(
    spec: &RunSpec,
    cal: &Probe,
    reg: Option<&Registry>,
    probe: bool,
    setup_only: bool,
) -> Sample {
    let build = app_spec(spec.app).build;
    let begun = Clocks::starting();
    let t0 = begun.at;
    let app = build(spec.preset, false);
    let built = Instant::now();
    let before = Cell::new(0.0);
    // Set-up ends here: either a set-up probe leaves, or the run starts one
    // reading of the handoff probe later.
    let ready = || {
        let set_up = Clocks::ending();
        if setup_only {
            std::panic::resume_unwind(Box::new(SetupDone(begun, set_up)));
        }
        before.set(cal.handoff_ns());
        (set_up.at, Mark::starting(probe))
    };
    // The region has ended: the second reading, and the mean of the two.
    let handoff = || (before.get() + cal.handoff_ns()) / 2.0;
    let mut start = None;
    let mut shape = |m: &mut Machine| {
        if let Some(reg) = reg {
            m.set_metrics(reg);
        }
        if spec.engine == Engine::Pdes2 {
            m.set_sim_threads(2);
        }
        start = Some(ready());
    };
    match spec.engine {
        Engine::Serial | Engine::Pdes2 => {
            let stats = run_app_shaped(app.as_ref(), &spec.cfg, &mut shape);
            let end = Mark::ending(probe);
            Sample {
                handoff_ns: handoff(),
                ..Sample::new(t0, built, start.expect("shape hook ran"), end, stats)
            }
        }
        Engine::Recorded => {
            let (stats, log) = run_app_observed_shaped(app.as_ref(), &spec.cfg, RING, &mut shape);
            let end = Mark::ending(probe);
            Sample {
                handoff_ns: handoff(),
                log: Some(log),
                ..Sample::new(t0, built, start.expect("shape hook ran"), end, stats)
            }
        }
        Engine::Wire(drops) => {
            let mut connect_ms = 0.0;
            let mut counts = None;
            let stats = run_app_with_transport(app.as_ref(), &spec.cfg, |topo, cost| {
                let c0 = Instant::now();
                let mut t =
                    LoopbackTransport::connect(topo.clone(), cost.clone(), Backend::Uds, drops)
                        .expect("loopback fabric");
                connect_ms = ms(c0, Instant::now());
                if let Some(reg) = reg {
                    t.set_metrics(reg);
                }
                counts = Some(t.counts_probe());
                start = Some(ready());
                Box::new(t)
            });
            let end = Mark::ending(probe);
            Sample {
                handoff_ns: handoff(),
                connect_ms,
                wire: counts.map(|c| c.get()),
                ..Sample::new(t0, built, start.expect("transport factory ran"), end, stats)
            }
        }
    }
}

/// A recorded SMP-Shasta run assembled from the machine's public parts
/// instead of `run_app_observed_shaped`, so that `take_obs` gets its own
/// span. Mirrors `shasta_apps::driver`'s machine construction for
/// `Proto::Smp`; the golden fingerprint check proves it stayed a mirror.
fn run_recorded_by_hand(spec: &RunSpec, cal: &Probe, reg: &Registry) -> Sample {
    assert_eq!(spec.cfg.proto, Proto::Smp, "only the SMP recorded workload is run by hand");
    let build = app_spec(spec.app).build;
    let t0 = Instant::now();
    let app = build(spec.preset, false);
    let built = Instant::now();
    let topo = Topology::paper_placement(spec.cfg.procs, spec.cfg.clustering).expect("topology");
    let mut proto = ProtocolConfig::smp();
    proto.check.per_compute_permille = app.check_permille().1;
    let mut m = Machine::new(topo, spec.cfg.cost.clone(), proto, app.heap_bytes());
    let opts = PlanOpts {
        procs: spec.cfg.procs,
        variable_granularity: spec.cfg.variable_granularity,
        validate: spec.cfg.validate,
    };
    let bodies = m.setup(|s| app.plan(s, &opts));
    m.enable_obs(RING);
    m.set_metrics(reg);
    let set_up = Instant::now();
    let before = cal.handoff_ns();
    let start = Mark::starting(true);
    let stats = m.run(bodies);
    let end = Mark::ending(true);
    let log = m.take_obs();
    let taken = Clocks::ending();
    Sample {
        taken: Some(taken),
        handoff_ns: (before + cal.handoff_ns()) / 2.0,
        log: Some(log),
        ..Sample::new(t0, built, (set_up, start), end, stats)
    }
}

fn fingerprint(stats: &RunStats) -> Vec<u64> {
    vec![
        stats.elapsed_cycles,
        stats.misses.total(),
        stats.messages.total(),
        stats.downgrades.total(),
    ]
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast::<&str>().map_or("non-string panic".to_string(), |s| s.to_string()),
    }
}

/// The correctness gate: counts runs, compares fingerprints with
/// `golden.json` (or collects them under `--bless`), and names every
/// violation.
struct Gate {
    key: String,
    golden: Golden,
    bless: bool,
    blessed: BTreeMap<String, Vec<u64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn new(workload: &str, opts: &Opts) -> Result<Gate, String> {
        Ok(Gate {
            key: format!("{workload}{}", if opts.quick { ".quick" } else { "" }),
            golden: Golden::load()?,
            bless: opts.bless,
            blessed: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        })
    }

    /// Counts one attempted run and, if `verdict` is an error, one failure.
    fn record(&mut self, run: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAILED {}/{run}: {why}", self.key);
            self.notes.push(format!("{run}: {why}"));
        }
    }

    /// Compares `print` with the golden entry for `run`.
    fn against_golden(&mut self, run: &str, print: &[u64]) -> Result<(), String> {
        if self.bless {
            self.blessed.insert(run.to_string(), print.to_vec());
            return Ok(());
        }
        match self.golden.get(&self.key, run) {
            Some(want) if want == print => Ok(()),
            Some(want) => Err(format!("fingerprint {print:?} differs from golden {want:?}")),
            None => Err(format!("no golden fingerprint for {}/{run} (run --bless)", self.key)),
        }
    }

    fn finish(mut self) -> Result<(u64, u64, Vec<String>), String> {
        if self.bless {
            self.golden.set_section(&self.key, std::mem::take(&mut self.blessed));
            self.golden.save()?;
        }
        Ok((self.attempted, self.failed, self.notes))
    }
}

/// Runs `spec` with panics (validation failures, protocol-invariant
/// violations, transport errors) turned into a failed run.
fn guarded(
    gate: &mut Gate,
    label: &str,
    run: impl FnOnce() -> Sample,
    check: impl FnOnce(&mut Gate, &Sample) -> Result<(), String>,
) -> Option<Sample> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(sample) => {
            let verdict = check(gate, &sample);
            gate.record(label, verdict);
            Some(sample)
        }
        Err(payload) => {
            gate.record(label, Err(format!("panicked: {}", panic_text(payload))));
            None
        }
    }
}

/// Wire runs must equal their pure-sim twin on cycles and every counter,
/// and a lossy run must have exercised the loss machinery it is there for.
fn check_wire(spec: &RunSpec, sample: &Sample, twin: Option<&RunStats>) -> Result<(), String> {
    let Engine::Wire(drops) = spec.engine else { return Ok(()) };
    let twin = twin.ok_or("its pure-sim twin did not run")?;
    let s = &sample.stats;
    if (s.elapsed_cycles, &s.misses, &s.messages, &s.downgrades)
        != (twin.elapsed_cycles, &twin.misses, &twin.messages, &twin.downgrades)
    {
        return Err("wire run diverged from its pure-sim twin".to_string());
    }
    let c = sample.wire.ok_or("wire counters were not captured")?;
    if drops.drop_every > 0
        && !(c.induced_drops > 0 && c.retransmits >= c.induced_drops && c.holds > 0)
    {
        return Err(format!("induced drops did not exercise retransmission: {c:?}"));
    }
    Ok(())
}

/// The untimed verification pass for one run of the plan: the kernel
/// configuration once with `.validate()` (processor 0 checks the result
/// against the sequential reference, which adds accesses, so this run has
/// no fingerprint), and for wire runs the pure-sim twin they must equal.
/// The sharded, recorded and serial engines validate as themselves; wire
/// runs validate on the twin, because the simulator is the data authority
/// there and the wire copy is compared on counters.
fn verify(spec: &RunSpec, cal: &Probe, gate: &mut Gate) -> Option<Sample> {
    let validated = match spec.engine {
        Engine::Wire(_) => spec.with(Engine::Serial, true),
        engine => spec.with(engine, true),
    };
    guarded(
        gate,
        &format!("{} validated", spec.app),
        || run_once(&validated, cal, None, false, false),
        |_, _| Ok(()),
    );
    match spec.engine {
        Engine::Wire(_) => {
            let twin = spec.with(Engine::Serial, false);
            guarded(
                gate,
                &format!("{} twin", spec.app),
                || run_once(&twin, cal, None, false, false),
                |_, _| Ok(()),
            )
        }
        _ => None,
    }
}

/// One pass over the plan. Each run is checked against the golden
/// fingerprints (and its twin); a run that panics yields no sample.
fn pass(
    name: &str,
    plan: &[RunSpec],
    twins: &[Option<Sample>],
    cal: &Probe,
    gate: &mut Gate,
    tracer: &mut Tracer,
    reg: Option<&Registry>,
) -> Vec<Option<Sample>> {
    let one = |(spec, twin): (&RunSpec, &Option<Sample>)| {
        let by_hand = reg.filter(|_| spec.engine == Engine::Recorded);
        let sample = guarded(
            gate,
            spec.app,
            || match by_hand {
                Some(reg) => run_recorded_by_hand(spec, cal, reg),
                None => run_once(spec, cal, reg, reg.is_some(), false),
            },
            |gate, s| {
                gate.against_golden(spec.app, &fingerprint(&s.stats))?;
                check_wire(spec, s, twin.as_ref().map(|t| &t.stats))
            },
        );
        if let Some(s) = &sample {
            // Spans come from the run's own timestamps and cost it nothing.
            tracer.scope(&format!("{name}/{}", spec.app), |t| {
                t.add("apps.build", s.t0, s.built);
                t.add("core.machine_setup", s.built, s.set_up);
                t.add("core.run", s.start.at(), s.end.at());
                if let Some(taken) = s.taken {
                    t.add("obs.take_obs", s.end.at(), taken.at);
                }
            });
        }
        sample
    };
    plan.iter().zip(twins).map(one).collect()
}

/// The two ends of the set-up of `spec` alone: the driver call unwinds out
/// of its shape hook. `None` if set-up itself failed.
fn setup_probe(spec: &RunSpec, cal: &Probe) -> Option<(Clocks, Clocks)> {
    match catch_unwind(AssertUnwindSafe(|| run_once(spec, cal, None, false, true))) {
        Err(payload) => payload.downcast::<SetupDone>().ok().map(|done| (done.0, done.1)),
        Ok(_) => None,
    }
}

/// Whether another timed pass fits: a fixed count with `--reps`, otherwise
/// the nearest whole number of passes to the time budget.
fn another_pass(opts: &Opts, done: u32, elapsed_s: f64) -> bool {
    match opts.reps {
        Some(reps) => done < reps,
        None => done == 0 || elapsed_s + 0.5 * elapsed_s / f64::from(done) < opts.seconds,
    }
}

fn sum(samples: &[Option<Sample>], f: impl Fn(&Sample) -> f64) -> f64 {
    samples.iter().flatten().map(f).sum()
}

/// `a / b`, reading 0 where the denominator is (nothing happened to divide by).
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What `run` hands back besides the metric values.
struct Tally {
    sim_cycles: u64,
    runs_per_pass: u64,
    reps: u64,
    /// `wall_ms` as the host's wall clock read it, before normalisation.
    raw_wall_ms: f64,
    /// Median reading of the handoff probe over the timed regions.
    handoff_ns: f64,
}

/// The median of repeated set-up samples, in seconds: at least
/// [`SETUP_SAMPLES`], and for a set-up of a few milliseconds as many as fit
/// in [`SETUP_MIN_SECONDS`], because so short a sample is mostly jitter.
/// The first sample grows the heap the later ones reuse, so it is taken and
/// dropped. A sample that fails is skipped; with none at all set-up reads 0.
fn median_setup_seconds(mut sample: impl FnMut() -> Option<f64>) -> f64 {
    sample();
    let began = Instant::now();
    let mut samples = Vec::new();
    for taken in 0..SETUP_SAMPLES_MAX {
        if taken >= SETUP_SAMPLES && began.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            break;
        }
        samples.extend(sample());
    }
    if samples.is_empty() {
        0.0
    } else {
        median(&samples)
    }
}

/// Set-up of one pass over `plan`, at the reference host speed: probes run
/// back to back so that every sample meets the same allocator and cache
/// state (set-up timed inside a pass follows a run and reads differently),
/// with a reading of `cal` on either side of each sample.
fn setup_seconds(plan: &[RunSpec], cal: &Probe) -> f64 {
    median_setup_seconds(|| {
        let before = cal.handoff_ns();
        let ends: Option<Vec<(Clocks, Clocks)>> =
            plan.iter().map(|spec| setup_probe(spec, cal)).collect();
        let handoff_ns = (before + cal.handoff_ns()) / 2.0;
        Some(ends?.iter().map(|(a, b)| normalised_ms(a, b, handoff_ns)).sum::<f64>() / 1e3)
    })
}

/// Timed passes with tracing off: per-run median over passes, summed.
fn machine_timed(
    name: &str,
    plan: &[RunSpec],
    opts: &Opts,
    cal: &Probe,
    gate: &mut Gate,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Tally {
    let twins: Vec<Option<Sample>> = plan.iter().map(|spec| verify(spec, cal, gate)).collect();
    v.set("setup_s", setup_seconds(plan, cal));
    // Per run of the plan, its timed region over the passes: at the reference
    // host speed, and as the wall clock read it.
    let mut normalised: Vec<Vec<f64>> = vec![Vec::new(); plan.len()];
    let mut raw = normalised.clone();
    let mut handoffs = Vec::new();
    let mut sim_cycles = 0.0;
    let began = Instant::now();
    let mut reps = 0;
    while another_pass(opts, reps, began.elapsed().as_secs_f64()) {
        let samples = pass(name, plan, &twins, cal, gate, tracer, None);
        for (i, s) in samples.iter().enumerate() {
            normalised[i].extend(s.as_ref().map(Sample::ref_ms));
            raw[i].extend(s.as_ref().map(Sample::wall_ms));
        }
        handoffs.extend(samples.iter().flatten().map(|s| s.handoff_ns));
        sim_cycles = sum(&samples, |s| s.stats.elapsed_cycles as f64);
        reps += 1;
    }
    let summed_medians = |walls: &[Vec<f64>]| -> f64 {
        walls.iter().filter(|w| !w.is_empty()).map(|w| median(w)).sum()
    };
    let wall_ms = summed_medians(&normalised);
    v.set("wall_ms", wall_ms);
    v.set("runs_per_s", per(plan.len() as f64, wall_ms / 1e3));
    Tally {
        sim_cycles: sim_cycles as u64,
        runs_per_pass: plan.len() as u64,
        reps: u64::from(reps),
        raw_wall_ms: summed_medians(&raw),
        handoff_ns: if handoffs.is_empty() { 0.0 } else { median(&handoffs) },
    }
}

/// One untraced pass as the reference, then the traced pass (registry
/// attached, spans, `/proc` reads) that the per-layer numbers come from.
fn machine_traced(
    name: &str,
    plan: &[RunSpec],
    cal: &Probe,
    gate: &mut Gate,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Tally {
    let twins: Vec<Option<Sample>> =
        tracer.scope("verify", |_| plan.iter().map(|spec| verify(spec, cal, gate)).collect());
    let reference =
        tracer.scope("reference-pass", |t| pass(name, plan, &twins, cal, gate, t, None));
    let reg = Registry::enabled();
    let traced =
        tracer.scope("traced-pass", |t| pass(name, plan, &twins, cal, gate, t, Some(&reg)));
    // Passes made minutes apart meet different host speeds, so ratios between
    // them compare normalised walls; a single pass's own numbers stay raw.
    let wall = |s: &[Option<Sample>]| sum(s, Sample::ref_ms);
    v.set("obs.trace_overhead_pct", (per(wall(&traced), wall(&reference)) - 1.0) * 100.0);
    let handoffs: Vec<f64> = traced.iter().flatten().map(|s| s.handoff_ns).collect();
    let handoff_ns = if handoffs.is_empty() { 0.0 } else { median(&handoffs) };
    v.set("host.handoff_ns", handoff_ns);
    v.set(
        "host.steal_pct",
        per(sum(&traced, Sample::steal_ms), sum(&traced, Sample::wall_ms)) * 100.0,
    );

    let sim_cycles = sum(&traced, |s| s.stats.elapsed_cycles as f64);
    let run_ms = sum(&traced, Sample::run_ms);
    let msgs = sum(&traced, |s| s.stats.messages.total() as f64);
    v.set("sim_cycles", sim_cycles);
    v.set("apps.build_ms", sum(&traced, Sample::build_ms));
    v.set("core.machine_setup_ms", sum(&traced, |s| s.setup_ms() - s.build_ms() - s.connect_ms));
    v.set("transport.connect_ms", sum(&traced, |s| s.connect_ms));
    v.set("core.run_ms", run_ms);
    v.set("obs.take_obs_ms", sum(&traced, Sample::take_obs_ms));
    v.set("core.msgs", msgs);
    v.set("core.misses", sum(&traced, |s| s.stats.misses.total() as f64));
    v.set("core.downgrades", sum(&traced, |s| s.stats.downgrades.total() as f64));
    v.set("core.check_batches", sum(&traced, |s| s.stats.checks.batches as f64));
    v.set("core.us_per_msg", per(run_ms * 1e3, msgs));
    v.set("sim.engine_ctx_switches", sum(&traced, |s| (s.end.switches - s.start.switches) as f64));
    let cpu_user = sum(&traced, |s| s.end.cpu.0 - s.start.cpu.0);
    let cpu_sys = sum(&traced, |s| s.end.cpu.1 - s.start.cpu.1);
    v.set("sim.cpu_user_ms", cpu_user);
    v.set("sim.cpu_sys_ms", cpu_sys);
    v.set("obs.events", sum(&traced, |s| s.log.as_ref().map_or(0, EventLog::len) as f64));
    v.set(
        "obs.events_dropped",
        sum(&traced, |s| s.log.as_ref().map_or(0, EventLog::dropped) as f64),
    );

    let snap = reg.snapshot();
    let total = |prefix: &str, suffix: &str| -> f64 {
        snap.with_prefix(prefix)
            .filter(|e| e.name.ends_with(suffix))
            .map(|e| snap.counter(&e.name) as f64)
            .sum()
    };
    v.set("memchan.link_bytes", total("cluster.link.bytes.", ""));
    v.set("memchan.link_occupancy_cycles", total("cluster.link.occupancy_cycles.", ""));

    // A twin pass on the serial engine prices what the workload's engine adds.
    let engine = plan[0].engine;
    if matches!(engine, Engine::Pdes2 | Engine::Recorded) {
        let serial: Vec<RunSpec> = plan.iter().map(|s| s.with(Engine::Serial, false)).collect();
        let twin_wall = wall(&tracer.scope("serial-twin-pass", |t| {
            pass("serial-twin", &serial, &twins, cal, gate, t, None)
        }));
        if engine == Engine::Pdes2 {
            let windows = snap.counter("pdes.windows") as f64;
            let shards = f64::from(plan[0].cfg.procs / plan[0].cfg.clustering);
            v.set("core.pdes.windows", windows);
            v.set("core.pdes.events_per_window", per(snap.counter("pdes.events") as f64, windows));
            v.set(
                "core.pdes.idle_window_share",
                per(total("pdes.shard.", ".idle_windows"), windows * shards),
            );
            v.set("core.pdes.slowdown_x", per(wall(&reference), twin_wall));
        } else {
            v.set("obs.recording_overhead_pct", (per(wall(&reference), twin_wall) - 1.0) * 100.0);
            post_run_tools(plan, &traced, tracer, v);
        }
    }

    if let Engine::Wire(_) = engine {
        let counts: Vec<WireCounts> = traced.iter().flatten().filter_map(|s| s.wire).collect();
        let c = |f: fn(&WireCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
        let (frames, drops, retx) =
            (c(|c| c.data_frames), c(|c| c.induced_drops), c(|c| c.retransmits));
        v.set("transport.data_frames", frames);
        v.set("transport.acks", c(|c| c.acks_sent));
        v.set("transport.retransmits", retx);
        v.set("transport.induced_drops", drops);
        v.set("transport.dups_dropped", c(|c| c.dups_dropped));
        v.set("transport.holds", c(|c| c.holds));
        v.set("transport.resequenced", c(|c| c.resequenced));
        v.set("transport.bytes_data", snap.counter("wire.bytes.data") as f64);
        let mut rtt = Histogram::new();
        for e in snap.with_prefix("wire.ack_rtt_ns.") {
            rtt.merge(&reg.histogram(&e.name).load());
        }
        v.set("transport.ack_rtt_p50_ns", rtt.percentile(0.50).unwrap_or(0) as f64);
        v.set("transport.ack_rtt_p99_ns", rtt.percentile(0.99).unwrap_or(0) as f64);
        // The twins of the verification pass are the same runs on the
        // simulated network alone.
        let over_sim_ms = wall(&reference) - wall(&twins);
        v.set("transport.us_per_frame", per(over_sim_ms * 1e3, frames));
        v.set("transport.ms_per_drop", per(over_sim_ms, drops));
        v.set("transport.retx_useful_ratio", per(drops, retx));
        v.set("transport.sleep_share", (1.0 - per(cpu_user + cpu_sys, run_ms)).max(0.0));
    }
    Tally {
        sim_cycles: sim_cycles as u64,
        runs_per_pass: plan.len() as u64,
        reps: 1,
        raw_wall_ms: sum(&reference, Sample::wall_ms),
        handoff_ns,
    }
}

/// The post-run tools on the traced pass's logs: critical-path analysis and
/// the Chrome exporter. They move no timed metric. The analysis refuses an
/// incomplete stream, so a kernel whose rings overflowed at [`RING`]
/// contributes nothing here.
fn post_run_tools(
    plan: &[RunSpec],
    traced: &[Option<Sample>],
    tracer: &mut Tracer,
    v: &mut Values,
) {
    let (mut analyze_ms, mut fallback_pct) = (0.0, 0.0f64);
    for (spec, s) in plan.iter().zip(traced) {
        let Some((s, log)) = s.as_ref().and_then(|s| Some((s, s.log.as_ref()?))) else { continue };
        let t0 = Instant::now();
        let path = shasta_obs::analyze(log, s.stats.elapsed_cycles);
        let t1 = Instant::now();
        tracer.add(&format!("obs.critpath_analyze/{}", spec.app), t0, t1);
        match path {
            Ok(path) => {
                analyze_ms += ms(t0, t1);
                if spec.app == "Volrend" || spec.app == "Barnes" {
                    let share = per(path.fallback_cycles() as f64, s.stats.elapsed_cycles as f64);
                    fallback_pct = fallback_pct.max(share * 100.0);
                }
            }
            Err(why) => eprintln!("note: {} critical path not analysed: {why}", spec.app),
        }
        if spec.app == "LU" {
            let t0 = Instant::now();
            let json = shasta_obs::chrome::to_chrome_json(log);
            let t1 = Instant::now();
            tracer.add("obs.chrome_export/LU", t0, t1);
            v.set("obs.chrome_export_ms", ms(t0, t1));
            v.set("obs.chrome_mb", json.len() as f64 / (1024.0 * 1024.0));
        }
    }
    v.set("obs.critpath_analyze_ms", analyze_ms);
    v.set("obs.critpath_fallback_pct", fallback_pct);
}

/// One pass of `check_sweep`.
struct SweepPass {
    /// The ends of the pass on the wall clock, probe readings included.
    began: Instant,
    ended: Instant,
    /// `[schedules, counterexamples, Σ elapsed_cycles]`.
    print: [u64; 3],
    /// Counters summed over the schedules.
    totals: RunStats,
    /// Per chunk of [`SWEEP_CHUNK`] seeds: host milliseconds per seed (every
    /// scenario × both policies) at the reference host speed, and raw.
    seed_ref_ms: Vec<f64>,
    seed_raw_ms: Vec<f64>,
    /// The probe's reading for each chunk.
    handoffs: Vec<f64>,
    /// Summed over the chunks (the probe's own switches lie between them):
    /// raw wall, stolen time, and on traced passes context switches of this
    /// thread and user/system CPU milliseconds.
    raw_ms: f64,
    steal_ms: f64,
    switches: u64,
    cpu: (f64, f64),
    /// Host microseconds of each schedule, traced passes only.
    run_us: Vec<f64>,
}

impl SweepPass {
    /// The pass at the reference host speed: the median seed, times the
    /// seeds. Three or four whole passes would be too few samples to sit out
    /// a noisy neighbour; a pass has 17 chunks.
    fn ref_ms(per_seed: &[f64], seeds: usize) -> f64 {
        median(per_seed) * seeds as f64
    }
}

/// What a sweep pays before steady state: a cold `RunCtx` taken through each
/// scenario once (oracle buffers, first machines). Returns the warm context
/// and the seconds it took at the reference host speed.
fn sweep_setup(cal: &Probe, gate: &mut Gate) -> (RunCtx, f64) {
    let mut ctx = RunCtx::default();
    let before = cal.handoff_ns();
    let start = Clocks::starting();
    for s in &default_scenarios() {
        let res = run_checked_ctx(s, SchedulePolicy::Deterministic, BugInjection::None, &mut ctx);
        gate.record(s.name, res.map(|_| ()).map_err(|cx| cx.to_string()));
    }
    let end = Clocks::ending();
    let handoff_ns = (before + cal.handoff_ns()) / 2.0;
    (ctx, normalised_ms(&start, &end, handoff_ns) / 1e3)
}

fn sweep_pass(
    seeds: std::ops::Range<u64>,
    cal: &Probe,
    gate: &mut Gate,
    traced: bool,
) -> SweepPass {
    let scenarios = default_scenarios();
    let (mut ctx, _) = sweep_setup(cal, gate);
    let mut p = SweepPass {
        began: Instant::now(),
        ended: Instant::now(),
        print: [0; 3],
        totals: RunStats::new(0),
        seed_ref_ms: Vec::new(),
        seed_raw_ms: Vec::new(),
        handoffs: Vec::new(),
        raw_ms: 0.0,
        steal_ms: 0.0,
        switches: 0,
        cpu: (0.0, 0.0),
        run_us: Vec::new(),
    };
    let seeds: Vec<u64> = seeds.collect();
    // One reading between chunks serves as the end of one and the start of
    // the next: nothing else runs in between.
    let mut reading = cal.handoff_ns();
    for chunk in seeds.chunks(SWEEP_CHUNK) {
        let start = Mark::starting(traced);
        for &seed in chunk {
            for s in &scenarios {
                for policy in policies_for_seed(seed) {
                    let t = traced.then(Instant::now);
                    let res = run_checked_ctx(s, policy, BugInjection::None, &mut ctx);
                    p.run_us.extend(t.map(|t| t.elapsed().as_secs_f64() * 1e6));
                    p.print[0] += 1;
                    match &res {
                        Ok(stats) => {
                            p.print[2] += stats.elapsed_cycles;
                            let t = &mut p.totals;
                            t.misses = t.misses.merged_with(&stats.misses);
                            t.messages = t.messages.merged_with(&stats.messages);
                            t.downgrades = t.downgrades.merged_with(&stats.downgrades);
                            t.checks = t.checks.merged_with(&stats.checks);
                        }
                        Err(_) => p.print[1] += 1,
                    }
                    gate.record(
                        &format!("{} seed {seed} {policy:?}", s.name),
                        res.map(|_| ()).map_err(|cx| cx.to_string()),
                    );
                }
            }
        }
        let end = Mark::ending(traced);
        let next = cal.handoff_ns();
        let handoff_ns = (reading + next) / 2.0;
        reading = next;
        let raw = ms(start.at(), end.at());
        p.seed_ref_ms
            .push(normalised_ms(&start.clocks, &end.clocks, handoff_ns) / chunk.len() as f64);
        p.seed_raw_ms.push(raw / chunk.len() as f64);
        p.handoffs.push(handoff_ns);
        p.raw_ms += raw;
        p.steal_ms += end.clocks.steal_ms - start.clocks.steal_ms;
        p.switches += end.switches - start.switches;
        p.cpu = (p.cpu.0 + end.cpu.0 - start.cpu.0, p.cpu.1 + end.cpu.1 - start.cpu.1);
    }
    p.ended = Instant::now();
    p
}

fn sweep_workload(
    opts: &Opts,
    cal: &Probe,
    gate: &mut Gate,
    tracer: &mut Tracer,
    v: &mut Values,
) -> Tally {
    let seeds = opts.seed..opts.seed + if opts.quick { SWEEP_SEEDS_QUICK } else { SWEEP_SEEDS };
    let n_seeds = (seeds.end - seeds.start) as usize;
    if !opts.trace {
        v.set("setup_s", median_setup_seconds(|| Some(sweep_setup(cal, gate).1)));
    }
    // Schedules are a pure function of the seed: golden at seed 0, and every
    // pass must repeat the first.
    let first = sweep_pass(seeds.clone(), cal, gate, false);
    if opts.seed == 0 {
        let verdict = gate.against_golden("seed0", &first.print);
        gate.record("sweep fingerprint", verdict);
    }
    let repeats = |gate: &mut Gate, p: &SweepPass| {
        if p.print != first.print {
            gate.record(
                "sweep repeat",
                Err(format!("{:?} != first pass {:?}", p.print, first.print)),
            );
        }
    };
    let sim_cycles = first.print[2];

    if !opts.trace {
        let (mut seed_ref_ms, mut seed_raw_ms) =
            (first.seed_ref_ms.clone(), first.seed_raw_ms.clone());
        let mut handoffs = first.handoffs.clone();
        let mut reps = 1;
        while another_pass(opts, reps, first.began.elapsed().as_secs_f64()) {
            let p = sweep_pass(seeds.clone(), cal, gate, false);
            repeats(gate, &p);
            seed_ref_ms.extend(&p.seed_ref_ms);
            seed_raw_ms.extend(&p.seed_raw_ms);
            handoffs.extend(&p.handoffs);
            reps += 1;
        }
        let wall_ms = SweepPass::ref_ms(&seed_ref_ms, n_seeds);
        v.set("wall_ms", wall_ms);
        v.set("runs_per_s", per(first.print[0] as f64, wall_ms / 1e3));
        return Tally {
            sim_cycles,
            runs_per_pass: first.print[0],
            reps: u64::from(reps),
            raw_wall_ms: SweepPass::ref_ms(&seed_raw_ms, n_seeds),
            handoff_ns: median(&handoffs),
        };
    }

    let traced = sweep_pass(seeds.clone(), cal, gate, true);
    repeats(gate, &traced);
    tracer.add("check.sweep reference", first.began, first.ended);
    tracer.add("check.sweep traced", traced.began, traced.ended);
    let run_ms = traced.raw_ms;
    let msgs = traced.totals.messages.total() as f64;
    // The two passes may meet different host speeds: compare normalised walls.
    let wall = |p: &SweepPass| SweepPass::ref_ms(&p.seed_ref_ms, n_seeds);
    v.set("obs.trace_overhead_pct", (per(wall(&traced), wall(&first)) - 1.0) * 100.0);
    v.set("host.handoff_ns", median(&traced.handoffs));
    v.set("host.steal_pct", per(traced.steal_ms, run_ms) * 100.0);
    v.set("sim_cycles", sim_cycles as f64);
    v.set("core.run_ms", run_ms);
    v.set("core.msgs", msgs);
    v.set("core.misses", traced.totals.misses.total() as f64);
    v.set("core.downgrades", traced.totals.downgrades.total() as f64);
    v.set("core.check_batches", traced.totals.checks.batches as f64);
    v.set("core.us_per_msg", per(run_ms * 1e3, msgs));
    v.set("sim.engine_ctx_switches", traced.switches as f64);
    v.set("sim.cpu_user_ms", traced.cpu.0);
    v.set("sim.cpu_sys_ms", traced.cpu.1);
    v.set("check.schedules", traced.print[0] as f64);
    v.set("check.run_us_p50", percentile(&traced.run_us, 0.50));
    v.set("check.run_us_p99", percentile(&traced.run_us, 0.99));

    // The oracle's share, on every tenth seed: the same schedules with the
    // oracle (and its trace ring and step limit) on and off.
    let (mut on, mut off) = (0.0, 0.0);
    let t0 = Instant::now();
    for seed in seeds.step_by(10) {
        for s in &default_scenarios() {
            for policy in policies_for_seed(seed) {
                for (oracle, acc) in [(true, &mut on), (false, &mut off)] {
                    let t = Instant::now();
                    run_scenario(s, policy, BugInjection::None, oracle);
                    *acc += t.elapsed().as_secs_f64();
                }
            }
        }
    }
    tracer.add("check.oracle_subsample", t0, Instant::now());
    v.set("check.oracle_share_pct", (1.0 - per(off, on)) * 100.0);
    Tally {
        sim_cycles,
        runs_per_pass: first.print[0],
        reps: 1,
        raw_wall_ms: first.raw_ms,
        handoff_ns: median(&traced.handoffs),
    }
}

/// Runs one workload in this (already pinned) process.
pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut gate = Gate::new(workload, opts)?;
    let mut tracer = Tracer::new(opts.trace);
    let mut v = Values::default();
    // Started here, in the pinned process, so its helper thread is pinned too.
    let cal = Probe::start();
    let tally = if workload == "check_sweep" {
        sweep_workload(opts, &cal, &mut gate, &mut tracer, &mut v)
    } else {
        let plan = plan(workload, opts.quick).ok_or(format!("unknown workload {workload:?}"))?;
        if opts.trace {
            machine_traced(workload, &plan, &cal, &mut gate, &mut tracer, &mut v)
        } else {
            machine_timed(workload, &plan, opts, &cal, &mut gate, &mut tracer, &mut v)
        }
    };
    if opts.trace {
        crate::layers::run(opts.quick, &opts.host_cpus, &mut v, &mut tracer);
        // An estimate: each rendezvous costs the engine thread two switches.
        let switches = v.get("sim.engine_ctx_switches").unwrap_or(0.0);
        let rendezvous_ms = v.get("sim.rendezvous_ns").unwrap_or(0.0) / 1e6;
        let run_ms = v.get("core.run_ms").unwrap_or(0.0);
        v.set("sim.switch_est_share", per(switches * rendezvous_ms / 2.0, run_ms));
        std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
        std::fs::write("benchmark/out/trace.json", tracer.to_json())
            .map_err(|e| format!("benchmark/out/trace.json: {e}"))?;
    } else {
        v.set("peak_rss_mb", host::peak_rss_mb());
    }
    let (attempted, failed, notes) = gate.finish()?;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: v.report(if opts.trace { PER_LAYER } else { END_TO_END }),
        sim_cycles: tally.sim_cycles,
        runs_per_pass: tally.runs_per_pass,
        reps: tally.reps,
        raw_wall_ms: tally.raw_wall_ms,
        handoff_ns: tally.handoff_ns,
        notes,
    })
}
