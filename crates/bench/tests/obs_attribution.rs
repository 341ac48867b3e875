//! The observability layer's accounting must close over the engine's own
//! counters on real workloads, and the Chrome exporter must produce JSON
//! that survives a round trip through the bundled parser.
//!
//! A `Slice` event is the engine's Figure 4 attribution — it is folded into
//! `RunStats::breakdowns` at the line that emits it — so per processor the
//! `RunStats` category totals plus the idle gaps between slices must tile
//! the processor's entire simulated timeline *exactly*, and recording the
//! stream must not move a single counter.

use std::collections::{BTreeMap, BTreeSet};

use shasta_apps::{registry, run_app_observed, AppSpec, Preset, Proto, RunConfig};
use shasta_bench::{apps_for, run, run_observed, run_observed_metrics};
use shasta_obs::{chrome, critpath, EventKind, EventLog, PathCat};
use shasta_stats::RunStats;

/// The Table 2 kernels at tiny inputs, Base-Shasta and two SMP clusterings.
fn table2_points() -> Vec<(AppSpec, Proto, u32)> {
    let mut points = Vec::new();
    for proto_clustering in [(Proto::Base, 1u32), (Proto::Smp, 2), (Proto::Smp, 4)] {
        for spec in apps_for(true, false) {
            points.push((spec, proto_clustering.0, proto_clustering.1));
        }
    }
    points
}

fn assert_attribution_exact(name: &str, stats: &RunStats, log: &EventLog) {
    let agg = log.fig4();
    assert_eq!(agg.procs(), stats.breakdowns.len(), "{name}: processor count");
    for p in 0..agg.procs() as u32 {
        assert_eq!(agg.overlap(p), 0, "{name}: P{p} has overlapping slices");
        assert_eq!(
            stats.breakdowns[p as usize].total() + agg.idle(p),
            agg.span(p),
            "{name}: P{p} buckets + idle must tile the timeline"
        );
    }
    assert_eq!(
        agg.max_span(),
        stats.elapsed_cycles,
        "{name}: derived end-to-end time must equal the measured one"
    );
}

/// The Figure 4 buckets tile each processor's simulated time on every
/// Table 2 kernel under Base-Shasta and clustered SMP-Shasta (and
/// `run_observed` itself demands that the engine's sends re-sum to the
/// network layer's message counters in every one of these runs).
#[test]
fn breakdowns_tile_every_processors_time_on_table2_kernels() {
    for (spec, proto, clustering) in table2_points() {
        let (stats, log) = run_observed(&spec, Preset::Tiny, proto, 8, clustering, false);
        let name = format!("{} {proto:?} c{clustering}", spec.name);
        assert_attribution_exact(&name, &stats, &log);
        assert!(!log.is_empty(), "{name}: an 8-processor run must record events");
    }
}

/// Observation never advances the simulated clock: a run with recording
/// off, one with full event recording, and one with recording plus a live
/// metrics registry return equal `RunStats` — every cycle and counter — on
/// every Table 2 kernel under Base-Shasta and clustered SMP-Shasta.
#[test]
fn recording_and_metrics_leave_run_stats_identical_on_table2_kernels() {
    for (spec, proto, clustering) in table2_points() {
        let name = format!("{} {proto:?} c{clustering}", spec.name);
        let plain = run(&spec, Preset::Tiny, proto, 8, clustering, false);
        let (recorded, _) = run_observed(&spec, Preset::Tiny, proto, 8, clustering, false);
        assert_eq!(plain, recorded, "{name}: event recording perturbed the run");
        let (metered, _) = run_observed_metrics(&spec, Preset::Tiny, proto, 8, clustering, false);
        assert_eq!(plain, metered, "{name}: the metrics registry perturbed the run");
    }
}

/// Figure 8's event columns sum the sharing profiler's per-block downgrade
/// fields. Their total must be the engine's own count (`RunStats`, the one
/// producer of the histogram), and only a started downgrade can resolve.
#[test]
fn profiled_downgrades_match_the_engine_count_on_table2_kernels() {
    for spec in apps_for(true, false) {
        let (stats, log) = run_observed(&spec, Preset::Tiny, Proto::Smp, 8, 4, false);
        let profile = log.profile().expect("the run attached the space map");
        let (downgrades, resolved) = profile.blocks().fold((0u64, 0u64), |(n, r), (_, b)| {
            (n + u64::from(b.downgrades), r + u64::from(b.downgrade_resolutions))
        });
        let name = spec.name;
        assert_eq!(downgrades, stats.downgrades.total(), "{name}: profiled downgrades");
        assert!(resolved <= downgrades, "{name}: {resolved} resolved of {downgrades}");
    }
}

/// A recorded event costs a few bytes of ring, counted rather than timed:
/// the four kernels of the benchmark's recorded workload at Tiny, SMP
/// 16p/c4, keep every event they record at no more than 4.5 bytes an event
/// (4.04 today: 445 881 bytes for 110 250 events, each receive carrying its
/// send stamp). A change that widens the encoding fails here: writing each
/// slice's start and each repeated block, as the encoding did before it
/// left out what the stream predicts, read 4.96.
#[test]
fn a_recorded_event_takes_at_most_four_and_a_half_bytes_of_ring() {
    let (mut events, mut bytes) = (0, 0);
    for name in ["LU", "Barnes", "Water-Nsq", "Volrend"] {
        let spec = registry().into_iter().find(|s| s.name == name).expect("a registered kernel");
        let (_, log) = run_observed(&spec, Preset::Tiny, Proto::Smp, 16, 4, false);
        events += log.len();
        bytes += log.ring_bytes();
    }
    assert!(events > 10_000, "{events} events recorded");
    assert!(2 * bytes <= 9 * events, "{bytes} ring bytes for {events} events");
}

/// The critical path follows the edges the engine recorded under every
/// SMP-Shasta configuration that changes who ends a stall: as configured
/// (a node mate's reply ends a merged miss, §3.4.2), with the shared
/// directory, and with load balancing (a node processor other than the
/// addressed one serves a request, §3.1). On all six Table 2 kernels at
/// Tiny, SMP 8p/c4, each run analyses without error and tiles exactly, and
/// every change of processor along the path is a wire hop or a recorded
/// wake: a `woken` at that cycle naming the processor the path continues
/// on. Nothing is left to a guess, and both node-level edges are taken.
#[test]
fn critical_paths_follow_recorded_edges_under_the_smp_extensions() {
    let plain = RunConfig::new(Proto::Smp, 8, 4);
    for (config, cfg) in [
        ("plain", plain.clone()),
        ("share_directory", plain.clone().share_directory()),
        ("load_balance", plain.load_balance()),
    ] {
        let (mut wakes, mut served_elsewhere) = (0, 0);
        for spec in apps_for(true, false) {
            let name = format!("{} {config}", spec.name);
            let app = (spec.build)(Preset::Tiny, false);
            let (stats, log) = run_app_observed(app.as_ref(), &cfg, |_| {});
            let path = critpath::analyze(&log, stats.elapsed_cycles)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            path.crosscheck().unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut woken = BTreeSet::new();
            let mut sends = BTreeMap::new();
            for e in log.iter() {
                match e.kind {
                    EventKind::Woken { by } => _ = woken.insert((e.proc, e.t, by)),
                    EventKind::MsgSend { peer, .. } => _ = sends.insert((e.proc, e.t), peer),
                    _ => {}
                }
            }
            for pair in path.segments.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if a.proc == b.proc {
                    continue;
                }
                if a.cat == PathCat::Wire {
                    served_elsewhere += usize::from(sends[&(a.proc, a.start)] != b.proc);
                } else {
                    assert!(
                        woken.contains(&(b.proc, b.start, a.proc)),
                        "{name}: the path moves from P{} to P{} at {} with no recorded edge",
                        b.proc,
                        a.proc,
                        b.start
                    );
                    wakes += 1;
                }
            }
        }
        assert!(wakes > 0, "{config}: no wake edge on any path");
        if config == "load_balance" {
            assert!(served_elsewhere > 0, "{config}: no request served by another processor");
        }
    }
}

/// An SMP run with false sharing exercises every event kind the protocol
/// can emit; a Base run must emit none of the SMP-only kinds.
#[test]
fn event_kinds_cover_the_protocol_surface() {
    let spec = &registry()[0]; // Barnes: heavy sharing, locks, and barriers.
    let (_, smp) = run_observed(spec, Preset::Tiny, Proto::Smp, 8, 4, false);
    let kinds: std::collections::HashSet<&str> = smp.iter().map(|e| e.kind.name()).collect();
    let expected = [
        "check-miss",
        "msg-send",
        "msg-recv",
        "downgrade-start",
        "downgrade-ack",
        "downgrade-done",
        "poll-drain",
        "line-lock-acquire",
        "line-lock-release",
        "stall-begin",
        "slice",
        "woken",
    ];
    for expected in expected {
        assert!(kinds.contains(expected), "SMP run missing {expected} events; saw {kinds:?}");
    }
    // Base-Shasta has no node mates: downgrades degenerate to local state
    // changes (zero targets, so no acks) and there is no intra-node state
    // lock to span.
    let (_, base) = run_observed(spec, Preset::Tiny, Proto::Base, 8, 1, false);
    for smp_only in ["downgrade-ack", "line-lock-acquire", "line-lock-release"] {
        assert!(
            !base.iter().any(|e| e.kind.name() == smp_only),
            "Base-Shasta must not emit {smp_only} events"
        );
    }
    for e in base.iter() {
        if let EventKind::DowngradeStart { targets, .. } = e.kind {
            assert_eq!(targets, 0, "a Base-Shasta downgrade never messages node mates");
        }
    }
}

/// The Chrome `trace_event` export of a real run re-parses, and the parsed
/// document reflects the log: one complete ("X") event per slice, one
/// instant ("i") event per other event but wakes, thread metadata per
/// processor, and slice durations that re-sum to the Figure 4 breakdown.
#[test]
fn chrome_export_round_trips() {
    let spec = &registry()[3]; // LU-Contig: small and fast at tiny inputs.
    let (stats, log) = run_observed(spec, Preset::Tiny, Proto::Smp, 8, 4, false);
    let json = chrome::to_chrome_json(&log);
    let doc = chrome::parse(&json).expect("exporter must emit valid JSON");

    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
    let slices = log.iter().filter(|e| matches!(e.kind, EventKind::Slice { .. })).count();
    let wakes = log.iter().filter(|e| !chrome::is_exported(&e.kind)).count();
    let instants = log.len() - slices - wakes;
    let metadata = 1 + log.procs(); // process_name + one thread_name per proc
    let ph = |want: &str| {
        events.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(want)).count()
    };
    let flows =
        log.iter().filter(|e| matches!(e.kind, EventKind::CheckMiss { id, .. } if id != 0)).count();
    assert_eq!(ph("X"), slices, "one complete event per slice");
    assert_eq!(ph("i"), instants, "one instant event per other event");
    assert_eq!(ph("M"), metadata, "process + per-thread metadata");
    assert_eq!(ph("s"), flows, "one flow start per id-carrying check miss");
    assert_eq!(events.len(), log.len() - wakes + metadata + flows);

    // The ring keeps every slice, so the re-summed "X" durations are the
    // full breakdown.
    let dur_sum: u64 = events.iter().filter_map(|e| e.get("dur").and_then(|v| v.as_u64())).sum();
    assert_eq!(
        dur_sum,
        stats.total_breakdown().total(),
        "exported durations re-sum to the breakdown"
    );
}
