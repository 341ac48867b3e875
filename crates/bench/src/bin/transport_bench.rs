//! Loopback-transport benchmark: measures the real-socket fabric and proves
//! the differential acceptance criterion, appending one run to the
//! `BENCH_transport.json` trajectory, whose criteria
//! `crates/bench/tests/trajectories.rs` gates.
//!
//! Four measurement sections:
//!
//! 1. **Handshake** — wall time to bring up the full fabric (sockets plus
//!    `HELLO` version negotiation on every node-pair stream) for a
//!    2-node/8-processor topology, per backend.
//! 2. **Round trip** — raw socket ping-pong of an encoded `DATA` frame
//!    through the production codec, per backend (median of many RTTs).
//! 3. **Differential** — every Table 2 kernel over both backends; the
//!    message, miss, and downgrade counters and simulated cycles must equal
//!    the pure-simulator oracle *exactly* (the acceptance criterion). A live
//!    metrics registry rides every wire run: the per-node-pair ACK round-trip
//!    histograms it reports (`wire.ack_rtt_ns.*` p50/p95/p99, send → ACK
//!    collected at the sender's next poll of that stream) land in the
//!    trajectory, and every run must have sampled at least one pair. So do
//!    its socket syscall counts (`wire.io.reads`, `wire.io.writes`,
//!    `wire.io.would_block`), printed per `DATA` frame.
//! 4. **Retransmit** — LU with every 7th first transmission dropped; the
//!    counters must still match, the drop/retransmit/hold machinery must
//!    all have fired, the registry's `wire.retransmits.first_tx_dropped`
//!    counter must equal the fabric's induced-drop tally **exactly** — two
//!    independent accountings of the same loss events — and at least nine
//!    retransmissions in ten must each have recovered a drop. The row also
//!    reports what triggered the retransmissions (`wire.retransmits.fast` /
//!    `.timeout`), the timeouts the timers expired with (`wire.rto_ns.*`),
//!    and the wall time over the pure-simulator twin per drop.
//!
//! The criteria (`differential_pass`, `retransmit_pass`, `metrics_pass`) are
//! asserted at exit so a regression aborts the binary rather than silently
//! logging `false`; `walls.total_wall_ms` sums sections 3 and 4.
//!
//! ```text
//! transport_bench [--quick] [--out PATH] [--counters PATH] [--trace PATH]
//! ```
//!
//! `--quick` is the CI smoke configuration: one kernel (LU) over UDS plus
//! the retransmit section. `--counters PATH` writes the sim-oracle counters
//! of every kernel it ran to PATH; the report is derived purely from the
//! deterministic simulator, so two independent invocations must produce
//! byte-identical files — the CI determinism diff. `--trace PATH` runs LU
//! once more over UDS with induced drops and writes a Chrome trace merging
//! the engine's simulated timeline with the wire fabric's event log: each
//! remote miss renders as one causal flow from the triggering check to its
//! DATA frames on the wire.

use std::io::{Read, Write};
use std::time::Instant;

use shasta_apps::driver::{
    registry, run_app, run_app_observed, run_app_with_transport, Preset, Proto, RunConfig,
};
use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{flag, merge_wire_trace};
use shasta_core::protocol::ProtoMsg;
use shasta_core::space::Block;
use shasta_obs::Registry;
use shasta_stats::{MetricValue, RunStats};
use shasta_transport::wire::{encode_frame, DataFrame, Frame, FrameReader, VERSION};
use shasta_transport::{Backend, DropPlan, LoopbackTransport, Transport as _};

fn smp_tiny() -> RunConfig {
    RunConfig::new(Proto::Smp, 8, 4)
}

/// Median wall time, in milliseconds, to connect the full fabric (per-pair
/// sockets + HELLO negotiation) for an 8-processor, 2-node topology.
fn handshake_ms(backend: Backend, iters: usize) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let topo = shasta_cluster::Topology::new(8, 4, 4).unwrap();
            let t = Instant::now();
            let transport = LoopbackTransport::connect(
                topo,
                shasta_cluster::CostModel::alpha_4100(),
                backend,
                DropPlan::default(),
            )
            .expect("loopback fabric");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(transport);
            ms
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median round-trip time, in microseconds, for one encoded `DATA` frame
/// ping-ponged over a raw socket pair through the production codec.
fn round_trip_us(backend: Backend, iters: usize) -> f64 {
    let frame = Frame::Data(DataFrame {
        version: VERSION,
        src: 0,
        dst: 4,
        pair_seq: 1,
        via_vnode: false,
        trace: 0,
        msg: ProtoMsg::ReadReq { block: Block { start: 0x4000, len: 64 } },
    });
    let bytes = encode_frame(&frame).expect("encode");
    let echo_bytes = bytes.clone();

    // An echo peer that decodes each frame (exercising the codec on both
    // sides of the wire) and writes the canonical encoding back.
    let serve = move |mut sock: Box<dyn SockIo>| {
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 4096];
        loop {
            match sock.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => reader.extend(&buf[..n]),
            }
            while let Ok(Some(f)) = reader.next_frame() {
                assert!(matches!(f, Frame::Data(_)));
                if sock.write_all(&echo_bytes).is_err() {
                    return;
                }
            }
        }
    };

    let (mut local, handle) = match backend {
        Backend::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let handle = std::thread::spawn(move || {
                let (sock, _) = listener.accept().expect("accept");
                sock.set_nodelay(true).expect("nodelay");
                serve(Box::new(sock));
            });
            let sock = std::net::TcpStream::connect(addr).expect("connect");
            sock.set_nodelay(true).expect("nodelay");
            (Box::new(sock) as Box<dyn SockIo>, handle)
        }
        Backend::Uds => {
            let path =
                std::env::temp_dir().join(format!("shasta-bench-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind");
            let handle = std::thread::spawn(move || {
                let (sock, _) = listener.accept().expect("accept");
                serve(Box::new(sock));
            });
            let sock = std::os::unix::net::UnixStream::connect(&path).expect("connect");
            let _ = std::fs::remove_file(&path);
            (Box::new(sock) as Box<dyn SockIo>, handle)
        }
    };

    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        local.write_all(&bytes).expect("write");
        'await_echo: loop {
            let n = local.read(&mut buf).expect("read");
            assert!(n > 0, "echo peer hung up");
            reader.extend(&buf[..n]);
            if let Ok(Some(f)) = reader.next_frame() {
                assert_eq!(f, frame, "echo corrupted the frame");
                break 'await_echo;
            }
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    local.shutdown_write();
    handle.join().expect("echo peer");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Object-safe read+write over both socket flavors, with a half-close so
/// the echo peer's read loop terminates.
trait SockIo: Read + Write + Send {
    fn shutdown_write(&mut self);
}
impl SockIo for std::net::TcpStream {
    fn shutdown_write(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Write);
    }
}
impl SockIo for std::os::unix::net::UnixStream {
    fn shutdown_write(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Write);
    }
}

fn counters_equal(sim: &RunStats, wire: &RunStats) -> bool {
    sim.messages == wire.messages
        && sim.misses == wire.misses
        && sim.downgrades == wire.downgrades
        && sim.elapsed_cycles == wire.elapsed_cycles
}

struct DiffRow {
    app: &'static str,
    backend: Backend,
    pass: bool,
    wall_ms: f64,
    /// Per-node-pair ACK round-trip summaries from the wire metrics
    /// registry: (pair suffix e.g. `n0.n1`, count, p50, p95, p99), in ns.
    ack_rtt_pairs: Vec<(String, u64, u64, u64, u64)>,
    /// `DATA` frames offered, and the socket `read`s, `write`s and
    /// not-ready returns (`wire.io.*`) it took to move them and their ACKs.
    data_frames: u64,
    io: [u64; 3],
}

/// Extracts the sampled per-pair ACK-RTT histograms from a registry
/// snapshot.
fn ack_rtt_pairs(snap: &shasta_stats::Snapshot) -> Vec<(String, u64, u64, u64, u64)> {
    snap.with_prefix("wire.ack_rtt_ns.")
        .filter_map(|e| match e.value {
            MetricValue::Hist { count, p50, p95, p99, .. } if count > 0 => Some((
                e.name.trim_start_matches("wire.ack_rtt_ns.").to_string(),
                count,
                p50,
                p95,
                p99,
            )),
            _ => None,
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // --- Section 1: fabric handshake. ---
    let iters = if quick { 3 } else { 9 };
    let handshakes: Vec<(Backend, f64)> =
        [Backend::Tcp, Backend::Uds].map(|b| (b, handshake_ms(b, iters))).into();
    for (b, ms) in &handshakes {
        println!("handshake {:<4} 8 procs / 2 nodes: {ms:7.3} ms", b.label());
    }

    // --- Section 2: codec round trip over a raw socket pair. ---
    let rtt_iters = if quick { 200 } else { 2_000 };
    let rtts: Vec<(Backend, f64)> =
        [Backend::Tcp, Backend::Uds].map(|b| (b, round_trip_us(b, rtt_iters))).into();
    for (b, us) in &rtts {
        println!(
            "round-trip {:<4} 64B DATA frame:    {us:7.2} us (median of {rtt_iters})",
            b.label()
        );
    }

    // --- Section 3: the differential acceptance criterion. ---
    let cfg = smp_tiny();
    let table2: Vec<_> = registry().into_iter().filter(|s| s.in_table2).collect();
    let apps: Vec<_> = if quick {
        table2.iter().filter(|s| s.name == "LU").collect()
    } else {
        table2.iter().collect()
    };
    let backends: &[Backend] = if quick { &[Backend::Uds] } else { &[Backend::Tcp, Backend::Uds] };
    let mut counters_report = String::new();
    let mut rows: Vec<DiffRow> = Vec::new();
    for spec in &apps {
        let sim = run_app((spec.build)(Preset::Tiny, true).as_ref(), &cfg);
        counters_report.push_str(&format!(
            "{} messages={:?} misses={:?} downgrades={:?} cycles={}\n",
            spec.name, sim.messages, sim.misses, sim.downgrades, sim.elapsed_cycles
        ));
        for &backend in backends {
            let reg = Registry::enabled();
            let mut probe = None;
            let t = Instant::now();
            let wire = run_app_with_transport(
                (spec.build)(Preset::Tiny, true).as_ref(),
                &cfg,
                |tp, cm| {
                    let mut transport = LoopbackTransport::connect(
                        tp.clone(),
                        cm.clone(),
                        backend,
                        DropPlan::default(),
                    )
                    .expect("loopback fabric");
                    transport.set_metrics(&reg);
                    probe = Some(transport.counts_probe());
                    Box::new(transport)
                },
            );
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let snap = reg.snapshot();
            let row = DiffRow {
                app: spec.name,
                backend,
                pass: counters_equal(&sim, &wire),
                wall_ms,
                ack_rtt_pairs: ack_rtt_pairs(&snap),
                data_frames: probe.expect("factory ran").get().data_frames,
                io: ["reads", "writes", "would_block"]
                    .map(|what| snap.counter(&format!("wire.io.{what}"))),
            };
            let [reads, writes, would_block] = row.io;
            println!(
                "differential {:<9} {:<4} counters {} ({:.1}ms, {} ACK-RTT pair(s) sampled; \
                 {} frames: {reads} reads + {writes} writes = {:.2}/frame, {would_block} \
                 would-block)",
                row.app,
                backend.label(),
                if row.pass { "equal" } else { "DIVERGED" },
                row.wall_ms,
                row.ack_rtt_pairs.len(),
                row.data_frames,
                (reads + writes) as f64 / row.data_frames.max(1) as f64,
            );
            rows.push(row);
        }
    }
    let differential_pass = rows.iter().all(|r| r.pass);
    // Every wire run crosses at least one node pair, so its registry must
    // have timed at least one ACK round trip.
    let metrics_pass = rows.iter().all(|r| !r.ack_rtt_pairs.is_empty());

    // --- Section 4: induced drops must converge via retransmission. ---
    let t = Instant::now();
    let lu = registry().into_iter().find(|s| s.name == "LU").expect("LU");
    let sim = run_app((lu.build)(Preset::Tiny, true).as_ref(), &cfg);
    let sim_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut probe = None;
    let retrans_reg = Registry::enabled();
    let wire = run_app_with_transport((lu.build)(Preset::Tiny, true).as_ref(), &cfg, |tp, cm| {
        let mut transport = LoopbackTransport::connect(
            tp.clone(),
            cm.clone(),
            Backend::Uds,
            DropPlan { drop_every: 7 },
        )
        .expect("loopback fabric");
        transport.set_metrics(&retrans_reg);
        probe = Some(transport.counts_probe());
        Box::new(transport)
    });
    let counts = probe.expect("factory ran").get();
    let retransmit_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    // The registry classifies each timeout by cause; a frame whose *first*
    // transmission was dropped is counted exactly once, so at quiescence
    // this counter is a second, independent accounting of the fabric's
    // induced-drop tally and the two must agree exactly.
    let snap = retrans_reg.snapshot();
    let first_tx_dropped = snap.counter("wire.retransmits.first_tx_dropped");
    let metrics_match_drops = first_tx_dropped == counts.induced_drops;
    // What resent each frame, and the timeouts the timers expired with.
    let [fast, timeout] =
        ["fast", "timeout"].map(|t| snap.counter(&format!("wire.retransmits.{t}")));
    let (mut rto_sum_ns, mut rto_min_ns, mut rto_max_ns) = (0, u64::MAX, 0);
    for e in snap.with_prefix("wire.rto_ns.") {
        if let MetricValue::Hist { count: 1.., sum, min, max, .. } = e.value {
            rto_sum_ns += sum;
            rto_min_ns = rto_min_ns.min(min);
            rto_max_ns = rto_max_ns.max(max);
        }
    }
    // (All zero if no timer expired.)
    let [rto_mean, rto_min, rto_max] =
        [rto_sum_ns / timeout.max(1), rto_min_ns.min(rto_max_ns), rto_max_ns]
            .map(|ns| ns as f64 / 1e6);
    // Host time the drops cost over the pure-simulator twin, per drop.
    let wire_wall_ms = retransmit_wall_ms - sim_wall_ms;
    let ms_per_drop = (wire_wall_ms - sim_wall_ms) / counts.induced_drops.max(1) as f64;
    let retransmit_pass = counters_equal(&sim, &wire)
        && counts.induced_drops > 0
        && counts.retransmits >= counts.induced_drops
        // Nine retransmissions in ten recover a drop: frames held behind a
        // lost one, or whose ACK is merely late, are not resent.
        && counts.induced_drops * 10 >= counts.retransmits * 9
        && counts.holds > 0
        && counts.resequenced > 0
        && metrics_match_drops;
    println!(
        "retransmit LU uds drop_every=7: counters {} drops={} retransmits={} (fast {fast} + \
         timeout {timeout}, rto mean {rto_mean:.2} min {rto_min:.2} max {rto_max:.2} ms) holds={} \
         resequenced={} metric \
         first_tx_dropped={} ({}) ({retransmit_wall_ms:.1}ms, {ms_per_drop:.2} ms/drop)",
        if counters_equal(&sim, &wire) { "equal" } else { "DIVERGED" },
        counts.induced_drops,
        counts.retransmits,
        counts.holds,
        counts.resequenced,
        first_tx_dropped,
        if metrics_match_drops { "matches drops" } else { "MISMATCH" },
    );

    if let Some(path) = flag(&["--counters"]) {
        std::fs::write(&path, &counters_report)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote sim-oracle counters report to {path}");
    }

    let total_wall_ms = rows.iter().map(|r| r.wall_ms).sum::<f64>() + retransmit_wall_ms;

    if let Some(path) = flag(&["--trace"]) {
        // One more LU run over UDS with induced drops, capturing both the
        // engine's simulated event log and the wire fabric's wall-clock
        // event log, merged into a single Chrome trace (outside
        // `total_wall_ms`; timing here includes trace capture).
        let mut events_probe = None;
        let (_, log) = run_app_observed((lu.build)(Preset::Tiny, true).as_ref(), &cfg, |m| {
            let transport = LoopbackTransport::connect(
                m.topology().clone(),
                m.cost_model().clone(),
                Backend::Uds,
                DropPlan { drop_every: 7 },
            )
            .expect("loopback fabric");
            events_probe = Some(transport.enable_wire_events());
            m.set_transport(Box::new(transport));
        });
        let events = events_probe.expect("the shape ran").take();
        let merged = merge_wire_trace(&shasta_obs::chrome::to_chrome_json(&log), &events);
        std::fs::write(&path, merged).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!(
            "wrote merged engine+wire Chrome trace ({} engine events, {} wire events) to {path}",
            log.len(),
            events.len()
        );
    }

    let mut entry =
        Entry::new("transport", &format!("\"quick\": {quick}, \"rtt_iters\": {rtt_iters}"));
    entry.criterion("differential_pass", differential_pass);
    entry.criterion("retransmit_pass", retransmit_pass);
    entry.criterion("metrics_pass", metrics_pass);
    entry.wall("total_wall_ms", total_wall_ms);
    let handshake: Vec<String> = handshakes
        .iter()
        .map(|(b, ms)| {
            format!("{{\"backend\": \"{}\", \"connect_ms\": {:.3}}}", b.label(), Num(*ms))
        })
        .collect();
    let round_trip: Vec<String> = rtts
        .iter()
        .map(|(b, us)| format!("{{\"backend\": \"{}\", \"rtt_us\": {:.2}}}", b.label(), Num(*us)))
        .collect();
    let differential: Vec<String> = rows
        .iter()
        .map(|r| {
            let pairs: Vec<String> = r
                .ack_rtt_pairs
                .iter()
                .map(|(pair, count, p50, p95, p99)| {
                    format!(
                        "{{\"pair\": \"{pair}\", \"count\": {count}, \"p50_ns\": {p50}, \"p95_ns\": {p95}, \"p99_ns\": {p99}}}"
                    )
                })
                .collect();
            let [reads, writes, would_block] = r.io;
            format!(
                "{{\"app\": \"{}\", \"backend\": \"{}\", \"pass\": {}, \"wall_ms\": {:.2}, \"data_frames\": {}, \"io\": {{\"reads\": {reads}, \"writes\": {writes}, \"would_block\": {would_block}}}, \"ack_rtt_pairs\": [{}]}}",
                r.app,
                r.backend.label(),
                r.pass,
                Num(r.wall_ms),
                r.data_frames,
                pairs.join(", "),
            )
        })
        .collect();
    entry.members(&format!(
        "\"handshake\": [{}], \"round_trip\": [{}], \"differential\": [{}], \"retransmit\": {{\"induced_drops\": {}, \"retransmits\": {}, \"fast\": {fast}, \"timeout\": {timeout}, \"rto_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3}}}, \"holds\": {}, \"resequenced\": {}, \"first_tx_dropped_metric\": {first_tx_dropped}, \"metrics_match_drops\": {metrics_match_drops}, \"pass\": {retransmit_pass}, \"wall_ms\": {:.2}, \"ms_per_drop\": {:.3}}}",
        handshake.join(", "),
        round_trip.join(", "),
        differential.join(", "),
        counts.induced_drops,
        counts.retransmits,
        Num(rto_mean),
        Num(rto_min),
        Num(rto_max),
        counts.holds,
        counts.resequenced,
        Num(retransmit_wall_ms),
        Num(ms_per_drop),
    ));
    println!();
    entry.append();
}
