//! The layer-microbenchmark pass of a traced run: fixed operation counts
//! against each crate's public functions, timed from outside. These are the
//! per-operation prices the workload-level numbers decompose into; none of
//! them feeds an end-to-end metric.

use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::directory::Directory;
use shasta_core::misstable::{MissEntry, MissTable, ReqKind};
use shasta_core::protocol::ProtoMsg;
use shasta_core::space::{Block, BlockHint, HomeHint, SharedSpace};
use shasta_core::state::{PrivState, PrivTable};
use shasta_core::{Machine, ProtocolConfig};
use shasta_memchan::{FaultPlan, Network, PairSequencer};
use shasta_obs::{EventKind, Recorder, Registry};
use shasta_sim::{FiberPool, Scheduler, Time};
use shasta_stats::{critical_path_report, CritReport, Hops, MissKind, TimeCat};
use shasta_transport::wire::{encode_frame, DataFrame, Frame, FrameReader, VERSION};
use shasta_transport::{Backend, DropPlan, LoopbackTransport};

use crate::metrics::{median, Values};
use crate::spans::Tracer;

type Body = Box<dyn FnOnce(Dsm) + Send>;

/// The paper's three latency constants (§4.1), the only reference data the
/// simulated model is compared against.
const REF_REMOTE_FETCH_US: f64 = 20.0;
const REF_INTRANODE_FETCH_US: f64 = 11.0;
const REF_2KB_FETCH_MBPS: f64 = 35.0;

/// Host nanoseconds per iteration of `f`, over `iters` iterations.
fn ns_per(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Engine-side rendezvous cost: `fibers` fibers each issue `calls` requests,
/// serviced round-robin. Returns nanoseconds per `call`/`resume` pair.
pub fn rendezvous_ns(fibers: u32, calls: u64) -> f64 {
    let mut pool = FiberPool::<u64, u64>::spawn(fibers, move |_, mut api| {
        for i in 0..calls {
            black_box(api.call(i));
        }
    });
    let t = Instant::now();
    while pool.live_count() > 0 {
        for p in 0..fibers {
            if let Some(req) = pool.take_request(p) {
                pool.resume(p, req + 1);
            }
        }
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / (calls * u64::from(fibers)) as f64;
    pool.join();
    ns
}

fn sim(v: &mut Values, scale: u64) {
    v.set("sim.rendezvous_ns", rendezvous_ns(1, 200_000 / scale));
    v.set("sim.rendezvous16_ns", rendezvous_ns(16, 12_500 / scale));
    let rounds = 200 / scale;
    let t = Instant::now();
    for _ in 0..rounds {
        FiberPool::<u64, u64>::spawn(16, |_, _| {}).join();
    }
    v.set("sim.spawn_join16_us", t.elapsed().as_secs_f64() * 1e6 / rounds as f64);
    let mut sched = Scheduler::default();
    let mut cands: Vec<(Time, u32)> =
        (0..16u32).map(|p| (Time::from_cycles(1_000 + u64::from(p * 7 % 5)), p)).collect();
    v.set(
        "sim.sched_pick_ns",
        ns_per(1_000_000 / scale, |i| {
            cands[(i % 16) as usize].0 = Time::from_cycles(1_000 + i % 11);
            black_box(sched.pick(&cands, |c| *c));
        }),
    );
}

fn memchan(v: &mut Values, scale: u64) {
    let topo = Topology::new(16, 4, 4).expect("topology");
    let cost = CostModel::alpha_4100();
    let send_pop = |net: &mut Network<u64>, dst: u32, iters: u64| {
        ns_per(iters, |i| {
            let now = Time::from_cycles(i * 1_000);
            net.send(0, dst, i, 64, now, None);
            let env = net.pop_any_earliest(dst, false).expect("message just sent");
            black_box(net.admit(env, now));
        })
    };
    let iters = 200_000 / scale;
    let mut net = Network::<u64>::new(topo.clone(), cost.clone());
    v.set("memchan.send_pop_remote_ns", send_pop(&mut net, 4, iters));
    v.set("memchan.send_pop_local_ns", send_pop(&mut net, 1, iters));
    let mut faulty = Network::<u64>::new(topo.clone(), cost.clone());
    faulty.set_fault_plan(FaultPlan::duplicate(1));
    v.set("memchan.fault_admit_ns", send_pop(&mut faulty, 4, iters));
    let mut seq = PairSequencer::new(16);
    v.set(
        "memchan.seqguard_ns",
        ns_per(2_000_000 / scale, |i| {
            let stream = (i % 16) as usize;
            let stamp = seq.stamp(stream);
            black_box(seq.admit(stream, stamp));
        }),
    );
    v.set(
        "cluster.wire_cycles_ns",
        ns_per(2_000_000 / scale, |i| {
            black_box(cost.wire_cycles(i % 2 == 0, black_box(64 + i % 2_048)));
        }),
    );
    v.set(
        "cluster.topology_lookup_ns",
        ns_per(2_000_000 / scale, |i| {
            let (a, b) = ((i % 16) as u32, (i * 7 % 16) as u32);
            black_box((topo.phys_node_of(a), topo.same_phys_node(a, b)));
        }),
    );
}

/// A small machine with one 4 KB line-granularity allocation homed at
/// processor 0, shaped like `crates/bench/benches/protocol_ops.rs`.
fn machine(procs: u32, clustering: u32, cfg: ProtocolConfig, bytes: u64) -> (Machine, u64) {
    let topo = Topology::paper_placement(procs, clustering).expect("topology");
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
    let a = m.setup(|s| s.malloc(bytes, BlockHint::Line, HomeHint::Explicit(0)));
    (m, a)
}

/// Host microseconds of `Machine::run` for `f` on every processor.
fn run_us(
    procs: u32,
    clustering: u32,
    cfg: ProtocolConfig,
    bytes: u64,
    f: impl Fn(u32, u64, &mut Dsm) + Send + Sync + Clone + 'static,
) -> f64 {
    let (mut m, a) = machine(procs, clustering, cfg, bytes);
    let bodies: Vec<Body> = (0..procs)
        .map(|p| {
            let f = f.clone();
            Box::new(move |mut dsm: Dsm| f(p, a, &mut dsm)) as Body
        })
        .collect();
    let t = Instant::now();
    m.run(bodies);
    t.elapsed().as_secs_f64() * 1e6
}

/// The read-latency machines of `crates/bench/src/bin/micro_latency.rs`, on
/// Base-Shasta 8p: the home (P0) spin-polls as a dedicated server while
/// `requester` reads `len` bytes once. Returns simulated microseconds.
fn sim_read_latency_us(len: u64, requester: u32) -> f64 {
    let topo = Topology::new(8, 4, 1).expect("topology");
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20);
    let scalar = len == 64;
    let hint = if scalar { BlockHint::Line } else { BlockHint::Bytes(len) };
    let addr = m.setup(|s| s.malloc(len, hint, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..8u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if scalar {
                    // The home first takes the line exclusive.
                    if p == 0 {
                        dsm.store_u64(addr, 1);
                    }
                    dsm.barrier(0);
                }
                if p == 0 {
                    for _ in 0..3_000 {
                        dsm.compute(20);
                        dsm.poll();
                    }
                } else if p == requester {
                    dsm.compute(1_000);
                    if scalar {
                        black_box(dsm.load_u64(addr));
                    } else {
                        black_box(dsm.read_range(addr, len));
                    }
                }
            }) as Body
        })
        .collect();
    m.run(bodies).mean_read_latency() / 300.0
}

fn core(v: &mut Values, scale: u64) {
    let hits = 20_000 / scale;
    let us = run_us(1, 1, ProtocolConfig::smp(), 4_096, move |_, a, dsm| {
        dsm.store_u64(a, 7);
        for _ in 0..hits {
            black_box(dsm.load_u64(a));
        }
    });
    v.set("core.hit_us_per_op", us / hits as f64);
    let misses = 1_024 / scale;
    let us = run_us(8, 1, ProtocolConfig::base(), 64 * misses, move |p, a, dsm| {
        if p == 4 {
            for i in 0..misses {
                black_box(dsm.load_u64(a + i * 64));
            }
        }
        dsm.barrier(0);
    });
    v.set("core.remote_miss_us", us / misses as f64);
    let rounds = 64 / scale.min(4);
    let us = run_us(8, 4, ProtocolConfig::smp(), 4_096, move |p, a, dsm| {
        // Node 0 writes, node 1 reads: every round is an exclusive→shared
        // downgrade with messages.
        for i in 0..rounds {
            if p < 2 {
                dsm.store_u64(a, i);
            }
            dsm.barrier(2 * i as u32);
            if p >= 4 {
                black_box(dsm.load_u64(a));
            }
            dsm.barrier(2 * i as u32 + 1);
        }
    });
    v.set("core.downgrade_round_us", us / rounds as f64);
    let us = run_us(8, 4, ProtocolConfig::smp(), 4_096, move |_, _, dsm| {
        for _ in 0..rounds {
            dsm.acquire(5);
            dsm.compute(50);
            dsm.release(5);
        }
        dsm.barrier(0);
    });
    v.set("core.lock_handoff_us", us / (rounds * 8) as f64);
    let us = run_us(8, 4, ProtocolConfig::smp(), 4_096, move |_, _, dsm| {
        for i in 0..rounds * 4 {
            dsm.barrier(i as u32);
        }
    });
    v.set("core.barrier_us", us / (rounds * 4) as f64);

    let iters = 1_000_000 / scale;
    let mut dir = Directory::new();
    for b in 0..1_024u64 {
        dir.register(b * 64, 0);
    }
    v.set(
        "core.directory_entry_ns",
        ns_per(iters, |i| {
            let e = dir.entry(i % 1_024 * 64);
            e.add_sharer((i % 16) as u32);
            black_box(e.sharer_count());
        }),
    );
    let mut table = MissTable::new();
    v.set(
        "core.misstable_ns",
        ns_per(iters, |i| {
            let block = Block { start: i % 1_024 * 64, len: 64 };
            table.insert(MissEntry::new(block, ReqKind::Read, (i % 16) as u32, i));
            black_box(table.get_mut(block.start).is_some());
            black_box(table.remove(block.start));
        }),
    );
    let mut space = SharedSpace::new(1 << 24, 64, 16);
    let bases: Vec<u64> =
        [BlockHint::Line, BlockHint::Bytes(2_048), BlockHint::Line, BlockHint::Bytes(512)]
            .into_iter()
            .map(|hint| space.malloc(1 << 20, hint, HomeHint::RoundRobin).expect("heap has room"))
            .collect();
    let (lo, span) = (bases[0], bases[3] + (1 << 20) - bases[0]);
    v.set(
        "core.block_of_ns",
        ns_per(iters, |i| {
            black_box(space.block_of(lo + i * 4_099 % span));
        }),
    );
    let lines = 1 << 14;
    let mut privs = PrivTable::new(lines);
    v.set(
        "core.privtable_downgrade_ns",
        ns_per(iters, |i| {
            let first = i * 37 % (lines - 32);
            privs.set_range(first..first + 32, PrivState::Exclusive);
            privs.downgrade_range(first..first + 32, PrivState::Shared);
        }),
    );

    // Accuracy of the simulated clock against the paper's constants.
    let remote = sim_read_latency_us(64, 4);
    let intranode = sim_read_latency_us(64, 1);
    let mbps = 2_048.0 / sim_read_latency_us(2_048, 4);
    v.set("core.sim_remote_fetch_us", remote);
    v.set("core.sim_intranode_fetch_us", intranode);
    v.set("core.sim_2kb_fetch_mbps", mbps);
    let err = |got: f64, want: f64| (got - want).abs() / want * 100.0;
    v.set(
        "core.sim_fetch_err_pct",
        err(remote, REF_REMOTE_FETCH_US)
            .max(err(intranode, REF_INTRANODE_FETCH_US))
            .max(err(mbps, REF_2KB_FETCH_MBPS)),
    );
}

fn obs(v: &mut Values, scale: u64) {
    let events = 1_000_000 / scale;
    let mut rec = Recorder::enabled(16, 65_536);
    let t = Instant::now();
    for i in 0..events {
        let kind = match i % 5 {
            0 => EventKind::Slice { cat: TimeCat::Task, cycles: 40 },
            1 => EventKind::MsgSend { msg: "read-req", peer: (i % 16) as u32, block: i % 512 * 64 },
            2 => {
                EventKind::MsgRecv { msg: "read-reply", peer: (i % 16) as u32, block: i % 512 * 64 }
            }
            3 => EventKind::MissResolved {
                block: i % 512 * 64,
                kind: MissKind::Read,
                hops: Hops::Two,
            },
            _ => EventKind::PollDrain { handled: 1 },
        };
        rec.record(i * 10, (i % 16) as u32, kind);
    }
    black_box(rec.into_log().len());
    v.set("obs.record_ns_per_event", t.elapsed().as_secs_f64() * 1e9 / events as f64);

    let iters = 2_000_000 / scale;
    let on = Registry::enabled();
    let counter = on.counter("bench.counter");
    v.set("obs.counter_inc_ns", ns_per(iters, |_| counter.inc()));
    let disabled = Registry::disabled().counter("bench.counter");
    v.set("obs.counter_disabled_ns", ns_per(iters, |_| black_box(&disabled).inc()));
    let hist = on.histogram("bench.hist");
    v.set("obs.histogram_record_ns", ns_per(iters, |i| hist.record(i * 2_654_435_761 % 1_000_000)));
    black_box((counter.get(), hist.load().count()));

    let report = CritReport {
        elapsed_cycles: 114_270_845,
        segments: 49_572,
        wire_hops: 2_732,
        fallback_segments: 5,
        fallback_cycles: 4_333,
        by_cat: ["compute", "protocol", "wire", "queueing", "sync"]
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, 22_854_169 * (i as u64 + 1) / 3, 9_000 + i))
            .collect(),
        by_site: (0..24).map(|i| (format!("site.{i}"), 1_000_000 - i * 31_337)).collect(),
        by_pair: (0..12)
            .map(|i| (format!("n{}->n{}", i / 3, i % 3), 500_000 - i * 7_919))
            .collect(),
    };
    let rounds = 2_000 / scale;
    v.set(
        "stats.critreport_render_us",
        ns_per(rounds, |_| {
            black_box(critical_path_report(black_box(&report)).len());
        }) / 1e3,
    );
}

/// Object-safe read+write over both socket flavours.
trait Sock: Read + Write + Send {
    fn close_write(&self);
}
impl Sock for std::net::TcpStream {
    fn close_write(&self) {
        let _ = self.shutdown(std::net::Shutdown::Write);
    }
}
impl Sock for std::os::unix::net::UnixStream {
    fn close_write(&self) {
        let _ = self.shutdown(std::net::Shutdown::Write);
    }
}

/// A connected socket pair of the given flavour.
fn socket_pair(backend: Backend) -> std::io::Result<(Box<dyn Sock>, Box<dyn Sock>)> {
    Ok(match backend {
        Backend::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            let a = std::net::TcpStream::connect(listener.local_addr()?)?;
            let (b, _) = listener.accept()?;
            a.set_nodelay(true)?;
            b.set_nodelay(true)?;
            (Box::new(a), Box::new(b))
        }
        Backend::Uds => {
            let (a, b) = std::os::unix::net::UnixStream::pair()?;
            (Box::new(a), Box::new(b))
        }
    })
}

/// Median round trip, in microseconds, of one encoded 64-byte `DATA` frame
/// ping-ponged through the production codec on both sides.
fn round_trip_us(backend: Backend, frame: &Frame, iters: usize) -> std::io::Result<f64> {
    let bytes = encode_frame(frame).expect("encodable frame");
    let (mut local, mut peer) = socket_pair(backend)?;
    let echo = bytes.clone();
    let server = std::thread::spawn(move || {
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 4_096];
        loop {
            match peer.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => reader.extend(&buf[..n]),
            }
            while let Ok(Some(_)) = reader.next_frame() {
                if peer.write_all(&echo).is_err() {
                    return;
                }
            }
        }
    });
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4_096];
    let mut samples = Vec::with_capacity(iters);
    let mut outcome = Ok(());
    'rounds: for _ in 0..iters {
        let t = Instant::now();
        if let Err(e) = local.write_all(&bytes) {
            outcome = Err(e);
            break;
        }
        loop {
            match local.read(&mut buf) {
                Ok(0) => {
                    outcome = Err(std::io::ErrorKind::UnexpectedEof.into());
                    break 'rounds;
                }
                Ok(n) => reader.extend(&buf[..n]),
                Err(e) => {
                    outcome = Err(e);
                    break 'rounds;
                }
            }
            if let Ok(Some(_)) = reader.next_frame() {
                break;
            }
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    local.close_write();
    server.join().expect("echo peer panicked");
    outcome.map(|()| median(&samples))
}

/// Median wall, in milliseconds, to connect the 2-node/8-processor fabric
/// (per-pair sockets plus HELLO negotiation).
fn handshake_ms(backend: Backend, iters: usize) -> std::io::Result<f64> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let topo = Topology::new(8, 4, 4).expect("topology");
        let t = Instant::now();
        let fabric = LoopbackTransport::connect(
            topo,
            CostModel::alpha_4100(),
            backend,
            DropPlan::default(),
        )?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        drop(fabric);
    }
    Ok(median(&samples))
}

fn transport(v: &mut Values, scale: u64) {
    let frame = Frame::Data(DataFrame {
        version: VERSION,
        src: 0,
        dst: 4,
        pair_seq: 1,
        via_vnode: false,
        trace: 0,
        msg: ProtoMsg::ReadReq { block: Block { start: 0x4000, len: 64 } },
    });
    let iters = 500_000 / scale;
    v.set(
        "transport.encode_ns",
        ns_per(iters, |_| {
            black_box(encode_frame(black_box(&frame)).expect("encodable frame").len());
        }),
    );
    let bytes = encode_frame(&frame).expect("encodable frame");
    let mut reader = FrameReader::new();
    v.set(
        "transport.decode_ns",
        ns_per(iters, |_| {
            reader.extend(&bytes);
            black_box(reader.next_frame().expect("valid frame").is_some());
        }),
    );
    // A sandbox may forbid one socket flavour; that is the host's property,
    // not the program's, so the metric reads 0 there instead of failing.
    let or_zero = |what: &str, r: std::io::Result<f64>| {
        r.unwrap_or_else(|e| {
            eprintln!("note: {what} not measured on this host: {e}");
            0.0
        })
    };
    let shakes = (5 / scale.min(2)) as usize;
    let trips = (400 / scale) as usize;
    v.set(
        "transport.handshake_ms_uds",
        or_zero("UDS handshake", handshake_ms(Backend::Uds, shakes)),
    );
    v.set(
        "transport.handshake_ms_tcp",
        or_zero("TCP handshake", handshake_ms(Backend::Tcp, shakes)),
    );
    v.set("transport.rtt_us_uds", or_zero("UDS RTT", round_trip_us(Backend::Uds, &frame, trips)));
    v.set("transport.rtt_us_tcp", or_zero("TCP RTT", round_trip_us(Backend::Tcp, &frame, trips)));
}

/// The two measurements taken both pinned and unpinned, so the cost of
/// cross-CPU futex wakes on this host has a recorded number:
/// `(rendezvous ns, LU Tiny SMP 16p/c4 wall ms)`.
pub fn pinning_probe() -> (f64, f64) {
    let ns = rendezvous_ns(1, 20_000);
    let lu = shasta_apps::registry().into_iter().find(|s| s.name == "LU").expect("LU");
    let app = (lu.build)(shasta_apps::Preset::Tiny, false);
    let cfg = shasta_apps::RunConfig::new(shasta_apps::Proto::Smp, 16, 4);
    let t = Instant::now();
    black_box(shasta_apps::run_app(app.as_ref(), &cfg).elapsed_cycles);
    (ns, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs [`pinning_probe`] here (pinned) and in a child process that widens
/// its affinity back to `host_cpus`. Informational: no end-to-end metric is
/// taken unpinned.
fn unpinned(v: &mut Values, host_cpus: &[usize]) {
    let (_, pinned_lu_ms) = pinning_probe();
    let cpus: Vec<String> = host_cpus.iter().map(usize::to_string).collect();
    let probe = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe).args(["--unpinned-probe", &cpus.join(",")]).output()
    });
    let parsed = probe.ok().filter(|o| o.status.success()).and_then(|o| {
        let text = String::from_utf8_lossy(&o.stdout).into_owned();
        let mut nums = text.split_whitespace().map(str::parse::<f64>);
        Some((nums.next()?.ok()?, nums.next()?.ok()?))
    });
    match parsed {
        Some((ns, lu_ms)) => {
            v.set("sim.rendezvous_unpinned_ns", ns);
            v.set("sim.unpinned_slowdown_x", lu_ms / pinned_lu_ms);
        }
        None => eprintln!("note: the unpinned probe did not run; its two metrics read 0"),
    }
}

/// Runs every layer's microbenchmarks into `v`. `quick` divides the
/// operation counts by ten; `host_cpus` is the affinity mask from before
/// this process pinned itself.
pub fn run(quick: bool, host_cpus: &[usize], v: &mut Values, tracer: &mut Tracer) {
    let scale = if quick { 10 } else { 1 };
    tracer.scope("layers", |t| {
        t.scope("layers/sim", |_| sim(v, scale));
        t.scope("layers/sim unpinned probe", |_| unpinned(v, host_cpus));
        t.scope("layers/memchan+cluster", |_| memchan(v, scale));
        t.scope("layers/core", |_| core(v, scale));
        t.scope("layers/obs+stats", |_| obs(v, scale));
        t.scope("layers/transport", |_| transport(v, scale));
    });
}
