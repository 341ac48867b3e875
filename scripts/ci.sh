#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tier-1 tests, and a bounded
# schedule-exploration sweep. Everything here must pass before merging.
#
# Usage: scripts/ci.sh          (from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> no hashed tables in the protocol, the kernels or the wire's message path"
# Every table on the simulated-event path is direct-indexed or a short
# scan (docs/PERFORMANCE.md, "Tables without hashing"): SipHash was 15-20 %
# of a run there, so it must not come back unnoticed. The socket wire's
# inboxes are direct-indexed too (docs/PERFORMANCE.md, "The wire path");
# test modules (a file's `#[cfg(test)]` tail, and `tests.rs` files) are
# exempt.
if git grep -nE '\bHash(Map|Set)\b' -- crates/core/src crates/apps/src; then
  echo "HashMap/HashSet in crates/core/src or crates/apps/src"
  exit 1
fi
for f in $(find crates/transport/src -name '*.rs' ! -name tests.rs | sort); do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\bHash(Map|Set)\b'; then
    echo "HashMap/HashSet outside the tests of $f"
    exit 1
  fi
done

echo "==> no ordered or hashed maps on the recorder's per-event path"
# The sharing profiler finds a block's history through per-allocation slot
# tables, as the engine finds a directory entry, and the message aggregate
# keeps only its class counts (docs/PERFORMANCE.md, "Recording without
# trees"): a tree search per event was ~9 % of a recorded run. Test modules,
# which keep a tree as the model, are exempt. So are the three files off
# that path, named here; any other file under crates/obs/src is checked.
# critpath.rs and hints.rs read a finished log, and metrics.rs looks a
# registry's metrics up by name when they are registered, not per event.
for f in $(find crates/obs/src -name '*.rs' ! -name critpath.rs ! -name hints.rs \
    ! -name metrics.rs | sort); do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\b(BTreeMap|HashMap)\b'; then
    echo "BTreeMap/HashMap outside the tests of $f"
    exit 1
  fi
done

echo "==> no heap-ordered inboxes or schedules in memchan or the protocol"
# Inboxes fill in arrival order and the schedule's min-tree compares one
# integer per key (docs/PERFORMANCE.md, "A branch-light event core"): heap
# sifts over whole envelopes were ~9 % of a run, so they must not return.
if git grep -nE '\bBinaryHeap\b' -- crates/memchan/src crates/core/src; then
  echo "BinaryHeap in crates/memchan/src or crates/core/src"
  exit 1
fi

echo "==> no thread-safety machinery on the run's one thread"
# A run is one thread (docs/ARCHITECTURE.md): values only it touches are
# Rc/Cell/RefCell, so a cross-thread use fails to compile instead of racing.
if git grep -nE '\b(Arc|Mutex|RwLock|Atomic[A-Za-z0-9]*)\b' -- \
  crates/core/src crates/apps/src crates/memchan/src crates/obs/src crates/sim/src; then
  echo "Arc/Mutex/RwLock/atomics in crates/{core,apps,memchan,obs,sim}/src"
  exit 1
fi

echo "==> no block copies outside the spare-buffer helper in the protocol rows, handlers and engine"
# Data replies take their buffers from the machine's spare list and the
# requester gives them back (docs/PERFORMANCE.md, "Nothing mapped per fiber,
# nothing allocated per step"), and a range read lands in the buffer its
# request carried ("Borrowed reads"): a `.to_vec()` there allocates per message
# or per read.
if git grep -nE '\.to_vec\(\)' -- crates/core/src/protocol/rows.rs \
  crates/core/src/protocol/handlers.rs crates/core/src/protocol/engine.rs; then
  echo ".to_vec() in the protocol rows, handlers or engine: copy through the rows' spare-buffer"
  echo "copy, or into a range read's own buffer"
  exit 1
fi

echo "==> the transition table stays pure"
# A row reads one block's view and returns effects; the engine applies them
# (docs/PROTOCOL.md section 4). The rows module naming the machine, its
# network or its clocks would let a row act on the engine directly.
if git grep -nwE 'Machine|Network|clocks' -- crates/core/src/protocol/rows.rs; then
  echo "crates/core/src/protocol/rows.rs names Machine, Network or clocks"
  exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> every member crate's tests: cargo test --workspace --release -q"
# Tier-1 runs only the root package; the ~400 member-crate tests (wire
# spec, framing, fault injection, metrics properties, ...) run here. So does
# the trajectory gate (crates/bench/tests/trajectories.rs): the last entry of
# every tracked BENCH_*.json must carry config/criteria/walls and only true
# criteria. No wall is gated; host time is the benchmark's (BENCHMARK.json).
cargo test --workspace --release -q

echo "==> the engine's and the network's suites under debug assertions (core, check, apps, transport, memchan)"
# The release run compiles out the debug-only checks, among them the
# engine's candidate-cache cross-check: at every pick, each processor's
# cached schedule candidates against a recomputation, naming a processor an
# event changed without marking. This run lets it see every engine run of
# the suites that drive the engine (~10 s warm). shasta-memchan's inbox-order
# property test rides along, so its arrival arithmetic runs with overflow
# checks.
cargo test -q -p shasta-core -p shasta-check -p shasta-apps -p shasta-transport \
  -p shasta-memchan

echo "==> fiber hand-offs under a deadline (shasta-sim, Dsm, misuse, one-thread and engine-panic tests, as is and on one CPU)"
# A fiber is a stack on the thread that drives its pool, and a hand-off is a
# switch between stacks (crates/sim/src/fiber/stack.rs): a switch that saves
# or restores the wrong context hangs or crashes rather than failing, so
# these runs are bounded, once as is and once pinned to one CPU.
# shasta-core's `api` unit tests and `misuse` suite ride along: a posted
# operation's tail and an engine panic over suspended fibers are the
# hand-overs the shasta-sim tests reach least. `one_thread` counts the
# process's threads and context switches across a 16-processor run (none
# added, none slept) and `engine_panic` raises a diagnosis over suspended
# fibers with its own panic hook; each is its own binary.
handoff_tests() {
  timeout 120 "$@" cargo test -p shasta-sim --release --offline -q
  timeout 120 "$@" cargo test -p shasta-core --release --offline -q --lib api
  for t in misuse one_thread engine_panic; do
    timeout 120 "$@" cargo test -p shasta-core --release --offline -q --test "$t"
  done
}
handoff_tests
if command -v taskset > /dev/null; then
  handoff_tests taskset -c 0
else
  echo "note: taskset not found, skipping the one-CPU run of the handoff tests"
fi

echo "==> benchmark harness: builds against the crates' public API, golden.json holds"
# benchmark/ is its own pinned workspace, so neither run above compiles it.
# Its tests run every workload --quick (Tiny inputs), end to end and traced,
# against golden.json, so an API break or a moved cycle/message fingerprint
# fails here instead of in the pipeline's benchmark run (the full-size
# fingerprint that Tiny cannot see is pinned by the Default figure diffs
# against results/ at the end of this script, and by golden.json's
# full-size rows in the benchmark run itself). Builds into the git-ignored
# directory benchmark/run.sh uses.
cargo test --release --offline --manifest-path benchmark/Cargo.toml \
  --target-dir "${CARGO_TARGET_DIR:-benchmark/target}" -q

echo "==> rustdoc (deny warnings, shasta crates only: vendored stubs are not doc-clean)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p shasta -p shasta-sim -p shasta-cluster -p shasta-memchan -p shasta-core \
  -p shasta-stats -p shasta-obs -p shasta-apps -p shasta-fgdsm \
  -p shasta-bench -p shasta-check -p shasta-transport

echo "==> Chrome traces byte-identical to the archived digests (fig4 tiny and check --trace)"
# Both exports are deterministic and read every ring event, so a change to
# how the recorder stores events or the exporter prints them that moves one
# byte shows here. The traces are ~2.5 MB and ~110 KB of JSON, so
# results/trace_digests.txt keeps their sha256 rather than the files.
trace_fig4="$(mktemp /tmp/shasta-ci-trace.XXXXXX.json)"
trace_ck="$(mktemp /tmp/shasta-ci-trace-ck.XXXXXX.json)"
cargo run --release -p shasta-bench --bin fig4_breakdown -- \
  --preset tiny --trace "$trace_fig4" > /dev/null
cargo run --release -p shasta-check --bin check -- \
  --seeds 8 -j 0 --quiet --skip-validation --trace "$trace_ck" > /dev/null
digest() { printf '%s  %s\n' "$(sha256sum < "$1" | cut -d' ' -f1)" "$2"; }
{
  digest "$trace_fig4" "fig4_breakdown --preset tiny --trace"
  digest "$trace_ck" "check --seeds 8 -j 0 --quiet --skip-validation --trace"
} | diff -u results/trace_digests.txt - \
  || { echo "a Chrome trace diverged from results/trace_digests.txt"; exit 1; }
rm -f "$trace_fig4" "$trace_ck"

echo "==> metrics byte-identity (figure 4 and checker output, metrics off vs on)"
# Attaching a live metrics registry must not perturb a single simulated
# cycle: Figure 4's stdout and the checker's deterministic trace export must
# be byte-identical with and without --metrics.
m_off="$(mktemp /tmp/shasta-ci-m-off.XXXXXX.txt)"
m_on="$(mktemp /tmp/shasta-ci-m-on.XXXXXX.txt)"
cargo run --release -p shasta-bench --bin fig4_breakdown -- \
  --preset tiny > "$m_off"
cargo run --release -p shasta-bench --bin fig4_breakdown -- \
  --preset tiny --metrics > "$m_on"
diff -u "$m_off" "$m_on" || { echo "fig4 diverged with metrics enabled"; exit 1; }
ck_off="$(mktemp /tmp/shasta-ci-ck-off.XXXXXX.json)"
ck_on="$(mktemp /tmp/shasta-ci-ck-on.XXXXXX.json)"
cargo run --release -p shasta-check --bin check -- \
  --seeds 8 -j 0 --quiet --skip-validation --trace "$ck_off"
cargo run --release -p shasta-check --bin check -- \
  --seeds 8 -j 0 --quiet --skip-validation --trace "$ck_on" --metrics
diff -u "$ck_off" "$ck_on" || { echo "checker trace diverged with metrics enabled"; exit 1; }
rm -f "$m_off" "$m_on" "$ck_off" "$ck_on"

echo "==> topology-breakdown smoke (--quick: every ClusterKind, exact cycle accounting)"
# The binary itself asserts that the shasta-stats breakdown plus the idle
# gaps between recorded slices account for every cycle of every processor
# (zero tolerance) and that the metrics-on twin of each cell is
# simulated-cycle-identical.
topo_tmp="$(mktemp /tmp/shasta-ci-topo.XXXXXX.json)"
cargo run --release -p shasta-bench --bin topology_breakdown -- \
  --quick --out "$topo_tmp" > /dev/null
test -s "$topo_tmp" || { echo "topology_breakdown JSON is empty"; exit 1; }
rm -f "$topo_tmp"

echo "==> sharing-profiler smoke (tiny preset; asserts the closed advisor loop) + report byte-diff"
# The binary itself aborts unless the synthetic false-sharing workload is
# classified false-shared, the advisor recommends a smaller block, and the
# re-run with that hint reduces simulated cycles.
# Its report is gated byte for byte against the archive (all but the last
# line, which names the --out file).
advisor_tmp="$(mktemp /tmp/shasta-ci-advisor.XXXXXX.json)"
advisor_out="$(mktemp /tmp/shasta-ci-advisor.XXXXXX.txt)"
cargo run --release -p shasta-bench --bin sharing_profile -- \
  --preset tiny --out "$advisor_tmp" > "$advisor_out"
test -s "$advisor_tmp" || { echo "advisor JSON is empty"; exit 1; }
grep -v '^wrote ' "$advisor_out" | diff -u results/sharing_profile_tiny.txt - \
  || { echo "sharing_profile diverged from results/sharing_profile_tiny.txt"; exit 1; }
rm -f "$advisor_tmp" "$advisor_out"

echo "==> advisor-sweep smoke (--quick) + hint-replay determinism"
# Two profile->advise->replay sweeps must emit byte-identical hint files
# (the advisor is deterministic, so persisted hints replay exactly), and
# the binary itself asserts advise() twice per kernel agrees.
sweep_tmp="$(mktemp /tmp/shasta-ci-sweep.XXXXXX.json)"
hints_a="$(mktemp -d /tmp/shasta-ci-hints-a.XXXXXX)"
hints_b="$(mktemp -d /tmp/shasta-ci-hints-b.XXXXXX)"
cargo run --release -p shasta-bench --bin advisor_sweep -- \
  --quick -j 0 --out "$sweep_tmp" --hints-dir "$hints_a" > /dev/null
cargo run --release -p shasta-bench --bin advisor_sweep -- \
  --quick -j 0 --out "$sweep_tmp" --hints-dir "$hints_b" > /dev/null
diff -ru "$hints_a" "$hints_b" || { echo "hint replay is not deterministic"; exit 1; }
test -s "$sweep_tmp" || { echo "advisor-sweep JSON is empty"; exit 1; }
rm -rf "$sweep_tmp" "$hints_a" "$hints_b"

echo "==> bounded schedule sweep (64 seeds, parallel, oracle validation included)"
# 64 seeds x 5 scenarios x 2 policies = 640 schedules, plus the sweep
# against both injected-bug variants; completes in seconds in release mode
# (budget: < 60 s). -j 0 fans runs across one worker per CPU; the report is
# byte-identical for any worker count (see docs/PERFORMANCE.md).
cargo run --release -p shasta-check --bin check -- --seeds 64 -j 0 --quiet

echo "==> critical-path smoke (--quick: all six Table 2 kernels, zero-tolerance tiling)"
# The binary itself aborts unless each kernel's causal path tiles
# elapsed_cycles exactly; writes to a throwaway trajectory so CI never
# pollutes the tracked BENCH_critical_path.json. The path is read from the
# recorder's rings, so its report is gated byte for byte against the archive
# (all but the last line, which names the --out file).
cp_tmp="$(mktemp /tmp/shasta-ci-cp.XXXXXX.json)"
cp_out="$(mktemp /tmp/shasta-ci-cp.XXXXXX.txt)"
cargo run --release -p shasta-bench --bin critical_path -- \
  --quick --out "$cp_tmp" > "$cp_out"
test -s "$cp_tmp" || { echo "critical_path JSON is empty"; exit 1; }
grep -v '^wrote ' "$cp_out" | diff -u results/critical_path_tiny.txt - \
  || { echo "critical_path diverged from results/critical_path_tiny.txt"; exit 1; }
rm -f "$cp_tmp" "$cp_out"

echo "==> Figure 4 critical paths at Default (every one of the 72 runs tiles exactly)"
# A recording keeps the whole run, so every bar's path is analysed. A run
# without a path line, or a panic on an accounting hole, shows here as a
# short count (~4 s).
cp_lines="$(cargo run --release -q -p shasta-bench --bin fig4_breakdown -- --critical-path \
  | grep -c 'tiling exact$' || true)"
test "$cp_lines" -eq 72 || { echo "fig4 --critical-path tiled $cp_lines of 72 runs"; exit 1; }

echo "==> fault-sweep smoke (--quick: all fault kinds x scenarios x topologies)"
# Exercises the fault fabric end to end: delay/dup/reorder/chaos must pass
# every oracle (the binary aborts otherwise), heterogeneous shapes pass
# clean and under chaos, loss is caught + shrunk, and disabled plans stay
# byte-identical to the historical checker. Two independent invocations
# must shrink the loss failure to the byte-identical counterexample — the
# fault-replay determinism contract — and it must end with its trail, the
# rendered events of its recorded replay.
fs_a="$(mktemp /tmp/shasta-ci-faultsweep-a.XXXXXX.json)"
fs_b="$(mktemp /tmp/shasta-ci-faultsweep-b.XXXXXX.json)"
cx_a="$(mktemp /tmp/shasta-ci-losscx-a.XXXXXX.txt)"
cx_b="$(mktemp /tmp/shasta-ci-losscx-b.XXXXXX.txt)"
cargo run --release -p shasta-bench --bin fault_sweep -- \
  --quick --out "$fs_a" --loss-cx "$cx_a" > /dev/null
cargo run --release -p shasta-bench --bin fault_sweep -- \
  --quick --out "$fs_b" --loss-cx "$cx_b" > /dev/null
test -s "$fs_a" || { echo "fault_sweep JSON is empty"; exit 1; }
test -s "$cx_a" || { echo "loss counterexample is empty"; exit 1; }
diff -u "$cx_a" "$cx_b" || { echo "loss counterexample replay is not deterministic"; exit 1; }
grep -Eq '^  \| \[[0-9]+cy P[0-9]+\] ' "$cx_a" || { echo "loss counterexample has no trail"; exit 1; }
rm -f "$fs_a" "$fs_b" "$cx_a" "$cx_b"

echo "==> transport smoke (--quick: differential counters over real UDS sockets)"
# One Table 2 kernel with every cross-node message through a real
# Unix-domain socket must produce counters exactly equal to the pure
# simulator (the binary aborts otherwise), and the retransmit path must
# converge under induced drops. Two independent invocations must emit a
# byte-identical sim-oracle counters report — the simulated backend's
# determinism diff.
tb_a="$(mktemp /tmp/shasta-ci-transport-a.XXXXXX.json)"
tb_b="$(mktemp /tmp/shasta-ci-transport-b.XXXXXX.json)"
tc_a="$(mktemp /tmp/shasta-ci-transport-cnt-a.XXXXXX.txt)"
tc_b="$(mktemp /tmp/shasta-ci-transport-cnt-b.XXXXXX.txt)"
wt_tmp="$(mktemp /tmp/shasta-ci-wiretrace.XXXXXX.json)"
cargo run --release -p shasta-bench --bin transport_bench -- \
  --quick --out "$tb_a" --counters "$tc_a" --trace "$wt_tmp" > /dev/null
cargo run --release -p shasta-bench --bin transport_bench -- \
  --quick --out "$tb_b" --counters "$tc_b" > /dev/null
test -s "$tb_a" || { echo "transport_bench JSON is empty"; exit 1; }
test -s "$tc_a" || { echo "transport counters report is empty"; exit 1; }
test -s "$wt_tmp" || { echo "merged engine+wire trace is empty"; exit 1; }
grep -q '"cat":"wire"' "$wt_tmp" || { echo "merged trace carries no wire events"; exit 1; }
diff -u "$tc_a" "$tc_b" || { echo "sim-backend counters are not deterministic"; exit 1; }
rm -f "$tb_a" "$tb_b" "$tc_a" "$tc_b" "$wt_tmp"

echo "==> paper tables and figures byte-identical to the archive (all_experiments --list at Default vs results/)"
# Every statistic has one producer, so what guards a refactor of it is the
# archived output itself (~40 s together on two CPUs). The list is
# all_experiments' own, so a figure it writes cannot go ungated.
figs="$(cargo run --release -q -p shasta-bench --bin all_experiments -- --list)"
test "$(echo "$figs" | wc -l)" -ge 13 || { echo "all_experiments --list is short: $figs"; exit 1; }
for fig in $figs; do
  cargo run --release -p shasta-bench --bin "$fig" | diff -u "results/$fig.txt" - \
    || { echo "$fig diverged from results/$fig.txt"; exit 1; }
done

echo "==> vendor/ holds no stand-in beyond proptest and the serde pair"
test "$(ls vendor | tr '\n' ' ')" = "proptest serde serde_derive "

echo "==> trajectory summary (the generic printer reads every tracked BENCH_*.json)"
scripts/bench_summary.sh > /dev/null

echo "CI OK"
