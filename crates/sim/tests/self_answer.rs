//! A fiber whose request the installed engine answers at once never parks:
//! the call returns on the fiber's own thread. Alone in its test binary, as
//! every test that reads `/proc` is.
#![cfg(target_os = "linux")]

use shasta_sim::{Engine, FiberPool, Stop};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Voluntary context switches of the calling thread so far.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    line.expect("a voluntary_ctxt_switches line").trim().parse().expect("a count")
}

/// Answers every request of its one fiber with `req + 1`.
struct Echo(FiberPool<u64, u64>);

impl Engine<u64, u64> for Echo {
    fn pool(&mut self) -> &mut FiberPool<u64, u64> {
        &mut self.0
    }

    fn run(&mut self) -> Stop<u64> {
        while let Some(req) = self.0.take_request(0) {
            if let Some(resp) = self.0.reply(0, req + 1) {
                return Stop::Resume(0, resp);
            }
        }
        Stop::Idle
    }
}

#[test]
fn an_engine_that_answers_the_caller_never_parks_it() {
    const CALLS: u64 = 20_000;
    let parked = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&parked);
    let pool = FiberPool::<u64, u64>::spawn(1, move |_, mut api| {
        // The first request goes through the cell, and its reply is a hand-off.
        assert_eq!(api.call(0), 1);
        let before = voluntary_switches();
        for i in 0..CALLS {
            api.post(i);
            assert_eq!(api.call(i), i + 1);
        }
        out.store(voluntary_switches() - before, SeqCst);
    });
    let (Echo(pool), ended) = Echo(pool).drive();
    assert!(ended.is_ok());
    pool.join();
    let parked = parked.load(SeqCst);
    assert!(parked <= 2, "{CALLS} self-answered calls parked the fiber {parked} times");
}
