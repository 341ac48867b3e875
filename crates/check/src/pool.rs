//! A tiny fixed-size worker pool (std threads only) for fanning independent
//! deterministic runs across host cores.
//!
//! Every job is a pure function of its index, so parallel execution cannot
//! change any job's *result* — only the wall-clock. [`par_map`] returns
//! results in index order regardless of completion order, which is what lets
//! the checker's parallel sweep produce byte-identical reports (see
//! [`sweep_jobs`](crate::sweep_jobs) for the stopping-rule argument).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count flag — the one convention shared by every
/// thread-count knob in the workspace (`--jobs` here and in the bench bins,
/// fanning independent runs across cores; `--sim-threads`, sharding the
/// event loop *inside* one run — bit-identical either way):
///
/// * `Some(0)` — auto: one thread per available CPU;
/// * `Some(n)` — exactly `n` threads;
/// * `None` (flag absent) — `1`, serial.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(n) => n,
        None => 1,
    }
}

/// Runs `f(0), f(1), …, f(n-1)` on up to `workers` threads and returns the
/// results in index order. Falls back to a plain serial loop when `workers`
/// or `n` is at most one. Panics in `f` propagate to the caller.
pub fn par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        let out = par_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_fallback_matches() {
        assert_eq!(par_map(5, 1, |i| i + 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(par_map(0, 8, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn resolve_threads_follows_the_flag() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(Some(0)) >= 1, "auto resolves to at least one worker");
        assert_eq!(resolve_threads(None), 1, "an absent flag means serial");
    }
}
