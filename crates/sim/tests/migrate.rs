//! The sharded engine's shape: a pool whose fibers started on one thread is
//! driven to the end, and joined, on another.

use shasta_sim::FiberPool;

#[test]
fn pool_spawned_here_is_driven_and_joined_on_another_thread() {
    let mut pool = FiberPool::<u64, u64>::spawn(4, |pid, mut api| {
        for i in u64::from(pid)..50 {
            assert_eq!(api.call(i), i + 1);
        }
    });
    let driver = std::thread::spawn(move || {
        while pool.live_count() > 0 {
            for p in 0..pool.len() as u32 {
                if let Some(req) = pool.take_request(p) {
                    pool.resume(p, req + 1);
                }
            }
        }
        pool.join();
    });
    driver.join().unwrap();
}
