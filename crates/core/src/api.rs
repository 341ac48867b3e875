//! The application-facing DSM interface.
//!
//! Application code runs inside simulator fibers and talks to the protocol
//! engine through a [`Dsm`] handle: typed loads and stores (each of which
//! pays its inline-check cost and may enter the protocol), batched range
//! accesses (the paper's batching optimization), application locks and
//! barriers, and `compute` to account for the work between accesses.
//!
//! Pure compute is accumulated locally and piggybacked on the next
//! operation, so it costs no engine rendezvous. Neither does an operation
//! that returns nothing: like Shasta's non-blocking stores it is *posted*,
//! and reaches the engine, in program order, with the next load or range read.
//!
//! A range read lands in a slice the caller owns ([`Dsm::read_into`],
//! [`Dsm::read_f64s_into`]). Its bytes travel in the processor's one read
//! buffer, which rides the request to the engine and back in the reply, so a
//! read allocates nothing once that buffer is as large as the largest read.
//! The buffer is boxed so that a [`Resp`] is two words: every layer between
//! the engine and the body returns a reply in registers.

use shasta_sim::FiberApi;

use crate::space::Addr;

/// A request from application code to the protocol engine.
#[derive(Clone, PartialEq, Debug)]
pub enum Req {
    /// Scalar load of `size` ∈ {4, 8} bytes. `fp` selects the FP-load check.
    Load {
        /// Target address.
        addr: Addr,
        /// Access size in bytes.
        size: u8,
        /// Whether this is a floating-point load (check cost differs).
        fp: bool,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Scalar store of `size` ∈ {4, 8} bytes.
    Store {
        /// Target address.
        addr: Addr,
        /// Access size in bytes.
        size: u8,
        /// Little-endian value to store.
        value: u64,
        /// Whether this is a floating-point store.
        fp: bool,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Batched read of `[addr, addr + len)` (one batch check, then
    /// unchecked accesses).
    ReadRange {
        /// Start address.
        addr: Addr,
        /// Length in bytes.
        len: u64,
        /// The processor's read buffer, `None` before its first read. Its
        /// contents are ignored: the engine replaces them with the range's
        /// bytes and returns it in [`Resp::Data`], so a read allocates only
        /// while the buffer grows.
        buf: Option<Box<Vec<u8>>>,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Batched write of `data` at `addr`.
    WriteRange {
        /// Start address.
        addr: Addr,
        /// Bytes to write.
        data: Vec<u8>,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Acquire an application lock (stalls until granted).
    Acquire {
        /// Lock identifier.
        lock: u32,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Release an application lock (performs release semantics first).
    Release {
        /// Lock identifier.
        lock: u32,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Store fence: release semantics without a lock (waits for this
    /// node's previous-epoch stores to complete).
    Fence {
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Global barrier (performs release semantics first).
    Barrier {
        /// Barrier identifier.
        id: u32,
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
    /// Explicit poll point (a loop back-edge with no shared access).
    Poll {
        /// Compute cycles since the previous operation.
        pre_cycles: u64,
    },
}

impl Req {
    /// The compute cycles carried by this request.
    pub fn pre_cycles(&self) -> u64 {
        match *self {
            Req::Load { pre_cycles, .. }
            | Req::Store { pre_cycles, .. }
            | Req::ReadRange { pre_cycles, .. }
            | Req::WriteRange { pre_cycles, .. }
            | Req::Acquire { pre_cycles, .. }
            | Req::Release { pre_cycles, .. }
            | Req::Fence { pre_cycles }
            | Req::Barrier { pre_cycles, .. }
            | Req::Poll { pre_cycles } => pre_cycles,
        }
    }

    /// The range whose coherence blocks a memory access needs, as
    /// `(addr, len)`: a range access's whole range, a scalar access's first
    /// byte (it is checked against that byte's block). `None` for
    /// synchronization and polls.
    pub fn block_span(&self) -> Option<(Addr, u64)> {
        match *self {
            Req::Load { addr, .. } | Req::Store { addr, .. } => Some((addr, 1)),
            Req::ReadRange { addr, len, .. } => Some((addr, len)),
            Req::WriteRange { addr, ref data, .. } => Some((addr, data.len() as u64)),
            Req::Acquire { .. }
            | Req::Release { .. }
            | Req::Fence { .. }
            | Req::Barrier { .. }
            | Req::Poll { .. } => None,
        }
    }
}

/// A reply from the protocol engine to application code.
#[derive(Clone, PartialEq, Debug)]
pub enum Resp {
    /// Loaded scalar (little-endian, zero-extended).
    Value(u64),
    /// A `ReadRange`'s buffer, holding the range's bytes.
    Data(Box<Vec<u8>>),
    /// Completion of a store, write, sync, or poll.
    Unit,
}

// Two words, returned in registers. A wider reply is copied through memory
// at each layer between the engine's executor and the body, which made a
// load served on its fiber's stack take nearly twice as long on x86_64.
const _: () = assert!(std::mem::size_of::<Resp>() == 16);

/// The DSM handle held by each simulated processor's application code.
///
/// All methods may suspend the calling fiber while the protocol services a
/// miss; from the application's perspective they are simple blocking
/// operations on a shared address space. A method that returns nothing may
/// return before the engine has simulated it — a barrier or an acquire too —
/// so the processors' bodies may communicate through `Dsm` and nothing else:
/// simulated synchronisation does not order host state they share. (What a
/// body *loaded* is as good as ever, e.g. collected and read after
/// `Machine::run`.)
#[derive(Debug)]
pub struct Dsm {
    api: FiberApi<Req, Resp>,
    proc_id: u32,
    pending_cycles: u64,
    /// The one buffer this processor's range reads travel in (see
    /// [`Req::ReadRange`]); it is as large as the largest read so far.
    #[allow(clippy::box_collection)] // boxed so that a `Resp` is two words
    read_buf: Option<Box<Vec<u8>>>,
}

impl Dsm {
    /// Wraps a fiber API endpoint. Used by the engine when spawning fibers.
    pub fn new(proc_id: u32, api: FiberApi<Req, Resp>) -> Self {
        Dsm { api, proc_id, pending_cycles: 0, read_buf: None }
    }

    /// This processor's id (0-based, dense).
    pub fn proc_id(&self) -> u32 {
        self.proc_id
    }

    /// Accounts `cycles` of application compute since the last operation.
    pub fn compute(&mut self, cycles: u64) {
        self.pending_cycles += cycles;
    }

    fn take_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.pending_cycles)
    }

    fn expect_value(&mut self, req: Req) -> u64 {
        match self.api.call(req) {
            Resp::Value(v) => v,
            other => panic!("engine returned {other:?} where a value was expected"),
        }
    }

    /// Loads a `u32` from shared memory.
    pub fn load_u32(&mut self, addr: Addr) -> u32 {
        let pre_cycles = self.take_cycles();
        self.expect_value(Req::Load { addr, size: 4, fp: false, pre_cycles }) as u32
    }

    /// Loads a `u64` from shared memory.
    pub fn load_u64(&mut self, addr: Addr) -> u64 {
        let pre_cycles = self.take_cycles();
        self.expect_value(Req::Load { addr, size: 8, fp: false, pre_cycles })
    }

    /// Loads an `f64` from shared memory (floating-point check cost).
    pub fn load_f64(&mut self, addr: Addr) -> f64 {
        let pre_cycles = self.take_cycles();
        f64::from_bits(self.expect_value(Req::Load { addr, size: 8, fp: true, pre_cycles }))
    }

    /// Stores a `u32` to shared memory.
    pub fn store_u32(&mut self, addr: Addr, value: u32) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Store { addr, size: 4, value: value as u64, fp: false, pre_cycles });
    }

    /// Stores a `u64` to shared memory.
    pub fn store_u64(&mut self, addr: Addr, value: u64) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Store { addr, size: 8, value, fp: false, pre_cycles });
    }

    /// Stores an `f64` to shared memory.
    pub fn store_f64(&mut self, addr: Addr, value: f64) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Store { addr, size: 8, value: value.to_bits(), fp: true, pre_cycles });
    }

    /// Batched read of `out.len()` bytes at `addr` into `out` (a Shasta
    /// batch: one check sequence covering the range, then unchecked
    /// accesses).
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty, in every protocol mode.
    pub fn read_into(&mut self, addr: Addr, out: &mut [u8]) {
        out.copy_from_slice(self.read_bytes(addr, out.len()));
    }

    /// Batched read of `out.len()` consecutive `f64`s at `addr` into `out`;
    /// panics if `out` is empty, as [`Dsm::read_into`] does.
    pub fn read_f64s_into(&mut self, addr: Addr, out: &mut [f64]) {
        let bytes = self.read_bytes(addr, out.len() * 8);
        for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(c.try_into().expect("8 bytes"));
        }
    }

    /// Batched read of `len` bytes at `addr` into a new `Vec`: a
    /// [`Dsm::read_into`] for callers that keep the bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero, in every protocol mode.
    pub fn read_range(&mut self, addr: Addr, len: u64) -> Vec<u8> {
        let mut out = vec![0; len as usize];
        self.read_into(addr, &mut out);
        out
    }

    /// Reads `len` bytes at `addr` into the read buffer and lends them.
    fn read_bytes(&mut self, addr: Addr, len: usize) -> &[u8] {
        assert!(len > 0, "empty range read at shared address {addr:#x}");
        let pre_cycles = self.take_cycles();
        let buf = self.read_buf.take();
        match self.api.call(Req::ReadRange { addr, len: len as u64, buf, pre_cycles }) {
            Resp::Data(d) => self.read_buf.insert(d),
            other => panic!("engine returned {other:?} where data was expected"),
        }
    }

    /// Batched write of `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, in every protocol mode.
    pub fn write_range(&mut self, addr: Addr, data: &[u8]) {
        self.write_owned(addr, data.to_vec());
    }

    /// Batched write of consecutive `f64`s at `addr`; panics if `values` is
    /// empty, as [`Dsm::write_range`] does.
    pub fn write_f64s(&mut self, addr: Addr, values: &[f64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_owned(addr, bytes);
    }

    fn write_owned(&mut self, addr: Addr, data: Vec<u8>) {
        assert!(!data.is_empty(), "empty range write at shared address {addr:#x}");
        let pre_cycles = self.take_cycles();
        self.api.post(Req::WriteRange { addr, data, pre_cycles });
    }

    /// Acquires application lock `lock`.
    pub fn acquire(&mut self, lock: u32) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Acquire { lock, pre_cycles });
    }

    /// Releases application lock `lock` (release consistency: waits for this
    /// node's outstanding stores from previous epochs first).
    pub fn release(&mut self, lock: u32) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Release { lock, pre_cycles });
    }

    /// Store fence: waits until all of this node's outstanding stores from
    /// previous epochs have completed (release semantics without a lock).
    pub fn fence(&mut self) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Fence { pre_cycles });
    }

    /// Waits at global barrier `id` until every processor arrives.
    pub fn barrier(&mut self, id: u32) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Barrier { id, pre_cycles });
    }

    /// An explicit poll point: handles any pending incoming messages (a
    /// loop back-edge in the instrumented binary).
    pub fn poll(&mut self) {
        let pre_cycles = self.take_cycles();
        self.api.post(Req::Poll { pre_cycles });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shasta_sim::FiberPool;

    /// A miniature engine that serves every request against a byte array,
    /// proving out the Dsm <-> Req/Resp plumbing without the real protocol.
    fn echo_engine(pool: &mut FiberPool<Req, Resp>, mem: &mut [u8]) {
        loop {
            let mut progressed = false;
            for p in 0..pool.len() as u32 {
                if let Some(req) = pool.take_request(p) {
                    progressed = true;
                    let resp = match req {
                        Req::Load { addr, size, .. } => {
                            let mut buf = [0u8; 8];
                            let a = addr as usize;
                            buf[..size as usize].copy_from_slice(&mem[a..a + size as usize]);
                            Resp::Value(u64::from_le_bytes(buf))
                        }
                        Req::Store { addr, size, value, .. } => {
                            let a = addr as usize;
                            mem[a..a + size as usize]
                                .copy_from_slice(&value.to_le_bytes()[..size as usize]);
                            Resp::Unit
                        }
                        Req::ReadRange { addr, len, buf, .. } => {
                            let mut buf = buf.unwrap_or_default();
                            buf.clear();
                            buf.extend_from_slice(&mem[addr as usize..(addr + len) as usize]);
                            Resp::Data(buf)
                        }
                        Req::WriteRange { addr, ref data, .. } => {
                            mem[addr as usize..addr as usize + data.len()].copy_from_slice(data);
                            Resp::Unit
                        }
                        _ => Resp::Unit,
                    };
                    pool.resume(p, resp);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    #[test]
    fn typed_accessors_round_trip() {
        let mut pool = FiberPool::spawn(1, |pid, api| {
            let mut dsm = Dsm::new(pid, api);
            dsm.store_u32(0, 0xAABBCCDD);
            assert_eq!(dsm.load_u32(0), 0xAABBCCDD);
            dsm.store_f64(8, 3.25);
            assert_eq!(dsm.load_f64(8), 3.25);
            dsm.write_f64s(16, &[1.0, 2.0]);
            let mut f = [0.0; 2];
            dsm.read_f64s_into(16, &mut f);
            assert_eq!(f, [1.0, 2.0]);
            dsm.write_range(32, &[1, 2, 3]);
            assert_eq!(dsm.read_range(32, 3), vec![1, 2, 3]);
        });
        let mut mem = vec![0u8; 64];
        echo_engine(&mut pool, &mut mem);
        pool.join();
    }

    #[test]
    fn borrowed_reads_round_trip() {
        let mut pool = FiberPool::spawn(1, |pid, api| {
            let mut dsm = Dsm::new(pid, api);
            dsm.write_range(0, &[9, 8, 7, 6]);
            let mut bytes = [0u8; 3];
            dsm.read_into(1, &mut bytes);
            assert_eq!(bytes, [8, 7, 6]);
            dsm.write_f64s(8, &[0.5, -2.0, 1e300]);
            let mut f = [0.0; 3];
            dsm.read_f64s_into(8, &mut f);
            assert_eq!(f, [0.5, -2.0, 1e300]);
            // A shorter read after a longer one lands only its own bytes.
            let mut one = [0.0; 1];
            dsm.read_f64s_into(16, &mut one);
            assert_eq!(one, [-2.0]);
            dsm.read_into(0, &mut bytes[..1]);
            assert_eq!(bytes, [9, 7, 6]);
        });
        let mut mem = vec![0u8; 64];
        echo_engine(&mut pool, &mut mem);
        pool.join();
    }

    #[test]
    fn the_read_buffer_travels_with_its_request_and_comes_back() {
        let mut pool = FiberPool::spawn(1, |pid, api| {
            let mut dsm = Dsm::new(pid, api);
            let mut out = [0u8; 16];
            dsm.read_into(0, &mut out);
            assert_eq!(out, [7; 16]);
            dsm.read_into(0, &mut out[..4]);
            assert_eq!(out[..4], [5; 4]);
        });
        let Some(Req::ReadRange { len: 16, buf, .. }) = pool.take_request(0) else {
            panic!("expected the first range read");
        };
        assert!(buf.is_none(), "the first read has no buffer yet");
        let buf = Box::new(vec![7; 16]);
        let first = buf.as_ptr();
        pool.resume(0, Resp::Data(buf));
        let Some(Req::ReadRange { len: 4, buf: Some(mut buf), .. }) = pool.take_request(0) else {
            panic!("expected the second range read, with the first one's buffer");
        };
        assert_eq!(buf.as_ptr(), first, "the second read reuses the first one's buffer");
        buf.clear();
        buf.extend_from_slice(&[5; 4]);
        pool.resume(0, Resp::Data(buf));
        pool.join();
    }

    #[test]
    fn compute_piggybacks_on_next_request() {
        let mut pool = FiberPool::spawn(1, |pid, api| {
            let mut dsm = Dsm::new(pid, api);
            dsm.compute(100);
            dsm.compute(23);
            dsm.store_u32(0, 1); // carries 123 pre-cycles
            dsm.store_u32(0, 2); // carries 0
        });
        let first = pool.take_request(0).unwrap();
        assert_eq!(first.pre_cycles(), 123);
        pool.resume(0, Resp::Unit);
        let second = pool.take_request(0).unwrap();
        assert_eq!(second.pre_cycles(), 0);
        pool.resume(0, Resp::Unit);
        pool.join();
    }

    #[test]
    fn posted_store_arrives_ahead_of_the_load_with_its_own_compute() {
        let mut pool = FiberPool::spawn(1, |pid, api| {
            let mut dsm = Dsm::new(pid, api);
            dsm.compute(7);
            dsm.store_u32(0, 1); // posted: carries 7 pre-cycles
            dsm.compute(5);
            assert_eq!(dsm.load_u32(0), 9); // carries 5, and the store with it
        });
        let store = pool.take_request(0).unwrap();
        assert!(matches!(store, Req::Store { value: 1, pre_cycles: 7, .. }));
        assert_eq!(pool.resume(0, Resp::Unit), shasta_sim::Resumed::HasRequest);
        let load = pool.take_request(0).unwrap();
        assert!(matches!(load, Req::Load { addr: 0, pre_cycles: 5, .. }));
        pool.resume(0, Resp::Value(9));
        pool.join();
    }

    #[test]
    fn proc_id_is_exposed() {
        let mut pool = FiberPool::spawn(2, |pid, api| {
            let mut dsm = Dsm::new(pid, api);
            assert_eq!(dsm.proc_id(), pid);
            dsm.poll();
        });
        for p in 0..2 {
            pool.take_request(p).unwrap();
            pool.resume(p, Resp::Unit);
        }
        pool.join();
    }
}
