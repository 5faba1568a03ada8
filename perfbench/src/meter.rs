//! Measuring the program's layers from outside: an allocation counter and
//! a poll-time wrapper around calls into a layer's public functions.
//!
//! Nothing here reaches into the program. A traced run wraps the futures
//! that the benchmark itself passes to `Env`, `LogService` and `KvStore`,
//! so the host time and allocations charged to a call are those spent
//! while that call's future was being polled, including the layers below
//! it. Untraced runs never build a [`Probe`] and await the calls directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`] allocator that counts allocator calls once
/// [`start_counting_allocs`] has been called, and costs one relaxed load
/// per call before that.
pub struct CountingAlloc;

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are relaxed atomics that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on for the rest of the process.
pub fn start_counting_allocs() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocator calls counted so far (0 unless counting was started and
/// [`CountingAlloc`] is the global allocator).
#[must_use]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layer calls a traced run wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Env::read` (halfmoon core).
    EnvRead,
    /// `Env::write` (halfmoon core).
    EnvWrite,
    /// `LogService::append` (shared log).
    LogAppend,
    /// `LogService::read_prev` / `read_next` (shared log).
    LogRead,
    /// `LogService::trim` (shared log).
    LogTrim,
    /// `KvStore::get` (KV store).
    KvGet,
    /// `KvStore::put` (KV store).
    KvPut,
}

impl Op {
    const ALL: [Op; 7] = [
        Op::EnvRead,
        Op::EnvWrite,
        Op::LogAppend,
        Op::LogRead,
        Op::LogTrim,
        Op::KvGet,
        Op::KvPut,
    ];
}

/// Totals charged to one kind of call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reading {
    /// Calls completed.
    pub calls: u64,
    /// Host nanoseconds spent polling them.
    pub host_ns: u64,
    /// Allocator calls made while polling them.
    pub allocs: u64,
}

impl Reading {
    /// Counter deltas since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Reading) -> Reading {
        Reading {
            calls: self.calls - earlier.calls,
            host_ns: self.host_ns - earlier.host_ns,
            allocs: self.allocs - earlier.allocs,
        }
    }

    /// Host nanoseconds per call (0 when there were none).
    #[must_use]
    pub fn ns_per_call(&self) -> f64 {
        self.host_ns as f64 / self.calls.max(1) as f64
    }

    /// Allocator calls per call (0 when there were none).
    #[must_use]
    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// The traced run's per-call meters.
#[derive(Default)]
pub struct Probe {
    readings: [Cell<Reading>; 7],
}

impl Probe {
    /// Totals charged to `op` so far.
    #[must_use]
    pub fn reading(&self, op: Op) -> Reading {
        self.readings[op as usize].get()
    }

    /// Totals for every op, in [`Op`] order.
    #[must_use]
    pub fn readings(&self) -> [Reading; 7] {
        Op::ALL.map(|op| self.reading(op))
    }

    /// Awaits `fut`, charging the host time and allocations of each of its
    /// polls to `op`.
    pub async fn call<F: Future>(&self, op: Op, fut: F) -> F::Output {
        let mut host_ns = 0u64;
        let mut allocated = 0u64;
        let mut fut = std::pin::pin!(fut);
        let out = std::future::poll_fn(|cx| {
            let a0 = allocs();
            let t0 = Instant::now();
            let poll = fut.as_mut().poll(cx);
            host_ns += t0.elapsed().as_nanos() as u64;
            allocated += allocs() - a0;
            poll
        })
        .await;
        let cell = &self.readings[op as usize];
        let mut r = cell.get();
        r.calls += 1;
        r.host_ns += host_ns;
        r.allocs += allocated;
        cell.set(r);
        out
    }
}
