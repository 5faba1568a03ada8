//! Coordination primitives for substrate tasks.
//!
//! Everything here is single-threaded (`Rc`-based) and executor-agnostic:
//! the primitives speak only the [`std::task::Waker`] protocol, so the same
//! code runs unchanged on the virtual-time simulator and on the wall-clock
//! backend. Wakers are the only cross-cutting pieces and they are handled
//! by whichever executor is driving.
//!
//! - [`oneshot`]: one value, one producer, one consumer — RPC replies.
//! - [`mpsc`]: unbounded FIFO — request queues.
//! - [`Semaphore`]: counting semaphore with FIFO fairness — models bounded
//!   worker slots on function nodes (8 vCPUs per node in the paper's setup).
//! - [`TaskGroup`]: a cancellable group of cooperating futures — models a
//!   whole function node whose in-flight work is torn down on a crash.
//! - [`Gate`]: a one-shot broadcast — many waiters released by one event,
//!   in registration order. Models group commit: every member of a flushed
//!   batch learns of completion from the same storage acknowledgement.
//!
//! The ordering guarantees (FIFO semaphore grants, registration-order gate
//! release, first-registration-order group cancellation) are part of the
//! substrate contract; `tests/sync_contracts.rs` is the executable spec
//! every backend must pass.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

struct OneshotState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_dropped: bool,
}

/// Sending half of a oneshot channel.
pub struct OneshotSender<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Receiving half of a oneshot channel. Awaiting it yields
/// `Ok(value)` or [`RecvError`] if the sender was dropped without sending.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// The sender was dropped without sending a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("oneshot sender dropped without sending")
    }
}
impl std::error::Error for RecvError {}

/// Creates a oneshot channel.
#[must_use]
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state = Rc::new(RefCell::new(OneshotState {
        value: None,
        waker: None,
        sender_dropped: false,
    }));
    (
        OneshotSender {
            state: state.clone(),
        },
        OneshotReceiver { state },
    )
}

impl<T> OneshotSender<T> {
    /// Sends the value, waking the receiver. Consumes the sender.
    pub fn send(self, value: T) {
        let mut st = self.state.borrow_mut();
        st.value = Some(value);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
        // Drop impl will set sender_dropped, which is fine: value wins.
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.sender_dropped = true;
        if st.value.is_none() {
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.value.take() {
            Poll::Ready(Ok(v))
        } else if st.sender_dropped {
            Poll::Ready(Err(RecvError))
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// mpsc (unbounded)
// ---------------------------------------------------------------------------

struct MpscState<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of an unbounded mpsc channel.
pub struct Sender<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

/// Receiving half of an unbounded mpsc channel.
pub struct Receiver<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

/// Creates an unbounded mpsc channel.
#[must_use]
pub fn mpsc<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(MpscState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: state.clone(),
        },
        Receiver { state },
    )
}

impl<T> Sender<T> {
    /// Enqueues a value; returns `Err(value)` if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.state.borrow_mut();
        if !st.receiver_alive {
            return Err(value);
        }
        st.queue.push_back(value);
        if let Some(w) = st.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.senders -= 1;
        if st.senders == 0 {
            if let Some(w) = st.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Awaits the next value; `None` once all senders have dropped and the
    /// queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Takes a value without waiting, if one is queued.
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Number of queued values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True if no values are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.receiver.state.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            Poll::Ready(Some(v))
        } else if st.senders == 0 {
            Poll::Ready(None)
        } else {
            st.recv_waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct Waiter {
    granted: Rc<RefCell<GrantSlot>>,
}

struct GrantSlot {
    granted: bool,
    waker: Option<Waker>,
    /// Set when the acquiring future is dropped before being granted, so a
    /// released permit is not lost on a dead waiter.
    cancelled: bool,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<Waiter>,
}

/// A counting semaphore with FIFO fairness.
///
/// Fairness matters for the latency experiments: without it, queued requests
/// under saturation would starve unpredictably and p99 latencies would be
/// artifacts of the scheduler rather than of the load.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` available slots.
    #[must_use]
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently available permits.
    #[must_use]
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Number of tasks waiting for a permit (queue depth under load).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.state.borrow().waiters.len()
    }

    /// Acquires one permit, waiting FIFO behind earlier acquirers.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            slot: None,
        }
    }

    fn release_one(&self) {
        let mut st = self.state.borrow_mut();
        // Hand the permit to the first still-live waiter, if any.
        while let Some(w) = st.waiters.pop_front() {
            let mut slot = w.granted.borrow_mut();
            if slot.cancelled {
                continue;
            }
            slot.granted = true;
            if let Some(waker) = slot.waker.take() {
                waker.wake();
            }
            return;
        }
        st.permits += 1;
    }
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Semaphore(available={}, queued={})",
            self.available(),
            self.queue_len()
        )
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    slot: Option<Rc<RefCell<GrantSlot>>>,
}

impl Future for Acquire {
    type Output = SemaphoreGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(slot) = &self.slot {
            let mut s = slot.borrow_mut();
            if s.granted {
                drop(s);
                self.slot = None;
                return Poll::Ready(SemaphoreGuard {
                    sem: self.sem.clone(),
                });
            }
            s.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let mut st = self.sem.state.borrow_mut();
        if st.permits > 0 && st.waiters.is_empty() {
            st.permits -= 1;
            drop(st);
            Poll::Ready(SemaphoreGuard {
                sem: self.sem.clone(),
            })
        } else {
            let slot = Rc::new(RefCell::new(GrantSlot {
                granted: false,
                waker: Some(cx.waker().clone()),
                cancelled: false,
            }));
            st.waiters.push_back(Waiter {
                granted: slot.clone(),
            });
            drop(st);
            self.slot = Some(slot);
            Poll::Pending
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            let mut s = slot.borrow_mut();
            if s.granted {
                // Granted but never observed: give the permit back.
                drop(s);
                self.sem.release_one();
            } else {
                s.cancelled = true;
            }
        }
    }
}

/// Releases its permit on drop.
pub struct SemaphoreGuard {
    sem: Semaphore,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        self.sem.release_one();
    }
}

// ---------------------------------------------------------------------------
// Gate (one-shot broadcast)
// ---------------------------------------------------------------------------

struct GateState {
    open: bool,
    wakers: Vec<Waker>,
}

/// A one-shot broadcast gate: any number of tasks [`Gate::wait`] until one
/// call to [`Gate::open`] releases them all.
///
/// Level-triggered — waiting on an already-open gate resolves immediately —
/// and fair: waiters are woken in the order they first polled, so the
/// executor's FIFO ready queue resumes them deterministically in
/// registration order. Clones share state. A gate never closes again; for a
/// recurring barrier, make a fresh gate per round (the shared-log batcher
/// makes one per batch).
#[derive(Clone)]
pub struct Gate {
    state: Rc<RefCell<GateState>>,
}

impl Default for Gate {
    fn default() -> Gate {
        Gate::new()
    }
}

impl Gate {
    /// Creates a closed gate.
    #[must_use]
    pub fn new() -> Gate {
        Gate::with_capacity(0)
    }

    /// Creates a closed gate with room for `waiters` parked tasks before
    /// the waker list reallocates. Use when the waiter count is known up
    /// front (the shared-log batcher sizes gates to the batch cap).
    #[must_use]
    pub fn with_capacity(waiters: usize) -> Gate {
        Gate {
            state: Rc::new(RefCell::new(GateState {
                open: false,
                wakers: Vec::with_capacity(waiters),
            })),
        }
    }

    /// Closes this gate back up for reuse — but only if this handle is the
    /// *last* reference, so no task can ever observe an open gate turning
    /// closed (the one-shot contract holds for every observer). Returns
    /// whether the reset happened; on `false` the caller should allocate a
    /// fresh gate. Retains the waker list's capacity, which is the point:
    /// a recycled gate parks its next round of waiters allocation-free.
    #[must_use]
    pub fn try_reset(&self) -> bool {
        if Rc::strong_count(&self.state) != 1 {
            return false;
        }
        let mut st = self.state.borrow_mut();
        st.open = false;
        // Wakers left by waiters whose futures died before the open; with
        // a strong count of 1 no live future references this gate, so
        // dropping them is exactly what dropping the gate would have done.
        st.wakers.clear();
        true
    }

    /// Opens the gate, waking every waiter. Idempotent.
    pub fn open(&self) {
        let mut wakers = {
            let mut st = self.state.borrow_mut();
            st.open = true;
            std::mem::take(&mut st.wakers)
        };
        for w in wakers.drain(..) {
            w.wake();
        }
        // Hand the emptied buffer back: waiting on an open gate never
        // parks, so the buffer sits unused until a [`Gate::try_reset`]
        // recycles the gate — at which point the retained capacity is what
        // makes the next round of waiters allocation-free.
        let mut st = self.state.borrow_mut();
        if st.wakers.capacity() == 0 {
            st.wakers = wakers;
        }
    }

    /// True once the gate has been opened.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.state.borrow().open
    }

    /// Number of tasks currently parked on the gate (test/introspection
    /// helper; waiters whose futures were dropped may still be counted).
    #[must_use]
    pub fn waiters(&self) -> usize {
        self.state.borrow().wakers.len()
    }

    /// Resolves once the gate is open (immediately if it already is).
    #[must_use]
    pub fn wait(&self) -> GateWait {
        GateWait { gate: self.clone() }
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        write!(f, "Gate(open={}, waiters={})", st.open, st.wakers.len())
    }
}

/// Future returned by [`Gate::wait`].
pub struct GateWait {
    gate: Gate,
}

impl Future for GateWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.gate.state.borrow_mut();
        if st.open {
            return Poll::Ready(());
        }
        if !st.wakers.iter().any(|w| w.will_wake(cx.waker())) {
            st.wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// TaskGroup (cancellable)
// ---------------------------------------------------------------------------

/// A future was torn down by [`TaskGroup::cancel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("task group cancelled")
    }
}
impl std::error::Error for Cancelled {}

struct GroupState {
    cancelled: bool,
    /// Bumped on [`TaskGroup::reset`]; wakers registered under an older
    /// epoch are woken on cancel and re-check the flag, so a stale waker
    /// can never observe a later epoch's cancellation as its own.
    epoch: u64,
    /// One entry per live, parked [`RunCancellable`]/[`CancelledFut`],
    /// keyed by first registration. Keys only grow (across epochs too), so
    /// iteration order is first-registration order and a future whose key
    /// was taken by [`TaskGroup::cancel`] or cleared by [`TaskGroup::reset`]
    /// can never collide with a later one.
    wakers: BTreeMap<u64, Waker>,
    next_key: u64,
}

/// A cancellable group of cooperating futures.
///
/// Futures join the group by running inside [`TaskGroup::run`], which
/// resolves to `Err(Cancelled)` — dropping the wrapped future and thereby
/// its resources — as soon as [`TaskGroup::cancel`] fires. The group models
/// a failure domain (in this workspace: one function node); cancelling it is
/// the simulation's equivalent of the node's process dying with all in-flight
/// work. [`TaskGroup::reset`] re-arms the group when the domain recovers.
///
/// The wrapper polls the inner future directly on the same task: when the
/// group is never cancelled, scheduling is bit-identical to running the
/// future bare (no extra tasks, timers, or RNG draws).
#[derive(Clone)]
pub struct TaskGroup {
    state: Rc<RefCell<GroupState>>,
}

impl Default for TaskGroup {
    fn default() -> TaskGroup {
        TaskGroup::new()
    }
}

impl TaskGroup {
    /// Creates a live (non-cancelled) group.
    #[must_use]
    pub fn new() -> TaskGroup {
        TaskGroup {
            state: Rc::new(RefCell::new(GroupState {
                cancelled: false,
                epoch: 0,
                wakers: BTreeMap::new(),
                next_key: 0,
            })),
        }
    }

    /// Cancels the group: every future inside [`TaskGroup::run`] resolves to
    /// `Err(Cancelled)` at its next poll, and its inner future is dropped.
    /// Idempotent; the group stays cancelled until [`TaskGroup::reset`].
    pub fn cancel(&self) {
        let wakers = {
            let mut st = self.state.borrow_mut();
            st.cancelled = true;
            std::mem::take(&mut st.wakers)
        };
        // Child invocations run inline in their parent's task, so one task
        // can hold nested `run`s of the same group: wake it once, at its
        // first registration.
        let mut woken: Vec<Waker> = Vec::with_capacity(wakers.len());
        for w in wakers.into_values() {
            if !woken.iter().any(|seen| seen.will_wake(&w)) {
                w.wake_by_ref();
                woken.push(w);
            }
        }
    }

    /// Re-arms a cancelled group (the failure domain recovered). Clears
    /// every registration; a future still parked re-registers, under a
    /// fresh key, at its next poll.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        st.cancelled = false;
        st.epoch += 1;
        st.wakers.clear();
    }

    /// True while the group is cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.state.borrow().cancelled
    }

    /// Runs `fut` under the group: yields `Ok(output)` on completion, or
    /// `Err(Cancelled)` — dropping `fut` mid-flight — if the group is
    /// cancelled first.
    pub fn run<F: Future>(&self, fut: F) -> RunCancellable<F> {
        RunCancellable {
            group: self.clone(),
            fut: Some(Box::pin(fut)),
            key: None,
        }
    }

    /// Resolves when the group is cancelled (level-triggered: immediately if
    /// it already is).
    #[must_use]
    pub fn cancelled(&self) -> CancelledFut {
        CancelledFut {
            group: self.clone(),
            key: None,
        }
    }

    /// Number of registered wakers: parked futures of the group that have
    /// not completed, been cancelled or been dropped (test/introspection
    /// helper).
    #[must_use]
    pub fn registered(&self) -> usize {
        self.state.borrow().wakers.len()
    }

    /// Parks `waker` under `*key`, updating the entry in place on a re-poll.
    /// A missing entry — first poll, or taken by `cancel`/`reset` since —
    /// is re-inserted under a fresh key. No dedupe across keys: an inner
    /// `run` that shares its outer `run`'s task must not stand in for it,
    /// since the inner one may complete first.
    fn register(&self, key: &mut Option<u64>, waker: &Waker) {
        let mut st = self.state.borrow_mut();
        if let Some(slot) = key.and_then(|k| st.wakers.get_mut(&k)) {
            if !slot.will_wake(waker) {
                slot.clone_from(waker);
            }
            return;
        }
        let k = st.next_key;
        st.next_key += 1;
        st.wakers.insert(k, waker.clone());
        *key = Some(k);
    }

    fn unregister(&self, key: &mut Option<u64>) {
        if let Some(k) = key.take() {
            // Bound first so the waker drops after the borrow ends.
            let waker = self.state.borrow_mut().wakers.remove(&k);
            drop(waker);
        }
    }
}

impl std::fmt::Debug for TaskGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        write!(
            f,
            "TaskGroup(cancelled={}, epoch={})",
            st.cancelled, st.epoch
        )
    }
}

/// Future returned by [`TaskGroup::run`].
pub struct RunCancellable<F: Future> {
    group: TaskGroup,
    fut: Option<Pin<Box<F>>>,
    /// This future's registration in the group's waker map.
    key: Option<u64>,
}

impl<F: Future> Future for RunCancellable<F> {
    type Output = Result<F::Output, Cancelled>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if this.group.is_cancelled() {
            // Drop the inner future now: teardown happens at the
            // cancellation instant, not when the wrapper is dropped.
            this.fut = None;
            this.group.unregister(&mut this.key);
            return Poll::Ready(Err(Cancelled));
        }
        let fut = this
            .fut
            .as_mut()
            .expect("RunCancellable polled after completion");
        match fut.as_mut().poll(cx) {
            Poll::Ready(v) => {
                this.fut = None;
                this.group.unregister(&mut this.key);
                Poll::Ready(Ok(v))
            }
            Poll::Pending => {
                this.group.register(&mut this.key, cx.waker());
                Poll::Pending
            }
        }
    }
}

impl<F: Future> Drop for RunCancellable<F> {
    fn drop(&mut self) {
        self.group.unregister(&mut self.key);
    }
}

/// Future returned by [`TaskGroup::cancelled`].
pub struct CancelledFut {
    group: TaskGroup,
    /// This future's registration in the group's waker map.
    key: Option<u64>,
}

impl Future for CancelledFut {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if this.group.is_cancelled() {
            this.group.unregister(&mut this.key);
            Poll::Ready(())
        } else {
            this.group.register(&mut this.key, cx.waker());
            Poll::Pending
        }
    }
}

impl Drop for CancelledFut {
    fn drop(&mut self) {
        self.group.unregister(&mut self.key);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::time::Duration;

    use crate::sim::Sim;

    use super::*;

    #[test]
    fn oneshot_roundtrip() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let (tx, rx) = oneshot::<u32>();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(Duration::from_millis(3)).await;
            tx.send(5);
        });
        let got = sim.block_on(rx);
        assert_eq!(got, Ok(5));
    }

    #[test]
    fn oneshot_sender_dropped() {
        let mut sim = Sim::new(1);
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        let got = sim.block_on(rx);
        assert_eq!(got, Err(RecvError));
    }

    #[test]
    fn mpsc_preserves_fifo_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let (tx, mut rx) = mpsc::<u32>();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            for i in 0..5 {
                tx.send(i).unwrap();
                ctx2.sleep(Duration::from_millis(1)).await;
            }
        });
        let got = sim.block_on(async move {
            let mut out = Vec::new();
            while let Some(v) = rx.recv().await {
                out.push(v);
            }
            out
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mpsc_send_fails_after_receiver_drop() {
        let (tx, rx) = mpsc::<u32>();
        drop(rx);
        assert_eq!(tx.send(9), Err(9));
    }

    #[test]
    fn mpsc_try_recv_and_len() {
        let (tx, mut rx) = mpsc::<u32>();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let sem = Semaphore::new(2);
        let peak = Rc::new(Cell::new(0usize));
        let cur = Rc::new(Cell::new(0usize));
        for _ in 0..6 {
            let ctx2 = ctx.clone();
            let sem = sem.clone();
            let peak = peak.clone();
            let cur = cur.clone();
            ctx.spawn(async move {
                let _guard = sem.acquire().await;
                cur.set(cur.get() + 1);
                peak.set(peak.get().max(cur.get()));
                ctx2.sleep(Duration::from_millis(10)).await;
                cur.set(cur.get() - 1);
            });
        }
        sim.run();
        assert_eq!(peak.get(), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn semaphore_is_fifo() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let sem = Semaphore::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let ctx2 = ctx.clone();
            let sem = sem.clone();
            let order = order.clone();
            ctx.spawn(async move {
                // Stagger arrival so the queue order is unambiguous.
                ctx2.sleep(Duration::from_millis(u64::from(i))).await;
                let _guard = sem.acquire().await;
                order.borrow_mut().push(i);
                ctx2.sleep(Duration::from_millis(20)).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn semaphore_cancelled_waiter_does_not_leak_permit() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let sem = Semaphore::new(1);
        // Holder takes the permit for 10ms.
        {
            let ctx2 = ctx.clone();
            let sem = sem.clone();
            ctx.spawn(async move {
                let _g = sem.acquire().await;
                ctx2.sleep(Duration::from_millis(10)).await;
            });
        }
        // Waiter enqueues, then its future is dropped before the grant.
        {
            let sem = sem.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(1)).await;
                let acq = sem.acquire();
                // Poll once to enqueue, then drop.
                futures_poll_once(acq).await;
            });
        }
        // Third task must still get the permit.
        let got = Rc::new(Cell::new(false));
        {
            let sem = sem.clone();
            let ctx2 = ctx.clone();
            let got = got.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(2)).await;
                let _g = sem.acquire().await;
                got.set(true);
            });
        }
        sim.run();
        assert!(got.get());
        assert_eq!(sem.available(), 1);
    }

    /// Polls a future exactly once, then drops it.
    async fn futures_poll_once<F: Future>(fut: F) {
        let mut fut = Box::pin(fut);
        std::future::poll_fn(move |cx| {
            let _ = fut.as_mut().poll(cx);
            std::task::Poll::Ready(())
        })
        .await;
    }

    #[test]
    fn gate_releases_all_waiters_in_registration_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let gate = Gate::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let gate = gate.clone();
            let order = order.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                // Stagger registration so the queue order is unambiguous.
                ctx2.sleep(Duration::from_millis(u64::from(i))).await;
                gate.wait().await;
                order.borrow_mut().push(i);
            });
        }
        {
            let gate = gate;
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(10)).await;
                assert_eq!(gate.waiters(), 5);
                gate.open();
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(
            sim.now(),
            Duration::from_millis(10),
            "waiters release at the open instant"
        );
    }

    #[test]
    fn gate_is_level_triggered_and_idempotent() {
        let mut sim = Sim::new(1);
        let gate = Gate::new();
        assert!(!gate.is_open());
        gate.open();
        gate.open();
        assert!(gate.is_open());
        let g = gate;
        sim.block_on(async move { g.wait().await });
        assert_eq!(sim.now(), Duration::ZERO, "open gate must not wait");
    }

    #[test]
    fn gate_tolerates_dropped_waiters() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let gate = Gate::new();
        // A waiter that registers, then is torn down before the open.
        let group = TaskGroup::new();
        {
            let gate = gate.clone();
            let group = group.clone();
            ctx.spawn(async move {
                let _ = group.run(gate.wait()).await;
            });
        }
        let released = Rc::new(Cell::new(false));
        {
            let gate = gate.clone();
            let released = released.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(1)).await;
                gate.wait().await;
                released.set(true);
            });
        }
        {
            let gate = gate;
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(2)).await;
                group.cancel();
                gate.open();
            });
        }
        sim.run();
        assert!(released.get(), "live waiter must still be released");
    }

    #[test]
    fn task_group_runs_to_completion_when_not_cancelled() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let group = TaskGroup::new();
        let ctx2 = ctx;
        let got = sim.block_on(async move {
            group
                .run(async move {
                    ctx2.sleep(Duration::from_millis(3)).await;
                    7u32
                })
                .await
        });
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn task_group_cancel_tears_down_inflight_work() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let group = TaskGroup::new();
        // Guard that records when the inner future is dropped.
        struct DropFlag(Rc<Cell<bool>>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let cancel_at = Rc::new(Cell::new(Duration::ZERO));
        {
            let group = group.clone();
            let ctx2 = ctx.clone();
            let cancel_at = cancel_at.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(5)).await;
                cancel_at.set(ctx2.now());
                group.cancel();
            });
        }
        let ctx2 = ctx;
        let flag = DropFlag(dropped.clone());
        let got = sim.block_on({
            let group = group;
            async move {
                group
                    .run(async move {
                        let _flag = flag;
                        ctx2.sleep(Duration::from_secs(60)).await;
                        1u32
                    })
                    .await
            }
        });
        assert_eq!(got, Err(Cancelled));
        assert!(dropped.get(), "inner future must be dropped on cancel");
        assert_eq!(cancel_at.get(), Duration::from_millis(5));
        // Virtual time must not run out the 60s sleep.
        assert!(sim.now() < Duration::from_secs(1));
    }

    #[test]
    fn task_group_reset_rearms() {
        let mut sim = Sim::new(1);
        let group = TaskGroup::new();
        group.cancel();
        assert!(group.is_cancelled());
        let g = group.clone();
        let got = sim.block_on(async move { g.run(async { 1u32 }).await });
        assert_eq!(got, Err(Cancelled), "cancelled group rejects new work");
        group.reset();
        assert!(!group.is_cancelled());
        let g = group;
        let got = sim.block_on(async move { g.run(async { 2u32 }).await });
        assert_eq!(got, Ok(2));
    }

    #[test]
    fn task_group_cancelled_future_is_level_triggered() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let group = TaskGroup::new();
        let observed = Rc::new(Cell::new(Duration::MAX));
        {
            let group = group.clone();
            let observed = observed.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                group.cancelled().await;
                observed.set(ctx2.now());
            });
        }
        {
            let group = group.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                ctx2.sleep(Duration::from_millis(2)).await;
                group.cancel();
            });
        }
        sim.run();
        assert_eq!(observed.get(), Duration::from_millis(2));
        // Already-cancelled group resolves immediately.
        let g = group;
        let mut sim2 = Sim::new(2);
        sim2.block_on(async move { g.cancelled().await });
    }

    #[test]
    fn task_group_registration_ends_with_the_future() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let group = TaskGroup::new();
        // Completed: registered while parked, released on `Ready(Ok)`.
        {
            let group = group.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                let _ = group.run(ctx2.sleep(Duration::from_millis(3))).await;
            });
        }
        sim.run_for(Duration::from_millis(1));
        assert_eq!(group.registered(), 1);
        sim.run();
        assert_eq!(group.registered(), 0, "completed run must unregister");

        // Dropped: polled once (parked), then dropped mid-flight.
        {
            let group = group.clone();
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                futures_poll_once(group.run(ctx2.sleep(Duration::from_secs(60)))).await;
                futures_poll_once(group.cancelled()).await;
                assert_eq!(group.registered(), 0, "dropped futures must unregister");
            });
        }
        sim.run();
        assert_eq!(group.registered(), 0);

        // Cancelled: two parked runs and one `cancelled()` waiter.
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let group = group.clone();
            let ctx2 = ctx.clone();
            let done = done.clone();
            ctx.spawn(async move {
                let got = group.run(ctx2.sleep(Duration::from_secs(60))).await;
                assert_eq!(got, Err(Cancelled));
                done.set(done.get() + 1);
            });
        }
        {
            let group = group.clone();
            let done = done.clone();
            ctx.spawn(async move {
                group.cancelled().await;
                done.set(done.get() + 1);
            });
        }
        sim.run_for(Duration::from_millis(1));
        assert_eq!(group.registered(), 3);
        group.cancel();
        assert_eq!(group.registered(), 0, "cancel takes every registration");
        sim.run();
        assert_eq!(done.get(), 3);
        assert_eq!(group.registered(), 0);
    }

    #[test]
    fn task_group_cancel_wakes_in_first_registration_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let group = TaskGroup::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        // Both tasks first register at t=0, task 0 first. A reset at t=2ms
        // empties the map; task 1 re-polls first (t=3ms) and task 0 second
        // (t=4ms), so the new epoch's order is [1, 0]. The re-polls at
        // t=1ms (task 1) and t=6ms (task 0) update entries in place and
        // must not move them.
        let inner = |ctx: crate::Ctx, wake_at: &'static [u64]| async move {
            let mut prev = 0;
            for &at in wake_at {
                ctx.sleep(Duration::from_millis(at - prev)).await;
                prev = at;
            }
            ctx.sleep(Duration::from_secs(60)).await;
        };
        for (i, wake_at) in [(0u32, &[4u64, 6][..]), (1, &[1, 3][..])] {
            let group = group.clone();
            let order = order.clone();
            let fut = inner(ctx.clone(), wake_at);
            ctx.spawn(async move {
                assert_eq!(group.run(fut).await, Err(Cancelled));
                order.borrow_mut().push(i);
            });
        }
        sim.run_for(Duration::from_millis(2));
        assert_eq!(group.registered(), 2);
        group.reset();
        assert_eq!(group.registered(), 0, "reset clears the map");
        sim.run_for(Duration::from_millis(8));
        assert_eq!(group.registered(), 2, "re-polls re-register");
        group.cancel();
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 0]);
        assert_eq!(group.registered(), 0);
    }

    #[test]
    fn task_group_cancel_polls_a_nested_task_once() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let group = TaskGroup::new();
        // Two nested runs of one group in one task: both register, and the
        // outer one stays registered after the inner one completes.
        let observed = Rc::new(Cell::new(false));
        {
            let group = group.clone();
            let ctx2 = ctx.clone();
            let observed = observed.clone();
            ctx.spawn(async move {
                let nested = {
                    let group = group.clone();
                    let ctx3 = ctx2.clone();
                    async move {
                        let _ = group.run(ctx3.sleep(Duration::from_millis(2))).await;
                        let _ = group.run(ctx3.sleep(Duration::from_secs(60))).await;
                    }
                };
                assert_eq!(group.run(nested).await, Err(Cancelled));
                observed.set(true);
                // Stay alive past the cancel so a second wake would poll.
                ctx2.sleep(Duration::from_millis(1)).await;
            });
        }
        sim.run_for(Duration::from_millis(1));
        assert_eq!(group.registered(), 2, "no dedupe at registration");
        sim.run_for(Duration::from_millis(2));
        assert_eq!(group.registered(), 2, "outer run still registered");
        let before = sim.poll_count();
        group.cancel();
        sim.run();
        assert!(observed.get());
        // One poll for the cancel, one for the trailing sleep.
        assert_eq!(sim.poll_count() - before, 2, "cancel woke the task twice");
    }
}
