//! Executable spec for the substrate sync contracts, run on every backend.
//!
//! The harness is written *generically against the traits* — the property
//! bodies know only [`Clock`] + [`Spawner`] — so any backend is checked by
//! adding one line to the backend matrix below (which is exactly how the
//! partitioned parallel backend joined; a real tokio adapter would do the
//! same). Randomization is a
//! seeded loop (the workspace vendors no proptest): each iteration draws
//! its shape — permit counts, waiter counts, hold times — from a
//! `SmallRng` seeded with the iteration index, so failures replay exactly.
//!
//! Contracts under test (the ones alternate backends are most likely to
//! break, because they depend on the executor's wakeup order):
//! - `Semaphore`: permits are granted in strict arrival (FIFO) order, and
//!   the configured concurrency bound is never exceeded.
//! - `Gate`: one `open()` releases every waiter, in registration order.
//! - `TaskGroup`: `cancel()` wakes every parked future, in first-registration
//!   order (re-polls keep their place, a `reset` epoch starts a new order),
//!   and completed, cancelled or dropped futures leave no registration.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use hm_substrate::sync::{Cancelled, Gate, Semaphore, TaskGroup};
use hm_substrate::{BackendKind, Clock, Runner, Spawner};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Iterations per property per backend. Each wall-clock iteration costs
/// real milliseconds (the sleeps are real), so this stays modest; the sim
/// iterations are nearly free.
const ITERS: u64 = 8;

/// Arrival stagger between contending tasks. Must be comfortably above
/// the wall backend's timer jitter so "arrival order" is unambiguous on
/// the real clock too.
const STAGGER: Duration = Duration::from_millis(2);

fn backends() -> [BackendKind; 3] {
    [BackendKind::Sim, BackendKind::Wall, BackendKind::Parallel]
}

/// Semaphore FIFO: `n` tasks arrive at distinct instants and contend for
/// `permits` slots held for `hold` each; grants must come in arrival
/// order and concurrency must never exceed `permits`.
async fn semaphore_fifo_property<C>(ctx: C, n: u32, permits: usize, hold: Duration) -> (Vec<u32>, usize)
where
    C: Clock + Spawner + 'static,
{
    let sem = Semaphore::new(permits);
    let order = Rc::new(RefCell::new(Vec::new()));
    let cur = Rc::new(Cell::new(0usize));
    let peak = Rc::new(Cell::new(0usize));
    let mut handles = Vec::new();
    for i in 0..n {
        let ctx2 = ctx.clone();
        let sem = sem.clone();
        let order = order.clone();
        let cur = cur.clone();
        let peak = peak.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(STAGGER * i).await;
            let _guard = sem.acquire().await;
            order.borrow_mut().push(i);
            cur.set(cur.get() + 1);
            peak.set(peak.get().max(cur.get()));
            ctx2.sleep(hold).await;
            cur.set(cur.get() - 1);
        }));
    }
    for h in handles {
        h.await;
    }
    let got = order.borrow().clone();
    (got, peak.get())
}

/// Gate broadcast: `n` waiters register at distinct instants; one
/// `open()` after the last registration must release all of them, in
/// registration order.
async fn gate_release_property<C>(ctx: C, n: u32) -> Vec<u32>
where
    C: Clock + Spawner + 'static,
{
    let gate = Gate::new();
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut handles = Vec::new();
    for i in 0..n {
        let ctx2 = ctx.clone();
        let gate = gate.clone();
        let order = order.clone();
        handles.push(ctx.spawn(async move {
            ctx2.sleep(STAGGER * i).await;
            gate.wait().await;
            order.borrow_mut().push(i);
        }));
    }
    // Open strictly after every waiter has parked.
    ctx.sleep(STAGGER * n + STAGGER).await;
    assert_eq!(gate.waiters(), n as usize, "all waiters parked before open");
    gate.open();
    for h in handles {
        h.await;
    }
    let got = order.borrow().clone();
    got
}

/// TaskGroup cancel order: one round per `rounds` entry, separated by a
/// `reset`. In a round of `n` tasks, task `i` parks at `STAGGER * i` and
/// re-polls at `STAGGER * n`, once all have parked; one more task parks and
/// drops a run and a `cancelled()` future. One `cancel()` must then tear
/// the tasks down in arrival order. Returns each round's observed order and
/// the registration count after it drained.
async fn task_group_cancel_property<C>(ctx: C, rounds: [u32; 2]) -> Vec<(Vec<u32>, usize)>
where
    C: Clock + Spawner + 'static,
{
    let group = TaskGroup::new();
    let mut out = Vec::new();
    for n in rounds {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..n {
            let ctx2 = ctx.clone();
            let group = group.clone();
            let order = order.clone();
            handles.push(ctx.spawn(async move {
                ctx2.sleep(STAGGER * i).await;
                let inner = {
                    let ctx3 = ctx2.clone();
                    async move {
                        ctx3.sleep(STAGGER * (n - i)).await;
                        ctx3.sleep(Duration::from_secs(3600)).await;
                    }
                };
                assert_eq!(group.run(inner).await, Err(Cancelled));
                order.borrow_mut().push(i);
            }));
        }
        {
            let group = group.clone();
            let ctx2 = ctx.clone();
            handles.push(ctx.spawn(async move {
                let mut run = Box::pin(group.run(ctx2.sleep(Duration::from_secs(3600))));
                let mut waiter = Box::pin(group.cancelled());
                std::future::poll_fn(|cx| {
                    assert!(run.as_mut().poll(cx).is_pending());
                    assert!(waiter.as_mut().poll(cx).is_pending());
                    std::task::Poll::Ready(())
                })
                .await;
            }));
        }
        // Cancel strictly after every task has parked and re-polled.
        ctx.sleep(STAGGER * (n + 1) + STAGGER).await;
        assert_eq!(
            group.registered(),
            n as usize,
            "one registration per parked run"
        );
        group.cancel();
        for h in handles {
            h.await;
        }
        let got = order.borrow().clone();
        out.push((got, group.registered()));
        group.reset();
    }
    out
}

#[test]
fn semaphore_grants_fifo_on_every_backend() {
    for backend in backends() {
        for iter in 0..ITERS {
            let mut shape = SmallRng::seed_from_u64(0x5e3a_0000 + iter);
            let n = shape.random_range(2..10u32);
            let permits = shape.random_range(1..4usize);
            let hold = Duration::from_millis(shape.random_range(1..6u64)) * n;

            let mut runner = Runner::builder().backend(backend).seed(iter).build();
            let ctx = runner.ctx();
            let (order, peak) =
                runner.block_on(semaphore_fifo_property(ctx, n, permits, hold));

            let expect: Vec<u32> = (0..n).collect();
            assert_eq!(
                order, expect,
                "{backend} backend broke semaphore FIFO (iter {iter}: n={n} permits={permits})"
            );
            assert!(
                peak <= permits,
                "{backend} backend exceeded the concurrency bound \
                 (iter {iter}: peak {peak} > permits {permits})"
            );
        }
    }
}

#[test]
fn gate_releases_in_registration_order_on_every_backend() {
    for backend in backends() {
        for iter in 0..ITERS {
            let mut shape = SmallRng::seed_from_u64(0x6a7e_0000 + iter);
            let n = shape.random_range(2..12u32);

            let mut runner = Runner::builder().backend(backend).seed(iter).build();
            let ctx = runner.ctx();
            let order = runner.block_on(gate_release_property(ctx, n));

            let expect: Vec<u32> = (0..n).collect();
            assert_eq!(
                order, expect,
                "{backend} backend broke gate registration-order release (iter {iter}: n={n})"
            );
        }
    }
}

#[test]
fn task_group_cancels_in_first_registration_order_on_every_backend() {
    for backend in backends() {
        for iter in 0..ITERS {
            let mut shape = SmallRng::seed_from_u64(0x7a5c_0000 + iter);
            let rounds = [shape.random_range(1..8u32), shape.random_range(1..8u32)];

            let mut runner = Runner::builder().backend(backend).seed(iter).build();
            let ctx = runner.ctx();
            let got = runner.block_on(task_group_cancel_property(ctx, rounds));

            for (round, (&n, (order, registered))) in rounds.iter().zip(got).enumerate() {
                let expect: Vec<u32> = (0..n).collect();
                assert_eq!(
                    order, expect,
                    "{backend} backend broke task-group cancel order \
                     (iter {iter}, round {round}: n={n})"
                );
                assert_eq!(
                    registered, 0,
                    "{backend} backend leaked task-group registrations \
                     (iter {iter}, round {round}: n={n})"
                );
            }
        }
    }
}
