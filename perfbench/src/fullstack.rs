//! The two full-stack workloads: an open loop of Poisson arrivals through
//! runtime → `Env` → log/KV, running the §6.3 ten-operation SSF.
//!
//! The request stream is `hm_workloads::synthetic::SyntheticOps::factory()`
//! and the SSF body registered here has the same operation semantics as
//! that type's, so the simulated work is the §6.3 experiment's. Registering
//! the body here lets a traced rep wrap each `Env::read` / `Env::write`
//! from outside, and lets every rep check the content of each read.
//!
//! The arrival loop follows `hm_runtime::Gateway::run_open_loop` draw for
//! draw (interarrival gap, then the factory, then one task per request) and
//! keeps every latency sample, so percentiles are exact and each sample
//! count is known. Each request is timed from its scheduled arrival; in
//! virtual time the generator is never late.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use halfmoon::{Client, Env, FaultPolicy, ProtocolKind};
use hm_common::anatomy::Anatomy;
use hm_common::latency::LatencyModel;
use hm_common::trace::{Lane, SpanId, Tracer};
use hm_common::{HmResult, Key, NodeId, Value};
use hm_runtime::{GcDriver, RequestFactory, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_substrate::Time;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload as _;

use crate::meter::{self, Op, Probe};
use crate::stats::{mix, Outcomes};
use crate::{write_spans, Layers, Mode, Rep, RepOpts, SPAN_RING};

/// Populated objects.
pub const OBJECTS: u32 = 10_000;
/// Object value size, bytes.
pub const VALUE_BYTES: usize = 256;
/// Virtual time between GC passes.
pub const GC_INTERVAL: Time = Time::from_secs(1);
/// How far past the window in-flight requests may run before they count
/// as undrained (the gateway's grace period).
pub const DRAIN_GRACE: Time = Time::from_secs(30);
/// Virtual step the rep advances by while waiting for the drain.
const STEP: Time = Time::from_millis(10);

/// One full-stack workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Protocol every object runs under.
    pub protocol: ProtocolKind,
    /// Fraction of the ten operations that are reads.
    pub read_ratio: f64,
    /// Per-attempt crash probability (`FaultPolicy::per_attempt`).
    pub crash_prob: Option<f64>,
    /// Poisson arrival rate, requests per virtual second.
    pub rate: f64,
    /// Virtual warmup before the measured window.
    pub warmup: Time,
    /// Measured window at scale 1.
    pub window: Time,
}

impl Spec {
    /// `hmread_read_heavy`.
    #[must_use]
    pub fn hmread_read_heavy() -> Spec {
        Spec {
            protocol: ProtocolKind::HalfmoonRead,
            read_ratio: 0.8,
            crash_prob: None,
            rate: 250.0,
            warmup: Time::from_secs(1),
            window: Time::from_secs(12),
        }
    }

    /// `hmwrite_write_heavy_crash`.
    #[must_use]
    pub fn hmwrite_write_heavy_crash() -> Spec {
        Spec {
            protocol: ProtocolKind::HalfmoonWrite,
            read_ratio: 0.2,
            crash_prob: Some(0.1),
            rate: 250.0,
            warmup: Time::from_secs(1),
            window: Time::from_secs(24),
        }
    }
}

fn obj_key(i: i64) -> Key {
    // Same 8-byte keys as `SyntheticOps`.
    Key::new(format!("o{i:07}"))
}

/// State shared by the arrival loop, the request tasks and the SSF body.
struct Shared {
    /// Every fingerprint ever written to each object (its populated value
    /// first): a read must return one of them.
    shadow: RefCell<Vec<Vec<u64>>>,
    outcomes: Cell<Outcomes>,
    latencies_ns: RefCell<Vec<u64>>,
    in_flight: Cell<u64>,
    measured_in_flight: Cell<u64>,
    peak_queue: Cell<usize>,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            shadow: RefCell::new((0..u64::from(OBJECTS)).map(|i| vec![i]).collect()),
            outcomes: Cell::new(Outcomes::default()),
            latencies_ns: RefCell::new(Vec::new()),
            in_flight: Cell::new(0),
            measured_in_flight: Cell::new(0),
            peak_queue: Cell::new(0),
        }
    }

    fn update(&self, f: impl FnOnce(&mut Outcomes)) {
        let mut o = self.outcomes.get();
        f(&mut o);
        self.outcomes.set(o);
    }

    /// Records the fingerprints a generated request will write.
    fn note_writes(&self, input: &Value) {
        let mut shadow = self.shadow.borrow_mut();
        for op in input.get("ops").and_then(Value::as_list).unwrap_or(&[]) {
            if op.get("read").and_then(Value::as_int) == Some(0) {
                let obj = op.get("obj").and_then(Value::as_int).unwrap_or(0);
                let fp = op.get("fp").and_then(Value::as_int).unwrap_or(0);
                shadow[obj as usize].push(fp as u64);
            }
        }
    }

    /// True when `value` is a full-size object some request wrote to `obj`
    /// (or its populated value).
    fn read_ok(&self, obj: i64, value: &Value) -> bool {
        match value {
            Value::Blob { len, fingerprint } => {
                *len == VALUE_BYTES
                    && self
                        .shadow
                        .borrow()
                        .get(obj as usize)
                        .is_some_and(|fps| fps.contains(fingerprint))
            }
            _ => false,
        }
    }
}

/// Registers the §6.3 body as `synthetic.ops`: each op reads or writes one
/// object, as `SyntheticOps` does, and each read's content is checked.
fn register_body(runtime: &Runtime, shared: &Rc<Shared>, probe: &Option<Rc<Probe>>) {
    let shared = shared.clone();
    let probe = probe.clone();
    runtime.register("synthetic.ops", move |env, input| {
        let shared = shared.clone();
        let probe = probe.clone();
        Box::pin(async move { body(env, input, &shared, probe.as_deref()).await })
    });
}

async fn body(
    env: &mut Env,
    input: Value,
    shared: &Shared,
    probe: Option<&Probe>,
) -> HmResult<Value> {
    let ops = input.get("ops").and_then(Value::as_list).unwrap_or(&[]);
    let mut acc = 0i64;
    for op in ops {
        let obj = op.get("obj").and_then(Value::as_int).unwrap_or(0);
        let key = obj_key(obj);
        let is_read = op
            .get("read")
            .and_then(|v| v.as_int().map(|i| i != 0))
            .unwrap_or(true);
        if is_read {
            let v = match probe {
                Some(p) => p.call(Op::EnvRead, env.read(&key)).await?,
                None => env.read(&key).await?,
            };
            if !shared.read_ok(obj, &v) {
                shared.update(|o| o.content_failures += 1);
            }
            acc = acc.wrapping_add(v.size_bytes() as i64);
        } else {
            let fp = op.get("fp").and_then(Value::as_int).unwrap_or(0);
            let value = Value::blob(VALUE_BYTES, fp as u64);
            match probe {
                Some(p) => p.call(Op::EnvWrite, env.write(&key, value)).await?,
                None => env.write(&key, value).await?,
            }
        }
    }
    Ok(Value::Int(acc))
}

/// The open loop: Poisson arrivals for `warmup + window`, then a drain
/// bounded by [`DRAIN_GRACE`].
async fn open_loop(
    runtime: Runtime,
    factory: RequestFactory,
    spec: Spec,
    window: Time,
    shared: Rc<Shared>,
) {
    let ctx = runtime.client().ctx().clone();
    let measure_from = ctx.now() + spec.warmup;
    let deadline = measure_from + window;
    let mut seq = 0u64;
    while ctx.now() < deadline {
        let gap = ctx.with_rng(|rng| hm_common::dist::exp_interarrival_secs(rng, spec.rate));
        ctx.sleep(Time::from_secs_f64(gap)).await;
        if ctx.now() >= deadline {
            break;
        }
        let (func, input) = ctx.with_rng(|rng| factory(rng, seq));
        seq += 1;
        shared.note_writes(&input);
        let measured = ctx.now() >= measure_from;
        shared.in_flight.set(shared.in_flight.get() + 1);
        if measured {
            shared.update(|o| o.attempted += 1);
            shared
                .measured_in_flight
                .set(shared.measured_in_flight.get() + 1);
        }
        let runtime = runtime.clone();
        let shared = shared.clone();
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            let started = ctx2.now();
            if measured {
                shared
                    .peak_queue
                    .set(shared.peak_queue.get().max(runtime.queued_requests()));
            }
            let anatomy = runtime.client().anatomy();
            let sheet = anatomy.as_ref().map(|a| a.open_sheet(started));
            // As the gateway does: each traced request roots its own trace
            // with a gateway-lane span covering queueing and execution.
            let tracer = runtime.client().tracer();
            let trace = tracer.as_ref().map(|t| {
                let trace = t.new_trace();
                let span = t.span_begin(
                    Lane::Gateway,
                    started,
                    trace,
                    SpanId::NONE,
                    "request",
                    func.clone(),
                );
                (trace, span)
            });
            let result = runtime
                .invoke_request_with(&func, input, trace, sheet.clone())
                .await;
            let now = ctx2.now();
            if let (Some(t), Some((trace, span))) = (&tracer, trace) {
                t.span_end(Lane::Gateway, now, trace, span);
            }
            let succeeded = result.is_ok();
            if measured {
                match result {
                    Ok(_) => {
                        shared.update(|o| o.completed += 1);
                        shared
                            .latencies_ns
                            .borrow_mut()
                            .push((now - started).as_nanos() as u64);
                    }
                    Err(_) => shared.update(|o| o.errors += 1),
                }
                shared
                    .measured_in_flight
                    .set(shared.measured_in_flight.get() - 1);
            }
            // As the gateway does: the sheet closes where the latency
            // sample is taken; warmup and failed requests are abandoned.
            if let (Some(a), Some(sheet)) = (&anatomy, &sheet) {
                if measured && succeeded {
                    a.complete(now, sheet);
                } else {
                    a.abandon(now, sheet);
                }
            }
            shared.in_flight.set(shared.in_flight.get() - 1);
        });
    }
    let grace = ctx.now() + DRAIN_GRACE;
    while shared.in_flight.get() > 0 && ctx.now() < grace {
        ctx.sleep(STEP).await;
    }
    let undrained = shared.measured_in_flight.get();
    shared.update(|o| o.undrained = undrained);
}

/// Runs one rep of a full-stack workload.
#[must_use]
pub fn run(spec: &Spec, opts: &RepOpts) -> Rep {
    let traced = opts.mode == Mode::Traced;
    if traced {
        meter::start_counting_allocs();
    }
    let window = spec.window.mul_f64(opts.scale);
    let t_build = Instant::now();
    let mut sim = Sim::new(opts.seed);
    let mut builder = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(spec.protocol);
    if let Some(f) = spec.crash_prob {
        // About 30 crash points per ten-op execution; uncapped so the
        // rate holds for the whole run.
        builder = builder.faults(FaultPolicy::per_attempt(f, 30, u32::MAX));
    }
    if opts.mode != Mode::Plain {
        builder = builder.recorder();
    }
    let anatomy = traced.then(Anatomy::new);
    let tracer = traced.then(|| Tracer::with_capacity(SPAN_RING));
    if let (Some(a), Some(t)) = (&anatomy, &tracer) {
        builder = builder.anatomy(a.clone()).tracer(t.clone());
    }
    let client = builder.build();
    let ops = SyntheticOps {
        objects: OBJECTS,
        value_bytes: VALUE_BYTES,
        ops_per_request: 10,
        read_ratio: spec.read_ratio,
    };
    ops.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    let shared = Rc::new(Shared::new());
    let probe = traced.then(|| Rc::new(Probe::default()));
    register_body(&runtime, &shared, &probe);
    let gc = GcDriver::start(client.clone(), NodeId(0), GC_INTERVAL);
    let arrivals = sim.ctx().spawn(open_loop(
        runtime.clone(),
        ops.factory(),
        spec.clone(),
        window,
        shared.clone(),
    ));

    // Warmup, then the window in two halves timed separately. The midpoint
    // is reached with `run_until`, so no task is added to time it.
    sim.run_until(spec.warmup);
    client.log().reset_storage_window();
    client.store().reset_storage_window();
    let log0 = client.log().counters();
    let kv0 = client.store().counters();
    let polls0 = sim.poll_count();
    let invocations0 = runtime.invocations();
    let retries0 = runtime.retries();
    let recovery0 = client.recovery_stats();
    let meters0 = probe.as_ref().map(|p| p.readings());
    let t0 = Instant::now();
    sim.run_until(spec.warmup + window / 2);
    let t1 = Instant::now();
    while !arrivals.is_finished() {
        let next = sim.now() + STEP;
        sim.run_until(next);
    }
    let t2 = Instant::now();
    gc.stop();

    let log = client.log().counters().since(&log0);
    let kv = client.store().counters().since(&kv0);
    let polls = sim.poll_count() - polls0;
    let invocations = runtime.invocations() - invocations0;
    let retries = runtime.retries() - retries0;
    let recovery = client.recovery_stats();
    let replayed = recovery.replayed_records - recovery0.replayed_records;
    let storage_bytes = client.log().average_bytes() + client.store().average_bytes();
    let outcomes = shared.outcomes.get();
    let mut latencies_ns = shared.latencies_ns.take();
    latencies_ns.sort_unstable();

    let mut fp = mix(0, opts.seed);
    for word in [
        outcomes.attempted,
        outcomes.completed,
        outcomes.errors,
        outcomes.undrained,
        outcomes.content_failures,
        log.log_appends,
        log.cond_append_conflicts,
        log.log_reads,
        log.log_trims,
        log.cache_hits,
        log.cache_misses,
        kv.db_reads,
        kv.db_writes,
        kv.db_cond_writes,
        kv.db_deletes,
        invocations,
        retries,
        replayed,
        storage_bytes.to_bits(),
        client.log().live_records() as u64,
        client.store().version_count() as u64,
    ] {
        fp = mix(fp, word);
    }
    for &l in &latencies_ns {
        fp = mix(fp, l);
    }

    let mut problems = Vec::new();
    if outcomes.content_failures > 0 {
        problems.push(format!(
            "{} reads returned a value no request wrote",
            outcomes.content_failures
        ));
    }
    if opts.mode != Mode::Plain {
        let audit = hm_runtime::audit(&client);
        problems.extend(audit.violations.iter().map(|v| format!("audit: {v}")));
    }

    let first_half_s = (t1 - t0).as_secs_f64();
    let second_half_s = (t2 - t1).as_secs_f64();
    let completed = outcomes.completed.max(1) as f64;
    let mut env_host_s = None;
    let layers = probe.as_ref().map(|p| {
        let meters0 = meters0.unwrap_or_default();
        let read = p.reading(Op::EnvRead).since(&meters0[Op::EnvRead as usize]);
        let write = p
            .reading(Op::EnvWrite)
            .since(&meters0[Op::EnvWrite as usize]);
        env_host_s = Some((read.host_ns + write.host_ns) as f64 / 1e9);
        let mut l = Layers::default();
        l.set("substrate.polls_per_req", polls as f64 / completed);
        l.set("substrate.live_tasks_end", sim.live_tasks() as f64);
        l.set(
            "runtime.invocations_per_req",
            invocations as f64 / completed,
        );
        l.set("runtime.retries_per_req", retries as f64 / completed);
        l.set("runtime.peak_queue", shared.peak_queue.get() as f64);
        l.set("core.read_host_ns", read.ns_per_call());
        l.set("core.write_host_ns", write.ns_per_call());
        l.set("core.read_allocs", read.allocs_per_call());
        l.set("core.write_allocs", write.allocs_per_call());
        let op_lat = client.op_latencies();
        l.set("core.read_ms_p50", op_lat.read.median_ms().unwrap_or(0.0));
        l.set("core.write_ms_p50", op_lat.write.median_ms().unwrap_or(0.0));
        l.set("core.replayed_records_per_req", replayed as f64 / completed);
        l.set_counters(
            log,
            kv,
            completed,
            client.log().flush_stats().mean_batch_size(),
            client.log().live_records(),
            client.store().version_count(),
        );
        if let Some(a) = &anatomy {
            l.set_phases(&a.waterfall());
        }
        l
    });
    if let (Some(t), Some(path)) = (&tracer, &opts.spans_out) {
        if let Err(e) = write_spans(t, path) {
            problems.push(format!("writing spans to {}: {e}", path.display()));
        }
    }

    Rep {
        setup_s: (t0 - t_build).as_secs_f64(),
        first_half_s,
        second_half_s,
        outcomes,
        latencies_ms: latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        log_appends: log.log_appends,
        storage_bytes,
        polls,
        fingerprint: fp,
        problems,
        layers,
        env_host_s,
    }
}
