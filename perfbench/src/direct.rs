//! `log_kv_direct`: the shared log and the KV store without runtime or
//! `Env`. Simulated clients, all tasks of one `Sim`, run a closed loop of
//! iterations; one iteration is one "request":
//!
//! 1. append a record tagged with the client's own tag plus one shared tag;
//! 2. `read_prev` of the own tag at the tail (must be that record);
//! 3. `read_next` of a shared tag from the client's previous append;
//! 4. KV `get` of one of the client's objects, then `put` of another.
//!
//! Every read is checked against a shadow map of what was written. A
//! GC-style task trims every tag below a watermark: the oldest seqnum any
//! client may still read from. That is the contract the §4.5 collector
//! keeps (it trims below the oldest unfinished instance), so no in-flight
//! read can target a record being reclaimed; see `README.md` for the known
//! defect a trim racing a read would hit.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

use hm_common::anatomy::{Anatomy, Phase, PhaseSheet};
use hm_common::latency::LatencyModel;
use hm_common::trace::{Lane, SpanId, TraceId, Tracer};
use hm_common::{Key, NodeId, SeqNum, Tag, Value};
use hm_kvstore::KvStore;
use hm_sharedlog::{LogConfig, LogRecord, LogService, Payload, Topology};
use hm_substrate::sim::Sim;
use hm_substrate::{Ctx, Time};
use rand::RngExt;

use crate::meter::{self, Op, Probe};
use crate::stats::{mix, Outcomes};
use crate::{write_spans, Layers, Mode, Rep, RepOpts, SPAN_RING};

/// Simulated clients.
const CLIENTS: u32 = 64;
/// Log shards.
const SHARDS: u8 = 4;
/// Appends per second each shard's sequencer can order.
const SEQUENCER_CAPACITY: f64 = 20_000.0;
/// Group-commit batch size.
const BATCH: usize = 16;
/// Shared tags every record also joins one of.
const SHARED_TAGS: u32 = 8;
/// Populated objects (split evenly among the clients).
const OBJECTS: u32 = 10_000;
/// Object and record payload size, bytes.
const VALUE_BYTES: usize = 256;
/// Virtual time between trim passes.
const TRIM_INTERVAL: Time = Time::from_millis(50);
/// Virtual warmup before the measured window.
const WARMUP: Time = Time::from_millis(500);
/// Measured window at scale 1.
const WINDOW: Time = Time::from_secs(16);
/// How far past the window an iteration may run before it counts as
/// undrained.
const DRAIN_GRACE: Time = Time::from_secs(1);
/// Virtual step the rep advances by while waiting for the drain.
const STEP: Time = Time::from_millis(1);
/// Trace context of work no request caused.
const UNTRACED: (TraceId, SpanId) = (TraceId::NONE, SpanId::NONE);

/// A record's payload: who appended it, and a random check word the
/// shadow map remembers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rec {
    client: u32,
    iter: u64,
    check: u64,
    bytes: usize,
}

impl Payload for Rec {
    fn size_bytes(&self) -> usize {
        self.bytes
    }
}

const OWN_TAG_BASE: u64 = 1 << 40;
const SHARED_TAG_BASE: u64 = 2 << 40;

fn own_tag(client: u32) -> Tag {
    Tag(OWN_TAG_BASE + u64::from(client))
}

fn shared_tag(k: u32) -> Tag {
    Tag(SHARED_TAG_BASE + u64::from(k))
}

fn obj_key(i: u32) -> Key {
    Key::new(format!("o{i:07}"))
}

/// State shared by the clients and the trimmer.
struct Shared {
    /// Check words of appends still in flight, by (client, iteration).
    pending: RefCell<HashMap<(u32, u64), u64>>,
    /// Payloads of appended records at or above the watermark, by seqnum.
    appended: RefCell<BTreeMap<SeqNum, Rec>>,
    /// Latest value written to each object.
    objects: RefCell<Vec<Value>>,
    /// Per client: the lowest seqnum it may still read from.
    floors: RefCell<Vec<SeqNum>>,
    outcomes: Cell<Outcomes>,
    latencies_ns: RefCell<Vec<u64>>,
    /// Measured iterations started and not yet finished.
    measured_in_flight: Cell<u64>,
    /// Clients still looping.
    running: Cell<u32>,
    /// Set when the rep stops waiting for the drain; the trimmer stops too.
    cut_off: Cell<bool>,
}

impl Shared {
    fn update(&self, f: impl FnOnce(&mut Outcomes)) {
        let mut o = self.outcomes.get();
        f(&mut o);
        self.outcomes.set(o);
    }

    fn fail(&self) {
        self.update(|o| o.content_failures += 1);
    }

    /// True when `rec` carries exactly what its appender wrote.
    fn record_ok(&self, rec: &LogRecord<Rec>) -> bool {
        if let Some(known) = self.appended.borrow().get(&rec.seqnum) {
            return *known == rec.payload;
        }
        // Installed, but its append has not returned to the client yet.
        self.pending
            .borrow()
            .get(&(rec.payload.client, rec.payload.iter))
            == Some(&rec.payload.check)
    }

    fn watermark(&self) -> SeqNum {
        self.floors
            .borrow()
            .iter()
            .copied()
            .min()
            .unwrap_or(SeqNum::ZERO)
    }
}

/// The deployment under test.
struct Deployment {
    ctx: Ctx,
    log: LogService<Rec>,
    store: KvStore,
    anatomy: Option<Rc<Anatomy>>,
    tracer: Option<Rc<Tracer>>,
    probe: Option<Probe>,
}

impl Deployment {
    /// Arms the anatomy and trace contexts so the next log/KV call charges
    /// `sheet` and nests its span under `span`.
    fn arm(&self, sheet: &Option<Rc<PhaseSheet>>, span: (TraceId, SpanId)) {
        if let Some(a) = &self.anatomy {
            a.set_context(sheet.clone());
        }
        if let Some(t) = &self.tracer {
            t.set_context(span.0, span.1);
        }
    }

    async fn metered<F: std::future::Future>(&self, op: Op, fut: F) -> F::Output {
        match &self.probe {
            Some(p) => p.call(op, fut).await,
            None => fut.await,
        }
    }
}

/// One client's closed loop until `deadline`.
async fn client_loop(
    dep: Rc<Deployment>,
    shared: Rc<Shared>,
    client: u32,
    measure_from: Time,
    deadline: Time,
) {
    let ctx = dep.ctx.clone();
    let node = NodeId(client % Topology::default().function_nodes);
    let own = own_tag(client);
    let mine: Vec<u32> = (client..OBJECTS).step_by(CLIENTS as usize).collect();
    let mut iter = 0u64;
    while ctx.now() < deadline {
        let started = ctx.now();
        let measured = started >= measure_from;
        if measured {
            shared.update(|o| o.attempted += 1);
            shared
                .measured_in_flight
                .set(shared.measured_in_flight.get() + 1);
        }
        let span = dep.tracer.as_ref().map_or(UNTRACED, |t| {
            let trace = t.new_trace();
            let span = t.span_begin(
                Lane::Node(node.0),
                started,
                trace,
                SpanId::NONE,
                "request",
                String::new(),
            );
            (trace, span)
        });
        let sheet = dep
            .anatomy
            .as_ref()
            .map(|_| PhaseSheet::open(started, Phase::Execution));
        let (k_append, k_read, get_obj, put_obj, check, put_fp) = ctx.with_rng(|rng| {
            (
                rng.random_range(0..SHARED_TAGS),
                rng.random_range(0..SHARED_TAGS),
                mine[rng.random_range(0..mine.len())],
                mine[rng.random_range(0..mine.len())],
                rng.random::<u64>(),
                rng.random::<u64>(),
            )
        });

        // 1. Multi-tag append.
        let rec = Rec {
            client,
            iter,
            check,
            bytes: VALUE_BYTES,
        };
        shared.pending.borrow_mut().insert((client, iter), check);
        dep.arm(&sheet, span);
        let sn = dep
            .metered(
                Op::LogAppend,
                dep.log.append(node, [own, shared_tag(k_append)], rec),
            )
            .await;
        shared.pending.borrow_mut().remove(&(client, iter));
        shared.appended.borrow_mut().insert(sn, rec);

        // 2. The own stream's tail is the record just appended.
        dep.arm(&sheet, span);
        let tail = dep
            .metered(Op::LogRead, dep.log.read_prev(node, own, SeqNum::MAX))
            .await;
        if !tail.is_some_and(|r| r.seqnum == sn && r.payload == rec) {
            shared.fail();
        }

        // 3. A shared stream, from this client's previous append on.
        let floor = shared.floors.borrow()[client as usize];
        let tag = shared_tag(k_read);
        dep.arm(&sheet, span);
        let next = dep
            .metered(Op::LogRead, dep.log.read_next(node, tag, floor))
            .await;
        if let Some(r) = next {
            if r.seqnum < floor || !r.tags.as_slice().contains(&tag) || !shared.record_ok(&r) {
                shared.fail();
            }
        }

        // 4. KV get and put on the client's own objects.
        let key = obj_key(get_obj);
        dep.arm(&sheet, span);
        let got = dep.metered(Op::KvGet, dep.store.get(&key)).await;
        if got.as_ref() != Some(&shared.objects.borrow()[get_obj as usize]) {
            shared.fail();
        }
        let value = Value::blob(VALUE_BYTES, put_fp);
        dep.arm(&sheet, span);
        dep.metered(Op::KvPut, dep.store.put(&obj_key(put_obj), value.clone()))
            .await;
        shared.objects.borrow_mut()[put_obj as usize] = value;
        dep.arm(&None, UNTRACED);

        shared.floors.borrow_mut()[client as usize] = sn;
        let now = ctx.now();
        if measured {
            shared.update(|o| o.completed += 1);
            shared
                .measured_in_flight
                .set(shared.measured_in_flight.get() - 1);
            shared
                .latencies_ns
                .borrow_mut()
                .push((now - started).as_nanos() as u64);
        }
        if let (Some(a), Some(sheet)) = (&dep.anatomy, &sheet) {
            if measured {
                a.complete(now, sheet);
            } else {
                a.abandon(now, sheet);
            }
        }
        if let Some(t) = &dep.tracer {
            t.span_end(Lane::Node(node.0), now, span.0, span.1);
        }
        iter += 1;
    }
    shared.running.set(shared.running.get() - 1);
}

/// Trims every tag below the clients' watermark while any client runs.
async fn trimmer(dep: Rc<Deployment>, shared: Rc<Shared>) {
    let ctx = dep.ctx.clone();
    let tags: Vec<Tag> = (0..CLIENTS)
        .map(own_tag)
        .chain((0..SHARED_TAGS).map(shared_tag))
        .collect();
    let mut trimmed_to = SeqNum::ZERO;
    while shared.running.get() > 0 && !shared.cut_off.get() {
        ctx.sleep(TRIM_INTERVAL).await;
        let watermark = shared.watermark();
        if watermark <= trimmed_to {
            continue;
        }
        let upto = SeqNum(watermark.0 - 1);
        for &tag in &tags {
            dep.arm(&None, UNTRACED);
            dep.metered(Op::LogTrim, dep.log.trim(NodeId(0), tag, upto))
                .await;
        }
        trimmed_to = watermark;
        // No read can reach below the watermark any more.
        let mut appended = shared.appended.borrow_mut();
        *appended = appended.split_off(&watermark);
    }
}

/// Runs one rep of `log_kv_direct`.
#[must_use]
pub fn run(opts: &RepOpts) -> Rep {
    run_draining(opts, DRAIN_GRACE)
}

/// [`run`] that stops waiting for the clients' last iterations `grace`
/// after the window ends; the measured iterations still running then
/// count as undrained.
#[must_use]
pub fn run_draining(opts: &RepOpts, grace: Time) -> Rep {
    let traced = opts.mode == Mode::Traced;
    if traced {
        meter::start_counting_allocs();
    }
    let window = WINDOW.mul_f64(opts.scale);
    let t_build = Instant::now();
    let mut sim = Sim::new(opts.seed);
    let ctx = sim.ctx();
    let model = LatencyModel::calibrated();
    let log = LogService::new(
        ctx.clone(),
        model,
        LogConfig {
            topology: Topology::sharded(SHARDS),
            sequencer_capacity: Some(SEQUENCER_CAPACITY),
            batch_max_records: BATCH,
            ..LogConfig::default()
        },
    );
    let store = KvStore::new(ctx.clone(), model);
    let objects: Vec<Value> = (0..OBJECTS)
        .map(|i| Value::blob(VALUE_BYTES, u64::from(i)))
        .collect();
    for (i, v) in objects.iter().enumerate() {
        store.populate(obj_key(i as u32), v.clone());
    }
    let anatomy = traced.then(Anatomy::new);
    let tracer = traced.then(|| Tracer::with_capacity(SPAN_RING));
    if let (Some(a), Some(t)) = (&anatomy, &tracer) {
        log.set_anatomy(a.clone());
        store.set_anatomy(a.clone());
        log.set_tracer(t.clone());
        store.set_tracer(t.clone());
    }
    let dep = Rc::new(Deployment {
        ctx: ctx.clone(),
        log,
        store,
        anatomy: anatomy.clone(),
        tracer: tracer.clone(),
        probe: traced.then(Probe::default),
    });
    let shared = Rc::new(Shared {
        pending: RefCell::new(HashMap::new()),
        appended: RefCell::new(BTreeMap::new()),
        objects: RefCell::new(objects),
        floors: RefCell::new(vec![SeqNum::ZERO; CLIENTS as usize]),
        outcomes: Cell::new(Outcomes::default()),
        latencies_ns: RefCell::new(Vec::new()),
        measured_in_flight: Cell::new(0),
        running: Cell::new(CLIENTS),
        cut_off: Cell::new(false),
    });
    let measure_from = WARMUP;
    let deadline = measure_from + window;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            ctx.spawn(client_loop(
                dep.clone(),
                shared.clone(),
                c,
                measure_from,
                deadline,
            ))
        })
        .collect();
    let trim = ctx.spawn(trimmer(dep.clone(), shared.clone()));

    sim.run_until(measure_from);
    dep.log.reset_storage_window();
    dep.store.reset_storage_window();
    let log0 = dep.log.counters();
    let kv0 = dep.store.counters();
    let flush0 = dep.log.flush_stats();
    let polls0 = sim.poll_count();
    let meters0 = dep.probe.as_ref().map(Probe::readings);
    let t0 = Instant::now();
    sim.run_until(measure_from + window / 2);
    let t1 = Instant::now();
    let drain_end = deadline + grace;
    while !clients.iter().all(|c| c.is_finished()) && sim.now() < drain_end {
        let next = (sim.now() + STEP).min(drain_end);
        sim.run_until(next);
    }
    let t2 = Instant::now();
    shared.update(|o| o.undrained = shared.measured_in_flight.get());
    shared.cut_off.set(true);
    let log = dep.log.counters().since(&log0);
    let kv = dep.store.counters().since(&kv0);
    let flush = dep.log.flush_stats();
    let records_per_flush =
        (flush.records - flush0.records) as f64 / (flush.flushes - flush0.flushes).max(1) as f64;
    let polls = sim.poll_count() - polls0;
    let storage_bytes = dep.log.average_bytes() + dep.store.average_bytes();
    let outcomes = shared.outcomes.get();
    let mut latencies_ns = shared.latencies_ns.take();
    latencies_ns.sort_unstable();
    // The trimmer stops after the pass it is in.
    let stop_by = sim.now() + Time::from_secs(10);
    while !trim.is_finished() && sim.now() < stop_by {
        let next = sim.now() + TRIM_INTERVAL;
        sim.run_until(next);
    }
    let mut problems = Vec::new();
    if !trim.is_finished() {
        problems.push("trimmer did not stop".to_string());
    }

    let mut fp = mix(0, opts.seed);
    for word in [
        outcomes.attempted,
        outcomes.completed,
        outcomes.undrained,
        outcomes.content_failures,
        log.log_appends,
        log.log_reads,
        log.log_trims,
        log.cache_hits,
        log.cache_misses,
        kv.db_reads,
        kv.db_writes,
        flush.records - flush0.records,
        flush.flushes - flush0.flushes,
        storage_bytes.to_bits(),
        dep.log.live_records() as u64,
    ] {
        fp = mix(fp, word);
    }
    for &l in &latencies_ns {
        fp = mix(fp, l);
    }
    if outcomes.content_failures > 0 {
        problems.push(format!(
            "{} reads disagreed with the shadow map",
            outcomes.content_failures
        ));
    }

    let first_half_s = (t1 - t0).as_secs_f64();
    let second_half_s = (t2 - t1).as_secs_f64();
    let completed = outcomes.completed.max(1) as f64;
    let layers = dep.probe.as_ref().map(|p| {
        let meters0 = meters0.unwrap_or_default();
        let since = |op: Op| p.reading(op).since(&meters0[op as usize]);
        let mut l = Layers::default();
        l.set("substrate.polls_per_req", polls as f64 / completed);
        l.set("substrate.live_tasks_end", sim.live_tasks() as f64);
        let (append, read, trim, get, put) = (
            since(Op::LogAppend),
            since(Op::LogRead),
            since(Op::LogTrim),
            since(Op::KvGet),
            since(Op::KvPut),
        );
        l.set("sharedlog.append_host_ns", append.ns_per_call());
        l.set("sharedlog.read_host_ns", read.ns_per_call());
        l.set("sharedlog.trim_host_ns", trim.ns_per_call());
        l.set("sharedlog.append_allocs", append.allocs_per_call());
        l.set("sharedlog.read_allocs", read.allocs_per_call());
        l.set("kvstore.get_host_ns", get.ns_per_call());
        l.set("kvstore.put_host_ns", put.ns_per_call());
        l.set("kvstore.put_allocs", put.allocs_per_call());
        l.set_counters(
            log,
            kv,
            completed,
            records_per_flush,
            dep.log.live_records(),
            dep.store.version_count(),
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
        env_host_s: None,
    }
}
