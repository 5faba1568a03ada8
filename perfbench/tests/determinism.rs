//! Small-size reps of every workload: one seed repeats its simulated
//! results exactly, observers do not change them, and another seed does
//! different work.

use halfmoon::{Client, FaultPolicy};
use hm_common::latency::LatencyModel;
use hm_common::metrics::Histogram;
use hm_common::NodeId;
use hm_perfbench::direct;
use hm_perfbench::fullstack::{self, OBJECTS, VALUE_BYTES};
use hm_perfbench::{run_rep, Mode, Rep, RepOpts, Workload};
use hm_runtime::{Gateway, GcDriver, LoadSpec, Runtime, RuntimeConfig};
use hm_substrate::sim::Sim;
use hm_substrate::Time;
use hm_workloads::synthetic::SyntheticOps;
use hm_workloads::Workload as _;

fn scale(w: Workload) -> f64 {
    match w {
        Workload::LogKvDirect => 0.02,
        _ => 0.1,
    }
}

fn rep(w: Workload, seed: u64, mode: Mode) -> Rep {
    run_rep(
        w,
        &RepOpts {
            seed,
            mode,
            scale: scale(w),
            spans_out: None,
        },
    )
}

/// Everything a rep reports that comes from the simulation, not the host.
fn simulated(r: &Rep) -> (u64, u64, Vec<u64>, u64, u64, u64) {
    (
        r.fingerprint,
        r.polls,
        r.latencies_ms.iter().map(|l| l.to_bits()).collect(),
        r.log_appends,
        r.storage_bytes.to_bits(),
        r.outcomes.failed(),
    )
}

#[test]
fn one_seed_repeats_and_another_differs() {
    for w in Workload::ALL {
        let a = rep(w, 7, Mode::Plain);
        let b = rep(w, 7, Mode::Plain);
        assert!(a.outcomes.completed > 0, "{w:?} completed nothing");
        assert!(a.problems.is_empty(), "{w:?}: {:?}", a.problems);
        assert_eq!(a.outcomes.failed(), 0, "{w:?}: {:?}", a.outcomes);
        assert_eq!(simulated(&a), simulated(&b), "{w:?} is not deterministic");
        let other = rep(w, 8, Mode::Plain);
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "{w:?}: seeds 7 and 8 did the same work"
        );
    }
}

#[test]
fn observers_do_not_change_simulated_work() {
    for w in Workload::ALL {
        let plain = rep(w, 11, Mode::Plain);
        let traced = rep(w, 11, Mode::Traced);
        assert!(traced.problems.is_empty(), "{w:?}: {:?}", traced.problems);
        assert_eq!(
            simulated(&plain),
            simulated(&traced),
            "{w:?}: tracing changed the run"
        );
        let layers = traced
            .layers
            .expect("a traced rep reports per-layer metrics");
        assert!(layers.get("substrate.polls_per_req").unwrap() > 0.0);
        assert!(plain.layers.is_none());
    }
}

/// A `log_kv_direct` rep that stops waiting at the end of the window
/// leaves every client mid-iteration: those iterations count as undrained
/// and raise `failed_frac`.
#[test]
fn direct_iterations_cut_off_by_the_drain_count_as_failed() {
    let opts = RepOpts {
        seed: 3,
        mode: Mode::Plain,
        scale: scale(Workload::LogKvDirect),
        spans_out: None,
    };
    let full = direct::run(&opts);
    assert_eq!(full.outcomes.undrained, 0);
    let cut = direct::run_draining(&opts, Time::ZERO);
    let o = cut.outcomes;
    assert!(o.undrained > 0, "{o:?}");
    assert_eq!(o.completed + o.undrained, o.attempted, "{o:?}");
    assert_eq!(o.failed(), o.undrained);
    assert!(o.failed_frac() > 0.0);
    assert_eq!(o.attempted, full.outcomes.attempted);
    assert!(cut.problems.is_empty(), "{:?}", cut.problems);
}

/// The benchmark's arrival loop draws exactly what `Gateway::run_open_loop`
/// draws, so the same seed gives the gateway's request counts and latency
/// distribution.
#[test]
fn open_loop_matches_the_gateway() {
    let seed = 5;
    let spec = fullstack::Spec::hmwrite_write_heavy_crash();
    let window = spec.window.mul_f64(0.1);
    let ours = fullstack::run(
        &spec,
        &RepOpts {
            seed,
            mode: Mode::Plain,
            scale: 0.1,
            spans_out: None,
        },
    );

    let mut sim = Sim::new(seed);
    let client = Client::builder(sim.ctx())
        .model(LatencyModel::calibrated())
        .protocol(spec.protocol)
        .faults(FaultPolicy::per_attempt(
            spec.crash_prob.unwrap(),
            30,
            u32::MAX,
        ))
        .build();
    let ops = SyntheticOps {
        objects: OBJECTS,
        value_bytes: VALUE_BYTES,
        ops_per_request: 10,
        read_ratio: spec.read_ratio,
    };
    ops.populate(&client);
    let runtime = Runtime::new(client.clone(), RuntimeConfig::default());
    ops.register(&runtime);
    let _gc = GcDriver::start(client, NodeId(0), fullstack::GC_INTERVAL);
    let gateway = Gateway::new(runtime);
    let load = LoadSpec {
        rate_per_sec: spec.rate,
        duration: window,
        warmup: spec.warmup,
        factory: ops.factory(),
    };
    let theirs = sim.block_on(async move { gateway.run_open_loop(load).await });

    assert_eq!(ours.outcomes.attempted, theirs.generated);
    assert_eq!(ours.outcomes.completed, theirs.completed);
    assert_eq!(ours.outcomes.errors, theirs.errors);
    let mut hist = Histogram::new();
    for &ms in &ours.latencies_ms {
        hist.record(std::time::Duration::from_nanos((ms * 1e6).round() as u64));
    }
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(hist.quantile_ms(q), theirs.latency.quantile_ms(q), "q{q}");
    }
}
