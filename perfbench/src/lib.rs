//! The repository benchmark.
//!
//! Three workloads, each one seeded simulation run in one process on one OS
//! thread:
//!
//! - `hmread_read_heavy` — gateway open loop → runtime → `Env` → log/KV
//!   under Halfmoon-read at read ratio 0.8 ([`fullstack`]).
//! - `hmwrite_write_heavy_crash` — the same stack under Halfmoon-write at
//!   read ratio 0.2 with per-attempt crashes ([`fullstack`]).
//! - `log_kv_direct` — 64 simulated clients calling `LogService` and
//!   `KvStore` directly, no runtime ([`direct`]).
//!
//! A repetition ("rep") builds the deployment, warms it up, and measures a
//! fixed window of virtual time; `run.py` runs reps in fresh processes and
//! reports statistics over them. See `README.md` for the metrics and what
//! each should move.

pub mod direct;
pub mod fullstack;
pub mod meter;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hm_common::anatomy::{Phase, PhaseStat};
use hm_common::metrics::OpCounters;
use hm_common::trace::Tracer;

use crate::stats::{Outcomes, Pctl};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full stack, Halfmoon-read, read ratio 0.8.
    HmReadReadHeavy,
    /// Full stack, Halfmoon-write, read ratio 0.2, crashes.
    HmWriteWriteHeavyCrash,
    /// Log and KV store called directly by 64 clients.
    LogKvDirect,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HmReadReadHeavy,
        Workload::HmWriteWriteHeavyCrash,
        Workload::LogKvDirect,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HmReadReadHeavy => "hmread_read_heavy",
            Workload::HmWriteWriteHeavyCrash => "hmwrite_write_heavy_crash",
            Workload::LogKvDirect => "log_kv_direct",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which observers a rep attaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No observers: the end-to-end measurement.
    Plain,
    /// The history recorder only, so the exactly-once audit can run.
    Audited,
    /// Recorder, `Anatomy`, `Tracer`, call meters and allocation counting:
    /// the per-layer measurement.
    Traced,
}

impl Mode {
    /// Looks a mode up by name (`plain`, `audited`, `traced`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Mode> {
        match name {
            "plain" => Some(Mode::Plain),
            "audited" => Some(Mode::Audited),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }
}

/// How to run one rep.
#[derive(Clone, Debug)]
pub struct RepOpts {
    /// Workload seed: the simulation and every generated input derive from it.
    pub seed: u64,
    /// Observers to attach.
    pub mode: Mode,
    /// Multiplier on the measured window (1.0 is the benchmark's size).
    pub scale: f64,
    /// Where a traced rep writes its spans (JSON lines), if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// Events each lane of a traced rep's [`Tracer`] keeps; older ones drop,
/// so the spans written out are those of the end of the window.
pub const SPAN_RING: usize = 4096;

/// Writes `tracer`'s spans as JSON lines to `path`.
///
/// # Errors
/// Any error creating the directory or writing the file.
pub fn write_spans(tracer: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, tracer.export_jsonl())
}

/// Per-layer values of a traced rep, by the metric's name in
/// `BENCHMARK.json`. A metric the workload cannot reach from outside is
/// left out; `run.py` reports it as 0.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric (a non-finite value becomes 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// One metric's value, if the rep set it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Per-request counter ratios and end-of-run sizes of the log and store.
    pub fn set_counters(
        &mut self,
        log: OpCounters,
        kv: OpCounters,
        completed: f64,
        records_per_flush: f64,
        live_records: usize,
        versions: usize,
    ) {
        self.set("sharedlog.reads_per_req", log.log_reads as f64 / completed);
        let lookups = log.cache_hits + log.cache_misses;
        self.set(
            "sharedlog.cache_hit_ratio",
            log.cache_hits as f64 / lookups.max(1) as f64,
        );
        self.set(
            "sharedlog.cond_conflicts_per_req",
            log.cond_append_conflicts as f64 / completed,
        );
        self.set("sharedlog.records_per_flush", records_per_flush);
        self.set("sharedlog.live_records_end", live_records as f64);
        self.set("kvstore.reads_per_req", kv.db_reads as f64 / completed);
        self.set(
            "kvstore.writes_per_req",
            (kv.db_writes + kv.db_cond_writes) as f64 / completed,
        );
        self.set("kvstore.deletes_per_req", kv.db_deletes as f64 / completed);
        self.set("kvstore.versions_end", versions as f64);
    }

    /// Sets the `Anatomy` phase percentiles every workload reports.
    pub fn set_phases(&mut self, waterfall: &[PhaseStat]) {
        let pick = |phase: Phase, p99: bool| {
            waterfall
                .iter()
                .find(|s| s.phase == Some(phase))
                .map_or(0.0, |s| {
                    (if p99 { s.p99_ns } else { s.p50_ns }) as f64 / 1e6
                })
        };
        for (name, phase, p99) in [
            ("runtime.admission_ms_p99", Phase::Admission, true),
            ("runtime.dispatch_ms_p50", Phase::Dispatch, false),
            ("runtime.recovery_ms_p99", Phase::Recovery, true),
            ("core.proto_read_ms_p50", Phase::ProtoRead, false),
            ("core.proto_write_ms_p50", Phase::ProtoWrite, false),
            ("core.replay_ms_p99", Phase::Replay, true),
            ("sharedlog.log_hop_ms_p50", Phase::LogHop, false),
            ("sharedlog.batch_wait_ms_p50", Phase::BatchWait, false),
            ("sharedlog.sequencer_ms_p99", Phase::Sequencer, true),
            ("sharedlog.quorum_ms_p50", Phase::Quorum, false),
            ("sharedlog.log_read_ms_p50", Phase::LogRead, false),
            ("kvstore.store_io_ms_p50", Phase::StoreIo, false),
        ] {
            self.set(name, pick(phase, p99));
        }
    }
}

/// What one rep measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds from the start of construction to the start of the
    /// measured window (build, populate, register, warmup).
    pub setup_s: f64,
    /// Host seconds simulating the first half of the measured window.
    pub first_half_s: f64,
    /// Host seconds simulating the second half, drain included.
    pub second_half_s: f64,
    /// Request outcomes of the measured window.
    pub outcomes: Outcomes,
    /// Virtual latency of every completed measured request, ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// Shared-log appends during the window.
    pub log_appends: u64,
    /// Time-averaged log plus store bytes over the window.
    pub storage_bytes: f64,
    /// Executor polls during the window.
    pub polls: u64,
    /// Fingerprint of the simulated results.
    pub fingerprint: u64,
    /// Correctness problems (audit violations, failed checks).
    pub problems: Vec<String>,
    /// Per-layer metrics (traced reps only).
    pub layers: Option<Layers>,
    /// Host seconds spent polling `Env` calls in the window (traced
    /// full-stack reps only): `run.py` subtracts it from the paired plain
    /// rep's window to get the runtime's share.
    pub env_host_s: Option<f64>,
}

impl Rep {
    /// Host seconds of the whole measured window.
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.first_half_s + self.second_half_s
    }

    /// Completed requests per host second of the measured window.
    #[must_use]
    pub fn sim_req_per_wall_s(&self) -> f64 {
        self.outcomes.completed as f64 / self.window_s().max(f64::MIN_POSITIVE)
    }

    /// Shared-log appends per completed request.
    #[must_use]
    pub fn log_appends_per_req(&self) -> f64 {
        self.log_appends as f64 / self.outcomes.completed.max(1) as f64
    }

    /// One JSON line with every raw and derived number of the rep.
    #[must_use]
    pub fn to_json(&self, workload: Workload, opts: &RepOpts, peak_rss_mb: f64) -> String {
        let p50 = stats::percentile(&self.latencies_ms, 50.0);
        let p99 = stats::percentile(&self.latencies_ms, 99.0);
        let tail = stats::tail(&self.latencies_ms);
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{},\"mode\":\"{:?}\",\"correct\":{},\"problems\":[{}],\
             \"fingerprint\":\"{:016x}\",\"polls\":{},\"attempted\":{},\"completed\":{},\"errors\":{},\
             \"undrained\":{},\"content_failures\":{},\"failed\":{},\"failed_frac\":{},\
             \"setup_s\":{},\"first_half_s\":{},\"second_half_s\":{},\"window_s\":{},\
             \"cost_growth\":{},\"sim_req_per_wall_s\":{},\"peak_rss_mb\":{},\
             \"log_appends_per_req\":{},\"storage_mb\":{},",
            workload.name(),
            opts.seed,
            opts.mode,
            self.problems.is_empty(),
            self.problems
                .iter()
                .map(|p| json_string(p))
                .collect::<Vec<_>>()
                .join(","),
            self.fingerprint,
            self.polls,
            self.outcomes.attempted,
            self.outcomes.completed,
            self.outcomes.errors,
            self.outcomes.undrained,
            self.outcomes.content_failures,
            self.outcomes.failed(),
            num(self.outcomes.failed_frac()),
            num(self.setup_s),
            num(self.first_half_s),
            num(self.second_half_s),
            num(self.window_s()),
            num(stats::cost_growth(self.first_half_s, self.second_half_s)),
            num(self.sim_req_per_wall_s()),
            num(peak_rss_mb),
            num(self.log_appends_per_req()),
            num(self.storage_bytes / 1e6),
        );
        let _ = write!(
            s,
            "\"req_p50\":{},\"req_p99\":{},\"req_tail\":{},\"env_host_s\":{}",
            pctl_json(p50),
            pctl_json(p99),
            pctl_json(tail),
            self.env_host_s.map_or("null".to_string(), num)
        );
        if let Some(layers) = &self.layers {
            s.push_str(",\"layers\":{");
            for (i, (name, v)) in layers.0.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{name}\":{}", num(*v));
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

fn pctl_json(p: Option<Pctl>) -> String {
    match p {
        Some(p) => format!(
            "{{\"pct\":{},\"ms\":{},\"count\":{},\"beyond\":{}}}",
            num(p.pct),
            num(p.value),
            p.count,
            p.beyond
        ),
        None => "null".to_string(),
    }
}

/// A finite number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs one rep of `workload`.
#[must_use]
pub fn run_rep(workload: Workload, opts: &RepOpts) -> Rep {
    match workload {
        Workload::HmReadReadHeavy => fullstack::run(&fullstack::Spec::hmread_read_heavy(), opts),
        Workload::HmWriteWriteHeavyCrash => {
            fullstack::run(&fullstack::Spec::hmwrite_write_heavy_crash(), opts)
        }
        Workload::LogKvDirect => direct::run(opts),
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`; 0 where the
/// kernel does not report it).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
