//! Runs one rep of one workload and prints its numbers as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--mode plain|audited|traced]
//!           [--scale <f>] [--spans <path>]
//! ```
//!
//! `run.py` is the benchmark's entry point; it runs this binary once per
//! rep, each in a fresh process so that peak memory is the rep's own.

use hm_perfbench::{meter::CountingAlloc, peak_rss_mb, run_rep, Mode, RepOpts, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <hmread_read_heavy|hmwrite_write_heavy_crash|log_kv_direct> \
--seed <n> [--mode plain|audited|traced] [--scale <f>] [--spans <path>]";

fn parse() -> Result<(Workload, RepOpts), String> {
    let mut workload = None;
    let mut opts = RepOpts {
        seed: 0,
        mode: Mode::Plain,
        scale: 1.0,
        spans_out: None,
    };
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--mode" => {
                opts.mode = Mode::parse(&value).ok_or_else(|| format!("unknown mode {value}"))?
            }
            "--scale" => {
                opts.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad scale {value}"))?;
            }
            "--spans" => opts.spans_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.seed = seed.ok_or("--seed is required")?;
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rep = run_rep(workload, &opts);
    println!("{}", rep.to_json(workload, &opts, peak_rss_mb()));
}
