//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <mine|ingest|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the program under test sees only
//! the generated inputs, through its public crate APIs (`Miner`, and a
//! `Fleet` over real sockets and HTTP). Every answer is checked. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the metrics — the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`. See `perfbench/METRICS.md`.

mod fleet;
mod http;
mod ingest;
mod mine;
mod serve;
mod trace;
mod trips;
mod util;

use std::path::{Path, PathBuf};
use trace::Tracer;
use util::{Metrics, Tally};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["mine", "ingest", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (mine, ingest, serve)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The untraced run: the named workload's end-to-end metrics.
fn run(args: &Args, work: &Path, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    match args.workload.as_str() {
        "mine" => mine::run(args.seed, args.seconds, tally, m),
        "ingest" => ingest::run(args.seed, args.seconds, work, tally, m),
        _ => serve::run(args.seed, args.seconds, work, tally, m),
    }
}

/// The traced run. It reports every per-layer metric, so it runs all
/// three layer phases on inputs from the same seed: the named
/// workload's phase for `--seconds`, the other two for a quarter of
/// that. `trace.overhead_share` is the named workload's.
fn run_traced(args: &Args, work: &Path, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let span = |own: bool| {
        if own {
            args.seconds
        } else {
            (args.seconds / 4.0).max(1.0)
        }
    };
    let mine = mine::trace(
        args.seed,
        span(args.workload == "mine"),
        &mut tracer,
        tally,
        m,
    )?;
    let ingest = ingest::trace(
        args.seed,
        span(args.workload == "ingest"),
        work,
        &mut tracer,
        tally,
        m,
    )?;
    let serve = serve::trace(
        args.seed,
        span(args.workload == "serve"),
        work,
        &mut tracer,
        tally,
        m,
    )?;
    let overhead = match args.workload.as_str() {
        "mine" => mine,
        "ingest" => ingest,
        _ => serve,
    };
    m.put("trace.overhead_share", overhead, "ratio");
    let out = Path::new(".perfbench-work")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("perfbench: spans written to {}", out.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let calib_start = util::cpu_calib_mops();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let outcome = WorkDir::create(&args.workload).and_then(|work| {
        if args.trace {
            run_traced(&args, &work.0, &mut tally, &mut m)
        } else {
            run(&args, &work.0, &mut tally, &mut m)
        }
    });
    let calib_end = util::cpu_calib_mops();
    let result = outcome.and_then(|()| {
        if tally.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        if args.trace {
            m.put(
                "host.cpu_calib_mops",
                (calib_start + calib_end) / 2.0,
                "Mops/s",
            );
        } else {
            m.put("peak_rss_mb", util::peak_rss_mb()?, "MiB");
        }
        util::result_line(&tally, &m)
    });
    eprintln!("perfbench: host.cpu_calib_mops start {calib_start:.1} end {calib_end:.1}");
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
