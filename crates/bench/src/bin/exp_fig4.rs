//! Regenerates Fig. 4(a)–(d): TrajPattern vs PB response times across the
//! four scalability axes.
//!
//! Usage: `cargo run -p bench --release --bin exp_fig4 [--quick] [--axis k|s|l|g]
//! [--threads N,N,…]`. No `--axis` runs all four panels; `--axis` reruns
//! one and replaces only that panel's entry in `results/fig4.json` (and
//! its `.dat`), leaving the other panels as committed. `--threads` runs
//! the scorer thread-scaling sweep instead (written to `fig4_threads`).
//! `--quick` prints a reduced sweep and writes no result file.

use bench::fig4::{
    sweep_g, sweep_k, sweep_l, sweep_s, sweep_threads, Fig4Config, SweepResult, ThreadsSweepResult,
};
use bench::report::{fmt_secs, row, write_dat, write_json};
use serde_json::Value;

fn print_sweep(r: &SweepResult) {
    println!(
        "=== Fig. 4({}): response time vs {} ===",
        panel(&r.axis),
        r.axis
    );
    let widths = [8, 14, 14, 12, 14, 6];
    println!(
        "{}",
        row(
            &[
                r.axis.clone(),
                "TrajPattern".into(),
                "PB".into(),
                "tp_scored".into(),
                "pb_prefixes".into(),
                "note".into()
            ],
            &widths
        )
    );
    for p in &r.points {
        println!(
            "{}",
            row(
                &[
                    format!("{}", p.x),
                    fmt_secs(p.trajpattern_secs),
                    fmt_secs(p.pb_secs),
                    p.tp_scored.to_string(),
                    p.pb_prefixes.to_string(),
                    if p.pb_truncated { "trunc" } else { "" }.into(),
                ],
                &widths
            )
        );
    }
}

fn print_threads_sweep(r: &ThreadsSweepResult) {
    println!(
        "=== scorer thread scaling (host reports {} core(s)) ===",
        r.available_parallelism
    );
    let widths = [8, 14, 10, 12, 10];
    println!(
        "{}",
        row(
            &[
                "threads".into(),
                "TrajPattern".into(),
                "speedup".into(),
                "tp_scored".into(),
                "identical".into()
            ],
            &widths
        )
    );
    for p in &r.points {
        println!(
            "{}",
            row(
                &[
                    p.threads.to_string(),
                    fmt_secs(p.trajpattern_secs),
                    format!("{:.2}x", p.speedup_vs_one),
                    p.tp_scored.to_string(),
                    if p.identical_to_sequential {
                        "yes"
                    } else {
                        "NO"
                    }
                    .into(),
                ],
                &widths
            )
        );
    }
}

fn panel(axis: &str) -> &'static str {
    match axis {
        "k" => "a",
        "S" => "b",
        "L" => "c",
        _ => "d",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let axis = args
        .iter()
        .position(|a| a == "--axis")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());

    let threads: Option<Vec<usize>> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--threads takes N,N,…"))
                .collect()
        });

    let cfg = Fig4Config::default();

    if let Some(counts) = threads {
        eprintln!("running fig4 thread-scaling sweep…");
        let mut cfg = cfg;
        if quick {
            cfg.s = 30;
            cfg.l = 20;
        }
        let r = sweep_threads(&cfg, &counts);
        print_threads_sweep(&r);
        if quick {
            eprintln!("quick sweep: results/fig4_threads.json left unchanged");
            return;
        }
        match write_json("fig4_threads", &r) {
            Ok(path) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write results: {e}"),
        }
        return;
    }

    let (ks, ss, ls, gs): (Vec<usize>, Vec<usize>, Vec<usize>, Vec<u32>) = if quick {
        (vec![5, 10], vec![30, 60], vec![20, 40], vec![8, 12])
    } else {
        (
            vec![5, 10, 20, 40, 80],
            vec![30, 60, 120, 240],
            vec![20, 40, 80, 160],
            vec![8, 12, 16, 24],
        )
    };

    let run_axis = |name: &str| -> Option<SweepResult> {
        match name {
            "k" => Some(sweep_k(&cfg, &ks)),
            "s" => Some(sweep_s(&cfg, &ss)),
            "l" => Some(sweep_l(&cfg, &ls)),
            "g" => Some(sweep_g(&cfg, &gs)),
            other => {
                eprintln!("unknown axis {other}; use k, s, l or g");
                None
            }
        }
    };

    let axes: Vec<String> = match axis {
        Some(a) => vec![a],
        None => vec!["k".into(), "s".into(), "l".into(), "g".into()],
    };

    let mut results = Vec::new();
    for a in axes {
        eprintln!("running fig4 axis {a}…");
        if let Some(r) = run_axis(&a) {
            print_sweep(&r);
            results.push(r);
        }
    }
    println!(
        "paper: TrajPattern scales ~quadratically in k and linearly in S, L, G; \
         PB grows super-linearly in k and S and exponentially in G"
    );

    if quick {
        eprintln!("quick sweep: results/fig4* left unchanged");
        return;
    }
    for r in &results {
        let rows: Vec<Vec<f64>> = r
            .points
            .iter()
            .map(|p| vec![p.x, p.trajpattern_secs, p.pb_secs])
            .collect();
        match write_dat(
            &format!("fig4{}", panel(&r.axis)),
            &["x", "trajpattern_secs", "pb_secs"],
            &rows,
        ) {
            Ok(path) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write dat: {e}"),
        }
    }
    match merge_panels(&results) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}

/// Writes `panels` into `results/fig4.json`, replacing the entry whose
/// `axis` matches each new panel (appending a panel the file lacks), so a
/// one-axis run leaves the other panels as they are. A file that exists
/// but is not a panel array is reported and left alone.
fn merge_panels(panels: &[SweepResult]) -> std::io::Result<String> {
    let path = "results/fig4.json";
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Array(entries)) => entries,
            _ => {
                return Err(std::io::Error::other(format!(
                    "{path} is not an array of panels; not overwriting it"
                )))
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    for panel in panels {
        let value = serde_json::to_value(panel).expect("sweep results serialize");
        let axis = |e: &Value| e.get("axis").and_then(Value::as_str) == Some(panel.axis.as_str());
        match entries.iter_mut().find(|e| axis(e)) {
            Some(slot) => *slot = value,
            None => entries.push(value),
        }
    }
    write_json("fig4", &entries)
}
