//! Result persistence and table printing shared by the `exp_*` binaries.
//!
//! Experiments write three artifact kinds under `results/`:
//! pretty JSON (the full structured result), gnuplot-ready `.dat` series
//! (via [`write_dat`]), and the human-readable tables printed to stdout.

use serde::Serialize;
use std::path::Path;

/// Writes `value` as pretty JSON to `results/<name>.json` (creating the
/// directory) and returns the path written.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<String> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("experiment results serialize");
    trajio::write_atomic(&path, &json)
        .map_err(|e| std::io::Error::other(format!("{}: {}", e.path.display(), e.message)))?;
    Ok(path.display().to_string())
}

/// Writes a whitespace-separated data file under `results/<name>.dat` for
/// gnuplot/pgfplots consumption: one comment header line naming the
/// columns, then one row per point. Returns the path written.
pub fn write_dat(name: &str, columns: &[&str], rows: &[Vec<f64>]) -> std::io::Result<String> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.dat"));
    let mut out = String::new();
    out.push('#');
    for c in columns {
        out.push(' ');
        out.push_str(c);
    }
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6e}")).collect();
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    trajio::write_atomic(&path, &out)
        .map_err(|e| std::io::Error::other(format!("{}: {}", e.path.display(), e.message)))?;
    Ok(path.display().to_string())
}

/// Nearest-rank percentile `q` of ascending latencies (seconds), in
/// milliseconds; `0` when there are none.
pub(crate) fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((n - 1) as f64) * q).round() as usize] * 1e3,
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a duration in seconds with adaptive precision.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 0.001 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.1}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn percentile_ms_is_nearest_rank_in_ms() {
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[0.25], 0.99), 250.0);
        // Rank round((n - 1) * q) of 1 s, 2 s, ..., 100 s.
        let secs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_ms(&secs, 0.0), 1e3);
        assert_eq!(percentile_ms(&secs, 0.5), 51e3);
        assert_eq!(percentile_ms(&secs, 0.99), 99e3);
        assert_eq!(percentile_ms(&secs, 1.0), 100e3);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
        assert_eq!(fmt_secs(0.5), "500.0ms");
        assert_eq!(fmt_secs(2.0), "2.00s");
    }

    #[test]
    fn dat_file_has_header_and_rows() {
        let dir = std::env::temp_dir().join(format!("report-dat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let path = write_dat(
            "unit_test_series",
            &["x", "tp", "pb"],
            &[vec![1.0, 0.5, 2.0], vec![2.0, 0.75, 4.0]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(old).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# x tp pb");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("1.0"));
        let fields: Vec<&str> = lines[2].split_whitespace().collect();
        assert_eq!(fields.len(), 3);
    }
}
