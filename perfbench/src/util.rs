//! Shared measurement helpers: percentiles, the host-speed probe, peak
//! RSS, and the result line.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); `None` when
/// empty. Sorts a copy, so callers can pass samples in arrival order.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median (nearest rank) of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Consecutive slices a run's samples are cut into for [`tail_p99`].
pub const SLICES: usize = 5;

/// The p99 of a run: cut each source's time-ordered samples into
/// [`SLICES`] consecutive slices, pool slice `i` across sources, take
/// each pooled slice's p99, and report their median. A host stall lands
/// in one slice, so it moves the result at most one rank.
pub fn tail_p99(sources: &[&[f64]]) -> Option<f64> {
    let mut p99s = Vec::with_capacity(SLICES);
    for i in 0..SLICES {
        let slice: Vec<f64> = sources
            .iter()
            .flat_map(|s| &s[s.len() * i / SLICES..s.len() * (i + 1) / SLICES])
            .copied()
            .collect();
        p99s.push(percentile(&slice, 0.99)?);
    }
    median(&p99s)
}

/// Sub-buckets per power of two in a [`Histogram`]: durations within
/// about 0.1% of each other share a bucket.
const SUB_BITS: u32 = 10;
/// Buckets of a [`Histogram`]: exact below 1024 ns, log-linear above,
/// up to about 18 minutes.
const BUCKETS: usize = 31 << SUB_BITS;

/// Durations in a fixed-size log-linear histogram, so a run's memory
/// does not grow with the number of requests it makes and
/// `peak_rss_mb` measures the program, not the generator's samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let msb = 63 - ns.max(1).leading_zeros();
        let i = if msb < SUB_BITS {
            ns as usize
        } else {
            let shift = msb - SUB_BITS;
            ((shift as usize + 1) << SUB_BITS) + (ns >> shift) as usize - (1 << SUB_BITS)
        };
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) in milliseconds: the
    /// middle of the bucket holding that rank. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        let i = self.counts.iter().position(|&c| {
            seen += u64::from(c);
            seen >= rank
        })?;
        let ns = if i < 1 << SUB_BITS {
            i as f64
        } else {
            let shift = (i >> SUB_BITS) - 1;
            let low =
                ((i & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) as f64 * (1u64 << shift) as f64;
            low + ((1u64 << shift) as f64 - 1.0) / 2.0
        };
        Some(ns / 1e6)
    }
}

/// `<prefix>_p50_ms` and `<prefix>_p99_ms`, each the median over a
/// run's consecutive time `slices` of that slice's percentile, as in
/// [`tail_p99`]: a host stall lands in one slice and moves neither
/// figure by more than one slice's rank.
pub fn put_sliced_percentiles(
    m: &mut Metrics,
    prefix: &str,
    slices: &[Histogram],
) -> Result<(), String> {
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        let per: Vec<f64> = slices
            .iter()
            .map(|h| h.percentile(q))
            .collect::<Option<_>>()
            .ok_or(format!("too few {prefix} samples"))?;
        let value = median(&per).ok_or(format!("no {prefix} slices"))?;
        m.put(format!("{prefix}_{name}_ms"), value, "ms");
    }
    Ok(())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleeps until `due` (no-op when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Host-speed probe: a fixed integer kernel that touches none of the
/// program under test, in millions of kernel steps per second. Run at
/// the start and end of every run so host drift can be told apart from
/// a program change.
pub fn cpu_calib_mops() -> f64 {
    const STEPS: u64 = 40_000_000;
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    black_box(acc);
    STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}

/// Operation accounting shared by every workload: `failed` counts
/// non-2xx answers, timeouts, gate mismatches and missing trips.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that mean a wrong answer (as opposed to a lost one).
    pub wrong: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed without a wrong answer.
    pub fn lost(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why.into());
    }

    /// Counts one operation whose answer was wrong.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        self.note(why.into());
    }

    /// Counts one checked operation: `Ok` passes, `Err` is a mismatch.
    pub fn check(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(why) => self.wrong(why),
        }
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < 8 {
            eprintln!("perfbench: failed op: {why}");
            self.notes.push(why);
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// `<prefix>_p50_ms` over every sample and `<prefix>_p99_ms` by
/// [`tail_p99`]; `sources` are time-ordered sample vectors (one
/// per client).
pub fn put_percentiles(m: &mut Metrics, prefix: &str, sources: &[&[f64]]) -> Result<(), String> {
    let all: Vec<f64> = sources.iter().flat_map(|s| s.iter().copied()).collect();
    let p50 = median(&all).ok_or(format!("no {prefix} samples"))?;
    let p99 = tail_p99(sources).ok_or(format!("too few {prefix} samples"))?;
    m.put(format!("{prefix}_p50_ms"), p50, "ms");
    m.put(format!("{prefix}_p99_ms"), p99, "ms");
    Ok(())
}

/// Bit-identity of two top-k lists: same patterns, same NM bits.
pub fn same_topk(a: &[trajpattern::MinedPattern], b: &[trajpattern::MinedPattern]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.pattern == y.pattern && x.nm.to_bits() == y.nm.to_bits())
}

/// Renders the final result line. Values print with every digit Rust's
/// shortest round-trip formatting gives them.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_a_bucket_of_exact() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 200 ns to ~50 ms, log-uniform.
            let ns = (200.0 * ((x % 1_000_000) as f64 / 1e6 * 12.4).exp()) as u64;
            h.record(Duration::from_nanos(ns));
            exact.push(ns as f64 / 1e6);
        }
        assert_eq!(h.len(), 20_000);
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.percentile(q).unwrap(), percentile(&exact, q).unwrap());
            assert!(
                (got - want).abs() <= want * 1e-3 + 1e-6,
                "q={q}: {got} vs {want}"
            );
        }
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.len(), 40_000);
        assert_eq!(twice.percentile(0.5), h.percentile(0.5));
        assert_eq!(Histogram::default().percentile(0.5), None);
    }
}
