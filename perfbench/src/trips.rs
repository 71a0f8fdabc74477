//! The dead-reckoning producer: vehicles running a few shared routes,
//! written with `trajfeed::dr`'s `append_*` helpers.
//!
//! The route network is fixed by a network number, like a city's
//! streets, and so is the traffic of the first `fixture` trips: the
//! shard's history before the run (its checkpoint or preload). The seed
//! draws all traffic after that. The stream miner's ledger keeps every
//! pattern it ever scored and settles within the first hundred trips at
//! a size set by that early history (1650 to 3300 patterns over three
//! seeds, at max length 4), and checkpoint cost scales with it; a
//! per-seed history would make a run's cost depend on it rather than on
//! the program.
//!
//! Each trip picks its route at random with weights that drift over the
//! stream (a slow daily cycle, 2.5 windows long), so the window's route
//! mix keeps moving and the miner keeps meeting top-k changes and
//! repairs.
//!
//! Vehicle `i` departs at time `i` and ends exactly `DURATION` later, so
//! `end` lines — and therefore completed trips — arrive at an even rate
//! of one per time unit. (A log whose vehicles all depart together would
//! put every `end` at its tail, and a paced replay would deliver them as
//! one burst.) Interior reports are jittered; the first and last are
//! not, which is what pins each trip's end time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajdata::Trajectory;
use trajfeed::dr::{append_end, append_report, append_shape, dr_header, DrConfig, DrDecoder};
use trajgeo::Point2;

/// Odometer reports per trip.
pub const REPORTS: usize = 20;
/// Report-time units from a trip's first report to its `end`.
pub const DURATION: f64 = (REPORTS - 1) as f64;
/// Routes shared by the fleet of one shard.
pub const ROUTES: usize = 4;
/// Vertices per route polyline.
const ROUTE_VERTICES: usize = 6;

/// The §3.1/§3.2 reconstruction every shard applies (σ = U/c between
/// reports on a unit lattice).
pub fn dr_config() -> DrConfig {
    DrConfig {
        u: 0.02,
        c: 2.0,
        growth_rate: 0.0,
        dt: 1.0,
    }
}

/// A generated trip stream.
pub struct Trips {
    /// Version line plus every route shape: what the stream starts with.
    pub head: String,
    /// Message lines after the head in stream order, with report times.
    pub lines: Vec<(f64, String)>,
    /// `ends[i]` indexes the `end` line of trip `i` in `lines`; trips
    /// complete in index order.
    pub ends: Vec<usize>,
    /// Trip `i` reconstructed by trajfeed's own decoder (stream order).
    pub trajectories: Vec<Trajectory>,
}

impl Trips {
    /// Generates `trips` trips over route network `network` and decodes
    /// them. The first `fixture` trips are the network's own; the rest
    /// are drawn from `seed`. Route weights drift over `cycle` trips.
    pub fn generate(
        trips: usize,
        network: u64,
        fixture: usize,
        cycle: f64,
        seed: u64,
    ) -> Result<Trips, String> {
        let mut streets = StdRng::seed_from_u64(0x5ca1_ab1e ^ network);
        let mut history = StdRng::seed_from_u64(0x0b5e_55ed ^ network);
        let mut drawn = StdRng::seed_from_u64(seed ^ 0x7e1e_d0c5);
        let mut head = dr_header(None);
        let mut routes = Vec::with_capacity(ROUTES);
        for r in 0..ROUTES {
            let pts = route(&mut streets);
            let wire: Vec<(f64, f64)> = pts.iter().map(|p| (p.x, p.y)).collect();
            append_shape(&mut head, &format!("r{r}"), &wire);
            let arc: f64 = pts.windows(2).map(|w| w[0].distance(w[1])).sum();
            routes.push(arc);
        }

        // (time, kind: 0 report / 1 end, trip, line)
        let mut tagged: Vec<(f64, u8, usize, String)> = Vec::with_capacity(trips * (REPORTS + 1));
        for i in 0..trips {
            let rng = if i < fixture {
                &mut history
            } else {
                &mut drawn
            };
            let r = pick_route(i, cycle, rng);
            let (trip, vehicle) = (format!("r{r}"), format!("v{i}"));
            let depart = i as f64;
            let step = routes[r] / DURATION;
            let mut odo = 0.0f64;
            for k in 0..REPORTS {
                let t = if k == 0 || k == REPORTS - 1 {
                    depart + k as f64
                } else {
                    depart + k as f64 + 0.25 * (rng.gen::<f64>() * 2.0 - 1.0)
                };
                if k > 0 {
                    odo = (odo + step * (0.8 + 0.4 * rng.gen::<f64>())).min(routes[r]);
                }
                let mut line = String::new();
                append_report(&mut line, &vehicle, &trip, t, odo);
                tagged.push((t, 0, i, line));
            }
            let mut line = String::new();
            append_end(&mut line, &vehicle);
            tagged.push((depart + DURATION, 1, i, line));
        }
        tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        let mut ends = vec![usize::MAX; trips];
        for (pos, (_, kind, trip, _)) in tagged.iter().enumerate() {
            if *kind == 1 {
                ends[*trip] = pos;
            }
        }
        let lines: Vec<(f64, String)> = tagged.into_iter().map(|(t, _, _, l)| (t, l)).collect();
        let trajectories = decode(&head, &lines)?;
        if trajectories.len() != trips || ends.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "trip generator produced {} of {trips} trips out of order",
                trajectories.len()
            ));
        }
        Ok(Trips {
            head,
            lines,
            ends,
            trajectories,
        })
    }

    /// The stream text from the head through trip `upto - 1`'s `end`.
    pub fn stream_through(&self, upto: usize) -> String {
        let mut out = self.head.clone();
        out.push_str(&self.text(0, self.line_end(upto)));
        out
    }

    /// Index one past the `end` line of trip `upto - 1` (0 for none).
    pub fn line_end(&self, upto: usize) -> usize {
        if upto == 0 {
            0
        } else {
            self.ends[upto - 1] + 1
        }
    }

    /// Concatenated message lines `from..to`.
    pub fn text(&self, from: usize, to: usize) -> String {
        self.lines[from..to]
            .iter()
            .map(|(_, l)| l.as_str())
            .collect()
    }
}

/// Route of trip `i`: weights `1 + 0.9·sin(2π·i/cycle + phase_r)`, with
/// the routes' phases spread evenly over the cycle.
fn pick_route(i: usize, cycle: f64, rng: &mut StdRng) -> usize {
    let weights: Vec<f64> = (0..ROUTES)
        .map(|r| {
            let phase = std::f64::consts::TAU * r as f64 / ROUTES as f64;
            1.0 + 0.9 * (std::f64::consts::TAU * i as f64 / cycle + phase).sin()
        })
        .collect();
    let mut u = rng.gen::<f64>() * weights.iter().sum::<f64>();
    for (r, w) in weights.iter().enumerate() {
        if u < *w {
            return r;
        }
        u -= w;
    }
    ROUTES - 1
}

/// A random-walk polyline with heading persistence, inside the unit
/// square the grid covers.
fn route(rng: &mut StdRng) -> Vec<Point2> {
    let mut p = Point2::new(0.2 + 0.6 * rng.gen::<f64>(), 0.2 + 0.6 * rng.gen::<f64>());
    let mut heading = rng.gen::<f64>() * std::f64::consts::TAU;
    let mut pts = vec![p];
    for _ in 1..ROUTE_VERTICES {
        heading += 0.8 * (rng.gen::<f64>() - 0.5);
        let len = 0.12 + 0.08 * rng.gen::<f64>();
        let mut q = Point2::new(p.x + len * heading.cos(), p.y + len * heading.sin());
        if !(0.05..=0.95).contains(&q.x) || !(0.05..=0.95).contains(&q.y) {
            heading += std::f64::consts::PI;
            q = Point2::new(
                (p.x + len * heading.cos()).clamp(0.05, 0.95),
                (p.y + len * heading.sin()).clamp(0.05, 0.95),
            );
        }
        pts.push(q);
        p = q;
    }
    pts
}

/// Decodes the stream with trajfeed's decoder, as a shard would.
fn decode(head: &str, lines: &[(f64, String)]) -> Result<Vec<Trajectory>, String> {
    let mut decoder = DrDecoder::new(dr_config()).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let body = head
        .lines()
        .skip(1)
        .chain(lines.iter().map(|(_, l)| l.trim_end()));
    for (n, line) in body.enumerate() {
        if let Some(rec) = decoder.step(line, n + 2).map_err(|e| e.to_string())? {
            out.push(rec.trajectory);
        }
    }
    Ok(out)
}
