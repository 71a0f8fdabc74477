//! Dead-reckoning feed generator: synthetic `trajfeed-dr v1` logs.
//!
//! The other generators emit finished snapshot trajectories; real
//! vehicle feeds do not. They transmit GTFS-realtime-style messages — a
//! trip's route *shape* plus per-vehicle odometer reports at irregular
//! times — and the server reconstructs §3.1 imprecise trajectories from
//! them (see `trajfeed::dr`). This generator produces that raw message
//! stream, so the whole reconstruction path can be exercised end to
//! end: datagen a DR log → feed it through a file or socket feed → mine
//! the reconstructed window.
//!
//! A fleet of `routes` trips, each with a random polyline shape and
//! `vehicles_per_route` vehicles, reports odometer positions at jittered
//! intervals. Reports from all vehicles interleave in time order — the
//! asynchronous-arrival property §3.2 synchronization exists to fix.
//! With a `geo_origin` the same planar shapes are emitted as WGS84
//! lat/lon (inverse of the local equirectangular projection the decoder
//! applies), producing the geodetic variant of the log.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajfeed::dr::{append_end, append_report, append_shape, dr_header};
use trajgeo::{GeoProjection, Point2};

/// Parameters of the synthetic dead-reckoning fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrFeedConfig {
    /// Distinct trips, each with its own route shape.
    pub routes: usize,
    /// Vehicles running each trip.
    pub vehicles_per_route: usize,
    /// Odometer reports per vehicle (>= 2).
    pub reports_per_vehicle: usize,
    /// Vertices per route shape (>= 2).
    pub shape_vertices: usize,
    /// Coordinate span of the fleet's operating area: shapes live in
    /// `[0, extent]²` (planar units, or meters in geo mode).
    pub extent: f64,
    /// Fraction of its route a vehicle covers over its report horizon
    /// (1.0 = exactly the whole shape).
    pub pace: f64,
    /// Fractional timing jitter on report intervals (0 = a perfect
    /// once-per-unit-time reporter, i.e. reports already on the lattice).
    pub jitter: f64,
    /// Emit geodetic `lat lon` shapes anchored at this origin instead of
    /// planar coordinates; `extent` is then meters.
    pub geo_origin: Option<(f64, f64)>,
}

impl Default for DrFeedConfig {
    fn default() -> DrFeedConfig {
        DrFeedConfig {
            routes: 3,
            vehicles_per_route: 4,
            reports_per_vehicle: 12,
            shape_vertices: 5,
            extent: 1.0,
            pace: 1.0,
            jitter: 0.25,
            geo_origin: None,
        }
    }
}

/// Generates a complete `trajfeed-dr v1` log (terminated by `# eof`),
/// deterministically from `seed`.
pub fn dr_log(cfg: &DrFeedConfig, seed: u64) -> String {
    let routes = cfg.routes.max(1);
    let vehicles = cfg.vehicles_per_route.max(1);
    let reports = cfg.reports_per_vehicle.max(2);
    let vertices = cfg.shape_vertices.max(2);
    let proj = cfg
        .geo_origin
        .map(|(lat0, lon0)| GeoProjection::new(lat0, lon0).expect("usable geo origin"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd47f_eed5);

    let mut out = dr_header(proj.as_ref().map(|p| p.origin()));

    // Route shapes: a random walk across the operating area, biased to
    // keep moving (repeated motifs come from many vehicles sharing one
    // shape, like the bus workload).
    let mut shapes: Vec<(String, Vec<Point2>, f64)> = Vec::with_capacity(routes);
    for r in 0..routes {
        let mut pts = Vec::with_capacity(vertices);
        let mut p = Point2::new(rng.gen::<f64>() * cfg.extent, rng.gen::<f64>() * cfg.extent);
        pts.push(p);
        let step = cfg.extent / vertices as f64;
        for _ in 1..vertices {
            let q = Point2::new(
                (p.x + (rng.gen::<f64>() * 2.0 - 0.5) * step).clamp(0.0, cfg.extent),
                (p.y + (rng.gen::<f64>() * 2.0 - 0.5) * step).clamp(0.0, cfg.extent),
            );
            pts.push(q);
            p = q;
        }
        let arc: f64 = pts.windows(2).map(|w| w[0].distance(w[1])).sum();
        let trip = format!("trip{r}");
        let wire: Vec<(f64, f64)> = pts
            .iter()
            .map(|v| match &proj {
                Some(proj) => proj.unproject(*v),
                None => (v.x, v.y),
            })
            .collect();
        append_shape(&mut out, &trip, &wire);
        shapes.push((trip, pts, arc.max(f64::MIN_POSITIVE)));
    }

    // Vehicle report streams: per-vehicle strictly increasing times with
    // jittered spacing, odometers advancing along the shape at a noisy
    // pace. Reports from all vehicles are then interleaved in time order.
    let mut all: Vec<(f64, String, String, f64)> = Vec::new();
    let mut names = Vec::with_capacity(routes * vehicles);
    for (r, (trip, _, arc)) in shapes.iter().enumerate() {
        for v in 0..vehicles {
            let name = format!("veh{r}_{v}");
            let mut t = rng.gen::<f64>() * 2.0; // staggered departures
            let mut odo = 0.0f64;
            let odo_step = cfg.pace * arc / (reports - 1) as f64;
            for i in 0..reports {
                if i > 0 {
                    t += 1.0 + cfg.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                    odo = (odo + odo_step * (0.6 + 0.8 * rng.gen::<f64>())).min(*arc);
                }
                all.push((t, name.clone(), trip.clone(), odo));
            }
            names.push(name);
        }
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    for (t, vehicle, trip, odo) in &all {
        append_report(&mut out, vehicle, trip, *t, *odo);
    }
    for name in &names {
        append_end(&mut out, name);
    }
    out.push_str("# eof\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use trajfeed::{FeedOptions, SourceSpec};

    fn decode(log: &str, name: &str) -> Vec<trajdata::Trajectory> {
        let dir = std::env::temp_dir().join(format!("datagen-drfeed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, log).unwrap();
        let mut feed =
            trajfeed::open(&SourceSpec::Dr(path.clone()), &FeedOptions::default()).unwrap();
        let out = trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).unwrap();
        std::fs::remove_file(&path).ok();
        out
    }

    #[test]
    fn planar_log_is_deterministic_and_decodes() {
        let cfg = DrFeedConfig::default();
        let a = dr_log(&cfg, 11);
        let b = dr_log(&cfg, 11);
        assert_eq!(a, b, "same seed, same log");
        assert_ne!(a, dr_log(&cfg, 12), "different seed, different log");

        let trajs = decode(&a, "planar.drlog");
        assert_eq!(trajs.len(), cfg.routes * cfg.vehicles_per_route);
        for t in &trajs {
            assert!(t.len() >= 2, "reconstructed trajectory has a window");
            for sp in t.points() {
                assert!((0.0..=cfg.extent).contains(&sp.mean.x));
                assert!((0.0..=cfg.extent).contains(&sp.mean.y));
            }
        }
    }

    #[test]
    fn geo_variant_projects_back_into_the_operating_area() {
        let cfg = DrFeedConfig {
            extent: 2000.0,
            geo_origin: Some((47.6062, -122.3321)),
            ..DrFeedConfig::default()
        };
        let log = dr_log(&cfg, 5);
        assert!(log.lines().nth(1).unwrap().starts_with("geo "));
        let trajs = decode(&log, "geo.drlog");
        assert_eq!(trajs.len(), cfg.routes * cfg.vehicles_per_route);
        // Decoded means are planar meters within the extent (up to
        // projection round-trip error, far below a meter at city scale).
        for t in &trajs {
            for sp in t.points() {
                assert!(
                    (-1.0..=cfg.extent + 1.0).contains(&sp.mean.x),
                    "{}",
                    sp.mean.x
                );
                assert!(
                    (-1.0..=cfg.extent + 1.0).contains(&sp.mean.y),
                    "{}",
                    sp.mean.y
                );
            }
        }
    }

    #[test]
    fn per_vehicle_report_times_strictly_increase() {
        let log = dr_log(&DrFeedConfig::default(), 3);
        let mut last: std::collections::HashMap<String, f64> = Default::default();
        for line in log.lines().filter(|l| l.starts_with("dr ")) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let t: f64 = parts[3].parse().unwrap();
            if let Some(prev) = last.insert(parts[1].to_string(), t) {
                assert!(
                    t > prev,
                    "vehicle {} times must strictly increase",
                    parts[1]
                );
            }
        }
    }
}
