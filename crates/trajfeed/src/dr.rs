//! The dead-reckoning feed adapter: GTFS-realtime-style vehicle
//! messages → §3.1 server-side reconstruction → §3.2 synchronization.
//!
//! Real transit feeds do not transmit trajectories; they transmit
//! *vehicle positions along a trip* — a trip descriptor (which shape the
//! vehicle runs) plus an odometer reading, at irregular times. This
//! module decodes that message shape and reconstructs the paper's
//! imprecise snapshot trajectories server-side:
//!
//! - **decode**: `shape` messages register a trip's polyline (planar
//!   `x y` pairs, or geodetic `lat lon` pairs projected through
//!   [`trajgeo::GeoProjection`] when the log opens with a `geo` header);
//!   `dr` messages place a vehicle at an odometer distance along its
//!   trip's shape at a report time.
//! - **synchronize (§3.2)**: the asynchronous reports are interpolated
//!   onto the shared `dt` lattice ([`trajdata::resample::schedule_covering`]
//!   then [`trajdata::resample::resample_linear`]), so every vehicle lands
//!   on the *same* snapshot schedule — the precondition for mining
//!   across objects.
//! - **reconstruct (§3.1)**: each synchronized snapshot gets
//!   `σ = U_eff / c` via [`mobility::UncertaintyModel::reconstruction_sigma`],
//!   where `U_eff` grows with snapshots elapsed since the last report
//!   when a growth rate is configured. A snapshot coinciding with a
//!   report is exact (σ = 0).
//!
//! ## Log format (`trajfeed-dr v1`)
//!
//! ```text
//! trajfeed-dr v1
//! geo <lat0> <lon0>                 # optional, once, before any shape
//! shape <trip> <a> <b> [<a> <b>]…   # polyline: x y pairs (lat lon in geo mode)
//! dr <vehicle> <trip> <t> <odometer>
//! end <vehicle>                     # trip over → emit the trajectory
//! # eof
//! ```
//!
//! Odometer distances are in shape-coordinate units (meters in geo
//! mode). Blank lines and `#` comments are ignored.

use crate::line::{LineSource, LineStep};
use crate::{Feed, FeedBatch, FeedError, FeedStats, Pipeline};
use mobility::UncertaintyModel;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use trajdata::resample::{resample_linear, schedule_covering, RawReading};
use trajdata::{SnapshotPoint, Trajectory};
use trajgeo::{GeoProjection, Point2};

/// First line of every dead-reckoning log.
pub const DR_VERSION_LINE: &str = "trajfeed-dr v1";

/// Reconstruction parameters: the §3.1 tolerance/σ relation and the
/// §3.2 snapshot lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrConfig {
    /// Dead-reckoning tolerance `U`: the drift bound the producer
    /// promises between reports, in shape-coordinate units.
    pub u: f64,
    /// The paper's `c`: σ of a reconstructed snapshot is `U_eff / c`.
    pub c: f64,
    /// §3.1 uncertainty growth per snapshot of silence (0 = constant U).
    pub growth_rate: f64,
    /// Snapshot lattice spacing (§3.2), in report-time units.
    pub dt: f64,
}

impl Default for DrConfig {
    fn default() -> DrConfig {
        DrConfig {
            u: 0.02,
            c: 2.0,
            growth_rate: 0.0,
            dt: 1.0,
        }
    }
}

impl DrConfig {
    /// Validates the parameters; an error message on the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.u.is_finite() && self.u >= 0.0) {
            return Err(format!(
                "dead-reckoning tolerance U must be >= 0, got {}",
                self.u
            ));
        }
        if !(self.c.is_finite() && self.c > 0.0) {
            return Err(format!("sigma divisor c must be > 0, got {}", self.c));
        }
        if !(self.growth_rate.is_finite() && self.growth_rate >= 0.0) {
            return Err(format!(
                "growth rate must be >= 0, got {}",
                self.growth_rate
            ));
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(format!("snapshot spacing dt must be > 0, got {}", self.dt));
        }
        Ok(())
    }

    fn model(&self) -> UncertaintyModel {
        if self.growth_rate > 0.0 {
            UncertaintyModel::GrowingWithTime {
                rate: self.growth_rate,
            }
        } else {
            UncertaintyModel::Constant
        }
    }
}

/// Writes the log header: version line plus the optional `geo` origin.
pub fn dr_header(origin: Option<(f64, f64)>) -> String {
    let mut out = String::from(DR_VERSION_LINE);
    out.push('\n');
    if let Some((lat0, lon0)) = origin {
        writeln!(out, "geo {lat0} {lon0}").expect("writing to a String cannot fail");
    }
    out
}

/// Appends a `shape` message registering `trip`'s polyline. Pairs are
/// `x y` (planar) or `lat lon` (geo mode).
pub fn append_shape(out: &mut String, trip: &str, vertices: &[(f64, f64)]) {
    write!(out, "shape {trip}").expect("writing to a String cannot fail");
    for (a, b) in vertices {
        write!(out, " {a} {b}").expect("writing to a String cannot fail");
    }
    out.push('\n');
}

/// Appends a `dr` report: `vehicle` is `odometer` along `trip` at `t`.
pub fn append_report(out: &mut String, vehicle: &str, trip: &str, t: f64, odometer: f64) {
    writeln!(out, "dr {vehicle} {trip} {t} {odometer}").expect("writing to a String cannot fail");
}

/// Appends an `end` message: `vehicle`'s trip is over.
pub fn append_end(out: &mut String, vehicle: &str) {
    writeln!(out, "end {vehicle}").expect("writing to a String cannot fail");
}

/// A reconstructed trajectory plus how much §3.2 interpolation it took.
#[derive(Debug, Clone)]
pub struct DrRecord {
    /// The reconstructed imprecise trajectory.
    pub trajectory: Trajectory,
    /// Sync points that fell between reports (interpolated, σ > 0).
    pub interpolated: u64,
}

struct Shape {
    pts: Vec<Point2>,
    cum: Vec<f64>,
}

impl Shape {
    fn new(pts: Vec<Point2>) -> Shape {
        let mut cum = Vec::with_capacity(pts.len());
        let mut acc = 0.0;
        cum.push(0.0);
        for w in pts.windows(2) {
            acc += w[0].distance(w[1]);
            cum.push(acc);
        }
        Shape { pts, cum }
    }

    /// The position at arc-length `odo`, clamped to the polyline.
    fn point_at(&self, odo: f64) -> Point2 {
        let total = *self.cum.last().expect("shapes have >= 2 vertices");
        let d = odo.clamp(0.0, total);
        match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&d).expect("cumulative lengths are finite"))
        {
            Ok(i) => self.pts[i],
            Err(i) => {
                let seg = self.cum[i] - self.cum[i - 1];
                self.pts[i - 1].lerp(self.pts[i], (d - self.cum[i - 1]) / seg)
            }
        }
    }
}

struct VehicleBuf {
    trip: String,
    readings: Vec<(f64, f64)>,
}

/// The incremental dead-reckoning decoder: message lines in,
/// reconstructed trajectories out (one per `end`ed vehicle).
pub struct DrDecoder {
    cfg: DrConfig,
    proj: Option<GeoProjection>,
    shapes: HashMap<String, Shape>,
    vehicles: BTreeMap<String, VehicleBuf>,
    saw_body: bool,
}

impl DrDecoder {
    /// A decoder with validated reconstruction parameters.
    pub fn new(cfg: DrConfig) -> Result<DrDecoder, FeedError> {
        cfg.validate().map_err(FeedError::Config)?;
        Ok(DrDecoder {
            cfg,
            proj: None,
            shapes: HashMap::new(),
            vehicles: BTreeMap::new(),
            saw_body: false,
        })
    }

    /// The geodetic projection, once a `geo` header was decoded.
    pub fn projection(&self) -> Option<&GeoProjection> {
        self.proj.as_ref()
    }

    /// Resets all protocol state (a fresh stream after a reconnect).
    pub fn reset(&mut self) {
        self.proj = None;
        self.shapes.clear();
        self.vehicles.clear();
        self.saw_body = false;
    }

    /// Decodes one content line (already version-checked, non-blank,
    /// non-comment). Returns a record when an `end` message completed a
    /// vehicle; `Ok(None)` for state-building messages and for ended
    /// vehicles whose time span contains no lattice point.
    pub fn step(&mut self, content: &str, line: usize) -> Result<Option<DrRecord>, FeedError> {
        let mut fields = content.split_whitespace();
        let kind = fields.next().expect("caller skips blank lines");
        let rest: Vec<&str> = fields.collect();
        match kind {
            "geo" => {
                if self.saw_body {
                    return Err(protocol(line, "geo header must precede shapes and reports"));
                }
                if self.proj.is_some() {
                    return Err(protocol(line, "duplicate geo header"));
                }
                let [lat0, lon0] = parse_floats::<2>(&rest, line, "geo <lat0> <lon0>")?;
                self.proj = Some(GeoProjection::new(lat0, lon0).ok_or_else(|| {
                    protocol(line, &format!("unusable geo origin ({lat0}, {lon0})"))
                })?);
            }
            "shape" => {
                self.saw_body = true;
                let Some((trip, coords)) = rest.split_first() else {
                    return Err(protocol(line, "shape needs a trip id"));
                };
                if coords.len() < 4 || coords.len() % 2 != 0 {
                    return Err(protocol(
                        line,
                        "shape needs at least 2 coordinate pairs (an even count of values)",
                    ));
                }
                let mut pts = Vec::with_capacity(coords.len() / 2);
                for pair in coords.chunks_exact(2) {
                    let a = parse_float(pair[0], line)?;
                    let b = parse_float(pair[1], line)?;
                    pts.push(match &self.proj {
                        Some(proj) => proj.project(a, b),
                        None => Point2::new(a, b),
                    });
                }
                if pts.iter().any(|p| !p.is_finite()) {
                    return Err(protocol(line, "shape has non-finite vertices"));
                }
                if self
                    .shapes
                    .insert(trip.to_string(), Shape::new(pts))
                    .is_some()
                {
                    return Err(protocol(line, &format!("shape '{trip}' redefined")));
                }
            }
            "dr" => {
                self.saw_body = true;
                if rest.len() != 4 {
                    return Err(protocol(line, "dr <vehicle> <trip> <t> <odometer>"));
                }
                let (vehicle, trip) = (rest[0], rest[1]);
                let t = parse_float(rest[2], line)?;
                let odo = parse_float(rest[3], line)?;
                if !self.shapes.contains_key(trip) {
                    return Err(protocol(
                        line,
                        &format!("report references unknown trip '{trip}'"),
                    ));
                }
                let buf = self
                    .vehicles
                    .entry(vehicle.to_string())
                    .or_insert_with(|| VehicleBuf {
                        trip: trip.to_string(),
                        readings: Vec::new(),
                    });
                if buf.trip != trip {
                    return Err(protocol(
                        line,
                        &format!("vehicle '{vehicle}' switched trips without an end message"),
                    ));
                }
                if buf.readings.last().is_some_and(|&(last, _)| t <= last) {
                    return Err(protocol(
                        line,
                        &format!("vehicle '{vehicle}' report times must strictly increase"),
                    ));
                }
                buf.readings.push((t, odo));
            }
            "end" => {
                if rest.len() != 1 {
                    return Err(protocol(line, "end <vehicle>"));
                }
                let vehicle = rest[0];
                let Some(buf) = self.vehicles.remove(vehicle) else {
                    return Err(protocol(
                        line,
                        &format!("end for unknown vehicle '{vehicle}'"),
                    ));
                };
                return Ok(self.reconstruct(&buf));
            }
            other => return Err(protocol(line, &format!("unknown message kind '{other}'"))),
        }
        Ok(None)
    }

    /// Flushes every still-open vehicle (a log that ended without `end`
    /// messages), in vehicle-id order for determinism.
    pub fn finish(&mut self) -> Vec<DrRecord> {
        let vehicles = std::mem::take(&mut self.vehicles);
        vehicles
            .values()
            .filter_map(|buf| self.reconstruct(buf))
            .collect()
    }

    /// §3.2 synchronization + §3.1 σ assignment for one vehicle.
    fn reconstruct(&self, buf: &VehicleBuf) -> Option<DrRecord> {
        let shape = &self.shapes[&buf.trip];
        let readings: Vec<RawReading> = buf
            .readings
            .iter()
            .map(|&(time, odo)| RawReading {
                time,
                loc: shape.point_at(odo),
            })
            .collect();
        let (first, last) = (readings.first()?.time, readings.last()?.time);
        let times = schedule_covering(first, last, self.cfg.dt)?;
        if times.is_empty() {
            return None;
        }
        let means = resample_linear(&readings, &times)?;
        let model = self.cfg.model();
        let mut interpolated = 0u64;
        let points: Vec<SnapshotPoint> = times
            .iter()
            .zip(means)
            .map(|(&s, mean)| {
                // The last report at or before this sync point; the
                // lattice starts at or after the first report, so the
                // saturation only guards float-rounding edge cases.
                let idx = buf
                    .readings
                    .partition_point(|&(t, _)| t <= s)
                    .saturating_sub(1);
                let t_report = buf.readings[idx].0;
                let sigma = if s == t_report {
                    0.0
                } else {
                    interpolated += 1;
                    let elapsed = ((s - t_report) / self.cfg.dt).ceil().max(0.0) as usize;
                    model.reconstruction_sigma(self.cfg.u, self.cfg.c, elapsed, 0.0)
                };
                SnapshotPoint { mean, sigma }
            })
            .collect();
        let trajectory = Trajectory::new(points).ok()?;
        Some(DrRecord {
            trajectory,
            interpolated,
        })
    }
}

fn protocol(line: usize, message: &str) -> FeedError {
    FeedError::Protocol {
        line,
        message: message.to_string(),
    }
}

fn parse_float(s: &str, line: usize) -> Result<f64, FeedError> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| protocol(line, &format!("'{s}' is not a finite number")))
}

fn parse_floats<const N: usize>(
    fields: &[&str],
    line: usize,
    usage: &str,
) -> Result<[f64; N], FeedError> {
    if fields.len() != N {
        return Err(protocol(line, usage));
    }
    let mut out = [0.0; N];
    for (slot, s) in out.iter_mut().zip(fields) {
        *slot = parse_float(s, line)?;
    }
    Ok(out)
}

/// A feed decoding the dead-reckoning protocol from a line source.
pub struct DrFeed<S: LineSource> {
    lines: S,
    decoder: DrDecoder,
    pipeline: Pipeline,
    stats: FeedStats,
    seen_version: bool,
    honour_eof: bool,
    line_no: usize,
    done: bool,
    kind: &'static str,
}

impl<S: LineSource> DrFeed<S> {
    /// Wraps a line source. `honour_eof` selects live semantics (a
    /// `# eof` line ends the stream; replays flush at end-of-file
    /// either way).
    pub fn new(
        lines: S,
        cfg: DrConfig,
        pipeline: Pipeline,
        honour_eof: bool,
        kind: &'static str,
    ) -> Result<Self, FeedError> {
        Ok(DrFeed {
            lines,
            decoder: DrDecoder::new(cfg)?,
            pipeline,
            stats: FeedStats::default(),
            seen_version: false,
            honour_eof,
            line_no: 0,
            done: false,
            kind,
        })
    }

    fn emit(&mut self, rec: DrRecord) -> Result<Option<Trajectory>, FeedError> {
        self.stats.reconstructed += 1;
        self.stats.resampled_points += rec.interpolated;
        let admitted = self.pipeline.admit(rec.trajectory, &mut self.stats)?;
        if admitted.is_some() {
            self.stats.records += 1;
        }
        Ok(admitted)
    }

    /// Flush still-open vehicles at stream end.
    fn flush(&mut self) -> Result<FeedBatch, FeedError> {
        self.done = true;
        let mut batch = Vec::new();
        for rec in self.decoder.finish() {
            if let Some(t) = self.emit(rec)? {
                batch.push(t);
            }
        }
        if batch.is_empty() {
            Ok(FeedBatch::End)
        } else {
            self.stats.batches += 1;
            Ok(FeedBatch::Records(batch))
        }
    }

    fn advance(&mut self, stop: &AtomicBool) -> Result<FeedBatch, FeedError> {
        if self.done {
            return Ok(FeedBatch::End);
        }
        loop {
            match self.lines.next_line(stop)? {
                LineStep::End => return self.flush(),
                LineStep::Restart => {
                    self.seen_version = false;
                    self.decoder.reset();
                }
                LineStep::Line(raw) => {
                    self.line_no += 1;
                    let content = raw.trim();
                    if !self.seen_version {
                        if content.is_empty() || content.starts_with('#') {
                            continue;
                        }
                        if content != DR_VERSION_LINE {
                            return Err(FeedError::Version {
                                found: content.to_string(),
                                expected: DR_VERSION_LINE,
                            });
                        }
                        self.seen_version = true;
                        continue;
                    }
                    if self.honour_eof && content == "# eof" {
                        return self.flush();
                    }
                    if content.is_empty() || content.starts_with('#') {
                        continue;
                    }
                    match self.decoder.step(content, self.line_no) {
                        Ok(Some(rec)) => {
                            if let Some(t) = self.emit(rec)? {
                                self.stats.batches += 1;
                                return Ok(FeedBatch::Records(vec![t]));
                            }
                        }
                        Ok(None) => {}
                        Err(e) => self.pipeline.tolerate(e, &mut self.stats)?,
                    }
                }
            }
        }
    }
}

impl<S: LineSource> Feed for DrFeed<S> {
    fn next_batch(&mut self, stop: &AtomicBool) -> Result<FeedBatch, FeedError> {
        let out = self.advance(stop);
        self.stats.reconnects = self.lines.reconnects();
        self.stats.recovery_clean = self.lines.recovery_clean();
        self.stats.recovery_torn = self.lines.recovery_torn();
        out
    }

    fn stats(&self) -> &FeedStats {
        &self.stats
    }

    fn kind(&self) -> &'static str {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(log: &str, cfg: DrConfig) -> Vec<DrRecord> {
        let mut dec = DrDecoder::new(cfg).unwrap();
        let mut out = Vec::new();
        let mut seen_version = false;
        for (i, raw) in log.lines().enumerate() {
            let content = raw.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            if !seen_version {
                assert_eq!(content, DR_VERSION_LINE);
                seen_version = true;
                continue;
            }
            if let Some(rec) = dec.step(content, i + 1).unwrap() {
                out.push(rec);
            }
        }
        out.extend(dec.finish());
        out
    }

    fn sample_log() -> String {
        let mut log = dr_header(None);
        append_shape(&mut log, "r1", &[(0.0, 0.0), (10.0, 0.0)]);
        append_report(&mut log, "bus-1", "r1", 0.0, 0.0);
        append_report(&mut log, "bus-1", "r1", 4.0, 8.0);
        append_end(&mut log, "bus-1");
        log
    }

    #[test]
    fn reconstructs_on_the_dt_lattice_with_report_sigmas_zero() {
        let recs = decode(&sample_log(), DrConfig::default());
        assert_eq!(recs.len(), 1);
        let traj = &recs[0].trajectory;
        // Lattice 0,1,2,3,4; odometer 0→8 over t 0→4 → 2 units/t.
        assert_eq!(traj.len(), 5);
        assert_eq!(traj.points()[0].mean, Point2::new(0.0, 0.0));
        assert_eq!(traj.points()[2].mean, Point2::new(4.0, 0.0));
        assert_eq!(traj.points()[4].mean, Point2::new(8.0, 0.0));
        // σ = 0 exactly at report times, U/c between them.
        assert_eq!(traj.points()[0].sigma, 0.0);
        assert_eq!(traj.points()[4].sigma, 0.0);
        assert_eq!(traj.points()[2].sigma, 0.01);
        assert_eq!(recs[0].interpolated, 3);
    }

    #[test]
    fn growth_rate_widens_sigma_with_silence() {
        let cfg = DrConfig {
            growth_rate: 0.5,
            ..DrConfig::default()
        };
        let recs = decode(&sample_log(), cfg);
        let traj = &recs[0].trajectory;
        // 1, 2, 3 snapshots after the t=0 report: U·(1+0.5·k)/c.
        assert!((traj.points()[1].sigma - 0.015).abs() < 1e-12);
        assert!((traj.points()[2].sigma - 0.02).abs() < 1e-12);
        assert!((traj.points()[3].sigma - 0.025).abs() < 1e-12);
    }

    #[test]
    fn geo_mode_projects_through_the_reference_origin() {
        let mut log = dr_header(Some((40.7128, -74.0060)));
        // A shape running ~1.1 km due north of the origin.
        append_shape(&mut log, "r1", &[(40.7128, -74.0060), (40.7228, -74.0060)]);
        append_report(&mut log, "v", "r1", 0.0, 0.0);
        append_report(&mut log, "v", "r1", 2.0, 1000.0);
        append_end(&mut log, "v");
        let recs = decode(
            &log,
            DrConfig {
                u: 50.0,
                ..DrConfig::default()
            },
        );
        let traj = &recs[0].trajectory;
        assert_eq!(traj.len(), 3);
        // Midpoint: 500 m north of the origin, on the meridian.
        assert!(traj.points()[1].mean.x.abs() < 1e-9);
        assert!((traj.points()[1].mean.y - 500.0).abs() < 1.0);
    }

    #[test]
    fn odometer_is_clamped_to_the_shape() {
        let mut log = dr_header(None);
        append_shape(&mut log, "r", &[(0.0, 0.0), (4.0, 0.0)]);
        append_report(&mut log, "v", "r", 0.0, -3.0);
        append_report(&mut log, "v", "r", 1.0, 9.0);
        append_end(&mut log, "v");
        let recs = decode(&log, DrConfig::default());
        let traj = &recs[0].trajectory;
        assert_eq!(traj.points()[0].mean, Point2::new(0.0, 0.0));
        assert_eq!(traj.points()[1].mean, Point2::new(4.0, 0.0));
    }

    #[test]
    fn finish_flushes_unended_vehicles_in_id_order() {
        let mut log = dr_header(None);
        append_shape(&mut log, "r", &[(0.0, 0.0), (10.0, 0.0)]);
        append_report(&mut log, "zeta", "r", 0.0, 0.0);
        append_report(&mut log, "zeta", "r", 1.0, 1.0);
        append_report(&mut log, "alpha", "r", 0.0, 5.0);
        append_report(&mut log, "alpha", "r", 1.0, 6.0);
        let recs = decode(&log, DrConfig::default());
        assert_eq!(recs.len(), 2);
        // BTreeMap order: alpha before zeta.
        assert_eq!(recs[0].trajectory.points()[0].mean.x, 5.0);
        assert_eq!(recs[1].trajectory.points()[0].mean.x, 0.0);
    }

    #[test]
    fn protocol_violations_name_the_line() {
        let mut dec = DrDecoder::new(DrConfig::default()).unwrap();
        assert!(dec.step("shape r 0 0", 3).is_err()); // one pair only
        assert!(dec.step("dr v nowhere 0 0", 4).is_err()); // unknown trip
        assert!(dec.step("end ghost", 5).is_err()); // unknown vehicle
        assert!(dec.step("warp v", 6).is_err()); // unknown kind
        dec.step("shape r 0 0 1 0", 7).unwrap();
        dec.step("dr v r 1.0 0.0", 8).unwrap();
        assert!(dec.step("dr v r 0.5 0.1", 9).is_err()); // time went backwards
        assert!(dec.step("geo 40 -74", 10).is_err()); // geo after body
    }

    #[test]
    fn vehicle_outside_the_lattice_is_dropped_silently() {
        let mut log = dr_header(None);
        append_shape(&mut log, "r", &[(0.0, 0.0), (1.0, 0.0)]);
        append_report(&mut log, "v", "r", 0.25, 0.0);
        append_report(&mut log, "v", "r", 0.75, 1.0);
        append_end(&mut log, "v");
        assert!(decode(&log, DrConfig::default()).is_empty());
    }
}
