//! The `serve` workload: two `Fleet` shards with windows four times
//! wider than `ingest`'s and checkpoints off, tailing dead-reckoning log
//! files that the generator appends to at a low fixed rate. Reads are
//! closed-loop over keep-alive connections with a fixed request mix, so
//! the query index, the HTTP and fan-out path and the per-slide query-set
//! rebuild compete for the same cores.

use crate::fleet::{self, Running, ShardView};
use crate::http::Client;
use crate::trace::Tracer;
use crate::trips::Trips;
use crate::util::{self, Histogram, Metrics, Tally, SLICES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trajdata::Dataset;
use trajfleet::{ShardSource, ShardSpec};
use trajgeo::stats::sample_std_normal;
use trajgeo::Point2;
use trajpattern::{PatternIndex, Scorer};
use trajquery::{snapshot_at, QuerySet, RangeMatch};
use trajserve::fanout::{merge_range, ShardRanked};
use trajserve::{merge_topk, ShardTopk, Snapshot};

/// Window capacity per shard, in trips (four times `ingest`'s).
pub const WINDOW: u64 = 256;
/// Trips appended per shard per second while reads run: two shards
/// give 40 freshness samples a second, so in a run of 30 s or more the
/// p99 has at least ten beyond it.
pub const TRICKLE_RATE: f64 = 20.0;
/// Trips per cycle of the drifting route weights (2.5 windows, as in
/// `ingest`). Repairs then follow 5–10% of slides, well clear of the
/// 1% a p99 sits at; with a 160-trip cycle they followed 1–2%, and the
/// freshness p99 landed on a repair in some runs and missed in others.
const DRIFT_CYCLE: f64 = 640.0;
/// Shard names, in the fleet's fold order.
const SHARDS: [&str; 2] = ["a", "b"];
/// Closed-loop clients (one keep-alive connection each).
const CLIENTS: usize = 2;
/// Launches measured per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Distinct request slots; clients cycle through them.
const SLOTS: usize = 2000;
/// prange/pnn answers re-checked against brute force at the end.
const GATE_SAMPLE: usize = 48;
/// Query radius and thresholds.
const DELTA: f64 = 0.05;
const PRANGE_TAU: f64 = 0.05;
const PNN_TAU: f64 = 0.01;
const PNN_K: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Prange,
    Pnn,
    TopkShard,
    TopkAll,
    Score,
    Shards,
}

/// The fixed request mix, one entry per slot modulo its length:
/// 3 prange and 3 pnn (shard-scoped and fan-out), 2 topk (shard and
/// fan-out), 1 score, 1 `/v1/shards`.
const MIX: [(Kind, bool); 10] = [
    (Kind::Prange, true),
    (Kind::Pnn, true),
    (Kind::Prange, false),
    (Kind::TopkShard, true),
    (Kind::Prange, true),
    (Kind::Pnn, false),
    (Kind::Score, true),
    (Kind::TopkAll, false),
    (Kind::Pnn, true),
    (Kind::Shards, false),
];

struct Query {
    kind: Kind,
    /// Target shard index; `None` for fan-out.
    shard: Option<usize>,
    path: String,
    body: Vec<u8>,
    p: Point2,
    t: f64,
}

impl Query {
    fn method(&self) -> &'static str {
        match self.kind {
            Kind::Prange | Kind::Pnn | Kind::Score => "POST",
            _ => "GET",
        }
    }

    fn span(&self) -> &'static str {
        match self.kind {
            Kind::Prange => "http.v1_prange",
            Kind::Pnn => "http.v1_pnn",
            Kind::TopkShard | Kind::TopkAll => "http.v1_topk",
            Kind::Score => "http.v1_score",
            Kind::Shards => "http.v1_shards",
        }
    }
}

/// One appended chunk of a shard's log.
struct Append {
    due: Duration,
    shard: usize,
    text: String,
    /// The trip whose `end` line this chunk carries.
    ends: Option<usize>,
}

pub struct Inputs {
    trips: Vec<Trips>,
    logs: Vec<PathBuf>,
    queries: Vec<Query>,
    trickle: Vec<Append>,
}

impl Inputs {
    pub fn generate(seed: u64, seconds: f64, work: &Path) -> Result<Inputs, String> {
        let w = WINDOW as usize;
        let extra = (TRICKLE_RATE * seconds).ceil() as usize + 2;
        let trips = (0..SHARDS.len())
            .map(|s| {
                Trips::generate(
                    w + extra,
                    1 + s as u64,
                    w,
                    DRIFT_CYCLE,
                    seed.wrapping_mul(4) + 1 + s as u64,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let logs = SHARDS
            .iter()
            .map(|n| work.join(format!("{n}.drlog")))
            .collect();

        let mut trickle = Vec::new();
        for (s, tr) in trips.iter().enumerate() {
            let base = tr.lines[tr.ends[w - 1]].0;
            for trip in w..w + extra {
                let (from, to) = (tr.line_end(trip), tr.line_end(trip + 1));
                for i in from..to {
                    let (t, line) = &tr.lines[i];
                    trickle.push(Append {
                        due: Duration::from_secs_f64((t - base) / TRICKLE_RATE),
                        shard: s,
                        text: line.clone(),
                        ends: (i + 1 == to).then_some(trip),
                    });
                }
            }
        }
        trickle.sort_by_key(|a| a.due);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0c0d);
        let queries = (0..SLOTS)
            .map(|slot| query(slot, &trips, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Inputs {
            trips,
            logs,
            queries,
            trickle,
        })
    }

    /// Rewrites each shard's log with its preload: the first `WINDOW` trips.
    fn write_logs(&self) -> Result<(), String> {
        for (tr, path) in self.trips.iter().zip(&self.logs) {
            std::fs::write(path, tr.stream_through(WINDOW as usize))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Builds request slot `slot`. Query points are perturbed positions of
/// preloaded window objects at times inside their trajectories, so
/// queries hit live objects instead of being pruned at the index root.
fn query(slot: usize, trips: &[Trips], rng: &mut StdRng) -> Result<Query, String> {
    let (kind, scoped) = MIX[slot % MIX.len()];
    let s = rng.gen_range(0..SHARDS.len());
    let shard = scoped.then_some(s);
    let scope = match shard {
        Some(s) => format!("?shard={}", SHARDS[s]),
        None => String::new(),
    };
    let traj = &trips[s].trajectories[rng.gen_range(0..WINDOW as usize)];
    let t = rng.gen::<f64>() * (traj.len() - 1) as f64;
    let at = snapshot_at(traj, t, 0.0).ok_or("query time outside its trajectory")?;
    let p = Point2::new(
        at.mean.x + 0.02 * sample_std_normal(rng),
        at.mean.y + 0.02 * sample_std_normal(rng),
    );
    let (path, body) = match kind {
        Kind::Prange => (
            format!("/v1/prange{scope}"),
            format!(
                "{{\"p\": [{:?}, {:?}], \"delta\": {DELTA:?}, \"t\": {t:?}, \"tau\": {PRANGE_TAU:?}}}",
                p.x, p.y
            ),
        ),
        Kind::Pnn => (
            format!("/v1/pnn{scope}"),
            format!(
                "{{\"p\": [{:?}, {:?}], \"delta\": {DELTA:?}, \"t\": {t:?}, \"tau\": {PNN_TAU:?}, \"k\": {PNN_K}}}",
                p.x, p.y
            ),
        ),
        Kind::TopkShard | Kind::TopkAll => (format!("/v1/topk{scope}"), String::new()),
        Kind::Score => {
            let a = rng.gen_range(0..WINDOW as usize);
            let b = rng.gen_range(0..WINDOW as usize);
            let data: Dataset = [a, b]
                .iter()
                .map(|&i| trips[s].trajectories[i].clone())
                .collect();
            (format!("/v1/score{scope}"), data.to_json())
        }
        Kind::Shards => ("/v1/shards".to_string(), String::new()),
    };
    Ok(Query {
        kind,
        shard,
        path,
        body: body.into_bytes(),
        p,
        t,
    })
}

/// A prange/pnn answer: `(shard index, id, prob)` per match.
type Matches = Vec<(usize, u64, f64)>;

fn parse_matches(body: &str, q: &Query) -> Result<Matches, String> {
    let doc: serde_json::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let arr = doc["matches"]
        .as_array()
        .ok_or("answer has no matches array")?;
    arr.iter()
        .map(|m| {
            let shard = match q.shard {
                Some(s) => s,
                None => {
                    let name = m["shard"].as_str().ok_or("fan-out match without shard")?;
                    SHARDS
                        .iter()
                        .position(|n| *n == name)
                        .ok_or("unknown shard")?
                }
            };
            Ok((
                shard,
                m["id"].as_u64().ok_or("match without id")?,
                m["prob"].as_f64().ok_or("match without prob")?,
            ))
        })
        .collect()
}

/// Structural check of a top-k answer: at most k entries, NM
/// non-increasing.
fn check_topk(nms: &[f64], k: usize) -> Result<(), String> {
    if nms.len() > k || nms.windows(2).any(|w| w[0] < w[1]) {
        return Err("top-k is longer than k or out of order".into());
    }
    Ok(())
}

/// The NMs of a fan-out `/v1/topk` document, in order.
fn fanout_nms(body: &str) -> Result<Vec<f64>, String> {
    let doc: serde_json::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    doc["patterns"]
        .as_array()
        .ok_or("top-k without patterns")?
        .iter()
        .map(|p| {
            p["nm"]
                .as_f64()
                .ok_or_else(|| "pattern without nm".to_string())
        })
        .collect()
}

fn parse_nms(body: &str) -> Result<Vec<f64>, String> {
    let doc: serde_json::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let nms: Vec<f64> = doc["nms"]
        .as_array()
        .ok_or("score answer without nms")?
        .iter()
        .map(|v| v.as_f64().ok_or("non-numeric nm"))
        .collect::<Result<_, _>>()?;
    let patterns = doc["patterns"].as_array().map_or(0, Vec::len);
    if nms.len() != patterns || nms.iter().any(|v| !v.is_finite() || *v > 0.0) {
        return Err("score answer is malformed".into());
    }
    Ok(nms)
}

/// What one client saw. Its memory does not grow with the number of
/// requests, so `peak_rss_mb` is the program's, not the samples'.
struct Seen {
    /// Request latencies, one histogram per consecutive [`SLICES`]th of
    /// the time the client ran.
    latency: Vec<Histogram>,
    /// `(receive time, records per shard)` of each `/v1/shards` answer
    /// whose records differ from the client's previous one: only those
    /// can be the first to show a trip.
    polls: Vec<(Instant, Vec<u64>)>,
    /// `(shard, trip, due time)` of every appended `end` line.
    ends: Vec<(usize, usize, Instant)>,
    appended: Vec<usize>,
    tally: Tally,
}

impl Seen {
    fn new() -> Seen {
        Seen {
            latency: vec![Histogram::default(); SLICES],
            polls: Vec::new(),
            ends: Vec::new(),
            appended: vec![0; SHARDS.len()],
            tally: Tally::default(),
        }
    }

    fn requests(&self) -> u64 {
        self.latency.iter().map(Histogram::len).sum()
    }
}

/// Appends due chunks of the shard logs.
struct Trickle<'a> {
    items: &'a [Append],
    next: usize,
    start: Instant,
    files: Vec<std::fs::File>,
}

impl<'a> Trickle<'a> {
    fn new(items: &'a [Append], start: Instant, logs: &[PathBuf]) -> Result<Trickle<'a>, String> {
        let files = logs
            .iter()
            .map(|p| {
                OpenOptions::new()
                    .append(true)
                    .open(p)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Trickle {
            items,
            next: 0,
            start,
            files,
        })
    }

    fn pump(&mut self, seen: &mut Seen) -> Result<(), String> {
        let now = Instant::now();
        while let Some(a) = self.items.get(self.next) {
            let due = self.start + a.due;
            if due > now {
                break;
            }
            self.files[a.shard]
                .write_all(a.text.as_bytes())
                .map_err(|e| format!("append: {e}"))?;
            if let Some(trip) = a.ends {
                seen.ends.push((a.shard, trip, due));
                seen.appended[a.shard] += 1;
            }
            self.next += 1;
        }
        Ok(())
    }
}

/// One closed-loop client: requests slots `first, first+1, …` until
/// `end`, optionally appending the trickle between requests and
/// recording a span per request.
fn drive(
    addr: std::net::SocketAddr,
    inp: &Inputs,
    first: usize,
    end: Instant,
    mut trickle: Option<&mut Trickle<'_>>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Seen, String> {
    let mut client = Client::new(addr);
    let mut seen = Seen::new();
    let begin = Instant::now();
    let span_s = end.saturating_duration_since(begin).as_secs_f64();
    let k = fleet::params().k;
    let queries = &inp.queries;
    let mut slot = first;
    while Instant::now() < end {
        if let Some(t) = trickle.as_deref_mut() {
            t.pump(&mut seen)?;
        }
        let q = &queries[slot % queries.len()];
        let span = tracer
            .as_deref_mut()
            .and_then(|t| t.open(q.span(), None, slot as u64));
        let sent = Instant::now();
        let answer = client.request(q.method(), &q.path, &q.body);
        let got = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.close(span);
        }
        let part = (sent - begin).as_secs_f64() / span_s * SLICES as f64;
        seen.latency[(part as usize).min(SLICES - 1)].record(got - sent);
        match answer {
            Err(e) => seen.tally.lost(format!("{}: {e}", q.path)),
            Ok((status, _)) if !(200..300).contains(&status) => {
                seen.tally.lost(format!("{} answered {status}", q.path))
            }
            Ok((_, body)) => {
                let checked =
                    match q.kind {
                        Kind::Prange | Kind::Pnn => {
                            parse_matches(&body, q).and_then(|m| sound(inp, q, &m))
                        }
                        Kind::TopkShard => Snapshot::parse(&body)
                            .map_err(|e| e.to_string())
                            .and_then(|s| {
                                let nms: Vec<f64> = s.patterns.iter().map(|p| p.nm).collect();
                                check_topk(&nms, k)
                            }),
                        Kind::TopkAll => fanout_nms(&body).and_then(|nms| check_topk(&nms, k)),
                        Kind::Score => parse_nms(&body).map(drop),
                        Kind::Shards => fleet::parse_shards(&body).map(|v| {
                            let records: Vec<u64> = v.iter().map(|s| s.records).collect();
                            if seen.polls.last().map(|(_, r)| r) != Some(&records) {
                                seen.polls.push((got, records));
                            }
                        }),
                    };
                seen.tally
                    .check(checked.map_err(|e| format!("{}: {e}", q.path)));
            }
        }
        slot += 1;
    }
    Ok(seen)
}

/// Launches the fleet `SETUP_REPEATS` times (the last stays up): each
/// launch replays both preload logs until both windows are served.
fn setup(inp: &Inputs) -> Result<(Running, Vec<f64>), String> {
    let specs: Vec<ShardSpec> = SHARDS
        .iter()
        .zip(&inp.logs)
        .map(|(name, log)| ShardSpec {
            name: name.to_string(),
            source: ShardSource::Dr(log.clone()),
            checkpoint: None,
        })
        .collect();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for r in 0..SETUP_REPEATS {
        inp.write_logs()?;
        let start = Instant::now();
        let running = Running::launch(specs.clone(), fleet::config(WINDOW))?;
        let mut client = Client::new(running.addr);
        let served = fleet::wait_for(&mut client, Duration::from_millis(2), |v| {
            v.iter().all(|s| s.objects == WINDOW && s.records == WINDOW)
        })?;
        times.push((served - start).as_secs_f64());
        drop(client);
        if r + 1 == SETUP_REPEATS {
            return Ok((running, times));
        }
        running.stop()?;
    }
    unreachable!("SETUP_REPEATS is at least one")
}

/// Merges client observations: slice `i` of every client's latencies
/// pools into slice `i`.
fn merge(parts: Vec<Seen>, into: &mut Seen) {
    for p in parts {
        for (a, b) in into.latency.iter_mut().zip(&p.latency) {
            a.merge(b);
        }
        into.polls.extend(p.polls);
        into.ends.extend(p.ends);
        for (a, b) in into.appended.iter_mut().zip(p.appended) {
            *a += b;
        }
        into.tally.attempted += p.tally.attempted;
        into.tally.failed += p.tally.failed;
        into.tally.wrong += p.tally.wrong;
    }
}

/// Waits until every appended trip is absorbed; each one still missing
/// after the settle time is a failed op. Returns the final view.
fn settle(
    client: &mut Client,
    seen: &mut Seen,
    tally: &mut Tally,
) -> Result<Vec<ShardView>, String> {
    let want: Vec<u64> = seen.appended.iter().map(|a| WINDOW + *a as u64).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let view = fleet::shards(client)?;
        let now = Instant::now();
        seen.polls
            .push((now, view.iter().map(|s| s.records).collect()));
        let done = view.iter().zip(&want).all(|(s, w)| s.records >= *w);
        if done || now > deadline {
            for (s, w) in view.iter().zip(&want) {
                for trip in s.records..*w {
                    tally.lost(format!("shard {} trip {trip} never became visible", s.name));
                }
            }
            return Ok(view);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Freshness of every trickled trip: its `end` line's due time to the
/// first `/v1/shards` answer whose records cover it.
fn freshness(seen: &mut Seen) -> Vec<f64> {
    seen.polls.sort_by_key(|(t, _)| *t);
    let mut out = Vec::with_capacity(seen.ends.len());
    for &(shard, trip, due) in &seen.ends {
        let first = seen
            .polls
            .iter()
            .find(|(t, rec)| *t >= due && rec[shard] > trip as u64);
        if let Some((t, _)) = first {
            out.push(util::ms(*t - due));
        }
    }
    out
}

/// The final windows as local query sets: ids are stream positions.
fn windows(inp: &Inputs, view: &[ShardView]) -> Vec<QuerySet> {
    inp.trips
        .iter()
        .zip(view)
        .map(|(tr, v)| {
            let n = v.records as usize;
            let objects = (n - WINDOW as usize..n)
                .map(|id| (id as u64, tr.trajectories[id].clone()))
                .collect();
            QuerySet::build(objects, 0.0)
        })
        .collect()
}

fn brute(sets: &[QuerySet], q: &Query) -> Result<Matches, String> {
    let run = |set: &QuerySet| match q.kind {
        Kind::Pnn => set.pnn_bruteforce(q.p, q.t, PNN_K, PNN_TAU, DELTA),
        _ => set.prange_bruteforce(q.p, DELTA, q.t, PRANGE_TAU),
    };
    match q.shard {
        Some(s) => Ok(run(&sets[s])
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|m| (s, m.id, m.prob))
            .collect()),
        None => {
            let per: Vec<Vec<RangeMatch>> = sets
                .iter()
                .map(|set| run(set).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let inputs: Vec<ShardRanked<'_, RangeMatch>> = SHARDS
                .iter()
                .zip(&per)
                .map(|(name, entries)| ShardRanked {
                    shard: name,
                    entries,
                })
                .collect();
            let k = if q.kind == Kind::Pnn {
                PNN_K
            } else {
                usize::MAX
            };
            Ok(merge_range(&inputs, k)
                .into_iter()
                .map(|(name, m)| {
                    (
                        SHARDS.iter().position(|n| *n == name).unwrap_or(0),
                        m.id,
                        m.prob,
                    )
                })
                .collect())
        }
    }
}

fn same_matches(a: &Matches, b: &Matches) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// Soundness of a prange/pnn answer seen during the run: each match is
/// recomputed exactly from the trip it names and clears τ, and the
/// ranking is ordered. (Which objects a live window held at that moment
/// is unknown; completeness is checked at the end, on a quiet fleet.)
fn sound(inp: &Inputs, q: &Query, matches: &Matches) -> Result<(), String> {
    let (tau, cap) = match q.kind {
        Kind::Pnn => (PNN_TAU, PNN_K),
        _ => (PRANGE_TAU, usize::MAX),
    };
    let exact = |&(s, id, prob): &(usize, u64, f64)| {
        let Some(traj) = inp.trips[s].trajectories.get(id as usize) else {
            return false;
        };
        let at = snapshot_at(traj, q.t, 0.0).map(|at| at.prob_near(q.p, DELTA));
        prob >= tau && at.map(f64::to_bits) == Some(prob.to_bits())
    };
    if matches.len() <= cap
        && matches.windows(2).all(|w| w[0].2 >= w[1].2)
        && matches.iter().all(exact)
    {
        Ok(())
    } else {
        Err("answer is not sound".into())
    }
}

/// End-of-run gates on the quiescent fleet.
fn gates(
    inp: &Inputs,
    client: &mut Client,
    view: &[ShardView],
    tally: &mut Tally,
) -> Result<(), String> {
    tally.check(if view.iter().all(|s| s.objects == WINDOW) {
        Ok(())
    } else {
        Err(format!("windows are not full: {view:?}"))
    });
    let sets = windows(inp, view);

    // A fixed sample of prange/pnn answers equals brute force.
    let sample = inp
        .queries
        .iter()
        .filter(|q| matches!(q.kind, Kind::Prange | Kind::Pnn))
        .take(GATE_SAMPLE);
    for q in sample {
        tally.check(match client.request("POST", &q.path, &q.body) {
            Ok((200, body)) => parse_matches(&body, q).and_then(|got| {
                if same_matches(&got, &brute(&sets, q)?) {
                    Ok(())
                } else {
                    Err(format!("{} differs from brute force", q.path))
                }
            }),
            Ok((status, _)) => Err(format!("{} answered {status}", q.path)),
            Err(e) => Err(format!("{}: {e}", q.path)),
        });
    }

    // Bare /v1/topk equals merge_topk of the per-shard answers, and
    // /v1/score equals the library scorer over each shard's snapshot.
    let mut snaps = Vec::new();
    for name in SHARDS {
        let (status, body) = client
            .get(&format!("/v1/topk?shard={name}"))
            .map_err(|e| format!("/v1/topk?shard={name}: {e}"))?;
        if status != 200 {
            return Err(format!("/v1/topk?shard={name} answered {status}"));
        }
        snaps.push(Snapshot::parse(&body).map_err(|e| e.to_string())?);
    }
    let inputs: Vec<ShardTopk<'_>> = SHARDS
        .iter()
        .zip(&snaps)
        .map(|(name, s)| ShardTopk {
            shard: name,
            patterns: &s.patterns,
        })
        .collect();
    let k = snaps.iter().map(|s| s.params.k).max().unwrap_or(0);
    let merged = merge_topk(&inputs, k);
    tally.check(match client.get("/v1/topk") {
        Ok((200, body)) => {
            let doc: serde_json::Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
            let served = doc["patterns"].as_array().cloned().unwrap_or_default();
            let same = served.len() == merged.len()
                && served.iter().zip(&merged).all(|(v, m)| {
                    v["shard"].as_str() == Some(m.shard)
                        && v["nm"].as_f64().map(f64::to_bits) == Some(m.entry.nm.to_bits())
                        && serde_json::to_value(&m.entry.pattern).ok().as_ref()
                            == Some(&v["pattern"])
                });
            if same {
                Ok(())
            } else {
                Err("bare /v1/topk differs from merge_topk of the shard answers".into())
            }
        }
        Ok((status, _)) => Err(format!("/v1/topk answered {status}")),
        Err(e) => Err(format!("/v1/topk: {e}")),
    });
    for q in inp
        .queries
        .iter()
        .filter(|q| q.kind == Kind::Score)
        .take(SHARDS.len() * 2)
    {
        let snap = &snaps[q.shard.expect("score queries are shard-scoped")];
        let patterns: Vec<_> = snap.patterns.iter().map(|p| p.pattern.clone()).collect();
        let data = Dataset::from_json(std::str::from_utf8(&q.body).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let scorer = Scorer::new(&data, &snap.grid, snap.params.delta, snap.params.min_prob);
        let index = PatternIndex::build(&patterns, &snap.grid);
        let want = scorer.query(&patterns).with_index(&index).run();
        tally.check(match client.request("POST", &q.path, &q.body) {
            Ok((200, body)) => parse_nms(&body).and_then(|got| {
                if got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    Ok(())
                } else {
                    Err(format!("{} differs from the library scorer", q.path))
                }
            }),
            Ok((status, _)) => Err(format!("{} answered {status}", q.path)),
            Err(e) => Err(format!("{}: {e}", q.path)),
        });
    }
    Ok(())
}

/// Raw measurements of one pass.
struct Phase {
    setup_s: Vec<f64>,
    /// Pooled over clients, per consecutive [`SLICES`]th of the run.
    latency: Vec<Histogram>,
    freshness_ms: Vec<f64>,
}

/// Set-up, the closed-loop read phase with the trickle, and the gates.
fn phase(inp: &Inputs, seconds: f64, tally: &mut Tally) -> Result<Phase, String> {
    let (running, setup_s) = setup(inp)?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let addr = running.addr;
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut trickle = match c {
                        0 => Some(Trickle::new(&inp.trickle, start, &inp.logs)?),
                        _ => None,
                    };
                    drive(addr, inp, c * SLOTS / CLIENTS, end, trickle.as_mut(), None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut seen = Seen::new();
    merge(parts, &mut seen);
    tally.attempted += seen.tally.attempted;
    tally.failed += seen.tally.failed;
    tally.wrong += seen.tally.wrong;

    let mut client = Client::new(addr);
    let view = settle(&mut client, &mut seen, tally)?;
    let freshness_ms = freshness(&mut seen);
    gates(inp, &mut client, &view, tally)?;
    drop(client);
    running.stop()?;
    Ok(Phase {
        setup_s,
        latency: seen.latency,
        freshness_ms,
    })
}

pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let inp = Inputs::generate(seed, seconds, work)?;
    let ph = phase(&inp, seconds, tally)?;
    m.put("setup_s", util::median(&ph.setup_s).expect("set-ups"), "s");
    // Requests per second of each time slice; like the latency
    // percentiles, the median keeps a host stall in one slice out.
    let slice_s = seconds / SLICES as f64;
    let rates: Vec<f64> = ph
        .latency
        .iter()
        .map(|h| h.len() as f64 / slice_s)
        .collect();
    m.put(
        "throughput_per_s",
        util::median(&rates).ok_or("no requests")?,
        "1/s",
    );
    util::put_sliced_percentiles(m, "latency", &ph.latency)?;
    // One sample per trickled trip, too few to cut into slices, and
    // repairs come and go with the drift cycle, so slices would differ
    // by phase rather than by host noise: both percentiles are taken
    // over the whole run.
    let fresh = &ph.freshness_ms;
    m.put(
        "freshness_p50_ms",
        util::median(fresh).ok_or("no freshness samples")?,
        "ms",
    );
    m.put(
        "freshness_p99_ms",
        util::percentile(fresh, 0.99).ok_or("no freshness samples")?,
        "ms",
    );
    Ok(())
}

/// Server-side `(sum_us, count)` per route from `/metrics`.
fn route_sums(client: &mut Client, routes: &[&str]) -> Result<Vec<(f64, f64)>, String> {
    let (status, text) = client.get("/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let value = |metric: &str, route: &str| {
        let key = format!("trajserve_route_seconds_{metric}{{route=\"{route}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok(routes
        .iter()
        .map(|r| (value("sum_us", r), value("count", r)))
        .collect())
}

/// The traced phase: one client over the same mix, untraced then
/// traced, server-side route means from `/metrics`, and the query and
/// fan-out layers called directly on the final windows. Returns the
/// tracing overhead share.
pub fn trace(
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<f64, String> {
    const ROUTES: [&str; 4] = ["v1_prange", "v1_pnn", "v1_topk", "v1_score"];
    let inp = Inputs::generate(seed, seconds, work)?;
    let (running, _) = setup(&inp)?;
    let addr = running.addr;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let mut trickle = Trickle::new(&inp.trickle, start, &inp.logs)?;
    let mut seen = Seen::new();

    let plain = drive(addr, &inp, 0, start + half, Some(&mut trickle), None)?;
    let plain_rate = plain.requests() as f64 / half.as_secs_f64();
    // Fresh connections: the server drops one idle for its read timeout.
    let before = route_sums(&mut Client::new(addr), &ROUTES)?;
    let t0 = Instant::now();
    let traced_part = drive(addr, &inp, 0, t0 + half, Some(&mut trickle), Some(tracer))?;
    let traced_rate = traced_part.requests() as f64 / t0.elapsed().as_secs_f64();
    let mut metrics_client = Client::new(addr);
    let after = route_sums(&mut metrics_client, &ROUTES)?;
    merge(vec![plain, traced_part], &mut seen);
    tally.attempted += seen.tally.attempted;
    tally.failed += seen.tally.failed;
    tally.wrong += seen.tally.wrong;
    let view = settle(&mut metrics_client, &mut seen, tally)?;
    gates(&inp, &mut metrics_client, &view, tally)?;

    let (mut server_us, mut server_n, mut client_ms) = (0.0, 0.0, 0.0);
    for (route, (b, a)) in ROUTES.iter().zip(before.iter().zip(&after)) {
        let (sum, n) = (a.0 - b.0, a.1 - b.1);
        m.put(
            format!("trajserve.route_ms_mean.{route}"),
            sum / n.max(1.0) / 1e3,
            "ms",
        );
        server_us += sum;
        server_n += n;
        client_ms += tracer.total(&format!("http.{route}"));
    }
    let client_mean_ms = client_ms / server_n.max(1.0);
    m.put(
        "trajserve.transport_share",
        1.0 - server_us / 1e3 / server_n.max(1.0) / client_mean_ms,
        "ratio",
    );

    // The query layer called directly on shard a's final window.
    let sets = windows(&inp, &view);
    let objects: Vec<(u64, trajdata::Trajectory)> = sets[0].objects().to_vec();
    let mut build_ms = Vec::new();
    for i in 0..20 {
        let t = Instant::now();
        let set = tracer.time("trajquery.build", None, i, || {
            QuerySet::build(objects.clone(), 0.0)
        });
        build_ms.push(util::ms(t.elapsed()));
        std::hint::black_box(set);
    }
    let (mut prange_ms, mut pnn_ms, mut matches) = (Vec::new(), Vec::new(), Vec::new());
    for (i, q) in inp.queries.iter().enumerate() {
        let t = Instant::now();
        match q.kind {
            Kind::Prange => {
                let out = tracer.time("trajquery.prange", None, i as u64, || {
                    sets[0].prange(q.p, DELTA, q.t, PRANGE_TAU)
                });
                prange_ms.push(util::ms(t.elapsed()));
                matches.push(out.map_err(|e| e.to_string())?.len() as f64);
            }
            Kind::Pnn => {
                let out = tracer.time("trajquery.pnn", None, i as u64, || {
                    sets[0].pnn(q.p, q.t, PNN_K, PNN_TAU, DELTA)
                });
                pnn_ms.push(util::ms(t.elapsed()));
                std::hint::black_box(out.map_err(|e| e.to_string())?);
            }
            _ => {}
        }
    }
    m.put(
        "trajquery.build_ms_p50",
        util::median(&build_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajquery.prange_ms_p50",
        util::median(&prange_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajquery.pnn_ms_p50",
        util::median(&pnn_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajquery.matches_per_query",
        util::mean(&matches).unwrap_or(0.0),
        "count",
    );

    // The fan-out merge over both shards' final top-k.
    let snaps: Vec<Snapshot> = SHARDS
        .iter()
        .map(|name| {
            let (_, body) = metrics_client
                .get(&format!("/v1/topk?shard={name}"))
                .map_err(|e| e.to_string())?;
            Snapshot::parse(&body).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let inputs: Vec<ShardTopk<'_>> = SHARDS
        .iter()
        .zip(&snaps)
        .map(|(name, s)| ShardTopk {
            shard: name,
            patterns: &s.patterns,
        })
        .collect();
    const MERGES: u64 = 2000;
    let t = Instant::now();
    for i in 0..MERGES {
        let merged = tracer.time("trajserve.fanout_merge", None, i, || {
            merge_topk(&inputs, fleet::params().k)
        });
        std::hint::black_box(merged);
    }
    m.put(
        "trajserve.fanout_merge_us",
        t.elapsed().as_secs_f64() * 1e6 / MERGES as f64,
        "us",
    );
    drop(metrics_client);
    running.stop()?;
    Ok(plain_rate / traced_rate - 1.0)
}
