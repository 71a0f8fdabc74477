//! The `ingest` workload: one `Fleet` shard on `dr+tcp://` with its
//! checkpoint on disk. The shard resumes from a full-window checkpoint,
//! then absorbs a backlog written at once (catch-up) and trips offered
//! open-loop at a fixed rate below capacity (paced). Every top-k change
//! rewrites the checkpoint, so the largest stage of the live write path
//! is in the measurement.

use crate::fleet::{self, Running};
use crate::http::Client;
use crate::trace::Tracer;
use crate::trips::{self, Trips};
use crate::util::{self, put_percentiles, same_topk, Metrics, Tally};
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};
use trajfeed::{FeedBatch, FeedOptions, SourceSpec};
use trajfleet::{ShardSource, ShardSpec};
use trajpattern::Miner;
use trajquery::QuerySet;
use trajserve::{Loaded, Snapshot};
use trajstream::StreamMiner;

/// Sliding-window capacity, in trips.
pub const WINDOW: u64 = 64;
/// Trips written at once after the resume.
pub const BACKLOG: usize = 600;
/// Paced offer rate, trips per second (below catch-up capacity).
pub const PACED_RATE: f64 = 30.0;
/// Trips per cycle of the drifting route weights (2.5 windows).
const DRIFT_CYCLE: f64 = 160.0;
/// Share of `--seconds` the paced phase lasts.
const PACED_SHARE: f64 = 0.6;
/// Catch-up trips the traced phase replays through the public calls.
const REPLAY: usize = 160;
/// Launches measured per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Pause between `/v1/shards` polls outside catch-up.
const POLL_PAUSE: Duration = Duration::from_millis(1);
/// The shard's name.
const SHARD: &str = "live";
/// Longest the shard may go without absorbing a trip. A checkpoint's
/// fsync on a shared disk has been seen to block for over 20 s; such a
/// run is slow, not wrong, so it is waited out up to this limit.
const STALL: Duration = Duration::from_secs(50);

/// Everything the workload feeds the program, generated from the seed.
pub struct Inputs {
    pub trips: Trips,
    /// Checkpoint of a miner that absorbed the first `WINDOW` trips.
    pub checkpoint: Vec<u8>,
    /// Trips offered in the paced phase.
    pub paced: usize,
}

impl Inputs {
    pub fn generate(seed: u64, seconds: f64, work: &Path) -> Result<Inputs, String> {
        let paced = (PACED_RATE * seconds * PACED_SHARE).ceil() as usize;
        let w = WINDOW as usize;
        let trips = Trips::generate(w + BACKLOG + paced, 0, w, DRIFT_CYCLE, seed)?;
        let mut miner =
            StreamMiner::new(fleet::grid(), fleet::params()).map_err(|e| e.to_string())?;
        for t in &trips.trajectories[..w] {
            miner.slide(t.clone(), WINDOW);
        }
        let path = work.join("prefix.ckpt");
        miner
            .checkpoint(&path)
            .map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint = std::fs::read(&path).map_err(|e| format!("read checkpoint: {e}"))?;
        Ok(Inputs {
            trips,
            checkpoint,
            paced,
        })
    }

    fn total(&self) -> usize {
        WINDOW as usize + BACKLOG + self.paced
    }
}

enum Cmd {
    /// Write this text at once.
    Write(String),
    /// Write each `(due offset, line, is an end line)` at its due time.
    Paced(Instant, Vec<(Duration, String, bool)>),
    Close,
}

/// The producer side of `dr+tcp://`: accepts the shard's connection,
/// sends the stream head and the already-absorbed prefix (which the
/// resumed shard skips), then follows commands. Returns how late each
/// paced `end` line was written, in ms.
fn producer(listener: TcpListener, first: String, rx: Receiver<Cmd>) -> Result<Vec<f64>, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + fleet::SETTLE;
    let mut conn = loop {
        match listener.accept() {
            Ok((conn, _)) => break conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("producer accept: {e}")),
        }
    };
    conn.set_nonblocking(false).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| format!("producer write: {e}");
    conn.write_all(first.as_bytes()).map_err(io)?;
    let mut lateness = Vec::new();
    for cmd in rx {
        match cmd {
            Cmd::Write(text) => conn.write_all(text.as_bytes()).map_err(io)?,
            Cmd::Paced(start, items) => {
                for (due, line, is_end) in items {
                    let at = start + due;
                    util::sleep_until(at);
                    conn.write_all(line.as_bytes()).map_err(io)?;
                    if is_end {
                        lateness.push(util::ms(Instant::now().saturating_duration_since(at)));
                    }
                }
            }
            Cmd::Close => break,
        }
    }
    Ok(lateness)
}

/// Raw measurements of one pass through the workload.
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub catchup_s: f64,
    pub catchup_swaps: u64,
    /// Per-trip service time in catch-up: the gap between the first
    /// polls showing consecutive record counts.
    pub service_ms: Vec<f64>,
    pub freshness_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
}

fn spec(addr: std::net::SocketAddr, checkpoint: &Path) -> ShardSpec {
    ShardSpec {
        name: SHARD.into(),
        source: ShardSource::DrTcp(addr.to_string()),
        checkpoint: Some(checkpoint.to_path_buf()),
    }
}

fn only(view: &[fleet::ShardView]) -> &fleet::ShardView {
    &view[0]
}

/// Set-up, catch-up, paced phase and the end-of-run gates.
pub fn phase(inp: &Inputs, work: &Path, tally: &mut Tally) -> Result<Phase, String> {
    let w = WINDOW as usize;
    let total = inp.total();
    let trips = &inp.trips;
    let ckpt = work.join(format!("{SHARD}.ckpt"));
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));

    let listener = bind()?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    let first = trips.stream_through(w);
    let producer = std::thread::Builder::new()
        .name("perfbench-producer".into())
        .spawn(move || producer(listener, first, rx))
        .map_err(|e| e.to_string())?;

    // Set-up: launch with checkpoint resume until the window is served.
    // Earlier launches dial a listener nobody accepts on; only the last
    // one is fed.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for r in 0..SETUP_REPEATS {
        std::fs::write(&ckpt, &inp.checkpoint).map_err(|e| format!("write checkpoint: {e}"))?;
        let last = r + 1 == SETUP_REPEATS;
        let idle = if last { None } else { Some(bind()?) };
        let dial = match &idle {
            Some(l) => l.local_addr().map_err(|e| e.to_string())?,
            None => addr,
        };
        let start = Instant::now();
        let running = Running::launch(vec![spec(dial, &ckpt)], fleet::config(WINDOW))?;
        let mut client = Client::new(running.addr);
        let served = fleet::wait_for(&mut client, POLL_PAUSE, |v| only(v).objects == WINDOW)?;
        setup_s.push((served - start).as_secs_f64());
        if last {
            live = Some((running, client));
        } else {
            // A kept-alive connection would hold a server worker until
            // its read timeout; close it first.
            drop(client);
            running.stop()?;
        }
    }
    let (running, mut client) = live.expect("the last launch is kept");

    // The resumed shard skips the prefix it already absorbed.
    fleet::wait_for(&mut client, POLL_PAUSE, |v| only(v).records >= w as u64)?;

    // Catch-up: the backlog written at once, polled back to back.
    let swaps0 = only(&fleet::shards(&mut client)?).swaps;
    let backlog = trips.text(trips.line_end(w), trips.line_end(w + BACKLOG));
    let start = Instant::now();
    tx.send(Cmd::Write(backlog))
        .map_err(|_| "producer exited")?;
    let mut service_ms = Vec::with_capacity(BACKLOG);
    let (mut seen, mut last) = (w as u64, start);
    let done = fleet::wait_for(&mut client, Duration::ZERO, |v| {
        let now = Instant::now();
        let records = only(v).records;
        if records > seen {
            let gap = util::ms(now - last) / (records - seen) as f64;
            service_ms.extend(std::iter::repeat_n(gap, (records - seen) as usize));
            (seen, last) = (records, now);
        }
        records >= (w + BACKLOG) as u64 || now - last > STALL
    })?;
    if seen < (w + BACKLOG) as u64 {
        // Surface why the shard stopped: its feed counters, the fleet's
        // own error and the producer's.
        let feed = client
            .get("/v1/shards")
            .map(|(_, body)| body.split_whitespace().collect::<Vec<_>>().join(" "))
            .unwrap_or_default();
        drop(client);
        drop(tx);
        let fleet = running
            .stop()
            .err()
            .unwrap_or_else(|| "no fleet error".into());
        let producer = match producer.join() {
            Ok(Ok(_)) => "producer ok".to_string(),
            Ok(Err(e)) => e,
            Err(_) => "producer panicked".to_string(),
        };
        return Err(format!(
            "shard stopped absorbing at record {seen} of {} ({fleet}; {producer}); /v1/shards: {feed}",
            w + BACKLOG
        ));
    }
    let catchup_s = (done - start).as_secs_f64();
    let catchup_swaps = only(&fleet::shards(&mut client)?).swaps - swaps0;
    for _ in 0..BACKLOG {
        tally.ok();
    }

    // Paced: trips offered open-loop, one time unit = 1/PACED_RATE s.
    let base = trips.lines[trips.ends[w + BACKLOG - 1]].0;
    let due = |t: f64| Duration::from_secs_f64((t - base) / PACED_RATE);
    let first_line = trips.line_end(w + BACKLOG);
    let items: Vec<(Duration, String, bool)> = (first_line..trips.line_end(total))
        .map(|i| {
            let (t, line) = &trips.lines[i];
            (due(*t), line.clone(), line.starts_with("end "))
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = start + due(trips.lines[trips.ends[total - 1]].0);
    tx.send(Cmd::Paced(start, items))
        .map_err(|_| "producer exited")?;
    let mut polls: Vec<(Instant, u64)> = Vec::new();
    loop {
        match fleet::shards(&mut client) {
            Ok(view) => {
                polls.push((Instant::now(), only(&view).records));
                tally.ok();
            }
            Err(e) => tally.lost(e),
        }
        let now = Instant::now();
        let all_in = polls.last().is_some_and(|(_, r)| *r >= total as u64);
        if (all_in && now >= last_due) || now > last_due + STALL {
            break;
        }
        std::thread::sleep(POLL_PAUSE);
    }

    // Freshness: due time of each paced trip's end line to the first
    // poll that shows the shard absorbed it.
    let mut freshness_ms = Vec::with_capacity(inp.paced);
    let mut p = 0usize;
    for trip in w + BACKLOG..total {
        let due_at = start + due(trips.lines[trips.ends[trip]].0);
        while p < polls.len() && polls[p].1 < (trip + 1) as u64 {
            p += 1;
        }
        match polls.get(p) {
            Some((seen, _)) => {
                freshness_ms.push(util::ms(seen.saturating_duration_since(due_at)));
                tally.ok();
            }
            None => tally.lost(format!("trip {trip} never became visible")),
        }
    }

    // Gates: every trip counted, and stream == batch on the final window.
    let view = fleet::shards(&mut client)?;
    tally.check(
        if only(&view).records == total as u64 && only(&view).objects == WINDOW {
            Ok(())
        } else {
            Err(format!(
                "shard shows {:?} after {total} trips sent",
                only(&view)
            ))
        },
    );
    let window: trajdata::Dataset = trips.trajectories[total - w..total]
        .iter()
        .cloned()
        .collect();
    let expected = Miner::new(&window, &fleet::grid())
        .params(fleet::params())
        .mine()
        .map_err(|e| format!("batch mine: {e}"))?;
    tally.check(match client.get(&format!("/v1/topk?shard={SHARD}")) {
        Ok((200, body)) => match Snapshot::parse(&body) {
            Ok(snap) if same_topk(&snap.patterns, &expected.patterns) => Ok(()),
            Ok(_) => Err("served top-k differs from Miner::mine over the final window".into()),
            Err(e) => Err(format!("/v1/topk does not parse: {e}")),
        },
        Ok((status, _)) => Err(format!("/v1/topk answered {status}")),
        Err(e) => Err(format!("/v1/topk: {e}")),
    });

    drop(client);
    running.stop()?;
    tx.send(Cmd::Close).map_err(|_| "producer exited")?;
    let lateness_ms = producer
        .join()
        .map_err(|_| "producer panicked".to_string())??;
    Ok(Phase {
        setup_s,
        catchup_s,
        catchup_swaps,
        service_ms,
        freshness_ms,
        lateness_ms,
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
    let ph = phase(&inp, work, tally)?;
    m.put("setup_s", util::median(&ph.setup_s).expect("set-ups"), "s");
    m.put("throughput_per_s", BACKLOG as f64 / ph.catchup_s, "1/s");
    put_percentiles(m, "latency", &[&ph.service_ms])?;
    put_percentiles(m, "freshness", &[&ph.freshness_ms])?;
    Ok(())
}

/// Per-trip stage spans of one replay.
struct Replay {
    ms_per_trip: f64,
    slide_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    repairs: u64,
    repair_scored: u64,
    checkpoints: u64,
    resume_ms: f64,
    resampled_per_trip: f64,
}

const STAGES: [(&str, &str); 5] = [
    ("trajfeed.next_batch", "next_batch"),
    ("trajstream.slide", "slide"),
    ("trajquery.build", "query_build"),
    ("trajserve.snapshot_build", "snapshot_build"),
    ("trajstream.checkpoint", "checkpoint"),
];

/// Replays the first `REPLAY` catch-up trips through the same public
/// calls, in the same order, as the fleet's private ingest loop:
/// `Feed::next_batch`,
/// `StreamMiner::slide`, window clone plus `QuerySet::build`, and on a
/// top-k change `Snapshot::from_stream` plus `Loaded::build` and
/// `StreamMiner::checkpoint`.
fn replay(inp: &Inputs, work: &Path, tracer: &mut Tracer) -> Result<Replay, String> {
    let w = WINDOW as usize;
    let log = work.join("replay.drlog");
    std::fs::write(&log, inp.trips.stream_through(w + REPLAY)).map_err(|e| e.to_string())?;
    let ckpt = work.join("replay.ckpt");
    std::fs::write(&ckpt, &inp.checkpoint).map_err(|e| e.to_string())?;

    let start = Instant::now();
    let mut miner = tracer
        .time("trajstream.resume", None, 0, || StreamMiner::resume(&ckpt))
        .map_err(|e| format!("resume: {e}"))?;
    let resume_ms = util::ms(start.elapsed());
    let opts = FeedOptions {
        poll: fleet::POLL,
        dr: trips::dr_config(),
        ..FeedOptions::default()
    };
    let mut feed = trajfeed::open(&SourceSpec::Dr(log), &opts).map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let next = |feed: &mut Box<dyn trajfeed::Feed>| match feed.next_batch(&stop) {
        Ok(FeedBatch::Records(mut r)) if r.len() == 1 => r.pop().ok_or_else(String::new),
        Ok(other) => Err(format!("replay feed gave {other:?}")),
        Err(e) => Err(e.to_string()),
    };
    for _ in 0..w {
        next(&mut feed)?;
    }
    let stats0 = miner.stats().clone();
    let resampled0 = feed.stats().resampled_points;
    let mut version = miner.topk_version();
    let (mut slide_ms, mut repair_ms, mut checkpoints) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    for trip in 0..REPLAY as u64 {
        let span = tracer.open("trip", None, trip);
        let traj = tracer.time(STAGES[0].0, span, trip, || next(&mut feed))?;
        let repairs = miner.stats().repairs;
        let t = Instant::now();
        tracer.time(STAGES[1].0, span, trip, || miner.slide(traj, WINDOW));
        let took = util::ms(t.elapsed());
        slide_ms.push(took);
        if miner.stats().repairs > repairs {
            repair_ms.push(took);
        }
        let set = tracer.time(STAGES[2].0, span, trip, || {
            let objects = miner.window().map(|(s, t)| (s, t.clone())).collect();
            QuerySet::build(objects, 0.0)
        });
        std::hint::black_box(set);
        if miner.topk_version() != version {
            version = miner.topk_version();
            let loaded = tracer.time(STAGES[3].0, span, trip, || {
                Loaded::build(Snapshot::from_stream(&miner), 0.9)
            });
            std::hint::black_box(loaded.map_err(|e| e.to_string())?);
            tracer
                .time(STAGES[4].0, span, trip, || miner.checkpoint(&ckpt))
                .map_err(|e| format!("checkpoint: {e}"))?;
            checkpoints += 1;
        }
        tracer.close(span);
    }
    let ms_per_trip = util::ms(start.elapsed()) / REPLAY as f64;
    let stats = miner.stats();
    Ok(Replay {
        ms_per_trip,
        slide_ms,
        repair_ms,
        repairs: stats.repairs - stats0.repairs,
        repair_scored: stats.repair_scored - stats0.repair_scored,
        checkpoints,
        resume_ms,
        resampled_per_trip: (feed.stats().resampled_points - resampled0) as f64 / REPLAY as f64,
    })
}

/// The traced phase: the untraced fleet pass (for per-trip wall time,
/// swaps and generator lateness), then the replay without and with
/// spans. Returns the tracing overhead share.
pub fn trace(
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<f64, String> {
    let inp = Inputs::generate(seed, seconds, work)?;
    let ph = phase(&inp, work, tally)?;
    let fleet_ms_per_trip = ph.catchup_s * 1e3 / BACKLOG as f64;
    let plain = replay(&inp, work, &mut Tracer::new(false))?;
    let traced = replay(&inp, work, tracer)?;

    // Side measurements on the final state, outside the trip spans.
    let ckpt = work.join("replay.ckpt");
    let bytes = std::fs::read(&ckpt).map_err(|e| e.to_string())?;
    let copy = work.join("replay-copy.ckpt");
    let mut write_ms = Vec::new();
    for i in 0..20 {
        let t = Instant::now();
        tracer
            .time("trajio.write_atomic", None, i, || {
                trajio::durable::write_atomic_bytes(&copy, &bytes)
            })
            .map_err(|e| e.to_string())?;
        write_ms.push(util::ms(t.elapsed()));
    }
    let miner = StreamMiner::resume(&ckpt).map_err(|e| e.to_string())?;
    let window = miner.window_dataset();
    let grid = fleet::grid();
    let mut remine_ms = Vec::new();
    for i in 0..10 {
        let t = Instant::now();
        let out = tracer.time("trajstream.remine", None, i, || {
            Miner::new(&window, &grid).params(fleet::params()).mine()
        });
        remine_ms.push(util::ms(t.elapsed()));
        tally.check(match out {
            Ok(o) if same_topk(&o.patterns, miner.topk()) => Ok(()),
            Ok(_) => Err("replayed stream top-k differs from batch re-mine".into()),
            Err(e) => Err(format!("re-mine: {e}")),
        });
    }

    let trips = REPLAY as f64;
    m.put(
        "trajfeed.next_batch_us_per_trip",
        tracer.total(STAGES[0].0) * 1e3 / trips,
        "us",
    );
    m.put(
        "trajfeed.resampled_points_per_trip",
        traced.resampled_per_trip,
        "count",
    );
    m.put(
        "trajstream.slide_ms_p50",
        util::median(&traced.slide_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajstream.repair_ms_p50",
        util::median(&traced.repair_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajstream.repair_rate",
        traced.repairs as f64 / trips,
        "ratio",
    );
    m.put(
        "trajstream.repair_scored_per_repair",
        traced.repair_scored as f64 / traced.repairs.max(1) as f64,
        "count",
    );
    m.put(
        "trajstream.remine_ms_p50",
        util::median(&remine_ms).unwrap_or(0.0),
        "ms",
    );
    let ckpt_ms = tracer.durations(STAGES[4].0);
    m.put(
        "trajstream.checkpoint_ms_p50",
        util::median(&ckpt_ms).unwrap_or(0.0),
        "ms",
    );
    m.put("trajstream.checkpoint_bytes", bytes.len() as f64, "bytes");
    m.put(
        "trajstream.checkpoints_per_trip",
        traced.checkpoints as f64 / trips,
        "ratio",
    );
    m.put(
        "trajio.write_atomic_ms_p50",
        util::median(&write_ms).unwrap_or(0.0),
        "ms",
    );
    m.put("trajstream.resume_ms", traced.resume_ms, "ms");
    let snap_ms = tracer.durations(STAGES[3].0);
    m.put(
        "trajserve.snapshot_build_ms_p50",
        util::median(&snap_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "trajserve.swaps_per_trip",
        ph.catchup_swaps as f64 / BACKLOG as f64,
        "ratio",
    );
    let mut covered = 0.0;
    for (name, short) in STAGES {
        let share = tracer.self_total(name) / trips / fleet_ms_per_trip;
        covered += share;
        m.put(format!("trajfleet.stage_share.{short}"), share, "ratio");
    }
    m.put("trajfleet.unattributed_share", 1.0 - covered, "ratio");
    m.put(
        "gen.lateness_ms_p99",
        util::percentile(&ph.lateness_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    Ok(traced.ms_per_trip / plain.ms_per_trip - 1.0)
}
