//! Feed-spine equivalence: the same logical records delivered through
//! every `trajfeed::Feed` implementation — in-memory static, `.events`
//! file replay, TCP socket, trajdb cursor — drive a `StreamMiner` to
//! bit-identical windows and certified top-k. Plus the socket failure
//! modes: a producer dying mid-line (torn frame, discarded and counted)
//! and a restarted producer replaying the remainder over a second
//! connection.

use proptest::prelude::*;
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use trajdata::eventlog::parse_event_log;
use trajdata::{Dataset, Trajectory};
use trajfeed::{FeedOptions, SourceSpec, StaticFeed};
use trajgeo::{BBox, Grid};
use trajpattern::MiningParams;
use trajstream::StreamMiner;

const WINDOW: u64 = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajfleet-feedeq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn workload(seed: u64, traces: usize, snapshots: usize) -> (Dataset, String) {
    let cfg = datagen::UniformConfig {
        num_objects: traces,
        snapshots,
        ..datagen::UniformConfig::default()
    };
    let data = datagen::observe_directly(&cfg.paths(seed), 0.02, seed ^ 0xfeed);
    let text = datagen::event_log(&data);
    (data, text)
}

/// Slides every trajectory through a fresh miner and fingerprints the
/// result: (window dataset JSON, certified top-k JSON). Bit-identical
/// fingerprints mean bit-identical mining state.
fn fingerprint(trajs: &[Trajectory], k: usize, delta: f64) -> (String, String) {
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(k, delta)
        .unwrap()
        .with_max_len(3)
        .unwrap();
    let mut miner = StreamMiner::new(grid, params).unwrap();
    for t in trajs {
        miner.slide(t.clone(), WINDOW);
    }
    (
        miner.window_dataset().to_json(),
        serde_json::to_string(&miner.topk()).unwrap(),
    )
}

fn drain_spec(spec: &SourceSpec, opts: &FeedOptions) -> Vec<Trajectory> {
    let mut feed = trajfeed::open(spec, opts).unwrap();
    trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).unwrap()
}

/// Serves `payloads` on a fresh loopback listener, one payload per
/// accepted connection, then exits. Returns the address to dial.
fn serve_payloads(payloads: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        for payload in payloads {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(payload.as_bytes()).unwrap();
            // Drop closes the connection; the consumer decides whether
            // that was clean (`# eof` seen) or a transport failure.
        }
    });
    (addr, handle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One workload, four transports, one mining fingerprint.
    #[test]
    fn every_feed_impl_mines_bit_identically(
        seed in 0u64..1000,
        traces in 4usize..10,
        snapshots in 5usize..10,
        k in 2usize..4,
        delta in 0.05f64..0.15,
    ) {
        let (data, text) = workload(seed, traces, snapshots);
        let dir = temp_dir("prop");

        // Static in-memory feed over the parsed event-log text.
        let parsed: Dataset = parse_event_log(&text).unwrap().into_iter().collect();
        let mut st = StaticFeed::from_dataset(parsed);
        let from_static = trajfeed::drain(&mut st, &AtomicBool::new(false)).unwrap();

        // File replay.
        let path = dir.join(format!("w-{seed}-{traces}-{snapshots}.events"));
        std::fs::write(&path, &text).unwrap();
        let from_file = drain_spec(&SourceSpec::Events(path.clone()), &FeedOptions::default());

        // Live socket: the same bytes plus the protocol terminator.
        let (addr, sender) = serve_payloads(vec![format!("{text}# eof\n")]);
        let from_socket = drain_spec(&SourceSpec::EventsTcp(addr), &FeedOptions::default());
        sender.join().unwrap();

        // trajdb cursor over the same records in the same order.
        let db_dir = dir.join(format!("db-{seed}-{traces}-{snapshots}"));
        {
            let mut store =
                trajdb::Store::open(&db_dir, trajdb::StoreOptions::default()).unwrap();
            store.append_batch(0, data.trajectories()).unwrap();
            store.sync().unwrap();
        }
        let from_db = drain_spec(&SourceSpec::Db(db_dir.clone()), &FeedOptions::default());

        let reference = fingerprint(data.trajectories(), k, delta);
        prop_assert_eq!(&fingerprint(&from_static, k, delta), &reference);
        prop_assert_eq!(&fingerprint(&from_file, k, delta), &reference);
        prop_assert_eq!(&fingerprint(&from_socket, k, delta), &reference);
        prop_assert_eq!(&fingerprint(&from_db, k, delta), &reference);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&db_dir).ok();
    }
}

/// A producer that dies mid-line loses only the torn frame: the feed
/// discards the partial bytes, counts a torn recovery, and the restarted
/// producer's replay of the remainder lands every record exactly once.
#[test]
fn socket_reconnect_with_torn_frame_recovers_every_record() {
    let (data, text) = workload(42, 6, 8);
    let lines: Vec<&str> = text.lines().collect();
    let (version, records) = (lines[0], &lines[1..]);
    let mid = records.len() / 2;

    // Connection 1: version, first half, then half the bytes of the
    // next record — no newline, the classic torn frame.
    let torn = &records[mid][..records[mid].len() / 2];
    let first = format!("{version}\n{}\n{torn}", records[..mid].join("\n"));
    // Connection 2: the restarted producer replays from its own
    // beginning — version line, the not-yet-delivered records (including
    // the one whose frame tore), and a clean terminator.
    let second = format!("{version}\n{}\n# eof\n", records[mid..].join("\n"));

    let (addr, sender) = serve_payloads(vec![first, second]);
    let mut feed = trajfeed::open(&SourceSpec::EventsTcp(addr), &FeedOptions::default()).unwrap();
    let got = trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).unwrap();
    sender.join().unwrap();

    assert_eq!(got.len(), data.len(), "every record exactly once");
    let (ref_window, ref_topk) = fingerprint(data.trajectories(), 3, 0.1);
    let (got_window, got_topk) = fingerprint(&got, 3, 0.1);
    assert_eq!(got_window, ref_window);
    assert_eq!(got_topk, ref_topk);

    let stats = feed.stats();
    assert_eq!(stats.records, data.len() as u64);
    assert_eq!(stats.reconnects, 1, "one transport failure");
    assert_eq!(
        stats.recovery_torn, 1,
        "the partial line was diagnosed torn"
    );
    assert_eq!(stats.recovery_clean, 0);
}

/// A producer that closes cleanly between records (no partial bytes in
/// flight) is a clean recovery, and the stream still completes.
#[test]
fn socket_reconnect_on_a_frame_boundary_is_a_clean_recovery() {
    let (data, text) = workload(7, 5, 6);
    let lines: Vec<&str> = text.lines().collect();
    let (version, records) = (lines[0], &lines[1..]);
    let mid = records.len() / 2;

    let first = format!("{version}\n{}\n", records[..mid].join("\n"));
    let second = format!("{version}\n{}\n# eof\n", records[mid..].join("\n"));

    let (addr, sender) = serve_payloads(vec![first, second]);
    let mut feed = trajfeed::open(&SourceSpec::EventsTcp(addr), &FeedOptions::default()).unwrap();
    let got = trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).unwrap();
    sender.join().unwrap();

    assert_eq!(got.len(), data.len());
    let stats = feed.stats();
    assert_eq!(stats.reconnects, 1);
    assert_eq!(stats.recovery_clean, 1);
    assert_eq!(stats.recovery_torn, 0);
}

/// The dead-reckoning transports agree too: the same DR log over a file
/// and over a socket reconstruct bit-identical trajectories.
#[test]
fn dr_log_over_file_and_socket_reconstruct_identically() {
    let log = datagen::dr_log(&datagen::DrFeedConfig::default(), 9);
    let dir = temp_dir("dr");
    let path = dir.join("fleet.drlog");
    std::fs::write(&path, &log).unwrap();

    let from_file = drain_spec(&SourceSpec::Dr(path.clone()), &FeedOptions::default());
    let (addr, sender) = serve_payloads(vec![log]);
    let from_socket = drain_spec(&SourceSpec::DrTcp(addr), &FeedOptions::default());
    sender.join().unwrap();

    assert!(!from_file.is_empty());
    assert_eq!(
        fingerprint(&from_file, 2, 0.1),
        fingerprint(&from_socket, 2, 0.1),
    );
    std::fs::remove_file(&path).ok();
}
