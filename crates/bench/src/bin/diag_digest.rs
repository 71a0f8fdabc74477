//! Diagnostic: one digest of everything the scorer decides, for
//! comparing two builds bit for bit (see [`bench::digest`] for what it
//! hashes).
//!
//! It prints one line per (seed, threads) for a pool of 8 sets per herd
//! shape, at threads 1 and 2. To compare two commits, build each into its
//! own target dir and diff the output:
//!
//! ```text
//! CARGO_TARGET_DIR=/tmp/a cargo run --release -q --bin diag_digest -- 1 2 3
//! ```
//!
//! Arguments are seeds (default `1 2 3`).

use bench::digest::{digest, pool};

/// Sets per herd shape.
const PER_SHAPE: usize = 8;

fn main() {
    let seeds: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seeds are integers"))
        .collect();
    let seeds = if seeds.is_empty() {
        vec![1, 2, 3]
    } else {
        seeds
    };
    for seed in seeds {
        let sets = pool(seed, PER_SHAPE);
        for threads in [1, 2] {
            println!("{}", digest(seed, &sets, threads));
        }
    }
}
