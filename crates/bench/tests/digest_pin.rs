//! Cross-build bit identity: the digest of a small pool is pinned.
//!
//! `bench::digest` hashes every mined pattern, NM bit, counter, match
//! score, per-trajectory contribution, wildcard NM and stream top-k of a
//! pool. The lines below were computed before the scoring kernel's batch
//! plan landed, and it left them unchanged. As with the golden files, a
//! digest that moves without a stated reason is a bug.

use bench::digest::{digest, pool};

/// The digest line of `pool(1, 2)` at `threads`, bit for bit the same at
/// every thread count.
fn pinned(threads: usize) -> String {
    format!(
        "seed 1 threads {threads} digest 849ace857991c43f candidates_scored 6581 \
         nm_evaluations 6981 cached_cells 340"
    )
}

#[test]
fn small_seed_1_pool_digest_is_pinned_at_one_thread() {
    assert_eq!(digest(1, &pool(1, 2), 1), pinned(1));
}

#[test]
fn small_seed_1_pool_digest_is_pinned_at_two_threads() {
    assert_eq!(digest(1, &pool(1, 2), 2), pinned(2));
}
