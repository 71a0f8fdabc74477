//! Seeded re-growth: exact top-k mining that starts from a set of
//! *already-scored* patterns instead of from scratch.
//!
//! This is the repair/certification primitive behind the `trajstream`
//! sliding-window miner. The streaming layer maintains a per-pattern
//! contribution ledger whose folded sums are exact NM values for the
//! current window; [`mine_seeded`] rebuilds a growth state from those
//! values (via [`crate::engine::init_state`], the same level-0 code the
//! batch miner runs) and re-runs the shared growing process with an
//! *empty* pair memo:
//!
//! - every candidate pair is re-enumerated against the current thresholds,
//!   so no pruning decision from a previous window is trusted;
//! - a candidate that already has a ledger score is a hash-map hit (no
//!   data touched);
//! - a candidate that passes the weighted-mean bound but has *no* ledger
//!   score is evidence that the maintained set can no longer certify the
//!   top-k — it is scored against the data on the spot. The number of such
//!   scorings is returned as [`SeededOutcome::newly_scored`]; zero means
//!   the event was absorbed as a pure delta update.
//!
//! # Exactness
//!
//! The batch algorithm's exactness argument carries over verbatim:
//!
//! - the seed ω (k-th best qualifying NM over the seed set) is a valid
//!   lower bound of the final ω, because seed patterns are a subset of all
//!   patterns and their NMs are exact — so bound-pruning against it never
//!   loses a final top-k pattern, and τ is monotone in ω;
//! - `nm_best` is the maximum singular NM, which by the min-max property
//!   is the global maximum — the seed must contain *every* singular;
//! - all singulars start in `Q` and everything starts *fresh*, so level 1
//!   enumerates a superset of the batch level-1 pairs and the Lemma-1
//!   reachability induction applies unchanged.
//!
//! Both batch and seeded growth therefore score every pattern whose NM
//! reaches the final ω, and [`finish`](crate::engine) selects the top-k
//! by `(NM desc, pattern content)` — so the two produce *bit-identical*
//! pattern lists even though their candidate stores differ. The one
//! alignment rule: seed patterns longer than the effective maximum length
//! (`min(max_len, longest trajectory)`) are dropped before growth, because
//! the batch miner never generates them (they only ever score the floor
//! and could otherwise steal tie-broken top-k slots).
//!
//! Batch and seeded growth are not merely *provably* aligned — they are
//! the same code: one `init_state`, one `grow_level`, one `finish`. The
//! seeded entry differs only in passing a non-empty seed.

use crate::engine::{empty_outcome, finish, init_state, run_growth, tau};
use crate::groups::discover_groups;
use crate::minmax::weighted_mean_bound;
use crate::params::MiningParams;
use crate::pattern::{MinedPattern, Pattern};
use crate::scorer::Scorer;
use crate::topk::select_top_k;
use crate::MiningOutcome;
use trajgeo::fxhash::FxHashSet;
use trajgeo::{CellId, Grid};

pub use crate::engine::SeedError;

/// The result of a seeded re-growth run.
#[derive(Debug, Clone)]
pub struct SeededOutcome {
    /// The top-k answer over the current data — bit-identical to what
    /// [`crate::Miner::mine`] produces on the same dataset and grid.
    pub outcome: MiningOutcome,
    /// Every pattern the run holds an exact NM for (the final candidate
    /// store, in id order): the seeds that survived the length filter plus
    /// everything newly scored. This is what a streaming caller feeds back
    /// as the next seed.
    pub store: Vec<MinedPattern>,
    /// The surviving active set `Q` (ascending store id order): high
    /// patterns plus 1-extension building blocks. Always a superset of the
    /// top-k patterns.
    pub survivors: Vec<MinedPattern>,
    /// Growth levels executed by this call (repair depth).
    pub levels: usize,
    /// Patterns scored against the data by this call. `0` means the seed
    /// certified the top-k by itself — a pure delta update.
    pub newly_scored: u64,
}

/// Mines the top-k patterns over `scorer`'s data, seeded with patterns
/// whose NMs are already exact for that data.
///
/// `seed` must contain one entry per grid cell (every singular pattern)
/// and may contain any number of longer patterns; each NM must be exactly
/// what [`Scorer::score_batch`] would produce for that pattern on this
/// data — the caller (normally the `trajstream` ledger) is responsible for
/// that invariant, and exactness of the result depends on it. An empty
/// seed falls back to a full from-scratch mine.
///
/// The returned [`SeededOutcome::outcome`] is bit-identical to a batch
/// mine; see the module docs for the argument.
pub fn mine_seeded(
    scorer: &Scorer<'_>,
    params: &MiningParams,
    seed: &[MinedPattern],
) -> Result<SeededOutcome, SeedError> {
    params.validate()?;
    if scorer.data().is_empty() || scorer.grid().num_cells() == 0 {
        return Ok(SeededOutcome {
            outcome: empty_outcome(),
            store: Vec::new(),
            survivors: Vec::new(),
            levels: 0,
            newly_scored: 0,
        });
    }

    let evals_before = scorer.evaluations();
    let mut state = init_state(scorer, params, seed)?;
    let levels_before = state.stats.iterations;
    match run_growth::<std::convert::Infallible>(scorer, params, &mut state, |_| Ok(())) {
        Ok(()) => {}
        Err(e) => match e {},
    }
    let levels = state.stats.iterations - levels_before;
    let newly_scored = scorer.evaluations() - evals_before;

    let store: Vec<MinedPattern> = (0..state.store.count() as u32)
        .map(|id| MinedPattern::new(state.store.get(id).clone(), state.store.nm(id)))
        .collect();
    let mut survivor_ids: Vec<u32> = state.q.iter().copied().collect();
    survivor_ids.sort_unstable();
    let survivors: Vec<MinedPattern> = survivor_ids
        .into_iter()
        .map(|id| MinedPattern::new(state.store.get(id).clone(), state.store.nm(id)))
        .collect();

    let outcome = finish(scorer, params, state);
    Ok(SeededOutcome {
        outcome,
        store,
        survivors,
        levels,
        newly_scored,
    })
}

/// Allocation-free pure-delta certification for a seed set.
///
/// [`mine_seeded`] is exact but pays full state construction and pair
/// re-enumeration (pattern interning, pair-memo hashing, candidate
/// allocation) even when the seed certifies the top-k by itself — which
/// in a steady stream is almost every event. `SeedCertifier` answers
/// "*would* [`mine_seeded`] score anything against the data?" without
/// building a growth state: it simulates the single growth level such a
/// run performs. Seeded growth starts with everything fresh, so level 1
/// enumerates exactly the ordered pairs with a high member; each pair is
/// bound-checked against ω (or the composability threshold τ for the
/// high·singular / singular·high one-extension shapes), and every
/// survivor must already be a seed member. If all survivors are members,
/// nothing gets scored, ω cannot move, and the level converges — so
/// [`certify`](SeedCertifier::certify) returning `true` guarantees
/// `mine_seeded` on the same seed would report `newly_scored == 0` and
/// return the seed's own best k (see [`certified_topk`]).
///
/// The membership index is built once per seed *set* ([`SeedCertifier::new`])
/// and reused across events: set membership only changes when a repair
/// scores something new (and then only grows, by
/// [`extend`](SeedCertifier::extend)), while the NM values (which change every event)
/// are passed to each [`certify`](SeedCertifier::certify) call. Per-pair
/// work is a handful of float ops; member lookups happen only for pairs
/// whose bound survives, and each length class is scanned best-NM-first
/// so a scan stops at the first bound failure (the weighted-mean bound is
/// monotone in each constituent NM). `certify` is conservative: `false`
/// never means the top-k is wrong, only that it cannot be certified
/// without touching the data — the caller falls back to [`mine_seeded`].
pub struct SeedCertifier {
    /// Cell sequences of every member, for allocation-free candidate
    /// lookups (a concatenation is probed as a borrowed slice).
    members: FxHashSet<Vec<CellId>>,
    /// Each member's cells, indexed like the seed (owned copies so
    /// `certify` needs only the per-event NM values).
    cells: Vec<Vec<CellId>>,
    /// Member indices grouped by pattern length (`by_len[l-1]` holds the
    /// indices of all length-`l` members, in seed order).
    by_len: Vec<Vec<u32>>,
}

impl SeedCertifier {
    /// Builds the membership index for a seed set. The later `certify`
    /// calls must pass NMs aligned with exactly these patterns, in this
    /// order.
    pub fn new(patterns: &[Pattern]) -> SeedCertifier {
        let mut cert = SeedCertifier {
            members: FxHashSet::default(),
            cells: Vec::with_capacity(patterns.len()),
            by_len: Vec::new(),
        };
        cert.extend(patterns);
        cert
    }

    /// Appends `patterns` to the index, after the ones it already holds:
    /// the result answers exactly like [`SeedCertifier::new`] over the
    /// concatenated pattern list. A streaming caller whose ledger grows
    /// by a few absorbed patterns extends its certifier instead of
    /// rebuilding it over the whole ledger.
    pub fn extend(&mut self, patterns: &[Pattern]) {
        for p in patterns {
            let i = self.cells.len() as u32;
            self.members.insert(p.cells().to_vec());
            self.cells.push(p.cells().to_vec());
            let l = p.len();
            if self.by_len.len() < l {
                self.by_len.resize(l, Vec::new());
            }
            self.by_len[l - 1].push(i);
        }
    }

    /// Whether this index's patterns with *current* exact NMs (`nms[i]`
    /// belongs to the `i`-th pattern passed to [`SeedCertifier::new`])
    /// already certify the top-k: a [`mine_seeded`] call on the same seed
    /// would score nothing. `eff_max_len` must be the effective maximum
    /// pattern length of the data the NMs were folded over (see
    /// [`crate::algorithm::effective_max_len_from`]).
    ///
    /// Conservatively `false` when the growth would not prune at all
    /// (bound pruning disabled, fewer than `k` qualifying seeds) or when
    /// a `min_len > 1` run would bootstrap ω from the data.
    pub fn certify(&self, params: &MiningParams, eff_max_len: usize, nms: &[f64]) -> bool {
        if nms.len() != self.cells.len() || !params.use_bound_prune || params.min_len > 1 {
            return false;
        }
        let m = eff_max_len;
        // ω exactly as the engine's seeded `init_state` computes it: k-th
        // best qualifying NM (min_len ≤ 1, so every seed of effective
        // length qualifies; over-long seeds are dropped before growth and
        // never offered).
        let mut qual: Vec<f64> = self
            .cells
            .iter()
            .zip(nms)
            .filter(|(c, _)| c.len() <= m)
            .map(|(_, &nm)| nm)
            .collect();
        if qual.len() < params.k {
            return false; // ω = −∞: nothing would be pruned
        }
        qual.sort_unstable_by(|a, b| b.partial_cmp(a).expect("seed NMs are finite"));
        let omega = qual[params.k - 1];
        let nm_best = match self.by_len.first() {
            Some(singulars) if !singulars.is_empty() => singulars
                .iter()
                .map(|&i| nms[i as usize])
                .fold(f64::NEG_INFINITY, f64::max),
            _ => return false,
        };

        // Length classes split high (NM ≥ ω) / low, each sorted best-NM
        // first for the monotone early exit.
        let classes = m.min(self.by_len.len());
        let mut high: Vec<Vec<u32>> = vec![Vec::new(); classes];
        let mut low: Vec<Vec<u32>> = vec![Vec::new(); classes];
        for (l, ids) in self.by_len.iter().take(classes).enumerate() {
            for &i in ids {
                if nms[i as usize] >= omega {
                    high[l].push(i);
                } else {
                    low[l].push(i);
                }
            }
            let by_nm_desc = |&a: &u32, &b: &u32| {
                nms[b as usize]
                    .partial_cmp(&nms[a as usize])
                    .expect("seed NMs are finite")
            };
            high[l].sort_unstable_by(by_nm_desc);
            low[l].sort_unstable_by(by_nm_desc);
        }

        // Enumerate every ordered pair shape growth level 1 would try:
        // at least one side high, total length within bounds. The
        // one-extension shapes (high·singular, singular·high) are held
        // to τ, everything else to ω — mirroring `grow_level`.
        let mut buf: Vec<CellId> = Vec::with_capacity(m);
        for la in 1..=classes {
            if la >= m {
                break;
            }
            for lb in 1..=classes.min(m - la) {
                let t = tau(la + lb, omega, nm_best, m);
                let hh = if la == 1 || lb == 1 { t } else { omega };
                let hl = if lb == 1 { t } else { omega };
                let lh = if la == 1 { t } else { omega };
                if !self.scan((&high[la - 1], la), (&high[lb - 1], lb), hh, nms, &mut buf)
                    || !self.scan((&high[la - 1], la), (&low[lb - 1], lb), hl, nms, &mut buf)
                    || !self.scan((&low[la - 1], la), (&high[lb - 1], lb), lh, nms, &mut buf)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Scans ordered pairs `a×b` (both lists best-NM-first) under one
    /// threshold; `false` as soon as a pair's weighted-mean bound clears
    /// the threshold but its concatenation is not a member. Monotonicity
    /// of the bound in either NM justifies both early exits.
    fn scan(
        &self,
        (a_ids, la): (&[u32], usize),
        (b_ids, lb): (&[u32], usize),
        threshold: f64,
        nms: &[f64],
        buf: &mut Vec<CellId>,
    ) -> bool {
        for &ai in a_ids {
            let nm_a = nms[ai as usize];
            let mut hit = false;
            for &bi in b_ids {
                if weighted_mean_bound(nm_a, la, nms[bi as usize], lb) < threshold {
                    break; // every later b has a smaller NM, hence a smaller bound
                }
                hit = true;
                buf.clear();
                buf.extend_from_slice(&self.cells[ai as usize]);
                buf.extend_from_slice(&self.cells[bi as usize]);
                if !self.members.contains(&buf[..]) {
                    return false;
                }
            }
            if !hit {
                break; // even the best b failed; every later a is worse
            }
        }
        true
    }
}

/// The top-k outcome a certified seed implies: the best `k` qualifying
/// seed patterns by `(NM desc, pattern content)` — exactly the batch
/// `finish` selection — plus groups when `params.gamma` is set. The seed
/// is passed as parallel slices (`nms[i]` scores `patterns[i]`) so the
/// caller never materializes owned seed entries; only the `k` winners are
/// cloned. Seeds longer than `eff_max_len` are excluded, matching the
/// seeded growth's over-long drop. Only meaningful when
/// [`SeedCertifier::certify`] returned `true` for the same seed; the
/// returned stats are zeroed (the caller owns counter bookkeeping on the
/// fast path).
pub fn certified_topk(
    patterns: &[Pattern],
    nms: &[f64],
    params: &MiningParams,
    eff_max_len: usize,
    grid: &Grid,
) -> MiningOutcome {
    debug_assert_eq!(patterns.len(), nms.len());
    let mut order: Vec<usize> = (0..patterns.len())
        .filter(|&i| {
            let l = patterns[i].len();
            l >= params.min_len && l <= eff_max_len
        })
        .collect();
    select_top_k(&mut order, params.k, |i| nms[i], |i| &patterns[i]);
    let qualifying: Vec<MinedPattern> = order
        .into_iter()
        .map(|i| MinedPattern {
            pattern: patterns[i].clone(),
            nm: nms[i],
        })
        .collect();
    let groups = match params.gamma {
        Some(gamma) => discover_groups(&qualifying, grid, gamma),
        None => Vec::new(),
    };
    MiningOutcome {
        patterns: qualifying,
        groups,
        stats: crate::MiningStats::default(),
        scorer: crate::ScorerStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::effective_max_len;
    use crate::pattern::Pattern;
    use trajdata::{Dataset, SnapshotPoint, Trajectory};
    use trajgeo::{BBox, CellId, Grid, Point2};

    fn sweep_data(n: usize, sigma: f64) -> (Dataset, Grid) {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let data: Dataset = (0..n)
            .map(|_| {
                Trajectory::new(
                    (0..4)
                        .map(|i| {
                            SnapshotPoint::new(Point2::new(0.125 + i as f64 * 0.25, 0.625), sigma)
                                .unwrap()
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        (data, grid)
    }

    fn batch(
        data: &Dataset,
        grid: &Grid,
        params: &MiningParams,
    ) -> (MiningOutcome, Vec<MinedPattern>) {
        let scorer = Scorer::new(data, grid, params.delta, params.min_prob);
        let out = mine_seeded(&scorer, params, &[]).unwrap();
        (out.outcome, out.store)
    }

    fn assert_same_patterns(a: &MiningOutcome, b: &MiningOutcome) {
        let pa: Vec<_> = a.patterns.iter().map(|m| (&m.pattern, m.nm)).collect();
        let pb: Vec<_> = b.patterns.iter().map(|m| (&m.pattern, m.nm)).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn empty_seed_matches_batch_mine() {
        let (data, grid) = sweep_data(6, 0.05);
        let params = MiningParams::new(5, 0.1).unwrap().with_max_len(3).unwrap();
        let a = crate::Miner::new(&data, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        let (b, _) = batch(&data, &grid, &params);
        assert_same_patterns(&a, &b);
    }

    #[test]
    fn reseeding_with_own_store_is_a_pure_delta() {
        let (data, grid) = sweep_data(6, 0.05);
        let params = MiningParams::new(5, 0.1).unwrap().with_max_len(3).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let first = mine_seeded(&scorer, &params, &[]).unwrap();
        let second = mine_seeded(&scorer, &params, &first.store).unwrap();
        assert_eq!(second.newly_scored, 0, "same data + full store = no work");
        assert_same_patterns(&first.outcome, &second.outcome);
        assert!(second
            .survivors
            .iter()
            .map(|m| &m.pattern)
            .collect::<std::collections::BTreeSet<_>>()
            .is_superset(&second.outcome.patterns.iter().map(|m| &m.pattern).collect()));
    }

    #[test]
    fn seeding_with_singulars_only_matches_batch() {
        let (data, grid) = sweep_data(8, 0.04);
        let params = MiningParams::new(6, 0.1).unwrap().with_max_len(4).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let singular_nms = scorer.nm_all_singulars();
        let seed: Vec<MinedPattern> = grid
            .cells()
            .map(|c| MinedPattern::new(Pattern::singular(c), singular_nms[c.index()]))
            .collect();
        let seeded = mine_seeded(&scorer, &params, &seed).unwrap();
        let a = crate::Miner::new(&data, &grid)
            .params(params)
            .mine()
            .unwrap();
        assert_same_patterns(&a, &seeded.outcome);
        assert!(seeded.newly_scored > 0, "growth had to score candidates");
    }

    #[test]
    fn stale_overlong_seeds_are_ignored() {
        let (data, grid) = sweep_data(5, 0.05);
        // max_len 6 but trajectories have 4 points: effective max len is 4.
        let params = MiningParams::new(4, 0.1).unwrap().with_max_len(6).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let first = mine_seeded(&scorer, &params, &[]).unwrap();
        let mut seed = first.store.clone();
        let long = Pattern::new(vec![CellId(0); 5]).unwrap();
        let nm = scorer.score_batch(std::slice::from_ref(&long))[0];
        seed.push(MinedPattern::new(long.clone(), nm));
        let second = mine_seeded(&scorer, &params, &seed).unwrap();
        assert_same_patterns(&first.outcome, &second.outcome);
        assert!(second.store.iter().all(|m| m.pattern != long));
    }

    #[test]
    fn rejects_bad_seeds() {
        let (data, grid) = sweep_data(4, 0.05);
        let params = MiningParams::new(3, 0.1).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let one = vec![MinedPattern::new(Pattern::singular(CellId(0)), -1.0)];
        assert!(matches!(
            mine_seeded(&scorer, &params, &one),
            Err(SeedError::MissingSingulars { have: 1, need: 16 })
        ));

        let full = mine_seeded(&scorer, &params, &[]).unwrap().store;
        let mut dup = full.clone();
        dup.push(dup[0].clone());
        assert!(matches!(
            mine_seeded(&scorer, &params, &dup),
            Err(SeedError::Duplicate(_))
        ));

        let mut nan = full.clone();
        nan[0].nm = f64::NAN;
        assert!(matches!(
            mine_seeded(&scorer, &params, &nan),
            Err(SeedError::NonFinite(_))
        ));

        let mut oob = full;
        oob.push(MinedPattern::new(
            Pattern::new(vec![CellId(999), CellId(0)]).unwrap(),
            -1.0,
        ));
        assert!(matches!(
            mine_seeded(&scorer, &params, &oob),
            Err(SeedError::CellOutOfRange(_))
        ));
    }

    #[test]
    fn certifier_agrees_with_seeded_regrowth() {
        let (data, grid) = sweep_data(6, 0.05);
        let params = MiningParams::new(5, 0.1).unwrap().with_max_len(3).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let eff = effective_max_len(&scorer, &params);
        let first = mine_seeded(&scorer, &params, &[]).unwrap();

        // The full store certifies itself (same data ⇒ nothing to score),
        // and the certified top-k matches the mined one bit-for-bit.
        let patterns: Vec<Pattern> = first.store.iter().map(|m| m.pattern.clone()).collect();
        let store_nms: Vec<f64> = first.store.iter().map(|m| m.nm).collect();
        let cert = SeedCertifier::new(&patterns);
        assert!(cert.certify(&params, eff, &store_nms));
        let out = certified_topk(&patterns, &store_nms, &params, eff, &grid);
        assert_eq!(out.patterns.len(), first.outcome.patterns.len());
        for (a, b) in out.patterns.iter().zip(&first.outcome.patterns) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }

        // A singulars-only seed is not certifiable: growth must score.
        let singular_nms = scorer.nm_all_singulars();
        let singular_patterns: Vec<Pattern> = grid.cells().map(Pattern::singular).collect();
        let cert2 = SeedCertifier::new(&singular_patterns);
        assert!(!cert2.certify(&params, eff, &singular_nms));

        // Misaligned seed sizes and min_len > 1 are rejected outright.
        assert!(!cert.certify(&params, eff, &singular_nms));
        let strict = params.clone().with_min_len(2).unwrap();
        assert!(!cert.certify(&strict, eff, &store_nms));
    }

    #[test]
    fn extended_certifier_answers_like_a_fresh_one() {
        let (data, grid) = sweep_data(6, 0.05);
        let params = MiningParams::new(5, 0.1).unwrap().with_max_len(3).unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let eff = effective_max_len(&scorer, &params);
        let store = mine_seeded(&scorer, &params, &[]).unwrap().store;
        let patterns: Vec<Pattern> = store.iter().map(|m| m.pattern.clone()).collect();
        let nms: Vec<f64> = store.iter().map(|m| m.nm).collect();
        // NM vectors that certify, and ones that do not: the store's own
        // (certifies), all-equal NMs (every pair clears the bound, and most
        // pairs are not members), and each pattern pushed down or lifted
        // in turn.
        let mut cases = vec![nms.clone(), vec![0.0; nms.len()]];
        for i in 0..nms.len() {
            let mut v = nms.clone();
            v[i] += if i % 2 == 0 { -50.0 } else { 5.0 };
            cases.push(v);
        }
        let fresh = SeedCertifier::new(&patterns);
        let answers: Vec<bool> = cases
            .iter()
            .map(|v| fresh.certify(&params, eff, v))
            .collect();
        assert!(answers.iter().any(|&a| a) && answers.iter().any(|&a| !a));
        let n = patterns.len();
        for split in [0, 1, grid.num_cells() as usize, n - 1, n] {
            // Built over a prefix, then extended in up to two steps.
            let step = split.max(n / 2);
            let mut cert = SeedCertifier::new(&patterns[..split]);
            cert.extend(&patterns[split..step]);
            cert.extend(&patterns[step..]);
            assert_eq!(cert.members, fresh.members);
            assert_eq!(cert.cells, fresh.cells);
            assert_eq!(cert.by_len, fresh.by_len);
            for (v, &want) in cases.iter().zip(&answers) {
                assert_eq!(cert.certify(&params, eff, v), want, "split {split}");
            }
            // A misaligned NM vector is refused alike.
            assert!(!cert.certify(&params, eff, &nms[1..]));
        }
    }

    #[test]
    fn min_len_seeded_matches_batch() {
        let (data, grid) = sweep_data(7, 0.04);
        let params = MiningParams::new(3, 0.1)
            .unwrap()
            .with_min_len(2)
            .unwrap()
            .with_max_len(3)
            .unwrap();
        let a = crate::Miner::new(&data, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let first = mine_seeded(&scorer, &params, &[]).unwrap();
        assert_same_patterns(&a, &first.outcome);
        let second = mine_seeded(&scorer, &params, &first.store).unwrap();
        assert_same_patterns(&a, &second.outcome);
        assert_eq!(second.newly_scored, 0);
    }
}
