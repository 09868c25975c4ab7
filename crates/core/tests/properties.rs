//! Property-based tests (rrs-check) for the core RRS structures: the
//! invariants §5.2 relies on must hold for *arbitrary* access sequences,
//! not just the ones unit tests pick.

use std::collections::{HashMap, HashSet};

use rrs_check::{check, Gen};
use rrs_core::audit::{CatAudit, RitAudit};
use rrs_core::cat::{Cat, CatConfig};
use rrs_core::prince::Prince;
use rrs_core::prng::PrinceCtrRng;
use rrs_core::rit::RowIndirectionTable;
use rrs_core::tracker::{CamTracker, CatTracker, HotRowTracker, TrackerConfig};

/// PRINCE is a permutation: decrypt inverts encrypt for any key/block.
#[test]
fn prince_round_trip() {
    check(|g| {
        let key = g.u128();
        let block = g.u64();
        let cipher = Prince::new(key);
        assert_eq!(cipher.decrypt(cipher.encrypt(block)), block);
    });
}

/// PRINCE is injective on distinct blocks under one key.
#[test]
fn prince_injective() {
    check(|g| {
        let key = g.u128();
        let a = g.u64();
        let b = g.u64();
        if a == b {
            return;
        }
        let cipher = Prince::new(key);
        assert_ne!(cipher.encrypt(a), cipher.encrypt(b));
    });
}

/// The CTR PRNG's bounded draw is always in range, for any bound.
#[test]
fn prng_bounded_draws() {
    check(|g| {
        let key = g.u128();
        let bound = g.u64_in(1..u64::MAX);
        let n = g.usize_in(1..50);
        let mut rng = PrinceCtrRng::new(key);
        for _ in 0..n {
            assert!(rng.next_below(bound) < bound);
        }
    });
}

/// Operations for the CAT model-based test.
#[derive(Debug, Clone)]
enum CatOp {
    Insert(u16, u32),
    Remove(u16),
    Lookup(u16),
}

fn cat_op(g: &mut Gen) -> CatOp {
    match g.below(3) {
        0 => CatOp::Insert(g.u16(), g.u32()),
        1 => CatOp::Remove(g.u16()),
        _ => CatOp::Lookup(g.u16()),
    }
}

/// Model-based: the CAT behaves exactly like a HashMap for any op
/// sequence that stays within capacity (inserts that conflict are
/// removed from the model too, so the two stay in lockstep).
#[test]
fn cat_matches_hashmap_model() {
    check(|g| {
        let ops = g.vec(1..200, cat_op);
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets: 16,
            demand_ways: 4,
            extra_ways: 4,
            hash_seed: 0xC0FFEE,
        });
        let mut model: HashMap<u64, u32> = HashMap::new();
        for op in ops {
            match op {
                CatOp::Insert(tag, value) => {
                    let tag = tag as u64;
                    if !model.contains_key(&tag)
                        && model.len() < cat.capacity()
                        && cat.insert(tag, value).is_ok()
                    {
                        model.insert(tag, value);
                    }
                }
                CatOp::Remove(tag) => {
                    let tag = tag as u64;
                    assert_eq!(cat.remove(tag), model.remove(&tag));
                }
                CatOp::Lookup(tag) => {
                    let tag = tag as u64;
                    assert_eq!(cat.get(tag), model.get(&tag));
                }
            }
            assert_eq!(cat.len(), model.len());
        }
        // The ghost audit must agree with the model at rest.
        CatAudit::verify(&cat).unwrap();
    });
}

/// `Cat::iter_from(n)` is exactly `iter().skip(n).chain(iter().take(n))`
/// after any install/remove history, for `n` on every set boundary (runs
/// of empty sets included), around `len()`, and at random.
#[test]
fn cat_iter_from_matches_rotated_iter() {
    check(|g| {
        let sets = 1 << g.usize_in(0..4);
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets,
            demand_ways: g.usize_in(1..4),
            extra_ways: g.usize_in(0..3),
            hash_seed: g.u128(),
        });
        let tags = g.u64_in(1..64);
        for _ in 0..g.usize_in(0..120) {
            let tag = g.below(tags);
            if cat.contains(tag) {
                cat.remove(tag);
            } else {
                let _ = cat.insert(tag, g.u32());
            }
            let len = cat.len();
            // Entries before each set, in iteration order: equal
            // neighbours mark empty sets.
            let mut boundaries = vec![0];
            for table in 0..2 {
                for set in 0..sets {
                    let before = boundaries.last().copied().unwrap_or(0);
                    boundaries.push(before + cat.set_iter(table, set).count());
                }
            }
            assert_eq!(boundaries.last(), Some(&len));
            boundaries.extend([len.saturating_sub(1), len + 1, g.usize_in(0..len + 3)]);
            for n in boundaries {
                let rotated: Vec<_> = cat.iter().skip(n).chain(cat.iter().take(n)).collect();
                assert_eq!(cat.iter_from(n).collect::<Vec<_>>(), rotated, "n = {n}");
                let nth = (len > 0).then(|| cat.iter().nth(n % len)).flatten();
                assert_eq!(cat.nth_entry(n), nth, "n = {n}");
            }
        }
    });
}

/// Misra-Gries over-estimation: a tracked row's counter is always at
/// least its true count minus nothing — i.e. `estimate >= true` —
/// for any access sequence (Invariant 1's foundation).
#[test]
fn tracker_never_underestimates() {
    check(|g| {
        let rows = g.vec(1..400, |g| g.u64_in(0..64));
        let mut tracker = CatTracker::new(TrackerConfig {
            entries: 8,
            threshold: 1_000,
        });
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for row in rows {
            *truth.entry(row).or_insert(0) += 1;
            tracker.record_access(row);
            if let Some(est) = tracker.count_of(row) {
                assert!(
                    est >= truth[&row],
                    "row {} estimated {} < true {}",
                    row,
                    est,
                    truth[&row]
                );
            }
        }
    });
}

/// Misra-Gries detection guarantee (Invariant 1): with N >= W/T
/// entries, any row that truly reaches T accesses within a W-access
/// window fires `swap_due` at least once.
#[test]
fn tracker_guaranteed_detection() {
    check(|g| {
        let seed = g.u64();
        let hot_row = g.u64_in(0..1_000);
        let noise_rows = g.u64_in(1_001..2_000);
        let w = 600u64;
        let t = 30u64;
        let cfg = TrackerConfig::for_window(w, t);
        let mut tracker = CatTracker::new(cfg);
        let mut fired = false;
        let mut hot_done = 0u64;
        let mut x = seed;
        for i in 0..w {
            // Interleave exactly T hot accesses among noise.
            if i % (w / t) == 0 && hot_done < t {
                hot_done += 1;
                fired |= tracker.record_access(hot_row).swap_due;
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                tracker.record_access(noise_rows + (x >> 40));
            }
        }
        assert_eq!(hot_done, t);
        assert!(fired, "hot row reached T accesses without detection");
    });
}

/// CAM and CAT trackers agree on hot-row counts for arbitrary streams.
#[test]
fn cam_and_cat_trackers_agree() {
    check(|g| {
        let rows = g.vec(1..500, |g| g.u64_in(0..32));
        let cfg = TrackerConfig {
            entries: 12,
            threshold: 50,
        };
        let mut cam = CamTracker::new(cfg);
        let mut cat = CatTracker::new(cfg);
        for &row in &rows {
            cam.record_access(row);
            cat.record_access(row);
        }
        assert_eq!(cam.spill(), cat.spill());
        assert_eq!(cam.len(), cat.len());
        // Rows present in both have identical counts.
        for row in 0u64..32 {
            if let (Some(a), Some(b)) = (cam.count_of(row), cat.count_of(row)) {
                assert_eq!(a, b, "row {} counts diverge", row);
            }
        }
    });
}

/// Operations for the RIT permutation test.
#[derive(Debug, Clone)]
enum RitOp {
    Swap(u8, u8),
    Unswap(u8),
    Evict(u64),
    EndEpoch,
}

fn rit_op(g: &mut Gen) -> RitOp {
    match g.below(4) {
        0 => RitOp::Swap(g.u8(), g.u8()),
        1 => RitOp::Unswap(g.u8()),
        2 => RitOp::Evict(g.u64()),
        _ => RitOp::EndEpoch,
    }
}

/// The RIT is always a permutation: after any operation sequence,
/// forward/reverse maps stay mutually consistent, injective, and free
/// of identity entries — and resolution round-trips.
#[test]
fn rit_is_always_a_permutation() {
    check(|g| {
        let ops = g.vec(1..150, rit_op);
        let mut rit = RowIndirectionTable::new(64, 0xFACE);
        for op in ops {
            match op {
                RitOp::Swap(a, b) => {
                    if a != b && rit.tuples_in_use() + 2 <= rit.tuple_capacity() {
                        let _ = rit.swap(a as u64, b as u64);
                    }
                }
                RitOp::Unswap(a) => {
                    if rit.is_displaced(a as u64) {
                        let _ = rit.unswap(a as u64);
                    }
                }
                RitOp::Evict(pick) => {
                    let _ = rit.evict_one(pick);
                }
                RitOp::EndEpoch => rit.end_epoch(),
            }
            rit.check_invariants();
            RitAudit::verify(&rit).unwrap();
            // Round-trip: occupant(resolve(x)) == x for mapped rows.
            for (logical, physical) in rit.iter().collect::<Vec<_>>() {
                assert_eq!(rit.occupant(physical), logical);
                assert_eq!(rit.resolve(logical), physical);
            }
        }
    });
}

/// Locked entries (current-epoch swaps) survive arbitrary eviction
/// pressure within the same epoch.
#[test]
fn rit_locked_entries_survive_evictions() {
    check(|g| {
        let picks = g.vec(1..50, |g| g.u64());
        let mut rit = RowIndirectionTable::new(16, 0xBEE);
        rit.swap(1, 2).unwrap();
        rit.swap(3, 4).unwrap();
        let mapped_before: HashSet<(u64, u64)> = rit.iter().collect();
        for pick in picks {
            let _ = rit.evict_one(pick);
        }
        let mapped_after: HashSet<(u64, u64)> = rit.iter().collect();
        assert_eq!(mapped_before, mapped_after, "locked tuples were evicted");
    });
}
