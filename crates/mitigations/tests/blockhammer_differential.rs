//! Differential property tests (rrs-check) pinning BlockHammer's sparse
//! filter reset, lazily allocated per-bank filters and per-row hash cache
//! against a dense reference kept here: filters allocated for every bank
//! up front, every counter zeroed at each reset, and every bucket rehashed
//! on every call. The two must agree on every estimate, every imposed delay
//! and the running delay/throttle totals.

use std::collections::BTreeMap;

use rrs_check::{check_cases, Gen};
use rrs_core::prince::Prince;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_mem_ctrl::mitigation::Mitigation;
use rrs_mitigations::{BlockHammer, BlockHammerConfig};

/// BlockHammer as first written: dense, eager and rehashing.
struct DenseBlockHammer {
    config: BlockHammerConfig,
    geometry: DramGeometry,
    hashers: Vec<Prince>,
    filters: Vec<[Vec<u32>; 2]>,
    older: Vec<usize>,
    last_act: Vec<BTreeMap<u32, Cycle>>,
    delay_cycles: Cycle,
    throttled: u64,
}

impl DenseBlockHammer {
    fn new(config: BlockHammerConfig, geometry: DramGeometry, seed: u128) -> Self {
        let banks = geometry.total_banks();
        DenseBlockHammer {
            hashers: (0..config.hashes)
                .map(|i| Prince::new(seed ^ 0x424c_4f43_4b48 ^ ((i as u128 + 1) << 64)))
                .collect(),
            filters: (0..banks)
                .map(|_| {
                    [
                        vec![0; config.counters_per_bank],
                        vec![0; config.counters_per_bank],
                    ]
                })
                .collect(),
            older: vec![0; banks],
            last_act: vec![BTreeMap::new(); banks],
            config,
            geometry,
            delay_cycles: 0,
            throttled: 0,
        }
    }

    fn buckets(&self, row: RowAddr) -> Vec<usize> {
        self.hashers
            .iter()
            .map(|h| (h.encrypt(row.row.0 as u64) as usize) % self.config.counters_per_bank)
            .collect()
    }

    fn estimate(&self, row: RowAddr) -> u64 {
        let bank = row.bank_index(&self.geometry);
        let older = &self.filters[bank][self.older[bank]];
        self.buckets(row)
            .iter()
            .map(|&b| older[b] as u64)
            .min()
            .unwrap_or(0)
    }

    fn activation_delay(&mut self, row: RowAddr, now: Cycle) -> Cycle {
        if self.estimate(row) < self.config.blacklist_threshold {
            return 0;
        }
        let bank = row.bank_index(&self.geometry);
        let earliest = self.last_act[bank]
            .get(&row.row.0)
            .map(|&t| t + self.config.t_delay())
            .unwrap_or(0);
        let delay = earliest.saturating_sub(now);
        if delay > 0 {
            self.delay_cycles += delay;
            self.throttled += 1;
        }
        delay
    }

    fn on_activation(&mut self, row: RowAddr, at: Cycle) {
        let bank = row.bank_index(&self.geometry);
        let buckets = self.buckets(row);
        let blacklisted = self.estimate(row) >= self.config.blacklist_threshold;
        for &b in &buckets {
            for filter in &mut self.filters[bank] {
                filter[b] = filter[b].saturating_add(1);
            }
        }
        if blacklisted {
            let t = self.last_act[bank].entry(row.row.0).or_insert(0);
            *t = (*t).max(at);
        }
    }

    fn on_epoch_end(&mut self, now: Cycle) {
        let horizon = now.saturating_sub(2 * self.config.window);
        for bank in 0..self.filters.len() {
            let o = self.older[bank];
            self.filters[bank][o].iter_mut().for_each(|c| *c = 0);
            self.older[bank] = 1 - o;
            self.last_act[bank].retain(|_, &mut t| t >= horizon);
        }
    }
}

/// Eight banks; activations land only on the first five, so the last
/// three are never allocated but are still queried.
fn geometry() -> DramGeometry {
    DramGeometry {
        channels: 2,
        ranks_per_channel: 1,
        banks_per_rank: 4,
        rows_per_bank: 1024,
        row_size_bytes: 8 * 1024,
    }
}

fn row_in(g: &mut Gen, banks: usize, rows: u32) -> RowAddr {
    let bank = g.usize_in(0..banks);
    RowAddr::new((bank % 2) as u8, 0, (bank / 2) as u8, g.u32_in(0..rows))
}

/// Few buckets and few rows force aliasing; low thresholds and a short
/// window make blacklisting, throttling and history pruning all happen
/// within a case.
fn small_config(g: &mut Gen) -> BlockHammerConfig {
    BlockHammerConfig {
        t_rh: g.u64_in(8..64),
        blacklist_threshold: g.u64_in(1..6),
        counters_per_bank: g.usize_in(1..48),
        hashes: g.usize_in(1..4),
        window: g.u64_in(1_000..20_000),
    }
}

/// Drives the cached and the dense BlockHammer through `steps` random
/// operations and asserts they agree after each one. `next_row` picks the
/// row an operation targets, given the previous one.
fn drive(
    g: &mut Gen,
    config: BlockHammerConfig,
    steps: usize,
    epoch_weight: u64,
    mut next_row: impl FnMut(&mut Gen, RowAddr) -> RowAddr,
) {
    let geometry = geometry();
    let seed = g.u128();
    let mut fast = BlockHammer::new(config, geometry, seed);
    let mut dense = DenseBlockHammer::new(config, geometry, seed);
    let mut actions = Vec::new();
    let mut now: Cycle = 0;
    let mut row = next_row(g, RowAddr::new(0, 0, 0, 0));
    for _ in 0..steps {
        now += g.u64_in(0..600);
        row = next_row(g, row);
        match g.below(7 + epoch_weight) {
            // The controller's pattern: delay, then activate the row at
            // the delayed time.
            0..=3 => {
                let delay = fast.activation_delay(row, now);
                assert_eq!(delay, dense.activation_delay(row, now));
                fast.on_activation(row, now + delay, &mut actions);
                dense.on_activation(row, now + delay);
            }
            // An activation with no delay query before it.
            4 => {
                fast.on_activation(row, now, &mut actions);
                dense.on_activation(row, now);
            }
            // A delay query with no activation after it.
            5 => {
                assert_eq!(
                    fast.activation_delay(row, now),
                    dense.activation_delay(row, now)
                );
            }
            6 => {
                let rows = geometry.rows_per_bank as u32;
                let any = row_in(g, geometry.total_banks(), rows);
                assert_eq!(fast.estimate(any), dense.estimate(any));
            }
            _ => {
                fast.on_epoch_end(now, &mut actions);
                dense.on_epoch_end(now);
            }
        }
        assert!(actions.is_empty());
        assert_eq!(fast.estimate(row), dense.estimate(row));
        assert_eq!(fast.delay_cycles(), dense.delay_cycles);
        assert_eq!(fast.throttled(), dense.throttled);
    }
}

/// More cases than the harness default: a blacklist-threshold crossing
/// that lines up with an epoch end and a delay query of the same row only
/// happens in a few cases per thousand.
#[test]
fn blockhammer_matches_dense_reference() {
    check_cases(1_000, |g| {
        let config = small_config(g);
        let rows = g.u32_in(1..40);
        let steps = g.usize_in(1..400);
        // Hammer-like repeats keep the same row across operations of
        // every kind, epoch ends included.
        drive(g, config, steps, 1, |g, row| {
            if g.bool() {
                row_in(g, 5, rows)
            } else {
                row
            }
        });
    });
}

/// The hash cache is shared by all banks: the same in-bank row activated
/// in two banks must still count in each bank's own filters only.
#[test]
fn same_row_in_two_banks_matches_dense_reference() {
    check_cases(300, |g| {
        let config = small_config(g);
        let (a, b) = (g.usize_in(0..8), g.usize_in(0..8));
        let rows = g.u32_in(1..6);
        let steps = g.usize_in(1..400);
        drive(g, config, steps, 1, |g, _| {
            let bank = if g.bool() { a } else { b };
            RowAddr::new((bank % 2) as u8, 0, (bank / 2) as u8, g.u32_in(0..rows))
        });
    });
}

/// A handful of rows revisited across many filter rotations: cached
/// buckets must keep matching a fresh hash after every reset.
#[test]
fn rows_revisited_across_rotations_match_dense_reference() {
    check_cases(300, |g| {
        let config = small_config(g);
        let rows = g.u32_in(1..4);
        let steps = g.usize_in(100..600);
        drive(g, config, steps, 4, |g, row| {
            if g.below(4) == 0 {
                row_in(g, 5, rows)
            } else {
                row
            }
        });
    });
}

/// Hundreds of distinct rows: the cache grows through many rehashes of
/// its index, and every cached entry must stay the row's own.
#[test]
fn hundreds_of_distinct_rows_match_dense_reference() {
    check_cases(50, |g| {
        let mut config = small_config(g);
        config.counters_per_bank = g.usize_in(64..512);
        let steps = g.usize_in(1_000..3_000);
        drive(g, config, steps, 1, |g, _| row_in(g, 5, 1024));
    });
}
