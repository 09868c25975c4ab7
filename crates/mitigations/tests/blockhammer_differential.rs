//! Differential property test (rrs-check) pinning BlockHammer's sparse
//! filter reset, lazily allocated per-bank filters and once-per-activation
//! hashing against a dense reference kept here: filters allocated for
//! every bank up front, every counter zeroed at each reset, and every
//! bucket rehashed on every call. The two must agree on every estimate,
//! every imposed delay and the running delay/throttle totals.

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

/// More cases than the harness default: a stale memo only shows when a
/// delay query, an epoch end and a query of the same row line up with a
/// blacklist-threshold crossing, which a few cases per thousand do.
#[test]
fn blockhammer_matches_dense_reference() {
    check_cases(1_000, |g| {
        let geometry = geometry();
        // Few buckets and few rows force aliasing; low thresholds and a
        // short window make blacklisting, throttling and history pruning
        // all happen within a case.
        let config = BlockHammerConfig {
            t_rh: g.u64_in(8..64),
            blacklist_threshold: g.u64_in(1..6),
            counters_per_bank: g.usize_in(1..48),
            hashes: g.usize_in(1..4),
            window: g.u64_in(1_000..20_000),
        };
        let seed = g.u128();
        let mut fast = BlockHammer::new(config, geometry, seed);
        let mut dense = DenseBlockHammer::new(config, geometry, seed);
        let rows = g.u32_in(1..40);
        let mut actions = Vec::new();
        let mut now: Cycle = 0;
        let mut row = row_in(g, 5, rows);
        for _ in 0..g.usize_in(1..400) {
            now += g.u64_in(0..600);
            // Hammer-like repeats keep the same row across operations of
            // every kind, epoch ends included.
            if g.bool() {
                row = row_in(g, 5, rows);
            }
            match g.below(8) {
                // The controller's pattern: delay, then activate the row
                // at the delayed time.
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
                    fast.on_epoch_end(now, &mut actions);
                    dense.on_epoch_end(now);
                }
                _ => {
                    let any = row_in(g, geometry.total_banks(), rows);
                    assert_eq!(fast.estimate(any), dense.estimate(any));
                }
            }
            assert!(actions.is_empty());
            assert_eq!(fast.estimate(row), dense.estimate(row));
            assert_eq!(fast.delay_cycles(), dense.delay_cycles);
            assert_eq!(fast.throttled(), dense.throttled);
        }
    });
}
