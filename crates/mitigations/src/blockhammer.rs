//! BlockHammer: blacklist-and-throttle mitigation (Yağlıkçı et al.,
//! HPCA 2021), the paper's only other aggressor-focused baseline (§8.1).
//!
//! BlockHammer tracks activation rates with per-bank *counting Bloom
//! filters* (CBFs) and, once a row's estimated count crosses the
//! *blacklisting threshold* `N_BL`, spaces further activations of that row
//! (and of every row aliasing to the same filter buckets) so the row can
//! never reach `T_RH` activations within the window:
//!
//! ```text
//! t_delay = window / (T_RH − N_BL)
//! ```
//!
//! At `T_RH = 4.8 K` this is tens of microseconds per activation — the
//! denial-of-service exposure §8.1 demonstrates (~200× worst-case slowdown,
//! vs. ~2× for RRS).
//!
//! Two CBFs are kept per bank and reset alternately at epoch boundaries
//! (time-interleaving), so blacklist evidence always spans at least one full
//! epoch; both filters are incremented, decisions use the older one.

use rrs_core::prince::Prince;
use rrs_dram::geometry::{DramGeometry, RowAddr};
use rrs_dram::timing::Cycle;
use rrs_flat::FlatMap;
use rrs_mem_ctrl::mitigation::{Mitigation, MitigationAction};

/// BlockHammer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHammerConfig {
    /// The Row Hammer threshold being defended against.
    pub t_rh: u64,
    /// Blacklisting threshold `N_BL` (the paper evaluates 512 and 1 K).
    pub blacklist_threshold: u64,
    /// Counting-Bloom-filter buckets per bank.
    pub counters_per_bank: usize,
    /// Hash functions per filter.
    pub hashes: usize,
    /// Tracking window (one refresh epoch).
    pub window: Cycle,
}

impl BlockHammerConfig {
    /// The §8.1 evaluation point: `T_RH` = 4.8 K with the given blacklist
    /// threshold (512 or 1024) over a 64 ms window.
    pub fn asplos22(blacklist_threshold: u64, window: Cycle) -> Self {
        BlockHammerConfig {
            t_rh: 4_800,
            blacklist_threshold,
            counters_per_bank: 32_768,
            hashes: 3,
            window,
        }
    }

    /// Minimum spacing imposed on blacklisted-row activations.
    ///
    /// Sized so a blacklisted row's window total stays below `T_RH / 2`
    /// (a victim of a double-sided pattern receives disturbance from *two*
    /// aggressors): `N_BL` unthrottled activations plus at most
    /// `window / t_delay` throttled ones, with a 2-activation margin for
    /// boundary effects. At the paper's design point this is ≈34 µs —
    /// the "approximately 20 microseconds" magnitude §8.1 quotes.
    pub fn t_delay(&self) -> Cycle {
        let budget = (self.t_rh / 2)
            .saturating_sub(self.blacklist_threshold)
            .saturating_sub(2)
            .max(1);
        self.window / budget
    }
}

/// The bucket `hasher` maps in-bank row `row` to, out of `m`.
fn bucket(hasher: &Prince, row: u32, m: usize) -> usize {
    (hasher.encrypt(u64::from(row)) as usize) % m
}

/// One counting Bloom filter.
#[derive(Debug, Clone)]
struct Filter {
    counts: Vec<u32>,
    /// Buckets made non-zero since the last reset, each listed once: a
    /// bucket is pushed on its 0 → 1 step, and the counters saturate
    /// instead of wrapping back to 0, so the list is exact and a reset
    /// zeroes only what the epoch touched.
    touched: Vec<usize>,
}

impl Filter {
    fn new(m: usize) -> Self {
        Filter {
            counts: vec![0; m],
            touched: Vec::new(),
        }
    }

    fn count(&self, bucket: usize) -> u64 {
        self.counts.get(bucket).map_or(0, |&c| u64::from(c))
    }

    fn increment(&mut self, bucket: usize) {
        if let Some(c) = self.counts.get_mut(bucket) {
            if *c == 0 {
                self.touched.push(bucket);
            }
            *c = c.saturating_add(1);
        }
    }

    fn reset(&mut self) {
        for b in self.touched.drain(..) {
            if let Some(c) = self.counts.get_mut(b) {
                *c = 0;
            }
        }
    }
}

/// One bank's filters, allocated the first time the bank is activated (a
/// never-activated bank has all-zero filters and no history, which the
/// absence of this state represents exactly).
#[derive(Debug, Clone)]
struct BankFilters {
    /// The time-interleaved pair: blacklist decisions use `older`; both
    /// are incremented; each epoch end resets `older` and swaps the two.
    older: Filter,
    newer: Filter,
    /// Exact last-activation time per *blacklisted* row (BlockHammer's
    /// activation-history buffer): spacing is enforced per row, while the
    /// Bloom filters decide — with aliasing collateral — who is throttled.
    /// Keyed by the in-bank row number (the filters are already per bank).
    last_act: FlatMap<Cycle>,
}

impl BankFilters {
    fn new(m: usize) -> Self {
        BankFilters {
            older: Filter::new(m),
            newer: Filter::new(m),
            last_act: FlatMap::new(),
        }
    }

    fn estimate(&self, buckets: impl IntoIterator<Item = usize>) -> u64 {
        buckets
            .into_iter()
            .map(|b| self.older.count(b))
            .min()
            .unwrap_or(0)
    }
}

/// Every row's bucket set, hashed on the row's first lookup and kept for
/// the run. Buckets depend only on the in-bank row, so all banks share one
/// entry per distinct row and the cache never outgrows `rows_per_bank`.
#[derive(Debug, Clone)]
struct RowBuckets {
    hashers: Vec<Prince>,
    /// Buckets per filter.
    m: usize,
    /// In-bank row → offset of its `hashers.len()` buckets in `buckets`.
    offsets: FlatMap<usize>,
    buckets: Vec<usize>,
}

impl RowBuckets {
    /// The buckets of `row`, hashed now only if `row` was never looked up.
    fn of(&mut self, row: u32) -> &[usize] {
        let k = self.hashers.len();
        let start = match self.offsets.get(u64::from(row)) {
            Some(&start) => start,
            None => {
                let start = self.buckets.len();
                let m = self.m;
                self.buckets
                    .extend(self.hashers.iter().map(|h| bucket(h, row, m)));
                self.offsets.insert(u64::from(row), start);
                start
            }
        };
        self.buckets.get(start..start + k).unwrap_or(&[])
    }

    /// The buckets of `row` without filling the cache.
    fn peek(&self, row: u32) -> impl Iterator<Item = usize> + '_ {
        self.hashers.iter().map(move |h| bucket(h, row, self.m))
    }
}

/// The BlockHammer defense.
#[derive(Debug, Clone)]
pub struct BlockHammer {
    config: BlockHammerConfig,
    geometry: DramGeometry,
    rows: RowBuckets,
    banks: Vec<Option<BankFilters>>,
    name: String,
    /// Total delay cycles imposed (DoS accounting).
    delay_cycles: Cycle,
    /// Activations that were throttled.
    throttled: u64,
}

impl BlockHammer {
    /// Creates the defense for `geometry`.
    pub fn new(config: BlockHammerConfig, geometry: DramGeometry, seed: u128) -> Self {
        let hashers = (0..config.hashes)
            .map(|i| Prince::new(seed ^ 0x424c_4f43_4b48 ^ ((i as u128 + 1) << 64)))
            .collect();
        BlockHammer {
            name: format!("blockhammer-bl{}", config.blacklist_threshold),
            banks: vec![None; geometry.total_banks()],
            rows: RowBuckets {
                hashers,
                m: config.counters_per_bank,
                offsets: FlatMap::new(),
                buckets: Vec::new(),
            },
            config,
            geometry,
            delay_cycles: 0,
            throttled: 0,
        }
    }

    /// The defense's configuration.
    pub fn config(&self) -> BlockHammerConfig {
        self.config
    }

    /// Total stall cycles imposed so far.
    pub fn delay_cycles(&self) -> Cycle {
        self.delay_cycles
    }

    /// Activations that hit the throttle.
    pub fn throttled(&self) -> u64 {
        self.throttled
    }

    /// Estimated activation count of `row` (min over its buckets in the
    /// older filter — the standard CBF upper-bound estimate).
    pub fn estimate(&self, row: RowAddr) -> u64 {
        let idx = row.bank_index(&self.geometry);
        let Some(bank) = self.banks.get(idx).and_then(Option::as_ref) else {
            return 0;
        };
        bank.estimate(self.rows.peek(row.row.0))
    }
}

impl Mitigation for BlockHammer {
    fn name(&self) -> &str {
        &self.name
    }

    fn activation_delay(&mut self, row: RowAddr, now: Cycle) -> Cycle {
        let idx = row.bank_index(&self.geometry);
        let Some(bank) = self.banks.get(idx).and_then(Option::as_ref) else {
            return 0;
        };
        let buckets = self.rows.of(row.row.0);
        if bank.estimate(buckets.iter().copied()) < self.config.blacklist_threshold {
            return 0;
        }
        let earliest = bank
            .last_act
            .get(u64::from(row.row.0))
            .map(|&t| t + self.config.t_delay())
            .unwrap_or(0);
        let delay = earliest.saturating_sub(now);
        if delay > 0 {
            self.delay_cycles += delay;
            self.throttled += 1;
        }
        delay
    }

    fn on_activation(&mut self, row: RowAddr, at: Cycle, _actions: &mut Vec<MitigationAction>) {
        let idx = row.bank_index(&self.geometry);
        let m = self.config.counters_per_bank;
        let Some(slot) = self.banks.get_mut(idx) else {
            return;
        };
        let bank = slot.get_or_insert_with(|| BankFilters::new(m));
        let buckets = self.rows.of(row.row.0);
        let blacklisted = bank.estimate(buckets.iter().copied()) >= self.config.blacklist_threshold;
        for &b in buckets {
            bank.older.increment(b);
            bank.newer.increment(b);
        }
        if blacklisted {
            let t = bank.last_act.get_or_insert_with(u64::from(row.row.0), || 0);
            *t = (*t).max(at);
        }
    }

    fn on_epoch_end(&mut self, now: Cycle, _actions: &mut Vec<MitigationAction>) {
        let horizon = now.saturating_sub(2 * self.config.window);
        for bank in self.banks.iter_mut().flatten() {
            // The older filter has covered its full lifetime: reset it and
            // promote the other. The activation-history buffer persists
            // across the boundary (clearing it would hand every throttled
            // row a free unspaced activation each window); only entries
            // older than the full tracking horizon are pruned.
            bank.older.reset();
            std::mem::swap(&mut bank.older, &mut bank.newer);
            bank.last_act.retain(|_, &mut t| t >= horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh(blacklist: u64) -> BlockHammer {
        let window = rrs_dram::timing::TimingParams::ddr4_3200().epoch;
        BlockHammer::new(
            BlockHammerConfig::asplos22(blacklist, window),
            DramGeometry::tiny_test(),
            99,
        )
    }

    #[test]
    fn t_delay_matches_paper_magnitude() {
        // §8.1: "at T_RH of 4.8K, we would need to delay memory requests for
        // approximately 20 microseconds per activation." Our per-victim
        // disturbance accounting treats a double-sided victim as receiving
        // both aggressors' activations, so the safe per-row budget is
        // T_RH/2 and the delay lands at ~42 µs — the same tens-of-µs
        // magnitude that drives the paper's DoS argument.
        let window = rrs_dram::timing::TimingParams::ddr4_3200().epoch;
        let cfg = BlockHammerConfig::asplos22(512, window);
        let us = cfg.t_delay() as f64 / 3_200.0; // cycles -> µs at 3.2 GHz
        assert!((15.0..60.0).contains(&us), "t_delay = {us} µs");
    }

    #[test]
    fn below_blacklist_no_delay() {
        let mut m = bh(512);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        for t in 0..500u64 {
            assert_eq!(m.activation_delay(row, t * 144), 0);
            m.on_activation(row, t * 144, &mut actions);
        }
        assert_eq!(m.throttled(), 0);
    }

    #[test]
    fn blacklisted_row_is_throttled_hard() {
        let mut m = bh(512);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        let mut now = 0;
        for _ in 0..600 {
            now += 144; // tRC pace
            now += m.activation_delay(row, now);
            m.on_activation(row, now, &mut actions);
        }
        assert!(m.throttled() > 0);
        // Once blacklisted, spacing is t_delay ≈ 48 K cycles, not 144.
        let mut prev = now;
        now += 144;
        let d = m.activation_delay(row, now);
        assert!(d > 10_000, "delay = {d}");
        prev = prev.max(now + d);
        let _ = prev;
    }

    #[test]
    fn aliasing_rows_share_punishment() {
        // Another row hitting the same buckets as a blacklisted one gets
        // delayed too (the collateral-damage effect behind Figure 11's tail).
        let mut m = bh(512);
        let hot = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        let mut now = 0;
        for _ in 0..600 {
            now += 144;
            now += m.activation_delay(hot, now);
            m.on_activation(hot, now, &mut actions);
        }
        // Find a row aliasing on all buckets is unlikely; instead verify the
        // estimate is driven by buckets, i.e. the hot row's estimate counts.
        assert!(m.estimate(hot) >= 512);
    }

    #[test]
    fn epoch_rotation_eventually_forgives() {
        let mut m = bh(512);
        let row = RowAddr::new(0, 0, 0, 100);
        let mut actions = Vec::new();
        let mut now = 0;
        for _ in 0..600 {
            now += 144;
            m.on_activation(row, now, &mut actions);
        }
        assert!(m.estimate(row) >= 512);
        m.on_epoch_end(now, &mut actions);
        m.on_epoch_end(now, &mut actions);
        // After both filters rotate, the evidence is gone.
        assert_eq!(m.estimate(row), 0);
    }

    #[test]
    fn banks_are_isolated() {
        let mut m = bh(512);
        let hot = RowAddr::new(0, 0, 0, 100);
        let other_bank = RowAddr::new(0, 0, 1, 100);
        let mut actions = Vec::new();
        for t in 0..600u64 {
            m.on_activation(hot, t * 144, &mut actions);
        }
        assert!(m.estimate(hot) >= 512);
        assert_eq!(m.estimate(other_bank), 0);
    }
}
