//! Row Hammer disturbance fault model.
//!
//! The model implements the paper's single assumption (§5.1) and the attack
//! surface it reasons about (§2.3, §2.5):
//!
//! * Every activation of a row adds *disturbance* to nearby rows, weighted by
//!   distance: weight 1 at distance 1, and a small distance-2 weight
//!   calibrated so that ≈296 K activations flip a distance-2 victim — the
//!   figure Half-Double reports (§5.1).
//! * A row whose accumulated disturbance within one refresh window reaches
//!   the Row Hammer threshold `T_RH` suffers a bit flip.
//! * Refreshing a row (periodic or targeted) restores its charge and clears
//!   its accumulated disturbance — but a *targeted* refresh is itself an
//!   activation of the refreshed row, and therefore disturbs *that* row's
//!   neighbours. This is precisely the mechanism Half-Double exploits to
//!   defeat victim-focused mitigation (§2.5).
//!
//! The model tracks *physical* rows: under RRS, activations land wherever
//! the Row Indirection Table currently maps the requested row.

use rrs_flat::{FlatMap, FlatSet};

use crate::geometry::{DramGeometry, RowAddr};

/// Packs a [`RowAddr`] into one word for the flat per-row tables
/// (channel/rank/bank are `u8`, row is `u32`, so the fields cannot
/// collide and the packed key never reaches `u64::MAX`).
#[inline]
fn pack(addr: RowAddr) -> u64 {
    (u64::from(addr.channel.0) << 48)
        | (u64::from(addr.rank.0) << 40)
        | (u64::from(addr.bank.0) << 32)
        | u64::from(addr.row.0)
}

/// The default Row Hammer threshold targeted by the paper: 4.8 K activations
/// (LPDDR4-new, Kim et al. 2020).
pub const DEFAULT_T_RH: u64 = 4_800;

/// Activations on a near-aggressor needed for a distance-2 (Half-Double)
/// flip, per the paper §5.1: "the recent half-double attack (which requires
/// at least 296K activations on one row)".
pub const HALF_DOUBLE_ACTS: u64 = 296_000;

/// One entry of the paper's Table 1: Row Hammer threshold over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RhThresholdEntry {
    /// DRAM generation, e.g. "DDR4 (new)".
    pub generation: &'static str,
    /// Published Row Hammer threshold (activations per refresh window).
    pub threshold: u64,
    /// Citation in the paper.
    pub source: &'static str,
}

/// Table 1 of the paper: Row Hammer threshold by DRAM generation.
pub const RH_THRESHOLDS: &[RhThresholdEntry] = &[
    RhThresholdEntry {
        generation: "DDR3 (old)",
        threshold: 139_000,
        source: "Kim et al. 2014 [17]",
    },
    RhThresholdEntry {
        generation: "DDR3 (new)",
        threshold: 22_400,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "DDR4 (old)",
        threshold: 17_500,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "DDR4 (new)",
        threshold: 10_000,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "LPDDR4 (old)",
        threshold: 16_800,
        source: "Kim et al. 2020 [16]",
    },
    RhThresholdEntry {
        generation: "LPDDR4 (new)",
        threshold: 4_800,
        source: "Kim et al. 2020 [16] – Half-Double [12]",
    },
];

/// Configuration of the disturbance model.
#[derive(Debug, Clone, PartialEq)]
pub struct HammerConfig {
    /// Row Hammer threshold: disturbance at which a row flips.
    pub t_rh: u64,
    /// Maximum distance at which activations disturb neighbours.
    pub blast_radius: u32,
    /// `distance_weights[d-1]` is the disturbance added to a row at distance
    /// `d` per aggressor activation. `distance_weights[0]` must be 1.0.
    pub distance_weights: Vec<f64>,
    /// Whether a targeted (mitigation-issued) refresh of a row disturbs that
    /// row's own neighbours. True on real hardware; this is what enables
    /// Half-Double.
    pub targeted_refresh_disturbs: bool,
}

impl HammerConfig {
    /// LPDDR4 (new)-like device: `T_RH` = 4.8 K, blast radius 2 with the
    /// distance-2 weight calibrated to Half-Double's 296 K figure.
    pub fn lpddr4_new() -> Self {
        Self::for_threshold(DEFAULT_T_RH)
    }

    /// A device with Row Hammer threshold `t_rh`, keeping the
    /// distance-2-to-distance-1 vulnerability ratio of the LPDDR4 baseline.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is zero.
    pub fn for_threshold(t_rh: u64) -> Self {
        assert!(t_rh > 0, "T_RH must be positive");
        // 4.8K / 296K: one distance-2 activation is worth ~1/61.7 of a
        // distance-1 activation.
        let w2 = DEFAULT_T_RH as f64 / HALF_DOUBLE_ACTS as f64;
        HammerConfig {
            t_rh,
            blast_radius: 2,
            distance_weights: vec![1.0, w2],
            targeted_refresh_disturbs: true,
        }
    }

    /// A blast-radius-1 device (classic Row Hammer only); useful for
    /// isolating classic-pattern behaviour in tests.
    pub fn classic_only(t_rh: u64) -> Self {
        HammerConfig {
            t_rh,
            blast_radius: 1,
            distance_weights: vec![1.0],
            targeted_refresh_disturbs: true,
        }
    }

    /// Activations on a single aggressor needed to flip a victim at
    /// `distance` (assuming no refresh in between).
    pub fn acts_to_flip_at(&self, distance: u32) -> u64 {
        let w = self
            .distance_weights
            .get(distance as usize - 1)
            .copied()
            .unwrap_or(0.0);
        if w <= 0.0 {
            u64::MAX
        } else {
            (self.t_rh as f64 / w).ceil() as u64
        }
    }
}

impl Default for HammerConfig {
    fn default() -> Self {
        Self::lpddr4_new()
    }
}

/// A Row Hammer bit flip detected by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlip {
    /// The physical row that flipped.
    pub victim: RowAddr,
    /// Epoch (refresh window index) in which it flipped.
    pub epoch: u64,
    /// Accumulated disturbance at the moment of the flip.
    pub disturbance: f64,
}

/// The disturbance fault model. Tracks per-physical-row accumulated
/// disturbance within the current refresh window and reports bit flips.
#[derive(Debug, Clone)]
pub struct HammerModel {
    config: HammerConfig,
    geometry: DramGeometry,
    /// Packed `RowAddr` → accumulated disturbance. Iteration order is
    /// never observed: flips are emitted in neighbour order at the
    /// disturbing activation, so the flat table changes nothing.
    disturbance: FlatMap<f64>,
    /// Packed `RowAddr` → activations this window.
    activations: FlatMap<u64>,
    flipped_this_epoch: FlatSet,
    flips: Vec<BitFlip>,
    total_flips: u64,
    epoch: u64,
}

impl HammerModel {
    /// A fresh model at epoch 0 with no accumulated disturbance.
    pub fn new(config: HammerConfig, geometry: DramGeometry) -> Self {
        HammerModel {
            config,
            geometry,
            disturbance: FlatMap::new(),
            activations: FlatMap::new(),
            flipped_this_epoch: FlatSet::new(),
            flips: Vec::new(),
            total_flips: 0,
            epoch: 0,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &HammerConfig {
        &self.config
    }

    /// Current epoch (refresh window) index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records an activation of physical row `addr`: restores the activated
    /// row's own charge (a DRAM activation reads and rewrites the row's
    /// cells), then disturbs neighbours out to the blast radius and
    /// registers flips that cross `T_RH`.
    pub fn record_activation(&mut self, addr: RowAddr) {
        debug_assert!(self.geometry.contains(addr), "activation out of range");
        *self.activations.get_or_insert_with(pack(addr), || 0) += 1;
        self.disturbance.remove(pack(addr));
        self.disturb_neighbors(addr);
    }

    /// Records a targeted (mitigation-issued) refresh of `addr`: restores
    /// the row's own charge, and — if configured — disturbs its neighbours
    /// exactly like an activation (the Half-Double enabler).
    pub fn record_targeted_refresh(&mut self, addr: RowAddr) {
        self.disturbance.remove(pack(addr));
        if self.config.targeted_refresh_disturbs {
            self.disturb_neighbors(addr);
        }
    }

    /// Immediately restores every row (a preemptive full-memory refresh, as
    /// in the attack-detection co-design of §5.3.2 footnote 2). Does not end
    /// the epoch.
    pub fn full_refresh(&mut self) {
        self.disturbance.clear();
    }

    /// Ends the refresh window: every row has been refreshed once, so all
    /// accumulated disturbance is cleared and per-window counters reset.
    pub fn end_epoch(&mut self) {
        self.disturbance.clear();
        self.activations.clear();
        self.flipped_this_epoch.clear();
        self.epoch += 1;
    }

    fn disturb_neighbors(&mut self, addr: RowAddr) {
        for d in 1..=self.config.blast_radius {
            let Some(w) = self.config.distance_weights.get(d as usize - 1).copied() else {
                // blast_radius beyond the configured weights: no disturbance.
                continue;
            };
            let below = addr.neighbor_below(d);
            let above = addr.neighbor_above(d, &self.geometry);
            for n in below.into_iter().chain(above) {
                let key = pack(n);
                let e = self.disturbance.get_or_insert_with(key, || 0.0);
                *e += w;
                let disturbance = *e;
                if disturbance >= self.config.t_rh as f64 && self.flipped_this_epoch.insert(key) {
                    self.flips.push(BitFlip {
                        victim: n,
                        epoch: self.epoch,
                        disturbance,
                    });
                    self.total_flips += 1;
                }
            }
        }
    }

    /// Accumulated disturbance of `addr` in the current window.
    pub fn disturbance_of(&self, addr: RowAddr) -> f64 {
        self.disturbance.get(pack(addr)).copied().unwrap_or(0.0)
    }

    /// Activations of `addr` recorded in the current window.
    pub fn activations_of(&self, addr: RowAddr) -> u64 {
        self.activations.get(pack(addr)).copied().unwrap_or(0)
    }

    /// Number of distinct rows with at least `n` activations this window —
    /// the paper's "Rows ACT-800+" statistic (Table 3).
    pub fn rows_with_activations_at_least(&self, n: u64) -> usize {
        self.activations.values().filter(|&&c| c >= n).count()
    }

    /// Drains and returns the bit flips recorded since the last call.
    pub fn take_bit_flips(&mut self) -> Vec<BitFlip> {
        std::mem::take(&mut self.flips)
    }

    /// Total flips over the model's lifetime (not drained).
    pub fn total_flips(&self) -> u64 {
        self.total_flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HammerModel {
        HammerModel::new(HammerConfig::lpddr4_new(), DramGeometry::tiny_test())
    }

    #[test]
    fn table1_is_complete_and_decreasing_for_lpddr4() {
        assert_eq!(RH_THRESHOLDS.len(), 6);
        assert_eq!(RH_THRESHOLDS[0].threshold, 139_000);
        assert_eq!(RH_THRESHOLDS[5].threshold, 4_800);
    }

    #[test]
    fn classic_hammer_flips_at_t_rh() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        assert!(m.take_bit_flips().is_empty(), "no flip below threshold");
        m.record_activation(agg);
        let flips = m.take_bit_flips();
        // Both distance-1 neighbours cross at the same activation.
        let victims: Vec<u32> = flips.iter().map(|f| f.victim.row.0).collect();
        assert!(victims.contains(&499) && victims.contains(&501));
    }

    #[test]
    fn double_sided_hammer_flips_middle_row_twice_as_fast() {
        let mut m = model();
        let a = RowAddr::new(0, 0, 0, 499);
        let b = RowAddr::new(0, 0, 0, 501);
        for _ in 0..DEFAULT_T_RH / 2 {
            m.record_activation(a);
            m.record_activation(b);
        }
        let flips = m.take_bit_flips();
        assert!(flips.iter().any(|f| f.victim.row.0 == 500));
    }

    #[test]
    fn refresh_clears_disturbance() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        m.record_targeted_refresh(agg.with_row(499));
        m.record_targeted_refresh(agg.with_row(501));
        m.record_activation(agg);
        // Neighbours were just refreshed; one more activation cannot flip.
        assert!(m.take_bit_flips().is_empty());
    }

    #[test]
    fn targeted_refresh_disturbs_its_own_neighbors() {
        // The Half-Double enabler: refreshing row 501 hammers rows 500 & 502.
        let mut m = HammerModel::new(HammerConfig::classic_only(100), DramGeometry::tiny_test());
        let victim_refreshed = RowAddr::new(0, 0, 0, 501);
        for _ in 0..100 {
            m.record_targeted_refresh(victim_refreshed);
        }
        let flips = m.take_bit_flips();
        let victims: Vec<u32> = flips.iter().map(|f| f.victim.row.0).collect();
        assert!(victims.contains(&500) && victims.contains(&502));
    }

    #[test]
    fn distance_two_flip_needs_about_296k_acts() {
        let cfg = HammerConfig::lpddr4_new();
        assert_eq!(cfg.acts_to_flip_at(1), DEFAULT_T_RH);
        let d2 = cfg.acts_to_flip_at(2);
        assert!((295_000..=297_000).contains(&d2), "distance-2 acts = {d2}");
    }

    #[test]
    fn epoch_end_resets_everything_and_advances() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..1000 {
            m.record_activation(agg);
        }
        assert!(m.disturbance_of(agg.with_row(501)) > 0.0);
        assert_eq!(m.activations_of(agg), 1000);
        m.end_epoch();
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.disturbance_of(agg.with_row(501)), 0.0);
        assert_eq!(m.activations_of(agg), 0);
        assert_eq!(m.rows_with_activations_at_least(1), 0);
    }

    #[test]
    fn activation_restores_own_charge() {
        // A row that is itself activated cannot accumulate disturbance:
        // DRAM activations rewrite the activated row's cells.
        let mut m = model();
        let a = RowAddr::new(0, 0, 0, 500);
        let b = RowAddr::new(0, 0, 0, 501);
        for _ in 0..2 * DEFAULT_T_RH {
            m.record_activation(a); // disturbs b...
            m.record_activation(b); // ...but b restores itself here
        }
        let flips = m.take_bit_flips();
        assert!(
            !flips.iter().any(|f| f.victim == b),
            "activated row must not flip"
        );
        // The outer neighbours (499, 502) do flip.
        assert!(flips.iter().any(|f| f.victim.row.0 == 499));
        assert!(flips.iter().any(|f| f.victim.row.0 == 502));
    }

    #[test]
    fn rows_with_activations_statistic() {
        let mut m = model();
        for r in 0..10u32 {
            let addr = RowAddr::new(0, 0, 0, r * 10);
            for _ in 0..(r as u64 + 1) * 100 {
                m.record_activation(addr);
            }
        }
        assert_eq!(m.rows_with_activations_at_least(800), 3); // 800, 900, 1000
        assert_eq!(m.rows_with_activations_at_least(100), 10);
    }

    #[test]
    fn a_row_flips_at_most_once_per_epoch() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..3 * DEFAULT_T_RH {
            m.record_activation(agg);
        }
        let flips = m.take_bit_flips();
        let count_501 = flips.iter().filter(|f| f.victim.row.0 == 501).count();
        assert_eq!(count_501, 1);
        assert_eq!(m.total_flips(), flips.len() as u64);
    }

    #[test]
    fn full_refresh_prevents_flips_without_ending_epoch() {
        let mut m = model();
        let agg = RowAddr::new(0, 0, 0, 500);
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        m.full_refresh();
        for _ in 0..DEFAULT_T_RH - 1 {
            m.record_activation(agg);
        }
        assert!(m.take_bit_flips().is_empty());
        assert_eq!(m.epoch(), 0);
        // Activation statistics survive a full refresh (it restores charge,
        // it doesn't end the accounting window).
        assert_eq!(m.activations_of(agg), 2 * (DEFAULT_T_RH - 1));
    }
}
