//! The standard cross-layer benchmark suite behind `rrs bench-report`.
//!
//! One programmatic registry of the operations whose regressions matter:
//! the per-access hardware structures (PRINCE, RIT lookup and eviction,
//! tracker update), BlockHammer's throttle query, the swap engine, trace serialization/parsing, telemetry
//! emission, and one end-to-end smoke cell. `rrs bench-report` runs this
//! suite and snapshots the medians into `BENCH_*.json`, so the perf
//! trajectory across PRs is a diffable artifact instead of folklore.
//!
//! The selection deliberately mirrors the `benches/` targets (same names
//! where the operation is the same) but stays small enough for a `--smoke`
//! run in CI.

use std::hint::black_box;

use rrs::core::prince::Prince;
use rrs::core::prng::PrinceCtrRng;
use rrs::core::rit::RowIndirectionTable;
use rrs::core::rrs::{BankRrs, RrsConfig};
use rrs::core::swap::{SwapEngine, SwapMode};
use rrs::core::tracker::{CatTracker, HotRowTracker, TrackerConfig};
use rrs::dram::geometry::{DramGeometry, RowAddr};
use rrs::dram::timing::TimingParams;
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::mitigations::{BlockHammer, BlockHammerConfig};
use rrs::telemetry::{Event, Telemetry};
use rrs::Mitigation;
use rrs_json::Json;

use crate::harness::Harness;

/// Registers the standard suite on `h`.
pub fn standard_suite(h: &mut Harness) {
    bench_prince(h);
    bench_rrs_engine(h);
    bench_rit(h);
    bench_blockhammer(h);
    bench_swap_engine(h);
    bench_telemetry(h);
    bench_json(h);
    bench_sim_cell(h);
}

fn bench_prince(h: &mut Harness) {
    let cipher = Prince::new(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    h.bench("prince/encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            black_box(cipher.encrypt(x))
        })
    });
    let mut rng = PrinceCtrRng::new(42);
    h.bench("prng/next_below_128k", |b| {
        b.iter(|| black_box(rng.next_below(128 * 1024)))
    });
}

fn bench_rrs_engine(h: &mut Harness) {
    // Paper-scale bank engine: every activation resolves through the RIT.
    let cfg = RrsConfig::for_threshold(4_800, 1 << 17, 1 << 17);
    let mut bank = BankRrs::new(cfg, 3);
    h.bench("rrs/activation_resolve", |b| {
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 1) % 4096;
            black_box(bank.on_activation(row))
        })
    });
    let tracker_cfg = TrackerConfig {
        entries: 1_700,
        threshold: 800,
    };
    h.bench("tracker/scattered_access", |b| {
        let mut t = CatTracker::new(tracker_cfg);
        let mut row = 0u64;
        b.iter(|| {
            row = row.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            black_box(t.record_access(row >> 40))
        })
    });
}

fn bench_rit(h: &mut Harness) {
    // Paper-sized RIT held at capacity: every swap first evicts (§4.3's
    // lazy drain), and an epoch ends whenever every entry is locked.
    const ROWS: u64 = 128 * 1024;
    let mut rit = RowIndirectionTable::new(3_400, 0x5EED);
    let mut rng = PrinceCtrRng::new(11);
    while rit.tuples_in_use() + 2 <= rit.tuple_capacity() {
        let _ = rit.swap(rng.next_below(ROWS), rng.next_below(ROWS));
    }
    rit.end_epoch();
    h.bench("rit/evict_full", |b| {
        b.iter(|| {
            while rit.tuples_in_use() + 2 > rit.tuple_capacity() {
                if rit.evict_one(rng.next_u64()).is_none() {
                    rit.end_epoch();
                }
            }
            black_box(rit.swap(rng.next_below(ROWS), rng.next_below(ROWS)))
        })
    });
}

fn bench_blockhammer(h: &mut Harness) {
    // The §8.1 DoS pattern: two rows of one bank, alternating, both
    // blacklisted, so every query reads the filters and the row history.
    let window = TimingParams::ddr4_3200().epoch;
    let mut bh = BlockHammer::new(
        BlockHammerConfig::asplos22(1_024, window),
        DramGeometry::asplos22_baseline(),
        1,
    );
    let (a, b) = (RowAddr::new(0, 0, 0, 100), RowAddr::new(0, 0, 0, 102));
    let mut actions = Vec::new();
    let mut now = 0;
    for _ in 0..1_100 {
        for row in [a, b] {
            now += 144;
            now += bh.activation_delay(row, now);
            bh.on_activation(row, now, &mut actions);
        }
    }
    h.bench("mitigation/blockhammer/activation_delay", |bench| {
        let mut flip = false;
        bench.iter(|| {
            flip = !flip;
            now += 144;
            black_box(bh.activation_delay(if flip { a } else { b }, now))
        })
    });
}

fn bench_swap_engine(h: &mut Harness) {
    let timing = TimingParams::ddr4_3200();
    h.bench("swap/record_swap_of", |b| {
        let mut e = SwapEngine::new(&timing, 8 * 1024, SwapMode::Buffered);
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000;
            black_box(e.record_swap_of(now, 0, 10, 900))
        })
    });
}

fn bench_telemetry(h: &mut Harness) {
    // Emission on a live spine: the per-event cost of tracing a run.
    h.bench("telemetry/emit_traced", |b| {
        let spine = Telemetry::with_trace(1 << 12);
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            spine.emit(Event::Activation {
                at,
                bank: at % 16,
                row: at % 4096,
            });
        })
    });
    // The disabled fast path (one branch) — must stay near-free.
    h.bench("telemetry/emit_disabled", |b| {
        let spine = Telemetry::new();
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            spine.emit(Event::Activation {
                at,
                bank: 0,
                row: 0,
            });
        })
    });
}

fn bench_json(h: &mut Harness) {
    let line = "{\"kind\":\"swap_start\",\"at\":123456,\"bank\":7,\"row_a\":100,\"row_b\":90000}";
    h.bench("json/parse_event_line", |b| {
        b.iter(|| black_box(Json::parse(line).unwrap()))
    });
    let event = Event::SwapStart {
        at: 123_456,
        bank: 7,
        row_a: 100,
        row_b: 90_000,
    };
    h.bench("json/serialize_event", |b| {
        b.iter(|| black_box(event.to_json().to_string_compact()))
    });
}

fn bench_sim_cell(h: &mut Harness) {
    // One tiny end-to-end attack cell: catches regressions that only
    // appear when all layers interact.
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.instructions_per_core = 5_000;
    h.bench("sim/smoke_attack_cell", |b| {
        b.iter(|| {
            black_box(cfg.run_attack(
                rrs::workloads::AttackKind::DoubleSided,
                MitigationKind::Rrs,
                1,
            ))
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_registers_and_runs_quick() {
        let mut h = Harness::programmatic(true);
        standard_suite(&mut h);
        assert!(h.records().len() >= 8, "suite covers the layers");
        let mut names: Vec<&str> = h.records().iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), h.records().len(), "bench names are unique");
        assert!(h.records().iter().all(|r| r.ns_per_iter > 0.0));
    }
}
