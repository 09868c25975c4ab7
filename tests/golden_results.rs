//! Byte-identity regression against committed golden results.
//!
//! The campaign cache (`results/*.json`) and every figure/table binary
//! assume a `SimResult`'s pretty-printed JSON is a stable byte sequence
//! for a given configuration and seed. These tests execute one
//! representative *figure* cell (a benign Table-3 workload under RRS, the
//! Fig. 5 grid shape) and one *table* cell (a double-sided attack under
//! RRS, the Table 7 grid shape) at smoke scale, plus one §8.1 DoS cell
//! under BlockHammer (whose throttling pins refresh command counts and
//! mitigation delay cycles), and compare the serialized result
//! byte-for-byte with the goldens committed under `tests/golden/`.
//!
//! Any refactor that changes metric accounting, JSON field order, or
//! number formatting fails here before it can silently invalidate a
//! results cache. To re-bless after an *intentional* change:
//!
//! ```text
//! RRS_BLESS=1 cargo test --release -p rrs --test golden_results
//! ```

use std::path::PathBuf;

use rrs::campaign::{Campaign, Cell, CellAction, RunOptions};
use rrs::experiments::{ExperimentConfig, MitigationKind};
use rrs::workloads::catalog::table3_workloads;
use rrs::workloads::AttackKind;
use rrs_json::ToJson;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden")
}

fn check(label: &str, cell: Cell) {
    let id = cell.id();
    let mut campaign = Campaign::new();
    let idx = campaign.push(cell);
    let run = campaign.run(&RunOptions::quiet());
    let got = run.get(idx).to_json().to_string_pretty();
    let path = golden_dir().join(format!("{id}.json"));
    if std::env::var_os("RRS_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {label}: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with RRS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{label}: serialized result differs from committed golden {} — \
         metric accounting or JSON formatting changed; if intentional, re-bless",
        path.display()
    );
}

/// One Fig. 5-shaped cell: first Table-3 workload under RRS.
#[test]
fn figure_cell_matches_golden() {
    let config = ExperimentConfig::smoke_test();
    let workload = *table3_workloads().first().expect("table3 workloads");
    check(
        "fig5 cell",
        Cell {
            config,
            action: CellAction::Workload(workload),
            mitigation: MitigationKind::Rrs,
        },
    );
}

/// One Table 7-shaped cell: double-sided attack under RRS, 2 epochs.
#[test]
fn table_cell_matches_golden() {
    let config = ExperimentConfig::smoke_test();
    check(
        "table7 cell",
        Cell {
            config,
            action: CellAction::Attack {
                kind: AttackKind::DoubleSided,
                epochs: 2,
            },
            mitigation: MitigationKind::Rrs,
        },
    );
}

/// One §8.1-shaped cell: the DoS probe under BlockHammer-512, 1 epoch.
/// Throttling stretches simulated time, so this pins the refresh command
/// count, the imposed delay cycles and the activation count.
#[test]
fn blockhammer_dos_cell_matches_golden() {
    let config = ExperimentConfig::smoke_test();
    check(
        "dos blockhammer cell",
        Cell {
            config,
            action: CellAction::Attack {
                kind: AttackKind::Dos,
                epochs: 1,
            },
            mitigation: MitigationKind::BlockHammer512,
        },
    );
}
