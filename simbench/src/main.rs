//! Simulator benchmark: host nanoseconds per simulated DRAM activation on
//! the paper's three headline experiments (see README.md).
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload attack-rrs|benign-fig6|dos-blockhammer \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Cells run one after another on the calling thread, round after round,
//! until `--seconds` have passed; every cell's simulated output is checked
//! each round. The last stdout line is one JSON object with the verdict
//! and the metrics: end-to-end ones with `--trace 0`, the per-layer split
//! with `--trace 1`.

mod layers;
mod pins;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use rrs::campaign::{Cell, CellAction};
use rrs::experiments::{geomean, ExperimentConfig, MitigationKind};
use rrs::mem_ctrl::mapping::AddressMapper;
use rrs::sim::{run_probed, SimResult, TraceSource};
use rrs::telemetry::Telemetry;
use rrs::workloads::attacks::{Attack, AttackKind, IdleFiller};
use rrs::workloads::catalog::{spec_by_name, Workload};
use rrs::workloads::generator::sources_for_workload;
use rrs_json::{Json, ToJson};

use layers::{Calibration, EpochMark, Layers, Span, TimedMitigation, TimedSource};
use pins::Digest;

/// The seed whose simulated outputs are pinned in `pins.rs`.
const DEFAULT_SEED: u64 = 1;

/// Refresh windows per `attack-rrs` cell. RRS's host cost per activation
/// keeps rising over the first epochs of an attack (RIT and tracker fill
/// up); see README.md for the epoch curve behind this length.
const ATTACK_EPOCHS: u64 = 32;

/// Figure 6's cells: large footprints (mcf, mummer, omnetpp, comm2) and
/// hot-row workloads (bzip2, sphinx), each under `none` and `rrs`.
const FIG6_WORKLOADS: [&str; 6] = ["mcf", "mummer", "omnetpp", "comm2", "bzip2", "sphinx"];

/// Per-core instructions of a `benign-fig6` cell: half the `fig6` binary's
/// default, so that a round takes about 2 s and a run holds a dozen.
const FIG6_INSTRUCTIONS: u64 = 1_000_000;

/// Refresh windows per `dos-blockhammer` cell (the `dos` binary's default).
const DOS_EPOCHS: u64 = 2;

/// The paper's Figure 6 average slowdown of RRS, printed for reference.
const PAPER_SLOWDOWN_PCT: f64 = 0.4;

const USAGE: &str = "usage: rrs-simbench --workload attack-rrs|benign-fig6|dos-blockhammer \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Bench {
    AttackRrs,
    BenignFig6,
    DosBlockhammer,
}

impl Bench {
    fn parse(name: &str) -> Option<Bench> {
        match name {
            "attack-rrs" => Some(Bench::AttackRrs),
            "benign-fig6" => Some(Bench::BenignFig6),
            "dos-blockhammer" => Some(Bench::DosBlockhammer),
            _ => None,
        }
    }

    /// The workload's cells; `seed` becomes every cell's
    /// `ExperimentConfig::seed`.
    fn cells(self, seed: u64) -> Vec<Cell> {
        let attack = |config: ExperimentConfig, kind, epochs, mitigation| Cell {
            config,
            action: CellAction::Attack { kind, epochs },
            mitigation,
        };
        match self {
            Bench::AttackRrs => {
                let config = ExperimentConfig {
                    seed,
                    ..ExperimentConfig::default()
                };
                [AttackKind::DoubleSided, config.swap_chasing_attack()]
                    .map(|kind| attack(config, kind, ATTACK_EPOCHS, MitigationKind::Rrs))
                    .to_vec()
            }
            Bench::BenignFig6 => {
                let config = ExperimentConfig {
                    seed,
                    ..ExperimentConfig::default()
                        .with_scale(100)
                        .with_instructions(FIG6_INSTRUCTIONS)
                };
                FIG6_WORKLOADS
                    .iter()
                    .flat_map(|name| {
                        let spec = spec_by_name(name).expect("Figure 6 workload is in the catalog");
                        [MitigationKind::None, MitigationKind::Rrs].map(|mitigation| Cell {
                            config,
                            action: CellAction::Workload(Workload::Single(spec)),
                            mitigation,
                        })
                    })
                    .collect()
            }
            Bench::DosBlockhammer => {
                // As the `dos` binary runs it: scale 100, unscaled swap cost.
                let config = ExperimentConfig {
                    seed,
                    ..ExperimentConfig::default()
                        .with_scale(100)
                        .with_instructions(2_000_000)
                        .with_full_swap_cost()
                };
                [
                    MitigationKind::BlockHammer1k,
                    MitigationKind::BlockHammer512,
                ]
                .map(|m| attack(config, AttackKind::Dos, DOS_EPOCHS, m))
                .to_vec()
            }
        }
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut bench = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag {
                "--workload" => bench = Some(Bench::parse(value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
            i += 2;
        }
        Ok(Args {
            bench: bench.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Ratio that reads 0 instead of NaN/inf when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One simulated cell with its host timings.
struct CellRun {
    result: SimResult,
    /// Constructing the mitigation.
    build_ns: u64,
    /// Constructing the mitigation and the trace sources.
    setup_ns: u64,
    /// `run_probed` alone.
    sim_ns: u64,
    sim_start: Instant,
    counters: Vec<(String, u64)>,
}

/// Runs `cell` as `Cell::execute_probed` does, but assembled here so that
/// set-up is timed apart from simulation. With `layers`, the mitigation
/// and trace sources run inside timing decorators; without, nothing is
/// wrapped.
fn run_cell(cell: &Cell, layers: Option<&Rc<Layers>>) -> CellRun {
    let t0 = Instant::now();
    let mut cfg = cell.config;
    cfg.seed = cell.trace_seed();
    let mut sys = cfg.system_config();
    let mut mitigation = cfg.build_mitigation(cell.mitigation);
    let build_ns = ns_since(t0);
    let (name, mut sources): (String, Vec<Box<dyn TraceSource>>) = match cell.action {
        CellAction::Workload(w) => (
            w.name().to_string(),
            sources_for_workload(&w, &sys, cfg.seed),
        ),
        CellAction::Attack { kind, epochs } => {
            // Mirrors `ExperimentConfig::run_attack_probed`: core 0
            // attacks for `epochs` windows, the other cores idle.
            let timing = sys.controller.timing;
            sys.instructions_per_core = epochs * timing.epoch / timing.t_rc + 1_000;
            let mapper = AddressMapper::new(sys.controller.geometry);
            let attacker = Attack::new(kind, mapper, cfg.seed).with_rotation(8 * cfg.t_rh());
            let mut sources: Vec<Box<dyn TraceSource>> = vec![Box::new(attacker)];
            for c in 1..sys.cores {
                sources.push(Box::new(IdleFiller::new(c)));
            }
            (kind.name(), sources)
        }
    };
    let setup_ns = ns_since(t0);
    if let Some(layers) = layers {
        mitigation = Box::new(TimedMitigation::new(mitigation, layers.clone()));
        sources = sources
            .into_iter()
            .map(|s| Box::new(TimedSource::new(s, layers.clone())) as Box<dyn TraceSource>)
            .collect();
    }
    let telemetry = Telemetry::new();
    let sim_start = Instant::now();
    let result = run_probed(&sys, mitigation, sources, &name, &telemetry);
    let sim_ns = ns_since(sim_start);
    CellRun {
        result,
        build_ns,
        setup_ns,
        sim_ns,
        sim_start,
        counters: telemetry.counters(),
    }
}

/// Checks every cell run and counts attempts and failures.
struct Checker {
    seed: u64,
    /// Each cell's digest the first time it ran in this process.
    first: BTreeMap<String, Digest>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(seed: u64) -> Self {
        Checker {
            seed,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Problems with one simulated result of `cell`.
    fn inspect(&mut self, cell: &Cell, result: &SimResult) -> Vec<String> {
        let id = cell.id();
        let digest = Digest::of(result);
        let mut problems = Vec::new();
        let defended = matches!(
            cell.mitigation,
            MitigationKind::Rrs | MitigationKind::BlockHammer512 | MitigationKind::BlockHammer1k
        );
        if defended && digest.flips != 0 {
            problems.push(format!("{id}: {} bit flips under a defense", digest.flips));
        }
        if digest.activations == 0 {
            problems.push(format!("{id}: no activations simulated"));
        }
        let first = *self.first.entry(id.clone()).or_insert(digest);
        if digest != first {
            problems.push(format!(
                "{id}: {digest:?} differs from an earlier run {first:?}"
            ));
        }
        if self.seed == DEFAULT_SEED {
            match pins::digest(&id) {
                Some(pinned) if pinned == digest => {}
                pinned => problems.push(format!("{id}: {digest:?} but pinned {pinned:?}")),
            }
        }
        problems
    }

    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Checks one round's Figure 6 slowdown against its pin (default seed
    /// only); counts as one more attempt.
    fn check_slowdown(&mut self, slowdown_pct: f64) {
        let mut problems = Vec::new();
        if self.seed == DEFAULT_SEED && slowdown_pct != pins::FIG6_SLOWDOWN_PCT {
            problems.push(format!(
                "sim_slowdown_pct {slowdown_pct:?} but pinned {:?}",
                pins::FIG6_SLOWDOWN_PCT
            ));
        }
        self.record(problems);
    }
}

/// Figure 6's quantity over one round's (none, rrs) result pairs, in %:
/// 1 − geomean(IPC_rrs / IPC_none).
fn slowdown_pct(results: &[SimResult]) -> f64 {
    let normalized: Vec<f64> = results
        .chunks(2)
        .map(|pair| pair[1].normalized_to(&pair[0]))
        .collect();
    (1.0 - geomean(&normalized)) * 100.0
}

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// The process's resident-set high-water mark in MiB (Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Untraced rounds: the end-to-end metrics.
///
/// Host speed on a shared 2-vCPU KVM guest flips between a fast and a
/// slow state (1.5–1.9× apart) within fractions of a second, and the
/// share of slow time drifts over minutes. Interference only ever adds
/// time, and a cell is the same deterministic work in every round, so
/// each cell's simulation counts at its fastest round. Set-up and the rest
/// of a round (checks, drops) are medians over rounds; `wall_s` is the sum
/// of the three. The first round only warms up (allocator, page faults,
/// caches) and is left out when a run holds more than one.
fn end_to_end(args: &Args, cells: &[Cell], checker: &mut Checker) -> Vec<Metric> {
    let start = Instant::now();
    let mut sim_ns: Vec<Vec<u64>> = vec![Vec::new(); cells.len()];
    let (mut acts, mut setup_s, mut rest_s) = (0, vec![], vec![]);
    let (mut rounds_wall_s, mut rounds_ns_per_act) = (vec![], vec![]);
    let mut slowdown = 0.0;
    while setup_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let round = Instant::now();
        let (mut round_setup_ns, mut round_sim_ns) = (0, 0);
        acts = 0;
        let mut results = Vec::new();
        for (cell, cell_sim_ns) in cells.iter().zip(&mut sim_ns) {
            let run = run_cell(cell, None);
            round_setup_ns += run.setup_ns;
            round_sim_ns += run.sim_ns;
            cell_sim_ns.push(run.sim_ns);
            acts += run.result.stats.activations;
            let problems = checker.inspect(cell, &run.result);
            checker.record(problems);
            results.push(run.result);
        }
        if args.bench == Bench::BenignFig6 {
            slowdown = slowdown_pct(&results);
            checker.check_slowdown(slowdown);
        }
        drop(results);
        let wall = round.elapsed().as_secs_f64();
        setup_s.push(round_setup_ns as f64 / 1e9);
        rest_s.push(wall - (round_setup_ns + round_sim_ns) as f64 / 1e9);
        rounds_wall_s.push(wall);
        rounds_ns_per_act.push(ratio(round_sim_ns as f64, acts as f64));
    }
    println!(
        "rounds = {}; ns_per_act of each round = {rounds_ns_per_act:.0?}; \
         wall_s of each round = {rounds_wall_s:.3?}",
        rounds_wall_s.len()
    );
    if args.bench == Bench::BenignFig6 {
        println!(
            "sim_slowdown_pct = {slowdown:.4} %  (paper: {PAPER_SLOWDOWN_PCT} %; \
             modelled, not validated against hardware)"
        );
    }
    let skip = usize::from(setup_s.len() > 1);
    let fastest_sim: u64 = sim_ns
        .iter()
        .map(|ns| ns[skip..].iter().min().copied().unwrap_or(0))
        .sum();
    let setup = median(&mut setup_s[skip..]);
    let wall = fastest_sim as f64 / 1e9 + setup + median(&mut rest_s[skip..]);
    vec![
        ("ns_per_act", ratio(fastest_sim as f64, acts as f64), "ns"),
        ("wall_s", wall, "s"),
        ("setup_s", setup, "s"),
        (
            "peak_rss_mb",
            peak_rss_mb().expect("VmHWM is readable from /proc/self/status"),
            "MiB",
        ),
    ]
}

/// Host time per activation in a traced cell's first and last complete
/// epoch, summed over cells, with the timers' own cost taken out.
#[derive(Default)]
struct EpochCost {
    first: (f64, u64),
    last: (f64, u64),
}

impl EpochCost {
    /// Adds one traced cell. The last mark is `flush_epoch`'s partial
    /// epoch at the end of the run; a run without a complete epoch counts
    /// as its own first and last.
    fn add(&mut self, sim_start: Instant, marks: &[EpochMark], cal: Calibration) {
        let mut prev = EpochMark {
            at: sim_start,
            acts: 0,
            timed_calls: 0,
        };
        let mut intervals = Vec::with_capacity(marks.len());
        for &mark in marks {
            let ns = (mark.at - prev.at).as_nanos() as f64;
            let timers = (mark.timed_calls - prev.timed_calls) as f64 * cal.total_ns;
            intervals.push((ns - timers, mark.acts - prev.acts));
            prev = mark;
        }
        let complete = &intervals[..intervals.len().saturating_sub(1)];
        for (sum, interval) in [
            (&mut self.first, complete.first().or(intervals.first())),
            (&mut self.last, complete.last().or(intervals.last())),
        ] {
            if let Some(&(ns, acts)) = interval {
                sum.0 += ns;
                sum.1 += acts;
            }
        }
    }

    fn ns_per_act(sum: (f64, u64)) -> f64 {
        ratio(sum.0, sum.1 as f64)
    }
}

/// Traced rounds: each cell runs untraced and traced (alternating which
/// goes first), and both results must be byte-identical to
/// `Cell::execute_probed`'s.
fn per_layer(args: &Args, cells: &[Cell], checker: &mut Checker) -> Vec<Metric> {
    let cal = Calibration::measure();
    let mut oracle: BTreeMap<usize, String> = BTreeMap::new();
    let mut spans = [Span::default(); 5];
    let (mut actions, mut acts, mut flips, mut build_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut traced_sim, mut untraced_sim, mut traced_all, mut untraced_all) = (0, 0, 0, 0);
    let mut by_mitigation: BTreeMap<&str, Span> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut epochs = EpochCost::default();
    let mut slowdown = 0.0;
    let mut rounds = 0u64;
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let mut results = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let layers = Rc::new(Layers::default());
            let (u, t) = if rounds.is_multiple_of(2) {
                let u = run_cell(cell, None);
                (u, run_cell(cell, Some(&layers)))
            } else {
                let t = run_cell(cell, Some(&layers));
                (run_cell(cell, None), t)
            };
            let expected = oracle.entry(i).or_insert_with(|| {
                cell.execute_probed(&Telemetry::new())
                    .to_json()
                    .to_string_compact()
            });
            let mut problems = checker.inspect(cell, &u.result);
            problems.extend(checker.inspect(cell, &t.result));
            for (run, label) in [(&u, "untraced"), (&t, "traced")] {
                if run.result.to_json().to_string_compact() != *expected {
                    problems.push(format!(
                        "{}: {label} result differs from Cell::execute_probed",
                        cell.id()
                    ));
                }
            }
            checker.record(problems);

            for (sum, span) in spans.iter_mut().zip(layers.spans()) {
                sum.merge(span);
            }
            actions += layers.actions.get();
            epochs.add(t.sim_start, &layers.epoch_marks.borrow(), cal);
            let cell_acts = t.result.stats.activations;
            acts += cell_acts;
            flips += t.result.bit_flips.len() as u64;
            build_ns += t.build_ns;
            traced_sim += t.sim_ns;
            untraced_sim += u.sim_ns;
            traced_all += t.setup_ns + t.sim_ns;
            untraced_all += u.setup_ns + u.sim_ns;
            by_mitigation
                .entry(cell.mitigation.name())
                .or_default()
                .merge(Span {
                    calls: cell_acts,
                    ns: u.sim_ns,
                });
            for (name, value) in &t.counters {
                *counters.entry(name.clone()).or_default() += value;
            }
            results.push(t.result);
        }
        if args.bench == Bench::BenignFig6 {
            slowdown = slowdown_pct(&results);
            checker.check_slowdown(slowdown);
        }
        rounds += 1;
    }
    println!(
        "rounds = {rounds}; timer calibration: {:.1} ns read inside, {:.1} ns per timed call",
        cal.inside_ns, cal.total_ns
    );

    let per_round = |v: u64| v as f64 / rounds as f64;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    // A timed call reads `inside_ns` of timer cost into its span and adds
    // `total_ns` of host time to the run.
    let corrected = |s: Span| (s.ns as f64 - s.calls as f64 * cal.inside_ns).max(0.0);
    let ns_per_call = |s: Span| ratio(corrected(s), s.calls as f64);
    let [next_record, resolve, on_activation, activation_delay, on_epoch_end] = spans;
    let timed_calls: u64 = spans.iter().map(|s| s.calls).sum();
    let overhead = timed_calls as f64 * cal.total_ns;
    // What the traced simulation would have taken without the timers.
    let explained = traced_sim as f64 - overhead;
    let remainder = explained - spans.iter().map(|&s| corrected(s)).sum::<f64>();
    let cell_ns_per_act = |m: MitigationKind| {
        let s = by_mitigation.get(m.name()).copied().unwrap_or_default();
        ratio(s.ns as f64, s.calls as f64)
    };
    // RRS's own counters are per activation of the RRS cells only.
    let rrs_acts = by_mitigation.get("rrs").map_or(0, |s| s.calls) as f64;
    let accesses = counter("ctrl.reads") + counter("ctrl.writes");
    let tlb = counter("rit.tlb.hits") + counter("rit.tlb.misses");
    vec![
        (
            "workloads.next_record.calls",
            per_round(next_record.calls),
            "count",
        ),
        (
            "workloads.next_record.ns_per_call",
            ns_per_call(next_record),
            "ns",
        ),
        (
            "mitigations.resolve.calls",
            per_round(resolve.calls),
            "count",
        ),
        (
            "mitigations.resolve.ns_per_call",
            ns_per_call(resolve),
            "ns",
        ),
        (
            "core.rit.tlb_hit_ratio",
            ratio(counter("rit.tlb.hits"), tlb),
            "ratio",
        ),
        (
            "mitigations.on_activation.calls",
            per_round(on_activation.calls),
            "count",
        ),
        (
            "mitigations.on_activation.ns_per_call",
            ns_per_call(on_activation),
            "ns",
        ),
        (
            "mitigations.on_activation.actions_per_call",
            ratio(actions as f64, on_activation.calls as f64),
            "ratio",
        ),
        (
            "mitigations.activation_delay.calls",
            per_round(activation_delay.calls),
            "count",
        ),
        (
            "mitigations.activation_delay.ns_per_call",
            ns_per_call(activation_delay),
            "ns",
        ),
        (
            "mitigations.on_epoch_end.calls",
            per_round(on_epoch_end.calls),
            "count",
        ),
        (
            "mitigations.on_epoch_end.ns_per_call",
            ns_per_call(on_epoch_end),
            "ns",
        ),
        (
            "mitigations.on_epoch_end.share_pct",
            100.0 * ratio(corrected(on_epoch_end), explained),
            "%",
        ),
        (
            "mem-ctrl.epochs_per_kact",
            1000.0 * ratio(counter("ctrl.epochs_completed"), acts as f64),
            "epochs/kact",
        ),
        ("mitigations.build_ms", per_round(build_ns) / 1e6, "ms"),
        (
            "sim_memctrl_dram.self_ns_per_act",
            ratio(remainder, acts as f64),
            "ns",
        ),
        ("mem-ctrl.activations", per_round(acts), "count"),
        (
            "mem-ctrl.row_hit_ratio",
            ratio(counter("ctrl.row_hits"), accesses),
            "ratio",
        ),
        (
            "mem-ctrl.swaps",
            counter("ctrl.swaps") / rounds as f64,
            "count",
        ),
        (
            "mem-ctrl.unswaps",
            counter("ctrl.unswaps") / rounds as f64,
            "count",
        ),
        (
            "core.hrt.installs_per_act",
            ratio(counter("hrt.installs"), rrs_acts),
            "ratio",
        ),
        (
            "core.cat.relocations",
            counter("cat.relocations") / rounds as f64,
            "count",
        ),
        ("dram.bit_flips", per_round(flips), "count"),
        (
            "cells.none.ns_per_act",
            cell_ns_per_act(MitigationKind::None),
            "ns",
        ),
        (
            "cells.rrs.ns_per_act",
            cell_ns_per_act(MitigationKind::Rrs),
            "ns",
        ),
        (
            "cells.bh-1k.ns_per_act",
            cell_ns_per_act(MitigationKind::BlockHammer1k),
            "ns",
        ),
        (
            "cells.bh-512.ns_per_act",
            cell_ns_per_act(MitigationKind::BlockHammer512),
            "ns",
        ),
        (
            "sim.epoch_ns_per_act.first",
            EpochCost::ns_per_act(epochs.first),
            "ns",
        ),
        (
            "sim.epoch_ns_per_act.last",
            EpochCost::ns_per_act(epochs.last),
            "ns",
        ),
        ("sim.slowdown_pct", slowdown, "%"),
        (
            "attribution.unexplained_pct",
            100.0 * ratio(untraced_sim as f64 - explained, untraced_sim as f64),
            "%",
        ),
        (
            "tracing.overhead_pct",
            100.0 * ratio(traced_all as f64 - untraced_all as f64, untraced_all as f64),
            "%",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cells = args.bench.cells(args.seed);
    let mut checker = Checker::new(args.seed);
    let metrics = if args.trace {
        per_layer(&args, &cells, &mut checker)
    } else {
        end_to_end(&args, &cells, &mut checker)
    };

    for p in checker.problems.iter().take(20) {
        eprintln!("FAIL {p}");
    }
    println!(
        "fail_frac = {} ({} of {} checks failed)",
        ratio(checker.failed as f64, checker.attempted as f64),
        checker.failed,
        checker.attempted
    );
    for m in &metrics {
        println!("{} = {} {}", m.0, m.1, m.2);
    }
    let report = Json::Obj(vec![
        ("correct".into(), Json::Bool(checker.failed == 0)),
        ("attempted".into(), Json::u64(checker.attempted)),
        ("failed".into(), Json::u64(checker.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let entry = Json::Obj(vec![
                            ("value".into(), Json::f64(m.1)),
                            ("unit".into(), Json::str(m.2)),
                        ]);
                        (m.0.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report.to_string_compact());
    ExitCode::SUCCESS
}
