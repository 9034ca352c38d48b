//! Ablations of the design choices DESIGN.md calls out: DUCB γ and c
//! sweeps, the §4.3 reward normalization, the §4.3 round-robin restart in
//! 4-core runs, and the bandit step length.

use mab_core::{AlgorithmKind, BanditConfig};
use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, traces::TraceStore,
};
use mab_memsim::{config::SystemConfig, System};
use mab_prefetch::{BanditL2, PAPER_ARMS};
use mab_workloads::{suites, AppSpec};

/// A single-core DUCB bandit: its discount γ, its exploration constant c,
/// whether it normalizes rewards (§4.3), and its step length in L2 demand
/// accesses.
type Variant = (f64, f64, bool, u32);

/// One simulation: a bandit variant on one app, or lbm on four cores under
/// a named prefetcher.
enum Arm<'a> {
    Single(&'a AppSpec, Variant),
    FourCore(&'static str),
}

fn run_custom(
    (gamma, c, normalize, step): Variant,
    app: &AppSpec,
    cfg: SystemConfig,
    instructions: u64,
    seed: u64,
    store: &TraceStore,
) -> f64 {
    let config = BanditConfig::builder(PAPER_ARMS.len())
        .algorithm(AlgorithmKind::Ducb { gamma, c })
        .normalize_rewards(normalize)
        .seed(seed)
        .build()
        .expect("valid");
    let bandit = BanditL2::new(config, PAPER_ARMS.to_vec(), step, 500).expect("valid setup");
    let mut system = System::single_core(cfg);
    system.set_prefetcher(0, Box::new(bandit));
    system
        .run(&mut store.mem_source(app, seed, instructions), instructions)
        .ipc()
}

fn main() {
    let opts = Options::parse_experiment("ablations");
    let session = TelemetrySession::start("ablations", &opts);
    let store = TraceStore::from_options(&opts);
    let cfg = SystemConfig::default();
    println!("=== Ablations (gmean IPC over 6 representative apps) ===\n");
    let apps: Vec<_> = ["libquantum", "lbm", "cactus", "mcf", "soplex", "bfs"]
        .iter()
        .map(|n| suites::app_by_name(n).expect("catalog app"))
        .collect();
    let lbm = suites::app_by_name("lbm").expect("catalog app");
    let four_core = [("off", "bandit"), ("on (p=0.001)", "bandit-multicore")];
    // Each sweep varies one knob of the default (γ 0.999, c 0.04,
    // normalized, 1000-access steps).
    let sweeps = [
        (
            "-- DUCB discount gamma sweep (c = 0.04) --",
            "gamma",
            [0.9, 0.975, 0.99, 0.999, 0.9999, 1.0]
                .map(|gamma| (format!("{gamma}"), (gamma, 0.04, true, 1000)))
                .to_vec(),
        ),
        (
            "\n-- exploration constant c sweep (gamma = 0.999) --",
            "c",
            [0.0, 0.01, 0.04, 0.1, 0.5, 2.0]
                .map(|c| (format!("{c}"), (0.999, c, true, 1000)))
                .to_vec(),
        ),
        (
            "\n-- reward normalization (the 4.3 modification) --",
            "normalization",
            [("on", true), ("off", false)]
                .map(|(label, on)| (label.to_string(), (0.999, 0.04, on, 1000)))
                .to_vec(),
        ),
        (
            "\n-- bandit step length (L2 demand accesses per step) --",
            "step",
            [100u32, 300, 1000, 3000, 10_000]
                .map(|step| (step.to_string(), (0.999, 0.04, true, step)))
                .to_vec(),
        ),
    ];
    // The default appears in all four sweeps; it runs once per app.
    let mut variants: Vec<Variant> = Vec::new();
    for &(_, variant) in sweeps.iter().flat_map(|(_, _, rows)| rows) {
        if !variants.contains(&variant) {
            variants.push(variant);
        }
    }
    let mut arms: Vec<Arm> = apps
        .iter()
        .flat_map(|app| variants.iter().map(move |&v| Arm::Single(app, v)))
        .collect();
    arms.extend(four_core.map(|(_, name)| Arm::FourCore(name)));
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, arm| match *arm {
            Arm::Single(app, variant) => {
                run_custom(variant, app, cfg, opts.instructions, opts.seed, &store)
            }
            // Summed over the four cores.
            Arm::FourCore(name) => prefetch_runs::run_four_core_homogeneous(
                name,
                &lbm,
                cfg,
                opts.instructions / 4,
                opts.seed,
                &store,
            )
            .iter()
            .map(|s| s.ipc())
            .sum(),
        },
    )
    .unwrap_or_else(|e| panic!("ablations sweep failed: {e}"));

    for (title, knob, rows) in &sweeps {
        println!("{title}");
        let mut table = report::Table::new(vec![knob.to_string(), "gmean IPC".into()]);
        for (label, variant) in rows {
            let v = variants
                .iter()
                .position(|x| x == variant)
                .expect("variant ran");
            let vals: Vec<f64> = (0..apps.len())
                .map(|app| ipcs[app * variants.len() + v])
                .collect();
            table.row(vec![label.clone(), format!("{:.4}", report::gmean(&vals))]);
        }
        table.print();
    }

    println!("\n-- round-robin restart in 4-core runs (sum IPC, lbm x4) --");
    let mut table = report::Table::new(vec!["rr_restart".into(), "sum IPC".into()]);
    let sums = &ipcs[apps.len() * variants.len()..];
    for ((label, _), sum) in four_core.iter().zip(sums) {
        table.row(vec![label.to_string(), format!("{sum:.4}")]);
    }
    table.print();
    session.finish();
}
