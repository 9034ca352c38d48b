//! Table 8 — min/max/gmean IPC of Pythia, Single, Periodic, ε-Greedy, UCB
//! and DUCB as a percentage of the best-static-arm IPC, on the prefetching
//! tune set.

use mab_core::AlgorithmKind;
use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, traces::TraceStore,
};
use mab_memsim::config::SystemConfig;
use mab_prefetch::PAPER_ARMS;
use mab_workloads::suites;

fn main() {
    let opts = Options::parse_experiment("tab08_tuneset_prefetch");
    let session = TelemetrySession::start("tab08_tuneset_prefetch", &opts);
    let store = TraceStore::from_options(&opts);
    let cfg = SystemConfig::default();
    println!("=== Table 8: tune-set IPC as % of the best static arm (prefetching) ===\n");

    let columns: Vec<(&str, Option<AlgorithmKind>)> = vec![
        ("Pythia", None),
        ("Single", Some(AlgorithmKind::Single)),
        (
            "Periodic",
            Some(AlgorithmKind::Periodic {
                exploit_len: 30,
                window: 4,
            }),
        ),
        (
            "e-Greedy",
            Some(AlgorithmKind::EpsilonGreedy { epsilon: 0.1 }),
        ),
        ("UCB", Some(AlgorithmKind::Ucb { c: 0.04 })),
        (
            "DUCB",
            Some(AlgorithmKind::Ducb {
                gamma: 0.999,
                c: 0.04,
            }),
        ),
    ];

    let apps = suites::tune_set();
    // Per app: the 11 arms pinned for the whole run (the Best Static
    // oracle), then the columns.
    let statics = (0..PAPER_ARMS.len()).map(|arm| Some(AlgorithmKind::Static { arm }));
    let runs: Vec<_> = statics
        .chain(columns.iter().map(|&(_, kind)| kind))
        .collect();
    let arms: Vec<_> = apps
        .iter()
        .flat_map(|app| runs.iter().map(move |&kind| (app, kind)))
        .collect();
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &(app, kind)| {
            let (instructions, seed) = (opts.instructions, opts.seed);
            match kind {
                None => prefetch_runs::run_single("pythia", app, cfg, instructions, seed, &store),
                Some(kind) => {
                    prefetch_runs::run_bandit_algorithm(kind, app, cfg, instructions, seed, &store)
                }
            }
            .ipc()
        },
    )
    .unwrap_or_else(|e| panic!("tab08 sweep failed: {e}"));

    let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for (app, ipcs) in apps.iter().zip(ipcs.chunks(runs.len())) {
        let (statics, columns_ipc) = ipcs.split_at(PAPER_ARMS.len());
        let (_, best_ipc) = report::best(statics);
        let mut line = format!("{:14} best-static {:.3} |", app.name, best_ipc);
        for (i, ((name, _), ipc)) in columns.iter().zip(columns_ipc).enumerate() {
            let frac = ipc / best_ipc.max(1e-9);
            per_column[i].push(frac);
            line.push_str(&format!(" {name}={:.1}", frac * 100.0));
        }
        mab_telemetry::progress!("{line}");
    }

    println!();
    report::pct_summary(columns.iter().map(|c| c.0), &per_column).print();
    println!("\n(paper Table 8: DUCB best gmean 99.1 / min 95.0; Pythia max 102.5)");
    session.finish();
}
