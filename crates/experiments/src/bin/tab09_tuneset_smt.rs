//! Table 9 — min/max/gmean IPC of Choi, Single, Periodic, ε-Greedy, UCB and
//! DUCB as a percentage of the best-static-arm IPC, on the SMT tune set.

use mab_core::AlgorithmKind;
use mab_experiments::{
    cli::Options, report, session::TelemetrySession, smt_runs, traces::TraceStore,
};
use mab_smtsim::policies::PgPolicy;
use mab_workloads::smt;

/// One simulation of a mix: a policy pinned for the whole run, or a table
/// column (`None` is Choi).
enum Run {
    Static(PgPolicy),
    Column(Option<AlgorithmKind>),
}

fn main() {
    let opts = Options::parse_experiment("tab09_tuneset_smt");
    let session = TelemetrySession::start("tab09_tuneset_smt", &opts);
    let store = TraceStore::from_options(&opts);
    let params = smt_runs::scaled_params();
    println!("=== Table 9: tune-set IPC as % of the best static arm (SMT fetch) ===\n");

    let columns: Vec<(&str, Option<AlgorithmKind>)> = vec![
        ("Choi", None),
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
        ("UCB", Some(AlgorithmKind::Ucb { c: 0.01 })),
        (
            "DUCB",
            Some(AlgorithmKind::Ducb {
                gamma: 0.975,
                c: 0.01,
            }),
        ),
    ];

    let mixes: Vec<_> = smt::two_thread_mixes(&smt::smt_tune_apps())
        .into_iter()
        .take(opts.mixes)
        .collect();
    // Per mix: the 6 Bandit arms' policies pinned for the whole run (the
    // Best Static oracle), then the columns.
    let statics = PgPolicy::bandit_arms();
    let runs: Vec<Run> = statics
        .map(Run::Static)
        .into_iter()
        .chain(columns.iter().map(|&(_, kind)| Run::Column(kind)))
        .collect();
    let arms: Vec<_> = mixes
        .iter()
        .flat_map(|mix| runs.iter().map(move |run| (mix, run)))
        .collect();
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &((a, b), run)| {
            let specs = [a.clone(), b.clone()];
            let (commits, seed) = (opts.instructions, opts.seed);
            match *run {
                Run::Static(policy) => {
                    smt_runs::run_static(policy, specs, params, commits, seed, &store)
                }
                Run::Column(None) => smt_runs::run_choi(specs, params, commits, seed, &store),
                Run::Column(Some(kind)) => {
                    smt_runs::run_bandit_algorithm(kind, specs, params, commits, seed, &store)
                }
            }
            .sum_ipc()
        },
    )
    .unwrap_or_else(|e| panic!("tab09 sweep failed: {e}"));

    let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for ((a, b), ipcs) in mixes.iter().zip(ipcs.chunks(runs.len())) {
        let (statics, columns_ipc) = ipcs.split_at(statics.len());
        let (_, best_ipc) = report::best(statics);
        let mut line = format!("{:>10}-{:10} best-static {:.3} |", a.name, b.name, best_ipc);
        for (i, ((name, _), ipc)) in columns.iter().zip(columns_ipc).enumerate() {
            let frac = ipc / best_ipc.max(1e-9);
            per_column[i].push(frac);
            line.push_str(&format!(" {name}={:.1}", frac * 100.0));
        }
        mab_telemetry::progress!("{line}");
    }

    println!();
    report::pct_summary(columns.iter().map(|c| c.0), &per_column).print();
    println!("\n(paper Table 9: DUCB best gmean 98.6 / min 92.2; Choi gmean 94.5)");
    session.finish();
}
