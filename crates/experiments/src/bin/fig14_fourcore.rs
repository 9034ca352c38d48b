//! Fig. 14 — Four-core performance: every core runs the same application
//! (homogeneous mixes); gmean of per-mix summed IPC normalized to the
//! no-prefetching baseline. Bandit runs with the §4.3 round-robin restart
//! (`rr_restart_prob = 0.001`).

use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, traces::TraceStore,
};
use mab_memsim::config::SystemConfig;
use mab_workloads::{suites, AppSpec};

fn main() {
    let opts = Options::parse_experiment("fig14_fourcore");
    let session = TelemetrySession::start("fig14_fourcore", &opts);
    let store = TraceStore::from_options(&opts);
    let cfg = SystemConfig::default();
    let lineup = ["stride", "bingo", "mlop", "pythia", "bandit-multicore"];
    println!("=== Fig. 14: 4-core homogeneous mixes, sum-IPC vs no prefetching ===\n");
    let mut table = report::Table::new(
        std::iter::once("app".to_string())
            .chain(lineup.iter().map(|s| s.to_string()))
            .collect(),
    );
    let apps = suites::all_apps();
    let arms: Vec<(&AppSpec, &str)> = apps
        .iter()
        .flat_map(|app| std::iter::once("none").chain(lineup).map(move |p| (app, p)))
        .collect();
    // Each arm's IPC summed over the four cores.
    let sums = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &(app, name)| -> f64 {
            prefetch_runs::run_four_core_homogeneous(
                name,
                app,
                cfg,
                opts.instructions,
                opts.seed,
                &store,
            )
            .iter()
            .map(|s| s.ipc())
            .sum()
        },
    )
    .unwrap_or_else(|e| panic!("fig14 sweep failed: {e}"));
    let mut per_pf: Vec<Vec<f64>> = vec![Vec::new(); lineup.len()];
    for (app, sums) in apps.iter().zip(sums.chunks(lineup.len() + 1)) {
        let mut row = vec![app.name.clone()];
        for (i, sum) in sums[1..].iter().enumerate() {
            let norm = sum / sums[0].max(1e-9);
            per_pf[i].push(norm);
            row.push(format!("{norm:.3}"));
        }
        table.row(row);
    }
    table.row(
        std::iter::once("ALL (gmean)".to_string())
            .chain(per_pf.iter().map(|v| format!("{:.3}", report::gmean(v))))
            .collect(),
    );
    table.print();
    println!(
        "\n(paper: Bandit beats Stride +6%, MLOP +2.4%, Bingo +4.0%; Pythia leads Bandit by ~1%)"
    );
    session.finish();
}
