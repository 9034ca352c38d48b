//! Fig. 12 — Multi-level prefetching: Stride(L1)+Stride(L2), IPCP at both
//! levels, Stride(L1)+Pythia(L2) and Stride(L1)+Bandit(L2), gmean IPC
//! normalized to no prefetching at either level.

use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, traces::TraceStore,
};
use mab_memsim::config::SystemConfig;
use mab_workloads::suites;

fn main() {
    let opts = Options::parse_experiment("fig12_multilevel");
    let session = TelemetrySession::start("fig12_multilevel", &opts);
    let store = TraceStore::from_options(&opts);
    let cfg = SystemConfig::default();
    println!("=== Fig. 12: multi-level prefetcher combinations ===\n");
    let combos: [(&str, &str, &str); 4] = [
        ("Stride_Stride", "stride", "stride"),
        ("IPCP", "ipcp", "ipcp"),
        ("Stride_Pythia", "stride", "pythia"),
        ("Stride_Bandit", "stride", "bandit"),
    ];
    let apps = suites::all_apps();
    // Per app, the no-prefetching baseline (`None`) once, then each combo.
    let arms: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            std::iter::once(None)
                .chain(combos.iter().map(|&(_, l1, l2)| Some((l1, l2))))
                .map(move |combo| (app, combo))
        })
        .collect();
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &(app, combo)| {
            let (instructions, seed) = (opts.instructions, opts.seed);
            match combo {
                None => prefetch_runs::run_single("none", app, cfg, instructions, seed, &store),
                Some((l1, l2)) => {
                    prefetch_runs::run_multilevel(l1, l2, app, cfg, instructions, seed, &store)
                }
            }
            .ipc()
        },
    )
    .unwrap_or_else(|e| panic!("fig12 sweep failed: {e}"));
    let mut table = report::Table::new(vec!["configuration".into(), "gmean IPC vs no-pf".into()]);
    for (c, (label, _, _)) in combos.iter().enumerate() {
        let vals: Vec<f64> = ipcs
            .chunks(combos.len() + 1)
            .map(|app| app[1 + c] / app[0].max(1e-9))
            .collect();
        table.row(vec![
            label.to_string(),
            format!("{:.3}", report::gmean(&vals)),
        ]);
    }
    table.print();
    println!(
        "\n(paper: Stride_Stride +16%, IPCP +24.5%, Stride_Pythia +24.8%, Stride_Bandit +24.5%)"
    );
    session.finish();
}
