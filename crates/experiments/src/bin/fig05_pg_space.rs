//! Fig. 5 — The fetch Priority & Gating design space: IPC of the best- and
//! worst-performing of the 64 PG policies relative to the Choi policy
//! (IC_1011), per 2-thread mix, with the best policy labelled.

use mab_experiments::{
    cli::Options, report, session::TelemetrySession, smt_runs, traces::TraceStore,
};
use mab_smtsim::policies::PgPolicy;
use mab_workloads::smt;

fn main() {
    let opts = Options::parse_experiment("fig05_pg_space");
    let session = TelemetrySession::start("fig05_pg_space", &opts);
    let store = TraceStore::from_options(&opts);
    let params = smt_runs::scaled_params();
    println!("=== Fig. 5: best/worst of the 64 fetch PG policies vs Choi (IC_1011) ===\n");
    let mixes: Vec<_> = smt::two_thread_mixes(&smt::smt_tune_apps())
        .into_iter()
        .take(opts.mixes)
        .collect();
    // Per mix, the Choi baseline (`None`) and then the 64 policies in
    // `PgPolicy::all()` order, so the min/max scan below breaks ties toward
    // the earlier policy.
    let policies = PgPolicy::all();
    let arms: Vec<(&(_, _), Option<PgPolicy>)> = mixes
        .iter()
        .flat_map(|mix| {
            std::iter::once(None)
                .chain(policies.iter().copied().map(Some))
                .map(move |policy| (mix, policy))
        })
        .collect();
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &((a, b), policy)| {
            let specs = [a.clone(), b.clone()];
            let (commits, seed) = (opts.instructions, opts.seed);
            match policy {
                None => smt_runs::run_choi(specs, params, commits, seed, &store),
                Some(policy) => smt_runs::run_static(policy, specs, params, commits, seed, &store),
            }
            .sum_ipc()
        },
    )
    .unwrap_or_else(|e| panic!("fig05 sweep failed: {e}"));
    let mut table = report::Table::new(vec![
        "mix".into(),
        "best policy".into(),
        "best vs Choi".into(),
        "worst policy".into(),
        "worst vs Choi".into(),
    ]);
    let mut best_ratios = Vec::new();
    let mut worst_ratios = Vec::new();
    for ((a, b), ipcs) in mixes.iter().zip(ipcs.chunks(policies.len() + 1)) {
        let ratios: Vec<f64> = ipcs[1..]
            .iter()
            .map(|ipc| ipc / ipcs[0].max(1e-9))
            .collect();
        let (best, best_ratio) = report::best(&ratios);
        let (worst, _) = report::best(&ratios.iter().map(|r| -r).collect::<Vec<_>>());
        best_ratios.push(best_ratio);
        worst_ratios.push(ratios[worst]);
        table.row(vec![
            format!("{}-{}", a.name, b.name),
            policies[best].to_string(),
            report::pct_change(best_ratio),
            policies[worst].to_string(),
            report::pct_change(ratios[worst]),
        ]);
    }
    table.print();
    println!(
        "\nbest-policy gain over Choi: gmean {}, max {}",
        report::pct_change(report::gmean(&best_ratios)),
        report::pct_change(report::max(&best_ratios)),
    );
    println!(
        "worst-policy loss vs Choi: min {}",
        report::pct_change(report::min(&worst_ratios)),
    );
    println!("(paper: different policies win in different mixes; a bad policy can cost >40%)");
    session.finish();
}
