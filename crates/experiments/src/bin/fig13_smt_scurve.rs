//! Fig. 13 — SMT thread fetching: IPC of Bandit relative to Choi across the
//! 2-thread mixes, sorted ascending (the paper's s-curve over 226 mixes).

use mab_core::AlgorithmKind;
use mab_experiments::{
    cli::Options, report, session::TelemetrySession, smt_runs, traces::TraceStore,
};
use mab_workloads::smt::{self, ThreadSpec};

fn main() {
    let opts = Options::parse_experiment("fig13_smt_scurve");
    let session = TelemetrySession::start("fig13_smt_scurve", &opts);
    let store = TraceStore::from_options(&opts);
    let params = smt_runs::scaled_params();
    println!("=== Fig. 13: Bandit vs Choi across 2-thread mixes (sorted ratios) ===\n");
    let mixes: Vec<_> = smt::two_thread_mixes(&smt::smt_apps())
        .into_iter()
        .take(opts.mixes)
        .collect();
    let (commits, seed) = (opts.instructions, opts.seed);
    let icount = "IC_0000".parse().expect("valid policy");
    let ducb = AlgorithmKind::Ducb {
        gamma: 0.975,
        c: 0.01,
    };
    // Per mix: Choi, ICount and the Bandit, each one arm.
    let controllers: [&(dyn Fn([ThreadSpec; 2]) -> f64 + Sync); 3] = [
        &|specs| smt_runs::run_choi(specs, params, commits, seed, &store).sum_ipc(),
        &|specs| smt_runs::run_static(icount, specs, params, commits, seed, &store).sum_ipc(),
        &|specs| {
            smt_runs::run_bandit_algorithm(ducb, specs, params, commits, seed, &store).sum_ipc()
        },
    ];
    let arms: Vec<_> = mixes
        .iter()
        .flat_map(|mix| controllers.iter().map(move |run| (mix, run)))
        .collect();
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, ((a, b), run)| run([a.clone(), b.clone()]),
    )
    .unwrap_or_else(|e| panic!("fig13 mix sweep failed: {e}"));
    let mut ratios: Vec<(String, f64, f64)> = mixes
        .iter()
        .zip(ipcs.chunks(controllers.len()))
        .map(|((a, b), ipc)| {
            let (choi, icount, bandit) = (ipc[0], ipc[1], ipc[2]);
            (
                format!("{}-{}", a.name, b.name),
                bandit / choi.max(1e-9),
                bandit / icount.max(1e-9),
            )
        })
        .collect();
    // Stable sort over deterministically ordered input: ties keep mix order.
    ratios.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("ratios are finite"));
    for (mix, vs_choi, _) in &ratios {
        println!("{mix}\t{vs_choi:.4}");
    }
    let vs_choi: Vec<f64> = ratios.iter().map(|r| r.1).collect();
    let vs_icount: Vec<f64> = ratios.iter().map(|r| r.2).collect();
    let above = vs_choi.iter().filter(|&&r| r > 1.04).count();
    let below = vs_choi.iter().filter(|&&r| r < 0.96).count();
    println!("\nmixes where Bandit > Choi by 4%: {above}; where Choi > Bandit by 4%: {below}");
    println!(
        "gmean speedup vs Choi: {}  |  vs ICount: {}",
        report::pct_change(report::gmean(&vs_choi)),
        report::pct_change(report::gmean(&vs_icount)),
    );
    println!("(paper: +2.2% gmean vs Choi — 36 mixes above +4%, 6 below −4% — and +7% vs ICount)");
    session.finish();
}
