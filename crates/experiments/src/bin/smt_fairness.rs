//! §6.4 extension experiment — alternative SMT reward metrics.
//!
//! The paper notes that "Bandit can easily optimize other metrics, such as
//! the average weighted IPC or harmonic mean of weighted IPC, by simply
//! changing the Bandit reward". This experiment demonstrates exactly that:
//! the same DUCB controller run with the throughput reward (summed IPC)
//! versus the fairness-aware reward (harmonic mean of weighted IPC), on
//! asymmetric 2-thread mixes where the two objectives conflict.
//!
//! Reported per mix: summed IPC, harmonic-weighted IPC, and the per-thread
//! slowdowns, under each reward.

use mab_core::reward::harmonic_mean_weighted;
use mab_experiments::{
    cli::Options, report, session::TelemetrySession, smt_runs, traces::TraceStore,
};
use mab_smtsim::controllers::RewardMetric;
use mab_workloads::smt::{self, ThreadSpec};
use std::collections::BTreeMap;

/// Isolated (single-thread-like) IPC estimate: the thread paired with an
/// almost-idle partner.
fn isolated_ipc(spec: &ThreadSpec, commits: u64, seed: u64, store: &TraceStore) -> f64 {
    // Pair with the lightest catalog thread to approximate isolation.
    let idle = smt::thread_by_name("exchange2").expect("catalog thread");
    let stats = smt_runs::run_choi(
        [spec.clone(), idle],
        smt_runs::scaled_params(),
        commits,
        seed,
        store,
    );
    stats.ipc(0)
}

fn main() {
    let opts = Options::parse_experiment("smt_fairness");
    let session = TelemetrySession::start("smt_fairness", &opts);
    let store = TraceStore::from_options(&opts);
    let params = smt_runs::scaled_params();
    let (commits, seed) = (opts.instructions, opts.seed);
    println!("=== §6.4: throughput vs fairness rewards for the SMT Bandit ===\n");

    // Asymmetric mixes: a fast thread next to a slow one.
    let pairs: Vec<[ThreadSpec; 2]> = [
        ("exchange2", "mcf"),
        ("deepsjeng", "lbm"),
        ("gcc", "bwaves"),
        ("x264", "mcf"),
        ("imagick", "lbm"),
        ("leela", "fotonik3d"),
    ]
    .into_iter()
    .take(opts.mixes)
    .map(|(a, b)| [a, b].map(|name| smt::thread_by_name(name).expect("catalog thread")))
    .collect();
    // The harmonic reward weighs each thread by its isolated IPC, so a
    // first sweep runs those, one per distinct thread.
    let mut threads: Vec<&ThreadSpec> = pairs.iter().flatten().collect();
    threads.sort_by(|a, b| a.name.cmp(&b.name));
    threads.dedup_by(|a, b| a.name == b.name);
    let ipcs = mab_runner::sweep(
        &threads,
        mab_runner::SweepOptions::new(opts.jobs, seed),
        |_ctx, spec| isolated_ipc(spec, commits, seed, &store),
    )
    .unwrap_or_else(|e| panic!("smt_fairness isolated-IPC sweep failed: {e}"));
    let by_name: BTreeMap<&str, f64> = threads.iter().map(|t| t.name.as_str()).zip(ipcs).collect();
    let isolated = |specs: &[ThreadSpec; 2]| specs.each_ref().map(|t| by_name[t.name.as_str()]);
    // Per mix: the throughput reward (`false`), then the harmonic one.
    let arms: Vec<_> = pairs
        .iter()
        .flat_map(|specs| [(specs, false), (specs, true)])
        .collect();
    let runs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, seed),
        |_ctx, &(specs, harmonic)| {
            let ducb = mab_core::AlgorithmKind::Ducb {
                gamma: 0.975,
                c: 0.01,
            };
            let mut controller = smt_runs::scaled_bandit(ducb, seed);
            controller.set_reward_metric(if harmonic {
                RewardMetric::HarmonicWeighted {
                    isolated: isolated(specs),
                }
            } else {
                RewardMetric::SumIpc
            });
            smt_runs::run_mix(
                &mut controller,
                specs.clone(),
                params,
                commits,
                seed,
                &store,
            )
        },
    )
    .unwrap_or_else(|e| panic!("smt_fairness reward sweep failed: {e}"));

    let mut table = report::Table::new(vec![
        "mix".into(),
        "reward".into(),
        "sum IPC".into(),
        "harmonic weighted".into(),
        "slowdown A".into(),
        "slowdown B".into(),
    ]);
    let mut sum_gain = Vec::new();
    let mut fairness_gain = Vec::new();
    for (specs, runs) in pairs.iter().zip(runs.chunks(2)) {
        let isolated = isolated(specs);
        let mut results = Vec::new();
        for (label, stats) in ["sum", "harmonic"].into_iter().zip(runs) {
            let weighted = [
                stats.ipc(0) / isolated[0].max(1e-9),
                stats.ipc(1) / isolated[1].max(1e-9),
            ];
            let hm = harmonic_mean_weighted(&weighted);
            table.row(vec![
                format!("{}-{}", specs[0].name, specs[1].name),
                label.into(),
                format!("{:.3}", stats.sum_ipc()),
                format!("{hm:.3}"),
                format!("{:.2}x", 1.0 / weighted[0].max(1e-9)),
                format!("{:.2}x", 1.0 / weighted[1].max(1e-9)),
            ]);
            results.push((stats.sum_ipc(), hm));
        }
        sum_gain.push(results[0].0 / results[1].0.max(1e-9));
        fairness_gain.push(results[1].1 / results[0].1.max(1e-9));
    }
    table.print();
    println!(
        "\nthroughput reward wins sum-IPC by {} (gmean); fairness reward wins harmonic-weighted by {} (gmean)",
        report::pct_change(report::gmean(&sum_gain)),
        report::pct_change(report::gmean(&fairness_gain)),
    );
    println!("(the paper claims this retargeting needs only a reward swap — §6.4)");
    session.finish();
}
