//! Fig. 7 — Exploration over time: the arm index selected by Best Static,
//! Single, UCB and DUCB as a function of time, for two prefetching
//! applications (cactus, mcf — the latter has a phase change) and two SMT
//! mixes (gcc-lbm, cactus-lbm). Each series also reports its final IPC.

use mab_core::AlgorithmKind;
use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, smt_runs, traces::TraceStore,
};
use mab_memsim::{config::SystemConfig, System};
use mab_prefetch::{shared::SharedPrefetcher, BanditL2, PAPER_ARMS};
use mab_smtsim::policies::PgPolicy;
use mab_workloads::{smt, suites};

const APPS: [&str; 2] = ["cactus", "mcf"];
const MIXES: [(&str, &str); 2] = [("gcc", "lbm"), ("cactus", "lbm")];
/// The algorithms each column compares with Best Static.
const ALGORITHMS: [&str; 3] = ["Single", "UCB", "DUCB"];

/// One simulation, on the app or mix at an index.
enum Arm {
    /// A prefetching app with one of the 11 arms pinned (Best Static).
    PrefetchStatic(usize, usize),
    /// A prefetching app under a bandit algorithm.
    Prefetch(usize, AlgorithmKind),
    /// An SMT mix under one of the 6 Bandit arms' policies (Best Static).
    SmtStatic(usize, PgPolicy),
    /// An SMT mix under a bandit algorithm.
    SmtBandit(usize, AlgorithmKind),
}

fn main() {
    let opts = Options::parse_experiment("fig07_exploration");
    let session = TelemetrySession::start("fig07_exploration", &opts);
    let store = TraceStore::from_options(&opts);
    println!("=== Fig. 7: arm exploration over time (series of (cycle, arm)) ===\n");
    let cfg = SystemConfig::default();
    let params = smt_runs::scaled_params();
    let smt_commits = (opts.instructions / 20).max(20_000);
    // Single, UCB and DUCB with each substrate's tuned constants.
    let ducb = |gamma, c| AlgorithmKind::Ducb { gamma, c };
    let prefetch_kinds = [
        AlgorithmKind::Single,
        AlgorithmKind::Ucb { c: 0.04 },
        ducb(0.999, 0.04),
    ];
    let smt_kinds = [
        AlgorithmKind::Single,
        AlgorithmKind::Ucb { c: 0.01 },
        ducb(0.975, 0.01),
    ];
    let smt_statics = PgPolicy::bandit_arms();
    let apps = APPS.map(|name| suites::app_by_name(name).expect("catalog app"));
    let mixes =
        MIXES.map(|(a, b)| [a, b].map(|name| smt::thread_by_name(name).expect("catalog thread")));
    let mut arms = Vec::new();
    for app in 0..apps.len() {
        arms.extend((0..PAPER_ARMS.len()).map(|arm| Arm::PrefetchStatic(app, arm)));
        arms.extend(prefetch_kinds.map(|kind| Arm::Prefetch(app, kind)));
    }
    for mix in 0..mixes.len() {
        arms.extend(smt_statics.map(|policy| Arm::SmtStatic(mix, policy)));
        arms.extend(smt_kinds.map(|kind| Arm::SmtBandit(mix, kind)));
    }
    // Each arm's IPC (summed over the threads for SMT) and, for the bandit
    // arms, its selection history as (time, arm) points.
    let runs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, arm| -> (f64, Vec<(String, f64)>) {
            let (instructions, seed) = (opts.instructions, opts.seed);
            match *arm {
                Arm::PrefetchStatic(app, arm) => {
                    let kind = AlgorithmKind::Static { arm };
                    let app = &apps[app];
                    let stats = prefetch_runs::run_bandit_algorithm(
                        kind,
                        app,
                        cfg,
                        instructions,
                        seed,
                        &store,
                    );
                    (stats.ipc(), Vec::new())
                }
                Arm::Prefetch(app, kind) => {
                    let handle = SharedPrefetcher::new({
                        let mut b = BanditL2::with_algorithm(kind, seed);
                        b.record_history();
                        b
                    });
                    let mut system = System::single_core(cfg);
                    system.set_prefetcher(0, Box::new(handle.clone()));
                    let stats = system.run(
                        &mut store.mem_source(&apps[app], seed, instructions),
                        instructions,
                    );
                    let history = handle.with(|b| b.history().map(<[(u64, usize)]>::to_vec));
                    let points = history
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(cycle, arm)| (cycle.to_string(), arm as f64))
                        .collect();
                    (stats.ipc(), points)
                }
                Arm::SmtStatic(mix, policy) => {
                    let specs = mixes[mix].clone();
                    let stats =
                        smt_runs::run_static(policy, specs, params, smt_commits, seed, &store);
                    (stats.sum_ipc(), Vec::new())
                }
                Arm::SmtBandit(mix, kind) => {
                    let specs = mixes[mix].clone();
                    let mut controller = smt_runs::scaled_bandit(kind, seed);
                    let stats = smt_runs::run_mix(
                        &mut controller,
                        specs,
                        params,
                        smt_commits,
                        seed,
                        &store,
                    );
                    let points = controller
                        .history()
                        .iter()
                        .enumerate()
                        .map(|(step, &arm)| (step.to_string(), arm as f64))
                        .collect();
                    (stats.sum_ipc(), points)
                }
            }
        },
    )
    .unwrap_or_else(|e| panic!("fig07 sweep failed: {e}"));

    let mut runs = runs.into_iter();
    let columns = APPS
        .map(|app| (format!("prefetching / {app}"), PAPER_ARMS.len(), "ipc"))
        .into_iter()
        .chain(MIXES.map(|(a, b)| (format!("smt / {a}-{b}"), smt_statics.len(), "sum-ipc")));
    for (title, statics, metric) in columns {
        let ipcs: Vec<f64> = runs.by_ref().take(statics).map(|(ipc, _)| ipc).collect();
        let (best_arm, best_ipc) = report::best(&ipcs);
        println!("## {title}");
        report::print_series(
            &format!("BestStatic (arm {best_arm}, {metric} {best_ipc:.3})"),
            &[("0".into(), best_arm as f64)],
        );
        for name in ALGORITHMS {
            let (ipc, points) = runs.next().expect("one run per algorithm");
            report::print_series(&format!("{name} ({metric} {ipc:.3})"), &points);
        }
        println!();
    }
    println!("(paper: DUCB re-explores at mcf's phase change and settles on a new arm)");
    session.finish();
}
