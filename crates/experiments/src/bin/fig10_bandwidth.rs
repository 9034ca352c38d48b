//! Fig. 10 — Pythia vs Bandit under a DRAM bandwidth sweep
//! (150 / 600 / 2400 / 9600 MTPS), gmean IPC normalized to no prefetching
//! at each bandwidth point.

use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, traces::TraceStore,
};
use mab_memsim::config::SystemConfig;
use mab_workloads::suites;

const MTPS: [u64; 4] = [150, 600, 2400, 9600];
const PREFETCHERS: [&str; 3] = ["none", "pythia", "bandit"];

fn main() {
    let opts = Options::parse_experiment("fig10_bandwidth");
    let session = TelemetrySession::start("fig10_bandwidth", &opts);
    let store = TraceStore::from_options(&opts);
    println!("=== Fig. 10: performance under DRAM bandwidth sweep (MTPS) ===\n");
    let apps = suites::tune_set();
    // App-major, so the arms replaying one app's trace run together.
    let mut arms = Vec::new();
    for app in &apps {
        for mtps in MTPS {
            arms.extend(PREFETCHERS.map(|name| (app, mtps, name)));
        }
    }
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &(app, mtps, name)| {
            let cfg = SystemConfig::default().with_dram_mtps(mtps);
            prefetch_runs::run_single(name, app, cfg, opts.instructions, opts.seed, &store).ipc()
        },
    )
    .unwrap_or_else(|e| panic!("fig10 sweep failed: {e}"));
    let mut table = report::Table::new(vec![
        "MTPS".into(),
        "pythia".into(),
        "bandit".into(),
        "bandit vs pythia".into(),
    ]);
    for (m, mtps) in MTPS.iter().enumerate() {
        let mut pythia_vals = Vec::new();
        let mut bandit_vals = Vec::new();
        for app in 0..apps.len() {
            let at = (app * MTPS.len() + m) * PREFETCHERS.len();
            let base = ipcs[at].max(1e-9);
            pythia_vals.push(ipcs[at + 1] / base);
            bandit_vals.push(ipcs[at + 2] / base);
        }
        let p = report::gmean(&pythia_vals);
        let b = report::gmean(&bandit_vals);
        table.row(vec![
            mtps.to_string(),
            format!("{p:.3}"),
            format!("{b:.3}"),
            report::pct_change(b / p),
        ]);
    }
    table.print();
    println!("\n(paper: Bandit matches Pythia everywhere and beats it by ~2.5% at 150 MTPS,");
    println!(" because the IPC reward already encodes bandwidth pressure)");
    session.finish();
}
