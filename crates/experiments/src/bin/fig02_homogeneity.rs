//! Fig. 2 — Temporal homogeneity in the prefetching action space:
//! frequency of the top-2 most selected Pythia actions per application.
//!
//! The paper reports that, averaged over SPEC traces of 1 B instructions,
//! the most selected Pythia action accounts for ~60% of selections and the
//! second for ~15% — i.e. 3% of the action space covers 75% of decisions.

use mab_experiments::{cli::Options, report::Table, session::TelemetrySession, traces::TraceStore};
use mab_memsim::{config::SystemConfig, System};
use mab_prefetch::{shared::SharedPrefetcher, Pythia};
use mab_workloads::suites;

fn main() {
    let opts = Options::parse_experiment("fig02_homogeneity");
    let session = TelemetrySession::start("fig02_homogeneity", &opts);
    let store = TraceStore::from_options(&opts);
    println!("=== Fig. 2: top-2 Pythia action frequency (temporal homogeneity) ===");
    println!("(paper: top action ~60%, second ~15%, over 1B-instruction traces)\n");
    let apps = suites::tune_set();
    // One arm per app: its two most selected actions and their shares.
    let top2 = mab_runner::sweep(
        &apps,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, app| {
            let handle = SharedPrefetcher::new(Pythia::new(opts.seed));
            let mut system = System::single_core(SystemConfig::default());
            system.set_prefetcher(0, Box::new(handle.clone()));
            system.run(
                &mut store.mem_source(app, opts.seed, opts.instructions),
                opts.instructions,
            );
            let histogram = handle.with(|p| p.action_histogram().to_vec());
            let total: u64 = histogram.iter().sum::<u64>().max(1);
            let mut ranked: Vec<(usize, u64)> = histogram.iter().copied().enumerate().collect();
            ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            [0, 1].map(|i| (ranked[i].0, ranked[i].1 as f64 / total as f64))
        },
    )
    .unwrap_or_else(|e| panic!("fig02 sweep failed: {e}"));
    let mut table = Table::new(vec![
        "app".into(),
        "top1 action".into(),
        "top1 %".into(),
        "top2 action".into(),
        "top2 %".into(),
        "cumulative %".into(),
    ]);
    let mut top1_fracs = Vec::new();
    let mut top2_fracs = Vec::new();
    let fmt_action = |a: usize| {
        let (o, d) = Pythia::decode_action(a);
        format!("(off {o:+}, deg {d})")
    };
    for (app, [(a1, f1), (a2, f2)]) in apps.iter().zip(top2) {
        top1_fracs.push(f1);
        top2_fracs.push(f1 + f2);
        table.row(vec![
            app.name.clone(),
            fmt_action(a1),
            format!("{:.1}", f1 * 100.0),
            fmt_action(a2),
            format!("{:.1}", f2 * 100.0),
            format!("{:.1}", (f1 + f2) * 100.0),
        ]);
    }
    table.print();
    let avg1 = top1_fracs.iter().sum::<f64>() / top1_fracs.len() as f64;
    let avg2 = top2_fracs.iter().sum::<f64>() / top2_fracs.len() as f64;
    println!(
        "\naverage: top-1 action {:.1}% of selections, top-2 cumulative {:.1}%",
        avg1 * 100.0,
        avg2 * 100.0
    );
    session.finish();
}
