//! Fig. 9 — Prefetch classification: prefetches issued per prefetcher,
//! classified as timely, late or wrong, plus remaining LLC demand misses,
//! everything normalized to the LLC misses of the no-prefetch baseline.
//! Includes `BanditIdeal` (zero arm-selection latency).

use mab_experiments::{
    cli::Options, prefetch_runs, report, session::TelemetrySession, traces::TraceStore,
};
use mab_memsim::config::SystemConfig;
use mab_workloads::{suites, AppSpec};

fn main() {
    let opts = Options::parse_experiment("fig09_accuracy");
    let session = TelemetrySession::start("fig09_accuracy", &opts);
    let store = TraceStore::from_options(&opts);
    let cfg = SystemConfig::default();
    let lineup = [
        "stride",
        "bingo",
        "mlop",
        "pythia",
        "bandit",
        "bandit-ideal",
    ];
    println!("=== Fig. 9: prefetches (timely/late/wrong) and LLC misses,");
    println!("    normalized to the no-prefetch baseline's LLC misses ===\n");

    let mut table = report::Table::new(vec![
        "prefetcher".into(),
        "timely".into(),
        "late".into(),
        "wrong".into(),
        "LLC misses".into(),
        "timely cover %".into(),
    ]);

    let apps = suites::all_apps();
    let arms: Vec<(&AppSpec, &str)> = apps
        .iter()
        .flat_map(|app| std::iter::once("none").chain(lineup).map(move |p| (app, p)))
        .collect();
    let stats = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &(app, name)| {
            prefetch_runs::run_single(name, app, cfg, opts.instructions, opts.seed, &store)
        },
    )
    .unwrap_or_else(|e| panic!("fig09 sweep failed: {e}"));
    let mut base_misses_total = 0.0;
    let mut per_pf = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); lineup.len()];
    for runs in stats.chunks(lineup.len() + 1) {
        base_misses_total += runs[0].llc.demand_misses as f64;
        for (i, stats) in runs[1..].iter().enumerate() {
            per_pf[i].0 += stats.prefetch.timely as f64;
            per_pf[i].1 += stats.prefetch.late as f64;
            per_pf[i].2 += stats.prefetch.wrong as f64;
            per_pf[i].3 += stats.llc.demand_misses as f64;
        }
    }

    for (i, name) in lineup.iter().enumerate() {
        let (timely, late, wrong, misses) = per_pf[i];
        table.row(vec![
            name.to_string(),
            format!("{:.3}", timely / base_misses_total),
            format!("{:.3}", late / base_misses_total),
            format!("{:.3}", wrong / base_misses_total),
            format!("{:.3}", misses / base_misses_total),
            format!("{:.1}", timely / base_misses_total * 100.0),
        ]);
    }
    table.print();
    println!("\n(paper: Bandit cuts wrong prefetches 66%/58% vs Bingo/MLOP; timely");
    println!(" coverage Stride 49% < MLOP 63% < Bandit 67% < Bingo 69% < Pythia 72%,");
    println!(" and BanditIdeal's timeliness matches Bandit's)");
    session.finish();
}
