//! Prefetching experiment runners.
//!
//! Every runner takes a [`TraceStore`]: pass [`TraceStore::disabled`] to
//! stream records straight from the workload generators, or an enabled
//! store (`--trace-dir`) to record each `(app, seed)` stream once and
//! replay the file on every subsequent run — byte-identical output either
//! way.

use crate::traces::TraceStore;
use mab_core::AlgorithmKind;
use mab_memsim::{config::SystemConfig, system::RunStats, System};
use mab_prefetch::{catalog, BanditL2};
use mab_workloads::apps::AppSpec;
use mab_workloads::TraceRecord;

/// Runs one application single-core with a named L2 prefetcher.
pub fn run_single(
    prefetcher: &str,
    app: &AppSpec,
    config: SystemConfig,
    instructions: u64,
    seed: u64,
    store: &TraceStore,
) -> RunStats {
    let mut system = System::single_core(config);
    system.set_prefetcher(0, catalog::build_l2(prefetcher, seed));
    system.run(&mut store.mem_source(app, seed, instructions), instructions)
}

/// Runs one application with named L1 **and** L2 prefetchers
/// (Fig. 12 multi-level combos).
pub fn run_multilevel(
    l1: &str,
    l2: &str,
    app: &AppSpec,
    config: SystemConfig,
    instructions: u64,
    seed: u64,
    store: &TraceStore,
) -> RunStats {
    let mut system = System::single_core(config);
    system.set_l1_prefetcher(0, catalog::build_l1(l1, seed));
    system.set_prefetcher(0, catalog::build_l2(l2, seed));
    system.run(&mut store.mem_source(app, seed, instructions), instructions)
}

/// Runs a Bandit variant with an explicit MAB algorithm (Table 8 columns).
pub fn run_bandit_algorithm(
    algorithm: AlgorithmKind,
    app: &AppSpec,
    config: SystemConfig,
    instructions: u64,
    seed: u64,
    store: &TraceStore,
) -> RunStats {
    let mut system = System::single_core(config);
    system.set_prefetcher(0, Box::new(BanditL2::with_algorithm(algorithm, seed)));
    system.run(&mut store.mem_source(app, seed, instructions), instructions)
}

/// Runs a homogeneous 4-core mix (the same application on every core) and
/// returns the per-core stats. `prefetcher` applies to all cores with
/// decorrelated seeds.
pub fn run_four_core_homogeneous(
    prefetcher: &str,
    app: &AppSpec,
    config: SystemConfig,
    instructions_per_core: u64,
    seed: u64,
    store: &TraceStore,
) -> Vec<RunStats> {
    let mut system = System::multi_core(config, 4);
    for core in 0..4 {
        system.set_prefetcher(core, catalog::build_l2(prefetcher, seed + core as u64));
    }
    let mut traces: Vec<_> = (0..4)
        .map(|i| store.mem_source(app, seed + i as u64, instructions_per_core))
        .collect();
    let mut dyn_traces: Vec<&mut dyn Iterator<Item = TraceRecord>> = traces
        .iter_mut()
        .map(|t| t as &mut dyn Iterator<Item = TraceRecord>)
        .collect();
    system.run_multi(&mut dyn_traces, instructions_per_core)
}

/// Prints the Fig. 8/Fig. 11-style report: per-suite gmean IPC of the
/// standard lineup (stride, bingo, mlop, pythia, bandit) normalized to no
/// prefetching, plus the overall gmean. Per-app values go to stderr.
///
/// Each app's baseline and lineup runs are arms of one
/// [`mab_runner::sweep`], app by app in suite order. Every run seeds from
/// its own content (never from scheduling order), so the report is
/// bit-identical at any `jobs` setting.
pub fn lineup_report(
    config: SystemConfig,
    instructions: u64,
    seed: u64,
    title: &str,
    jobs: usize,
    store: &TraceStore,
) {
    use crate::report::{gmean, Table};
    use mab_workloads::{suites, Suite};

    let lineup = ["stride", "bingo", "mlop", "pythia", "bandit"];
    println!("=== {title} ===\n");
    let apps: Vec<Vec<AppSpec>> = Suite::ALL.into_iter().map(suites::suite).collect();
    let arms: Vec<(&AppSpec, &str)> = apps
        .iter()
        .flatten()
        .flat_map(|app| std::iter::once("none").chain(lineup).map(move |p| (app, p)))
        .collect();
    // Test-only fault injection: MAB_TEST_PANIC_ARM=<index> panics that sweep
    // arm mid-run so the crash pipeline can be exercised end to end. Absent
    // (the normal case), behavior is unchanged.
    let panic_arm: Option<usize> = std::env::var("MAB_TEST_PANIC_ARM")
        .ok()
        .and_then(|v| v.parse().ok());
    let ipcs = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(jobs, seed),
        |ctx, &(app, name)| {
            let ipc = run_single(name, app, config, instructions, seed, store).ipc();
            if panic_arm == Some(ctx.index) {
                panic!("injected test panic (MAB_TEST_PANIC_ARM={})", ctx.index);
            }
            ipc
        },
    )
    .unwrap_or_else(|e| panic!("prefetcher lineup sweep failed: {e}"));
    let mut table = Table::new(
        std::iter::once("suite".to_string())
            .chain(lineup.iter().map(|s| s.to_string()))
            .collect(),
    );
    let mut overall: Vec<Vec<f64>> = vec![Vec::new(); lineup.len()];
    let mut per_app = ipcs.chunks(lineup.len() + 1);
    for (suite, suite_apps) in Suite::ALL.into_iter().zip(&apps) {
        let mut per_pf: Vec<Vec<f64>> = vec![Vec::new(); lineup.len()];
        for (app, ipcs) in suite_apps.iter().zip(per_app.by_ref()) {
            let base = ipcs[0];
            let mut line = format!("{:16}", app.name);
            for (i, ipc) in ipcs[1..].iter().enumerate() {
                let v = ipc / base.max(1e-9);
                per_pf[i].push(v);
                overall[i].push(v);
                line.push_str(&format!(" {}={v:.3}", lineup[i]));
            }
            mab_telemetry::progress!("{line}");
        }
        table.row(
            std::iter::once(suite.name().to_string())
                .chain(per_pf.iter().map(|v| format!("{:.3}", gmean(v))))
                .collect(),
        );
    }
    table.row(
        std::iter::once("ALL (gmean)".to_string())
            .chain(overall.iter().map(|v| format!("{:.3}", gmean(v))))
            .collect(),
    );
    println!();
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::suites;

    fn small() -> (AppSpec, SystemConfig) {
        (
            suites::app_by_name("cactus").unwrap(),
            SystemConfig::default(),
        )
    }

    #[test]
    fn single_run_produces_stats() {
        let (app, cfg) = small();
        let stats = run_single("stride", &app, cfg, 30_000, 1, &TraceStore::disabled());
        assert_eq!(stats.instructions, 30_000);
        assert!(stats.prefetch.issued > 0);
    }

    #[test]
    fn multilevel_run_issues_l1_prefetches() {
        let (app, cfg) = small();
        let stats = run_multilevel(
            "stride",
            "stride",
            &app,
            cfg,
            30_000,
            1,
            &TraceStore::disabled(),
        );
        assert!(stats.l1.prefetch_fills > 0, "{:?}", stats.l1);
    }

    #[test]
    fn four_core_run_returns_four_stats() {
        let (app, cfg) = small();
        let stats =
            run_four_core_homogeneous("stride", &app, cfg, 10_000, 1, &TraceStore::disabled());
        assert_eq!(stats.len(), 4);
    }

    #[test]
    fn replayed_run_matches_the_generated_run() {
        let (app, cfg) = small();
        let dir = std::env::temp_dir().join("mab-prefetch-replay-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::new(Some(dir));
        let generated = run_single("bandit", &app, cfg, 20_000, 3, &TraceStore::disabled());
        // First pass records, second pass replays; both must equal the
        // generated run exactly.
        let recorded = run_single("bandit", &app, cfg, 20_000, 3, &store);
        let replayed = run_single("bandit", &app, cfg, 20_000, 3, &store);
        assert_eq!(generated, recorded);
        assert_eq!(generated, replayed);
    }
}
