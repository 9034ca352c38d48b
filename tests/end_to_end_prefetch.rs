//! Cross-crate integration tests: workloads → memsim → prefetch → core.

use micro_armed_bandit::core::AlgorithmKind;
use micro_armed_bandit::experiments::{prefetch_runs, traces::TraceStore};
use micro_armed_bandit::memsim::{config::SystemConfig, System};
use micro_armed_bandit::prefetch::{catalog, shared::SharedPrefetcher, BanditL2};
use micro_armed_bandit::workloads::suites;

const INSTRUCTIONS: u64 = 300_000;

fn run(prefetcher: &str, app: &str, seed: u64) -> micro_armed_bandit::memsim::RunStats {
    let app = suites::app_by_name(app).expect("catalog app");
    let mut system = System::single_core(SystemConfig::default());
    system.set_prefetcher(0, catalog::build_l2(prefetcher, seed));
    system.run(&mut app.trace(seed), INSTRUCTIONS)
}

#[test]
fn bandit_beats_no_prefetching_on_streams() {
    let base = run("none", "lbm", 1).ipc();
    let bandit = run("bandit", "lbm", 1).ipc();
    assert!(
        bandit > base * 1.15,
        "bandit should clearly help streaming: {base:.3} -> {bandit:.3}"
    );
}

#[test]
fn bandit_does_no_harm_on_pointer_chasing() {
    let base = run("none", "omnetpp", 1).ipc();
    let bandit = run("bandit", "omnetpp", 1).ipc();
    assert!(
        bandit > base * 0.93,
        "bandit must not tank irregular apps: {base:.3} -> {bandit:.3}"
    );
}

#[test]
fn full_stack_is_deterministic() {
    let a = run("bandit", "cactus", 7);
    let b = run("bandit", "cactus", 7);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = run("bandit", "cactus", 7).cycles;
    let b = run("bandit", "cactus", 8).cycles;
    assert_ne!(a, b);
}

#[test]
fn every_lineup_prefetcher_runs_every_suite_app() {
    // Smoke coverage: no panics, sane IPC, for a sample across suites.
    for app in [
        "milc",
        "xalancbmk",
        "streamcluster",
        "pagerank",
        "cassandra",
    ] {
        for pf in catalog::L2_LINEUP {
            let app_spec = suites::app_by_name(app).unwrap();
            let mut system = System::single_core(SystemConfig::default());
            system.set_prefetcher(0, catalog::build_l2(pf, 3));
            let stats = system.run(&mut app_spec.trace(3), 50_000);
            let ipc = stats.ipc();
            assert!(ipc > 0.01 && ipc < 8.0, "{app}/{pf}: ipc {ipc}");
        }
    }
}

#[test]
fn bandit_settles_near_the_best_static_arm() {
    // On a strongly strided app, DUCB should reach at least 85% of the best
    // static arm's IPC within a modest run.
    let app = suites::app_by_name("cactus").unwrap();
    let cfg = SystemConfig::default();
    let mut best = 0.0f64;
    for arm in 0..micro_armed_bandit::prefetch::PAPER_ARMS.len() {
        let mut system = System::single_core(cfg);
        system.set_prefetcher(
            0,
            Box::new(BanditL2::with_algorithm(AlgorithmKind::Static { arm }, 1)),
        );
        best = best.max(system.run(&mut app.trace(1), INSTRUCTIONS).ipc());
    }
    let bandit = run("bandit", "cactus", 1).ipc();
    assert!(
        bandit > best * 0.85,
        "bandit {bandit:.3} vs best static {best:.3}"
    );
}

#[test]
fn l1_prefetchers_fill_the_l1() {
    // Fig. 12's multi-level combos are the only runs that install an L1
    // prefetcher: its fills must reach the L1 and change the run.
    let app = suites::app_by_name("cactus").unwrap();
    let (cfg, store) = (SystemConfig::default(), TraceStore::disabled());
    let both = prefetch_runs::run_multilevel("stride", "stride", &app, cfg, 100_000, 1, &store);
    let l2_only = prefetch_runs::run_single("stride", &app, cfg, 100_000, 1, &store);
    assert!(both.l1.prefetch_fills > 0, "{:?}", both.l1);
    assert_eq!(l2_only.l1.prefetch_fills, 0, "{:?}", l2_only.l1);
    assert_ne!(both, l2_only);
}

#[test]
fn selection_history_matches_step_count() {
    let app = suites::app_by_name("libquantum").unwrap();
    let handle = SharedPrefetcher::new({
        let mut b = BanditL2::paper_default(2);
        b.record_history();
        b
    });
    let mut system = System::single_core(SystemConfig::default());
    system.set_prefetcher(0, Box::new(handle.clone()));
    let stats = system.run(&mut app.trace(2), INSTRUCTIONS);
    let history_len = handle.with(|b| b.history().map_or(0, <[(u64, usize)]>::len));
    let steps = stats.l2_demand_accesses() / 1000;
    // One initial selection plus one per completed 1000-access step.
    assert_eq!(history_len as u64, steps + 1);
}

#[test]
fn four_core_shared_llc_and_dram() {
    let app = suites::app_by_name("milc").unwrap();
    let mut system = System::multi_core(SystemConfig::default(), 4);
    for core in 0..4 {
        system.set_prefetcher(
            core,
            catalog::build_l2("bandit-multicore", 10 + core as u64),
        );
    }
    let mut traces: Vec<_> = (0..4).map(|i| app.trace(20 + i)).collect();
    let mut dyn_traces: Vec<&mut dyn Iterator<Item = micro_armed_bandit::workloads::TraceRecord>> =
        traces
            .iter_mut()
            .map(|t| t as &mut dyn Iterator<Item = micro_armed_bandit::workloads::TraceRecord>)
            .collect();
    let stats = system.run_multi(&mut dyn_traces, 60_000);
    assert_eq!(stats.len(), 4);
    for s in &stats {
        assert_eq!(s.instructions, 60_000);
        assert!(s.ipc() > 0.05);
    }
}

#[test]
fn bandwidth_sweep_orders_ipc() {
    let app = suites::app_by_name("fotonik3d").unwrap();
    let mut ipcs = Vec::new();
    for mtps in [150u64, 2400, 9600] {
        let mut system = System::single_core(SystemConfig::default().with_dram_mtps(mtps));
        system.set_prefetcher(0, catalog::build_l2("bandit", 1));
        ipcs.push(system.run(&mut app.trace(1), 150_000).ipc());
    }
    assert!(ipcs[0] < ipcs[1], "more bandwidth, more IPC: {ipcs:?}");
    assert!(ipcs[1] <= ipcs[2] * 1.02, "{ipcs:?}");
}
