//! SMT experiment runners.
//!
//! Every runner takes a [`TraceStore`]: pass [`TraceStore::disabled`] to
//! stream instructions from the thread generators, or an enabled store
//! (`--trace-dir`) to record each thread's stream once and replay it
//! afterwards — byte-identical output either way (the replay stream chains
//! back into the generator if the pipeline fetches past the recorded
//! prefix).

use crate::traces::TraceStore;
use mab_core::{AlgorithmKind, BanditConfig};
use mab_smtsim::{
    config::SmtParams,
    controllers::{BanditController, ChoiController, PgController, StaticPgController},
    pipeline::{SmtPipeline, SmtStats, THREAD1_SEED_SALT},
    policies::PgPolicy,
};
use mab_workloads::smt::ThreadSpec;

/// Bandit step length used by the scaled experiments (epochs per step).
pub const SCALED_STEP_EPOCHS: u32 = 2;
/// Bandit step-RR length used by the scaled experiments (epochs).
pub const SCALED_STEP_RR_EPOCHS: u32 = 8;

/// SMT parameters scaled for laptop-size runs.
///
/// The paper simulates 150 M instructions per thread, i.e. on the order of
/// 1,500 Hill-Climbing epochs of 64k cycles; its Table 6 values
/// (step-RR = 32 epochs) assume that horizon. The recorded runs here
/// simulate 50–150 k commits (~100–400 k cycles), so the epoch is scaled to
/// 1,024 cycles and the step-RR to 8 epochs to preserve the *ratio* of
/// exploration phases to episode length. Everything else matches Table 5.
pub fn scaled_params() -> SmtParams {
    SmtParams {
        epoch_cycles: 1024,
        ..SmtParams::default()
    }
}

/// Builds a Bandit controller with the scaled step lengths.
///
/// # Panics
///
/// Panics on invalid algorithm hyperparameters (the experiment binaries
/// pass validated constants).
pub fn scaled_bandit(algorithm: AlgorithmKind, seed: u64) -> BanditController {
    let arms = PgPolicy::bandit_arms().to_vec();
    let config = BanditConfig::builder(arms.len())
        .algorithm(algorithm)
        .seed(seed)
        .build()
        .expect("experiment algorithm constants are valid");
    BanditController::new(config, arms, SCALED_STEP_EPOCHS, SCALED_STEP_RR_EPOCHS)
        .expect("arm count matches config")
}

/// Runs one 2-thread mix under the given controller until each thread
/// commits `commits` instructions. The controller is borrowed, so the caller
/// can read its state (e.g. the Bandit's selection history) afterwards.
pub fn run_mix(
    controller: &mut dyn PgController,
    specs: [ThreadSpec; 2],
    params: SmtParams,
    commits: u64,
    seed: u64,
    store: &TraceStore,
) -> SmtStats {
    let streams = [
        store.smt_stream(&specs[0], seed, commits),
        store.smt_stream(&specs[1], seed.wrapping_add(THREAD1_SEED_SALT), commits),
    ];
    let mut pipe = SmtPipeline::with_streams(params, streams);
    pipe.run_with(controller, commits)
}

/// Runs a mix under a static PG policy (with Hill Climbing).
pub fn run_static(
    policy: PgPolicy,
    specs: [ThreadSpec; 2],
    params: SmtParams,
    commits: u64,
    seed: u64,
    store: &TraceStore,
) -> SmtStats {
    run_mix(
        &mut StaticPgController::new(policy),
        specs,
        params,
        commits,
        seed,
        store,
    )
}

/// Runs a mix under the Choi policy.
pub fn run_choi(
    specs: [ThreadSpec; 2],
    params: SmtParams,
    commits: u64,
    seed: u64,
    store: &TraceStore,
) -> SmtStats {
    run_mix(
        &mut ChoiController::new(),
        specs,
        params,
        commits,
        seed,
        store,
    )
}

/// Runs a mix under the Bandit with an explicit MAB algorithm
/// (Table 9 columns), using the scaled step lengths.
pub fn run_bandit_algorithm(
    algorithm: AlgorithmKind,
    specs: [ThreadSpec; 2],
    params: SmtParams,
    commits: u64,
    seed: u64,
    store: &TraceStore,
) -> SmtStats {
    run_mix(
        &mut scaled_bandit(algorithm, seed),
        specs,
        params,
        commits,
        seed,
        store,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::smt;

    fn mix(a: &str, b: &str) -> [ThreadSpec; 2] {
        [
            smt::thread_by_name(a).unwrap(),
            smt::thread_by_name(b).unwrap(),
        ]
    }

    #[test]
    fn choi_run_completes() {
        let stats = run_choi(
            mix("gcc", "xz"),
            SmtParams::test_scale(),
            5_000,
            1,
            &TraceStore::disabled(),
        );
        assert!(stats.sum_ipc() > 0.0);
    }

    #[test]
    fn bandit_run_completes() {
        let stats = run_bandit_algorithm(
            AlgorithmKind::Ducb {
                gamma: 0.975,
                c: 0.01,
            },
            mix("gcc", "lbm"),
            SmtParams::test_scale(),
            5_000,
            1,
            &TraceStore::disabled(),
        );
        assert!(stats.sum_ipc() > 0.0);
    }

    #[test]
    fn replayed_mix_matches_the_generated_mix() {
        let dir = std::env::temp_dir().join("mab-smt-replay-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::new(Some(dir));
        let specs = mix("gcc", "lbm");
        let params = SmtParams::test_scale();
        let generated = run_choi(specs.clone(), params, 4_000, 7, &TraceStore::disabled());
        let recorded = run_choi(specs.clone(), params, 4_000, 7, &store);
        let replayed = run_choi(specs, params, 4_000, 7, &store);
        assert_eq!(generated, recorded);
        assert_eq!(generated, replayed);
    }
}
