//! Fig. 15 — Rename-stage activity: fraction of cycles the rename stage is
//! stalled (by ROB/IQ/LQ/SQ/RF full), idle, or running, averaged over the
//! 2-thread mixes, for the Choi policy and for Bandit.

use mab_core::AlgorithmKind;
use mab_experiments::{
    cli::Options, report, session::TelemetrySession, smt_runs, traces::TraceStore,
};
use mab_smtsim::pipeline::RenameStats;
use mab_workloads::smt;

#[derive(Default)]
struct Acc {
    stalled_rob: f64,
    stalled_iq: f64,
    stalled_lq: f64,
    stalled_sq: f64,
    stalled_rf: f64,
    idle: f64,
    running: f64,
    n: f64,
}

impl Acc {
    fn add(&mut self, r: &RenameStats) {
        let total = r.total().max(1) as f64;
        self.stalled_rob += r.stalled_rob as f64 / total;
        self.stalled_iq += r.stalled_iq as f64 / total;
        self.stalled_lq += r.stalled_lq as f64 / total;
        self.stalled_sq += r.stalled_sq as f64 / total;
        self.stalled_rf += r.stalled_rf as f64 / total;
        self.idle += r.idle as f64 / total;
        self.running += r.running as f64 / total;
        self.n += 1.0;
    }

    fn row(&self, name: &str) -> Vec<String> {
        let p = |v: f64| format!("{:.1}", v / self.n * 100.0);
        vec![
            name.to_string(),
            p(self.stalled_rob),
            p(self.stalled_iq),
            p(self.stalled_lq),
            p(self.stalled_sq),
            p(self.stalled_rf),
            p(self.stalled_rob
                + self.stalled_iq
                + self.stalled_lq
                + self.stalled_sq
                + self.stalled_rf),
            p(self.idle),
            p(self.running),
        ]
    }
}

fn main() {
    let opts = Options::parse_experiment("fig15_rename");
    let session = TelemetrySession::start("fig15_rename", &opts);
    let store = TraceStore::from_options(&opts);
    let params = smt_runs::scaled_params();
    println!("=== Fig. 15: rename-stage cycles (% of cycles), Choi vs Bandit ===\n");
    let mixes: Vec<_> = smt::two_thread_mixes(&smt::smt_apps())
        .into_iter()
        .take(opts.mixes)
        .collect();
    let ducb = AlgorithmKind::Ducb {
        gamma: 0.975,
        c: 0.01,
    };
    // Per mix: Choi (`None`), then the Bandit.
    let arms: Vec<_> = mixes
        .iter()
        .flat_map(|mix| [(mix, None), (mix, Some(ducb))])
        .collect();
    let renames = mab_runner::sweep(
        &arms,
        mab_runner::SweepOptions::new(opts.jobs, opts.seed),
        |_ctx, &((a, b), bandit)| {
            let specs = [a.clone(), b.clone()];
            let (commits, seed) = (opts.instructions, opts.seed);
            match bandit {
                None => smt_runs::run_choi(specs, params, commits, seed, &store),
                Some(kind) => {
                    smt_runs::run_bandit_algorithm(kind, specs, params, commits, seed, &store)
                }
            }
            .rename
        },
    )
    .unwrap_or_else(|e| panic!("fig15 sweep failed: {e}"));
    let mut choi_acc = Acc::default();
    let mut bandit_acc = Acc::default();
    for mix in renames.chunks(2) {
        choi_acc.add(&mix[0]);
        bandit_acc.add(&mix[1]);
    }
    let mut table = report::Table::new(vec![
        "policy".into(),
        "ROB full".into(),
        "IQ full".into(),
        "LQ full".into(),
        "SQ full".into(),
        "RF full".into(),
        "stalled".into(),
        "idle".into(),
        "running".into(),
    ]);
    table.row(choi_acc.row("Choi"));
    table.row(bandit_acc.row("Bandit"));
    table.print();
    println!("\n(paper: Bandit cuts SQ-full stalls and idle cycles; running cycles +2.6%)");
    session.finish();
}
