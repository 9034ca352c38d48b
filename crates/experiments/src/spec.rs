//! The shared sweep-spec layer: one experiment registry and one
//! [`RunSpec`] type used by the experiment binaries, the ledger session,
//! and the `mab-serve` daemon.
//!
//! Before this module each binary carried its own default-size constants
//! and the ledger/monitor identity was assembled ad hoc in the session
//! layer. That was fine while the only way to run an experiment was its
//! binary; a sweep *service* needs to resolve "experiment + overrides" to
//! the exact identity a direct invocation would record, or cache keys
//! drift and memoization silently breaks. [`RunSpec`] is that resolution:
//!
//! - [`RunSpec::resolve`] is the one place a run's settings are resolved:
//!   the `--quick` preset, the defaults, explicit values, and the refusal
//!   of a setting the experiment does not read (a mix cap, or for
//!   `tab_storage`, which simulates nothing, an instruction count or a
//!   seed);
//! - [`RunSpec::config_pairs`] produces exactly the canonical config the
//!   session records (and therefore feeds [`mab_ledger::config_digest`]);
//! - [`RunSpec::cli_args`] produces an argv that makes the experiment
//!   binary re-derive the same spec, so a served artifact is byte-identical
//!   to a direct run with those flags.

use crate::cli::Options;
use mab_ledger::RunRecord;

/// Registry entry for one experiment binary: its name and the recorded-run
/// defaults the `--quick` preset scales down from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentDef {
    /// Binary / experiment name (e.g. `fig08_singlecore`).
    pub name: &'static str,
    /// Default `--instructions` (per core / commits per thread); 0 for an
    /// experiment that simulates nothing, and so reads no size and no seed.
    pub default_instructions: u64,
    /// Default `--mixes` cap; 0 for an experiment that reads no mixes.
    pub default_mixes: usize,
}

/// Every experiment binary in the workspace, sorted by name, with its
/// default instructions and mix cap. The single source of the
/// per-experiment defaults: binaries parse their CLI through it and
/// `mab-serve` resolves submitted specs against it.
pub const EXPERIMENTS: &[ExperimentDef] = &[
    def("ablations", 1_000_000, 0),
    def("fig02_homogeneity", 2_000_000, 0),
    def("fig05_pg_space", 60_000, 12),
    def("fig07_exploration", 3_000_000, 0),
    def("fig08_singlecore", 2_000_000, 0),
    def("fig09_accuracy", 1_500_000, 0),
    def("fig10_bandwidth", 1_500_000, 0),
    def("fig11_altcache", 2_000_000, 0),
    def("fig12_multilevel", 1_500_000, 0),
    def("fig13_smt_scurve", 60_000, 226),
    def("fig14_fourcore", 400_000, 0),
    def("fig15_rename", 60_000, 40),
    def("smt_fairness", 80_000, 6),
    def("tab08_tuneset_prefetch", 1_500_000, 0),
    def("tab09_tuneset_smt", 80_000, 43),
    def("tab_storage", 0, 0),
];

/// One registry row.
const fn def(name: &'static str, default_instructions: u64, default_mixes: usize) -> ExperimentDef {
    ExperimentDef {
        name,
        default_instructions,
        default_mixes,
    }
}

/// Looks up an experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentDef> {
    EXPERIMENTS.iter().find(|def| def.name == name)
}

/// The base RNG seed of a run that names none.
const DEFAULT_SEED: u64 = 42;

impl ExperimentDef {
    /// True for the 15 experiments that simulate, and so read an
    /// instruction count and a seed; `tab_storage` takes neither.
    pub fn simulates(&self) -> bool {
        self.default_instructions > 0
    }

    /// True for the five experiments that read a mix cap (fig05, fig13,
    /// fig15, smt_fairness, tab09); the others take no `--mixes`.
    pub fn reads_mixes(&self) -> bool {
        self.default_mixes > 0
    }
}

/// The `--quick` preset applied to an experiment's defaults: a 10x smaller
/// instruction budget and a 4x smaller mix cap, floored so smoke runs stay
/// meaningful. A setting the experiment does not read stays 0.
fn quick_preset(def: &ExperimentDef) -> (u64, usize) {
    let instructions = if def.simulates() {
        (def.default_instructions / 10).max(10_000)
    } else {
        0
    };
    let mixes = if def.reads_mixes() {
        (def.default_mixes / 4).max(2)
    } else {
        0
    };
    (instructions, mixes)
}

/// One fully resolved run identity: the settings an experiment run reads.
/// Everything else on [`Options`] (jobs, export paths, monitoring) is
/// circumstance and deliberately absent, and so is `--quick`, which only
/// picks the sizes [`RunSpec::resolve`] starts from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Experiment name.
    pub experiment: String,
    /// Instructions per core / commits per thread; 0 for an experiment
    /// that simulates nothing.
    pub instructions: u64,
    /// Base RNG seed; 0 for an experiment that simulates nothing.
    pub seed: u64,
    /// Mix cap; 0 for an experiment without mixes.
    pub mixes: usize,
}

impl RunSpec {
    /// The spec a direct binary invocation resolved to.
    pub fn from_options(name: &str, opts: &Options) -> RunSpec {
        RunSpec {
            experiment: name.to_string(),
            instructions: opts.instructions,
            seed: opts.seed,
            mixes: opts.mixes,
        }
    }

    /// Resolves a run's settings against an experiment's defaults: `quick`
    /// picks the preset's sizes instead of the defaults, and an explicit
    /// value beats either. The seed defaults to 42, or to 0 for an
    /// experiment that simulates nothing. The binaries' CLI and
    /// `mab-serve` both resolve through here, so a flag's position never
    /// matters.
    ///
    /// # Errors
    ///
    /// A mix cap for an experiment that reads none, or an instruction count
    /// or a seed for an experiment that simulates nothing.
    pub fn resolve(
        def: &ExperimentDef,
        instructions: Option<u64>,
        seed: Option<u64>,
        mixes: Option<usize>,
        quick: bool,
    ) -> Result<RunSpec, String> {
        if mixes.is_some() && !def.reads_mixes() {
            return Err(format!("{} takes no mix cap", def.name));
        }
        if (instructions.is_some() || seed.is_some()) && !def.simulates() {
            return Err(format!("{} takes no instruction count or seed", def.name));
        }
        let (default_instructions, default_mixes) = if quick {
            quick_preset(def)
        } else {
            (def.default_instructions, def.default_mixes)
        };
        Ok(RunSpec {
            experiment: def.name.to_string(),
            instructions: instructions.unwrap_or(default_instructions),
            seed: seed.unwrap_or(if def.simulates() { DEFAULT_SEED } else { 0 }),
            mixes: mixes.unwrap_or(default_mixes),
        })
    }

    /// The canonical (sorted) config pairs the ledger session records for
    /// this spec — the digest inputs.
    pub fn config_pairs(&self) -> Vec<(String, String)> {
        vec![
            ("instructions".to_string(), self.instructions.to_string()),
            ("mixes".to_string(), self.mixes.to_string()),
            ("seed".to_string(), self.seed.to_string()),
        ]
    }

    /// The identity half of a [`RunRecord`] for this spec under `code`.
    pub fn identity_record(&self, code: &str) -> RunRecord {
        let mut record = RunRecord::new(&self.experiment, code);
        record.config = self.config_pairs();
        record
    }

    /// The ledger content address this spec is recorded (and cached) under.
    pub fn digest(&self, code: &str) -> String {
        mab_ledger::config_digest(&self.experiment, &self.config_pairs(), code)
    }

    /// An argv (without the binary name) that makes the experiment binary
    /// resolve exactly this spec: every setting the experiment reads
    /// explicit, and no other, so `tab_storage`'s is empty.
    pub fn cli_args(&self) -> Vec<String> {
        let def = find(&self.experiment);
        let mut args = Vec::new();
        if def.is_some_and(ExperimentDef::simulates) {
            args.extend([
                "--instructions".to_string(),
                self.instructions.to_string(),
                "--seed".to_string(),
                self.seed.to_string(),
            ]);
        }
        if def.is_some_and(ExperimentDef::reads_mixes) {
            args.extend(["--mixes".to_string(), self.mixes.to_string()]);
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_complete() {
        assert_eq!(EXPERIMENTS.len(), 16);
        assert!(EXPERIMENTS.windows(2).all(|w| w[0].name < w[1].name));
        assert!(find("fig08_singlecore").is_some());
        assert!(find("nope").is_none());
    }

    fn parse(def: &ExperimentDef, args: &[&str]) -> RunSpec {
        let opts = Options::parse_from(args.iter().map(|s| s.to_string()), def);
        RunSpec::from_options(def.name, &opts)
    }

    #[test]
    fn explicit_values_beat_quick_in_either_order() {
        for def in EXPERIMENTS.iter().filter(|def| def.simulates()) {
            for args in [
                ["--instructions", "5000", "--quick"],
                ["--quick", "--instructions", "5000"],
            ] {
                let spec = parse(def, &args);
                assert_eq!(spec.instructions, 5000, "{} {args:?}", def.name);
                assert_eq!(
                    spec,
                    RunSpec::resolve(def, Some(5000), None, None, true).unwrap()
                );
            }
        }
    }

    #[test]
    fn quick_preset_keeps_mixes_at_zero_without_mixes() {
        let fig09 = find("fig09_accuracy").unwrap();
        assert_eq!(quick_preset(fig09), (150_000, 0));
        assert_eq!(
            quick_preset(find("fig13_smt_scurve").unwrap()),
            (10_000, 56)
        );
        for def in EXPERIMENTS {
            let spec = RunSpec::resolve(def, None, None, None, true).unwrap();
            assert_eq!(spec.mixes == 0, !def.reads_mixes(), "{}", def.name);
        }
    }

    #[test]
    fn only_the_five_mix_experiments_take_a_mix_cap() {
        let readers: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|d| d.reads_mixes())
            .map(|d| d.name)
            .collect();
        assert_eq!(
            readers,
            [
                "fig05_pg_space",
                "fig13_smt_scurve",
                "fig15_rename",
                "smt_fairness",
                "tab09_tuneset_smt"
            ]
        );
        for def in EXPERIMENTS {
            let resolved = RunSpec::resolve(def, None, None, Some(3), false);
            assert_eq!(resolved.is_ok(), def.reads_mixes(), "{}", def.name);
        }
    }

    #[test]
    fn only_tab_storage_takes_no_size_and_no_seed() {
        let tab = find("tab_storage").unwrap();
        let idle: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|d| !d.simulates())
            .map(|d| d.name)
            .collect();
        assert_eq!(idle, ["tab_storage"]);
        for quick in [false, true] {
            let spec = RunSpec::resolve(tab, None, None, None, quick).unwrap();
            assert_eq!((spec.instructions, spec.seed, spec.mixes), (0, 0, 0));
        }
        assert!(RunSpec::resolve(tab, Some(5000), None, None, false).is_err());
        assert!(RunSpec::resolve(tab, None, Some(7), None, false).is_err());
    }

    #[test]
    fn cli_args_round_trip_through_the_parser() {
        let fig13 = find("fig13_smt_scurve").unwrap();
        let fig08 = find("fig08_singlecore").unwrap();
        let tab = find("tab_storage").unwrap();
        for (def, spec) in [
            (fig13, RunSpec::resolve(fig13, None, None, None, false)),
            (fig13, RunSpec::resolve(fig13, None, Some(9), Some(8), true)),
            (
                fig13,
                RunSpec::resolve(fig13, Some(123_456), Some(1), None, true),
            ),
            (fig08, RunSpec::resolve(fig08, None, Some(7), None, true)),
            (tab, RunSpec::resolve(tab, None, None, None, true)),
        ] {
            let spec = spec.unwrap();
            let args = spec.cli_args();
            assert_eq!(args.contains(&"--seed".to_string()), def.simulates());
            assert_eq!(args.contains(&"--mixes".to_string()), def.reads_mixes());
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            assert_eq!(spec, parse(def, &args), "{spec:?}");
        }
    }

    #[test]
    fn digest_matches_the_session_identity() {
        let def = find("fig08_singlecore").unwrap();
        let spec = RunSpec::resolve(def, None, None, None, true).unwrap();
        let record = spec.identity_record("0.1.0+abc1234");
        assert_eq!(spec.digest("0.1.0+abc1234"), record.digest());
        let keys: Vec<&str> = record.config.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["instructions", "mixes", "seed"]);
        assert_eq!(record.config_value("instructions"), Some("200000"));
        assert_eq!(record.config_value("mixes"), Some("0"));
    }
}
