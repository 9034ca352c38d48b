//! The application catalog, organized into the paper's five suites.
//!
//! Footprints are chosen relative to the simulated hierarchy
//! (L1 = 512 lines, L2 = 4096 lines, LLC = 32768 lines) so that each suite
//! stresses the prefetchers the way its namesake does: SPEC floating-point
//! codes stream and stride, `mcf`-style integer codes pointer-chase,
//! graph workloads are irregular with huge footprints, and cloud workloads
//! have deep, skewed working sets.

use crate::apps::{AppSpec, PatternSpec, PhaseSpec};

/// Default phase length (instructions). Applications with phase behaviour
/// (e.g. `mcf`) switch kernels on this granularity.
pub const PHASE_LEN: u64 = 1_000_000;

/// The five application suites of the paper's evaluation (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2006-like.
    Spec06Like,
    /// SPEC CPU 2017-like.
    Spec17Like,
    /// PARSEC-like.
    ParsecLike,
    /// Ligra (graph analytics)-like.
    LigraLike,
    /// CloudSuite-like.
    CloudLike,
}

impl Suite {
    /// All suites in paper order.
    pub const ALL: [Suite; 5] = [
        Suite::Spec06Like,
        Suite::Spec17Like,
        Suite::ParsecLike,
        Suite::LigraLike,
        Suite::CloudLike,
    ];

    /// Human-readable suite name.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Spec06Like => "SPEC06",
            Suite::Spec17Like => "SPEC17",
            Suite::ParsecLike => "PARSEC",
            Suite::LigraLike => "Ligra",
            Suite::CloudLike => "CloudSuite",
        }
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn app(name: &str, suite: Suite, salt: u64, phases: Vec<PhaseSpec>) -> AppSpec {
    AppSpec::new(name, suite, salt, phases)
}

fn phase(patterns: Vec<(PatternSpec, f64)>, mem: f64, stores: f64, branches: f64) -> PhaseSpec {
    PhaseSpec {
        patterns,
        mem_ratio: mem,
        store_frac: stores,
        branch_ratio: branches,
        len: PHASE_LEN,
    }
}

/// Builds the SPEC06-like applications.
fn spec06() -> Vec<AppSpec> {
    use PatternSpec::*;
    vec![
        // mcf: large pointer chase with a mid-run phase change to a regular
        // strided phase — the Fig. 7 adaptation showcase.
        app(
            "mcf",
            Suite::Spec06Like,
            101,
            vec![
                PhaseSpec {
                    len: 2 * PHASE_LEN,
                    ..phase(
                        vec![(
                            PointerChase {
                                footprint_lines: 1 << 18,
                            },
                            1.0,
                        )],
                        0.30,
                        0.15,
                        0.20,
                    )
                },
                PhaseSpec {
                    len: 2 * PHASE_LEN,
                    ..phase(
                        vec![
                            (
                                Stride {
                                    stride: 2,
                                    footprint_lines: 1 << 15,
                                    streams: 2,
                                },
                                0.7,
                            ),
                            (
                                PointerChase {
                                    footprint_lines: 1 << 14,
                                },
                                0.3,
                            ),
                        ],
                        0.30,
                        0.15,
                        0.20,
                    )
                },
            ],
        ),
        app(
            "libquantum",
            Suite::Spec06Like,
            102,
            vec![phase(
                vec![(
                    Stream {
                        footprint_lines: 1 << 17,
                        streams: 1,
                    },
                    1.0,
                )],
                0.35,
                0.20,
                0.10,
            )],
        ),
        app(
            "lbm",
            Suite::Spec06Like,
            103,
            vec![phase(
                vec![(
                    Stream {
                        footprint_lines: 1 << 17,
                        streams: 4,
                    },
                    1.0,
                )],
                0.38,
                0.45,
                0.05,
            )],
        ),
        app(
            "milc",
            Suite::Spec06Like,
            104,
            vec![phase(
                vec![
                    (
                        Stream {
                            footprint_lines: 1 << 16,
                            streams: 2,
                        },
                        0.8,
                    ),
                    (
                        Random {
                            footprint_lines: 1 << 13,
                        },
                        0.2,
                    ),
                ],
                0.32,
                0.25,
                0.08,
            )],
        ),
        app(
            "cactus",
            Suite::Spec06Like,
            105,
            vec![phase(
                vec![(
                    Stride {
                        stride: 4,
                        footprint_lines: 1 << 16,
                        streams: 4,
                    },
                    1.0,
                )],
                0.30,
                0.25,
                0.05,
            )],
        ),
        app(
            "soplex",
            Suite::Spec06Like,
            106,
            vec![phase(
                vec![
                    (
                        Region {
                            region_lines: 64,
                            regions: 2048,
                            density: 0.4,
                        },
                        0.8,
                    ),
                    (
                        Stride {
                            stride: 8,
                            footprint_lines: 1 << 14,
                            streams: 2,
                        },
                        0.2,
                    ),
                ],
                0.30,
                0.20,
                0.15,
            )],
        ),
        app(
            "gcc",
            Suite::Spec06Like,
            107,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 256,
                        cold_lines: 1 << 14,
                        hot_frac: 0.7,
                    },
                    1.0,
                )],
                0.20,
                0.30,
                0.25,
            )],
        ),
        app(
            "omnetpp",
            Suite::Spec06Like,
            108,
            vec![phase(
                vec![
                    (
                        PointerChase {
                            footprint_lines: 1 << 16,
                        },
                        0.8,
                    ),
                    (
                        HotCold {
                            hot_lines: 512,
                            cold_lines: 1 << 12,
                            hot_frac: 0.6,
                        },
                        0.2,
                    ),
                ],
                0.26,
                0.25,
                0.20,
            )],
        ),
        app(
            "bzip2",
            Suite::Spec06Like,
            109,
            vec![phase(
                vec![
                    (
                        Stride {
                            stride: 1,
                            footprint_lines: 1 << 14,
                            streams: 2,
                        },
                        0.6,
                    ),
                    (
                        Random {
                            footprint_lines: 1 << 13,
                        },
                        0.4,
                    ),
                ],
                0.25,
                0.30,
                0.18,
            )],
        ),
        app(
            "hmmer",
            Suite::Spec06Like,
            110,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 128,
                        cold_lines: 2048,
                        hot_frac: 0.9,
                    },
                    1.0,
                )],
                0.20,
                0.20,
                0.10,
            )],
        ),
    ]
}

/// Builds the SPEC17-like applications.
fn spec17() -> Vec<AppSpec> {
    use PatternSpec::*;
    vec![
        app(
            "gcc17",
            Suite::Spec17Like,
            201,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 512,
                        cold_lines: 1 << 14,
                        hot_frac: 0.65,
                    },
                    1.0,
                )],
                0.22,
                0.30,
                0.24,
            )],
        ),
        app(
            "lbm17",
            Suite::Spec17Like,
            202,
            vec![phase(
                vec![(
                    Stream {
                        footprint_lines: 1 << 17,
                        streams: 6,
                    },
                    1.0,
                )],
                0.40,
                0.48,
                0.04,
            )],
        ),
        // mcf17: phased like mcf but with a different second phase.
        app(
            "mcf17",
            Suite::Spec17Like,
            203,
            vec![
                PhaseSpec {
                    len: 2 * PHASE_LEN,
                    ..phase(
                        vec![
                            (
                                PointerChase {
                                    footprint_lines: 1 << 18,
                                },
                                0.9,
                            ),
                            (
                                Stream {
                                    footprint_lines: 1 << 12,
                                    streams: 1,
                                },
                                0.1,
                            ),
                        ],
                        0.30,
                        0.18,
                        0.22,
                    )
                },
                PhaseSpec {
                    len: PHASE_LEN,
                    ..phase(
                        vec![(
                            Stream {
                                footprint_lines: 1 << 16,
                                streams: 2,
                            },
                            1.0,
                        )],
                        0.32,
                        0.18,
                        0.12,
                    )
                },
            ],
        ),
        app(
            "cactuBSSN",
            Suite::Spec17Like,
            204,
            vec![phase(
                vec![(
                    Stride {
                        stride: 4,
                        footprint_lines: 1 << 16,
                        streams: 6,
                    },
                    1.0,
                )],
                0.30,
                0.28,
                0.04,
            )],
        ),
        app(
            "xalancbmk",
            Suite::Spec17Like,
            205,
            vec![phase(
                vec![
                    (
                        Region {
                            region_lines: 64,
                            regions: 4096,
                            density: 0.35,
                        },
                        0.7,
                    ),
                    (
                        PointerChase {
                            footprint_lines: 1 << 13,
                        },
                        0.3,
                    ),
                ],
                0.26,
                0.22,
                0.22,
            )],
        ),
        app(
            "deepsjeng",
            Suite::Spec17Like,
            206,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 256,
                        cold_lines: 1 << 13,
                        hot_frac: 0.8,
                    },
                    1.0,
                )],
                0.18,
                0.25,
                0.22,
            )],
        ),
        app(
            "exchange2",
            Suite::Spec17Like,
            207,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 64,
                        cold_lines: 512,
                        hot_frac: 0.95,
                    },
                    1.0,
                )],
                0.08,
                0.20,
                0.20,
            )],
        ),
        app(
            "fotonik3d",
            Suite::Spec17Like,
            208,
            vec![phase(
                vec![(
                    Stream {
                        footprint_lines: 1 << 17,
                        streams: 3,
                    },
                    1.0,
                )],
                0.36,
                0.30,
                0.03,
            )],
        ),
        app(
            "roms",
            Suite::Spec17Like,
            209,
            vec![phase(
                vec![
                    (
                        Stride {
                            stride: 2,
                            footprint_lines: 1 << 16,
                            streams: 4,
                        },
                        0.8,
                    ),
                    (
                        Stream {
                            footprint_lines: 1 << 15,
                            streams: 1,
                        },
                        0.2,
                    ),
                ],
                0.33,
                0.30,
                0.05,
            )],
        ),
        app(
            "xz",
            Suite::Spec17Like,
            210,
            vec![phase(
                vec![
                    (
                        Random {
                            footprint_lines: 1 << 14,
                        },
                        0.5,
                    ),
                    (
                        Stride {
                            stride: 1,
                            footprint_lines: 1 << 13,
                            streams: 2,
                        },
                        0.5,
                    ),
                ],
                0.24,
                0.30,
                0.15,
            )],
        ),
        app(
            "wrf",
            Suite::Spec17Like,
            211,
            vec![phase(
                vec![
                    (
                        Region {
                            region_lines: 64,
                            regions: 2048,
                            density: 0.5,
                        },
                        0.5,
                    ),
                    (
                        Stride {
                            stride: 8,
                            footprint_lines: 1 << 15,
                            streams: 2,
                        },
                        0.5,
                    ),
                ],
                0.30,
                0.28,
                0.08,
            )],
        ),
        app(
            "x264",
            Suite::Spec17Like,
            212,
            vec![phase(
                vec![
                    (
                        Stream {
                            footprint_lines: 1 << 13,
                            streams: 2,
                        },
                        0.6,
                    ),
                    (
                        HotCold {
                            hot_lines: 512,
                            cold_lines: 1 << 12,
                            hot_frac: 0.7,
                        },
                        0.4,
                    ),
                ],
                0.22,
                0.30,
                0.12,
            )],
        ),
    ]
}

/// Builds the PARSEC-like applications.
fn parsec() -> Vec<AppSpec> {
    use PatternSpec::*;
    vec![
        app(
            "canneal",
            Suite::ParsecLike,
            301,
            vec![phase(
                vec![(
                    Random {
                        footprint_lines: 1 << 18,
                    },
                    1.0,
                )],
                0.28,
                0.20,
                0.15,
            )],
        ),
        app(
            "streamcluster",
            Suite::ParsecLike,
            302,
            vec![phase(
                vec![(
                    Stream {
                        footprint_lines: 1 << 16,
                        streams: 2,
                    },
                    1.0,
                )],
                0.34,
                0.15,
                0.08,
            )],
        ),
        app(
            "blackscholes",
            Suite::ParsecLike,
            303,
            vec![phase(
                vec![(
                    Stream {
                        footprint_lines: 1 << 12,
                        streams: 1,
                    },
                    1.0,
                )],
                0.15,
                0.25,
                0.08,
            )],
        ),
        app(
            "fluidanimate",
            Suite::ParsecLike,
            304,
            vec![phase(
                vec![(
                    Region {
                        region_lines: 64,
                        regions: 4096,
                        density: 0.45,
                    },
                    1.0,
                )],
                0.28,
                0.30,
                0.10,
            )],
        ),
    ]
}

/// Builds the Ligra (graph)-like applications.
fn ligra() -> Vec<AppSpec> {
    use PatternSpec::*;
    vec![
        app(
            "bfs",
            Suite::LigraLike,
            401,
            vec![phase(
                vec![
                    (
                        Random {
                            footprint_lines: 1 << 18,
                        },
                        0.7,
                    ),
                    (
                        Stream {
                            footprint_lines: 1 << 15,
                            streams: 1,
                        },
                        0.3,
                    ),
                ],
                0.30,
                0.15,
                0.18,
            )],
        ),
        app(
            "pagerank",
            Suite::LigraLike,
            402,
            vec![phase(
                vec![
                    (
                        Stream {
                            footprint_lines: 1 << 17,
                            streams: 2,
                        },
                        0.5,
                    ),
                    (
                        Random {
                            footprint_lines: 1 << 17,
                        },
                        0.5,
                    ),
                ],
                0.34,
                0.20,
                0.10,
            )],
        ),
        app(
            "components",
            Suite::LigraLike,
            403,
            vec![phase(
                vec![
                    (
                        Random {
                            footprint_lines: 1 << 17,
                        },
                        0.8,
                    ),
                    (
                        Stream {
                            footprint_lines: 1 << 14,
                            streams: 1,
                        },
                        0.2,
                    ),
                ],
                0.30,
                0.22,
                0.15,
            )],
        ),
        app(
            "bc",
            Suite::LigraLike,
            404,
            vec![phase(
                vec![
                    (
                        PointerChase {
                            footprint_lines: 1 << 17,
                        },
                        0.6,
                    ),
                    (
                        Stream {
                            footprint_lines: 1 << 15,
                            streams: 1,
                        },
                        0.4,
                    ),
                ],
                0.30,
                0.18,
                0.15,
            )],
        ),
    ]
}

/// Builds the CloudSuite-like applications.
fn cloud() -> Vec<AppSpec> {
    use PatternSpec::*;
    vec![
        app(
            "cassandra",
            Suite::CloudLike,
            501,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 4096,
                        cold_lines: 1 << 18,
                        hot_frac: 0.6,
                    },
                    1.0,
                )],
                0.26,
                0.25,
                0.20,
            )],
        ),
        app(
            "cloud9",
            Suite::CloudLike,
            502,
            vec![phase(
                vec![
                    (
                        Random {
                            footprint_lines: 1 << 18,
                        },
                        0.8,
                    ),
                    (
                        HotCold {
                            hot_lines: 1024,
                            cold_lines: 1 << 14,
                            hot_frac: 0.5,
                        },
                        0.2,
                    ),
                ],
                0.24,
                0.25,
                0.22,
            )],
        ),
        app(
            "nutch",
            Suite::CloudLike,
            503,
            vec![phase(
                vec![(
                    HotCold {
                        hot_lines: 2048,
                        cold_lines: 1 << 17,
                        hot_frac: 0.55,
                    },
                    1.0,
                )],
                0.24,
                0.22,
                0.24,
            )],
        ),
        app(
            "media-streaming",
            Suite::CloudLike,
            504,
            vec![phase(
                vec![
                    (
                        Stream {
                            footprint_lines: 1 << 18,
                            streams: 2,
                        },
                        0.8,
                    ),
                    (
                        Random {
                            footprint_lines: 1 << 14,
                        },
                        0.2,
                    ),
                ],
                0.30,
                0.15,
                0.12,
            )],
        ),
    ]
}

/// Returns the catalog for one suite.
pub fn suite(which: Suite) -> Vec<AppSpec> {
    match which {
        Suite::Spec06Like => spec06(),
        Suite::Spec17Like => spec17(),
        Suite::ParsecLike => parsec(),
        Suite::LigraLike => ligra(),
        Suite::CloudLike => cloud(),
    }
}

/// Returns every application across all suites.
pub fn all_apps() -> Vec<AppSpec> {
    Suite::ALL.iter().flat_map(|&s| suite(s)).collect()
}

/// The prefetching *tune set* (§6.3): SPEC-like traces only, so the
/// evaluation can check adaptability to completely unseen suites.
pub fn tune_set() -> Vec<AppSpec> {
    let mut apps = spec06();
    apps.extend(spec17());
    apps
}

/// Looks up an application by name across all suites.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    all_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_nonempty() {
        for s in Suite::ALL {
            assert!(!suite(s).is_empty(), "{s} empty");
        }
    }

    #[test]
    fn names_are_unique() {
        let apps = all_apps();
        let mut names: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn tune_set_is_spec_only() {
        for a in tune_set() {
            assert!(matches!(a.suite, Suite::Spec06Like | Suite::Spec17Like));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("mcf").is_some());
        assert!(app_by_name("nonexistent").is_none());
        assert_eq!(app_by_name("lbm").unwrap().suite, Suite::Spec06Like);
    }

    #[test]
    fn mcf_has_phase_change() {
        let mcf = app_by_name("mcf").unwrap();
        assert!(mcf.phases.len() >= 2);
    }

    #[test]
    fn every_app_generates_memory_accesses() {
        for a in all_apps() {
            let mem = a.trace(1).take(5000).filter(|r| r.mem.is_some()).count();
            assert!(mem > 100, "{} produced only {mem} memory ops", a.name);
        }
    }

    #[test]
    fn seed_salts_decorrelate_apps() {
        let a = app_by_name("lbm").unwrap();
        let b = app_by_name("lbm17").unwrap();
        let ta: Vec<_> = a.trace(1).take(500).collect();
        let tb: Vec<_> = b.trace(1).take(500).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn suite_display_names() {
        assert_eq!(Suite::Spec06Like.to_string(), "SPEC06");
        assert_eq!(Suite::CloudLike.to_string(), "CloudSuite");
    }
}
