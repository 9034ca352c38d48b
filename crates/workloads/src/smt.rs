//! SMT thread models: per-thread instruction streams with controlled
//! ILP, branchiness, memory-level parallelism and structure pressure.
//!
//! The SMT use case (paper §3.2–3.3, §7.3) depends on *which shared pipeline
//! structure each thread saturates*: `lbm` exhausts store-queue entries,
//! `mcf` serializes on long dependent load chains and fills the ROB/IQ,
//! branchy codes pressure the front end. [`ThreadSpec`] parameterizes those
//! behaviours directly and [`ThreadGen`] produces the instruction stream the
//! `mab-smtsim` pipeline executes.

use crate::draw::{draw_threshold, unit_bits, Cmp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Latency class of a memory operation (Table 5 hierarchy: L1, a 4 MB L2,
/// and DRAM — no L3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemClass {
    /// Hits in the L1 data cache.
    L1,
    /// Hits in the L2.
    L2,
    /// Goes to memory.
    Mem,
}

/// Operation class of one SMT instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmtOpKind {
    /// Single-cycle integer ALU operation.
    Alu,
    /// Long-latency arithmetic (FP divide, etc.).
    LongAlu,
    /// Load with a latency class.
    Load(MemClass),
    /// Store with a latency class (drives store-queue occupancy).
    Store(MemClass),
    /// Conditional branch; `mispredicted` branches squash younger fetch.
    Branch {
        /// Whether this branch is mispredicted.
        mispredicted: bool,
    },
}

/// One dynamic instruction of an SMT thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmtInstr {
    /// Operation class.
    pub kind: SmtOpKind,
    /// This instruction depends on the result of the instruction
    /// `dep_distance` positions earlier in program order (≥ 1). Large
    /// distances mean high ILP.
    pub dep_distance: u8,
    /// Whether this instruction needs an integer physical register
    /// (drives IRF occupancy; FP results use the FRF).
    pub int_dest: bool,
}

/// Statistical description of an SMT thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSpec {
    /// Name of the SPEC17 application this thread imitates.
    pub name: String,
    /// Fraction of instructions that are loads.
    pub load_ratio: f64,
    /// Fraction of instructions that are stores.
    pub store_ratio: f64,
    /// Fraction of instructions that are branches.
    pub branch_ratio: f64,
    /// Fraction of branches that are mispredicted.
    pub mispredict_rate: f64,
    /// Mean dependency distance (≥ 1); small values serialize execution.
    pub dep_mean: f64,
    /// Probability a load hits in L1 / in L2 (remainder goes to memory).
    pub load_l1: f64,
    /// See [`ThreadSpec::load_l1`].
    pub load_l2: f64,
    /// Fraction of stores that miss all the way to memory
    /// (these hold store-queue entries for a long time).
    pub store_mem_frac: f64,
    /// Fraction of non-memory instructions that are long-latency arithmetic.
    pub long_alu_frac: f64,
    /// Fraction of instructions producing a floating-point result
    /// (allocates FRF instead of IRF).
    pub fp_frac: f64,
}

impl ThreadSpec {
    /// Instantiates the lazy instruction generator for this thread.
    pub fn stream(&self, seed: u64) -> ThreadGen {
        ThreadGen::new(self, seed)
    }
}

/// Lazy infinite generator of [`SmtInstr`]s for one thread.
///
/// Every fixed-probability test compares a draw's [`unit_bits`] with a
/// threshold precomputed from the spec by [`draw_threshold`], in the order
/// the float compares drew them, so the stream is the one
/// `gen::<f64>() < p` would give.
///
/// # Example
///
/// ```
/// use mab_workloads::smt;
///
/// let lbm = smt::thread_by_name("lbm").unwrap();
/// let stores = lbm
///     .stream(1)
///     .take(10_000)
///     .filter(|i| matches!(i.kind, smt::SmtOpKind::Store(_)))
///     .count();
/// assert!(stores > 2000, "lbm is a store hog: {stores}");
/// ```
#[derive(Debug, Clone)]
pub struct ThreadGen {
    rng: StdRng,
    /// Below `load_ratio`: a load.
    load: u64,
    /// Below `load_ratio + store_ratio`: a store.
    store: u64,
    /// Below `load_ratio + store_ratio + branch_ratio`: a branch.
    branch: u64,
    /// Below `fp_frac`: an FP destination.
    fp: u64,
    /// Below `store_mem_frac`: a store that misses to memory.
    store_mem: u64,
    /// Below `mispredict_rate`: a mispredicted branch.
    mispredict: u64,
    /// Below `long_alu_frac`: long-latency arithmetic.
    long_alu: u64,
    /// Below `load_l1`: an L1 hit.
    load_l1: u64,
    /// Below `load_l1 + load_l2`: an L2 hit.
    load_l2: u64,
    /// At or above the stop probability `(1 / dep_mean).clamp(0.02, 1)`:
    /// the dependency distance grows by one.
    dep_longer: u64,
}

impl ThreadGen {
    fn new(spec: &ThreadSpec, seed: u64) -> Self {
        let salt = spec
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        let below = |p| draw_threshold(p, Cmp::Below);
        ThreadGen {
            rng: StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            load: below(spec.load_ratio),
            store: below(spec.load_ratio + spec.store_ratio),
            branch: below(spec.load_ratio + spec.store_ratio + spec.branch_ratio),
            fp: below(spec.fp_frac),
            store_mem: below(spec.store_mem_frac),
            mispredict: below(spec.mispredict_rate),
            long_alu: below(spec.long_alu_frac),
            load_l1: below(spec.load_l1),
            load_l2: below(spec.load_l1 + spec.load_l2),
            dep_longer: draw_threshold((1.0 / spec.dep_mean).clamp(0.02, 1.0), Cmp::Above),
        }
    }

    /// Whether a fresh draw falls below `threshold`.
    #[inline]
    fn below(&mut self, threshold: u64) -> bool {
        unit_bits(&mut self.rng) < threshold
    }

    fn sample_dep(&mut self) -> u8 {
        // Geometric-ish dependency distance with the configured mean,
        // clipped to [1, 24].
        let mut d = 1u8;
        while d < 24 && unit_bits(&mut self.rng) >= self.dep_longer {
            d += 1;
        }
        d
    }

    fn sample_load_class(&mut self) -> MemClass {
        let x = unit_bits(&mut self.rng);
        if x < self.load_l1 {
            MemClass::L1
        } else if x < self.load_l2 {
            MemClass::L2
        } else {
            MemClass::Mem
        }
    }
}

impl Iterator for ThreadGen {
    type Item = SmtInstr;

    fn next(&mut self) -> Option<SmtInstr> {
        let x = unit_bits(&mut self.rng);
        let fp = self.below(self.fp);
        let kind = if x < self.load {
            SmtOpKind::Load(self.sample_load_class())
        } else if x < self.store {
            let class = if self.below(self.store_mem) {
                MemClass::Mem
            } else {
                MemClass::L1
            };
            SmtOpKind::Store(class)
        } else if x < self.branch {
            SmtOpKind::Branch {
                mispredicted: self.below(self.mispredict),
            }
        } else if self.below(self.long_alu) {
            SmtOpKind::LongAlu
        } else {
            SmtOpKind::Alu
        };
        let dep_distance = self.sample_dep();
        Some(SmtInstr {
            kind,
            dep_distance,
            int_dest: !fp,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn spec(
    name: &str,
    load: f64,
    store: f64,
    branch: f64,
    mispredict: f64,
    dep_mean: f64,
    load_l1: f64,
    load_l2: f64,
    store_mem: f64,
    long_alu: f64,
    fp: f64,
) -> ThreadSpec {
    ThreadSpec {
        name: name.to_owned(),
        load_ratio: load,
        store_ratio: store,
        branch_ratio: branch,
        mispredict_rate: mispredict,
        dep_mean,
        load_l1,
        load_l2,
        store_mem_frac: store_mem,
        long_alu_frac: long_alu,
        fp_frac: fp,
    }
}

/// The 22 SPEC17-like SMT thread models (§6.2: 22 applications form the
/// 2-thread mixes).
pub fn smt_apps() -> Vec<ThreadSpec> {
    vec![
        //                 load  store branch mispr dep   l1    l2    stMem lAlu  fp
        spec(
            "gcc", 0.25, 0.12, 0.22, 0.06, 3.0, 0.85, 0.12, 0.05, 0.02, 0.05,
        ),
        spec(
            "lbm", 0.24, 0.28, 0.03, 0.01, 6.0, 0.55, 0.15, 0.85, 0.10, 0.80,
        ),
        spec(
            "mcf", 0.35, 0.09, 0.20, 0.08, 1.8, 0.55, 0.15, 0.10, 0.01, 0.02,
        ),
        spec(
            "cactus", 0.30, 0.14, 0.04, 0.01, 5.0, 0.70, 0.20, 0.30, 0.30, 0.90,
        ),
        spec(
            "xalancbmk",
            0.30,
            0.10,
            0.24,
            0.05,
            2.5,
            0.80,
            0.12,
            0.08,
            0.01,
            0.02,
        ),
        spec(
            "deepsjeng",
            0.22,
            0.10,
            0.20,
            0.07,
            3.5,
            0.92,
            0.06,
            0.03,
            0.02,
            0.01,
        ),
        spec(
            "exchange2",
            0.15,
            0.08,
            0.20,
            0.03,
            4.5,
            0.97,
            0.02,
            0.01,
            0.01,
            0.01,
        ),
        spec(
            "fotonik3d",
            0.30,
            0.14,
            0.02,
            0.01,
            6.5,
            0.50,
            0.20,
            0.60,
            0.15,
            0.90,
        ),
        spec(
            "roms", 0.31, 0.13, 0.04, 0.01, 5.5, 0.65, 0.20, 0.40, 0.20, 0.90,
        ),
        spec(
            "xz", 0.24, 0.10, 0.14, 0.05, 2.8, 0.75, 0.15, 0.15, 0.02, 0.02,
        ),
        spec(
            "wrf", 0.29, 0.13, 0.06, 0.02, 5.0, 0.70, 0.18, 0.30, 0.25, 0.85,
        ),
        spec(
            "x264", 0.26, 0.10, 0.08, 0.03, 4.5, 0.88, 0.08, 0.10, 0.08, 0.30,
        ),
        spec(
            "perlbench",
            0.26,
            0.12,
            0.22,
            0.04,
            3.0,
            0.90,
            0.07,
            0.04,
            0.01,
            0.02,
        ),
        spec(
            "omnetpp", 0.30, 0.12, 0.20, 0.05, 2.2, 0.70, 0.15, 0.10, 0.01, 0.03,
        ),
        spec(
            "leela", 0.22, 0.10, 0.18, 0.08, 3.2, 0.90, 0.07, 0.03, 0.02, 0.05,
        ),
        spec(
            "nab", 0.28, 0.12, 0.05, 0.02, 4.8, 0.85, 0.10, 0.15, 0.25, 0.85,
        ),
        spec(
            "bwaves", 0.32, 0.12, 0.03, 0.01, 6.0, 0.60, 0.22, 0.50, 0.20, 0.92,
        ),
        spec(
            "pop2", 0.28, 0.13, 0.07, 0.02, 4.5, 0.72, 0.16, 0.25, 0.20, 0.85,
        ),
        spec(
            "imagick", 0.24, 0.10, 0.05, 0.02, 5.5, 0.93, 0.05, 0.05, 0.15, 0.70,
        ),
        spec(
            "povray", 0.23, 0.11, 0.12, 0.04, 4.0, 0.94, 0.04, 0.03, 0.20, 0.60,
        ),
        spec(
            "cam4", 0.27, 0.12, 0.08, 0.03, 4.5, 0.75, 0.15, 0.20, 0.15, 0.80,
        ),
        spec(
            "blender", 0.25, 0.11, 0.10, 0.04, 4.2, 0.85, 0.10, 0.10, 0.12, 0.60,
        ),
    ]
}

/// The 10-application subset whose 2-thread mixes form the SMT tune set
/// (§6.3: 43 mixes from 10 applications).
pub fn smt_tune_apps() -> Vec<ThreadSpec> {
    smt_apps().into_iter().take(10).collect()
}

/// Looks up a thread model by name.
pub fn thread_by_name(name: &str) -> Option<ThreadSpec> {
    smt_apps().into_iter().find(|t| t.name == name)
}

/// Enumerates 2-thread mixes over `apps`: all unordered pairs of distinct
/// applications, in catalog order. With the 22-app catalog this yields 231
/// mixes; the experiments select the first 226 to match the paper's count.
pub fn two_thread_mixes(apps: &[ThreadSpec]) -> Vec<(ThreadSpec, ThreadSpec)> {
    let mut mixes = Vec::new();
    for i in 0..apps.len() {
        for j in (i + 1)..apps.len() {
            mixes.push((apps[i].clone(), apps[j].clone()));
        }
    }
    mixes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_22_apps_with_unique_names() {
        let apps = smt_apps();
        assert_eq!(apps.len(), 22);
        let mut names: Vec<_> = apps.iter().map(|a| a.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn tune_set_is_prefix_of_ten() {
        assert_eq!(smt_tune_apps().len(), 10);
    }

    #[test]
    fn mixes_count_matches_pairs() {
        let mixes = two_thread_mixes(&smt_apps());
        assert_eq!(mixes.len(), 231);
        let tune_mixes = two_thread_mixes(&smt_tune_apps());
        assert_eq!(tune_mixes.len(), 45);
    }

    #[test]
    fn instruction_mix_matches_spec() {
        let gcc = thread_by_name("gcc").unwrap();
        let instrs: Vec<_> = gcc.stream(3).take(50_000).collect();
        let loads = instrs
            .iter()
            .filter(|i| matches!(i.kind, SmtOpKind::Load(_)))
            .count() as f64;
        let branches = instrs
            .iter()
            .filter(|i| matches!(i.kind, SmtOpKind::Branch { .. }))
            .count() as f64;
        let n = instrs.len() as f64;
        assert!((loads / n - 0.25).abs() < 0.02);
        assert!((branches / n - 0.22).abs() < 0.02);
    }

    #[test]
    fn mcf_is_more_serial_than_lbm() {
        let mean_dep = |name: &str| {
            let t = thread_by_name(name).unwrap();
            let sum: u32 = t
                .stream(1)
                .take(20_000)
                .map(|i| i.dep_distance as u32)
                .sum();
            sum as f64 / 20_000.0
        };
        assert!(mean_dep("mcf") < mean_dep("lbm"));
    }

    #[test]
    fn lbm_stores_mostly_miss_to_memory() {
        let lbm = thread_by_name("lbm").unwrap();
        let (mem, total) =
            lbm.stream(1)
                .take(50_000)
                .fold((0u32, 0u32), |(m, t), i| match i.kind {
                    SmtOpKind::Store(MemClass::Mem) => (m + 1, t + 1),
                    SmtOpKind::Store(_) => (m, t + 1),
                    _ => (m, t),
                });
        assert!(mem as f64 / total as f64 > 0.7);
    }

    #[test]
    fn generators_are_deterministic() {
        let t = thread_by_name("xz").unwrap();
        let a: Vec<_> = t.stream(9).take(1000).collect();
        let b: Vec<_> = t.stream(9).take(1000).collect();
        assert_eq!(a, b);
    }

    /// FNV-1a over the first `n` instructions of a thread's stream: one
    /// byte each for the operation (kind and class), the dependency
    /// distance and the destination register file.
    fn stream_digest(spec: &ThreadSpec, seed: u64, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for instr in spec.stream(seed).take(n) {
            let class = |c: MemClass| c as u8;
            let op = match instr.kind {
                SmtOpKind::Alu => 0,
                SmtOpKind::LongAlu => 1,
                SmtOpKind::Load(c) => 2 + class(c),
                SmtOpKind::Store(c) => 5 + class(c),
                SmtOpKind::Branch { mispredicted } => 8 + mispredicted as u8,
            };
            for byte in [op, instr.dep_distance, instr.int_dest as u8] {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn streams_are_pinned() {
        // Digests of each catalog thread's first 200,000 instructions,
        // recorded from the float-draw generator the integer thresholds
        // replaced: the generator's output must not move.
        const PINNED: [(&str, u64, u64); 44] = [
            ("gcc", 1, 0x7ea2cee6f978cfc0),
            ("lbm", 1, 0xdd40dfc074c6c4a2),
            ("mcf", 1, 0x96bd82f24d7a7dcc),
            ("cactus", 1, 0x6106eaad17497f19),
            ("xalancbmk", 1, 0x4a0df25bfbde2629),
            ("deepsjeng", 1, 0xdce5fd18cb6cbf53),
            ("exchange2", 1, 0xf16570b6f534148c),
            ("fotonik3d", 1, 0x92e385bda307639b),
            ("roms", 1, 0x9fa6a8d2ee7fe4da),
            ("xz", 1, 0x45bef9c943fe091d),
            ("wrf", 1, 0xd8d316cf5aaef695),
            ("x264", 1, 0x92d21849a66761fc),
            ("perlbench", 1, 0xc56533acae2048e4),
            ("omnetpp", 1, 0xb5e0e487cc5a6206),
            ("leela", 1, 0x7f02e70a0c882783),
            ("nab", 1, 0xf85a2788e7ae8ba9),
            ("bwaves", 1, 0x0e65e3530d4bc844),
            ("pop2", 1, 0x7ae383cd2b4ad266),
            ("imagick", 1, 0x90a7e195b2562631),
            ("povray", 1, 0x7a8d47d37e38fad8),
            ("cam4", 1, 0xafd29a7878089cd1),
            ("blender", 1, 0x73361e048dd60eaa),
            ("gcc", 42, 0x87ca52e747f19321),
            ("lbm", 42, 0xf4a703c477aa4fca),
            ("mcf", 42, 0x92f9cd905fa2b1da),
            ("cactus", 42, 0xe0cb775d7ca2572d),
            ("xalancbmk", 42, 0x2816ed46fae63b52),
            ("deepsjeng", 42, 0xa4e91eca65b451c6),
            ("exchange2", 42, 0x11c3bbfb143eb53f),
            ("fotonik3d", 42, 0x56889607e6aff634),
            ("roms", 42, 0x5b817252799d9f8b),
            ("xz", 42, 0x0c275623b57eaf16),
            ("wrf", 42, 0xacbb29fd8caba1a7),
            ("x264", 42, 0x1285fd1b31d1b4aa),
            ("perlbench", 42, 0xa6af6e674e8f9e45),
            ("omnetpp", 42, 0x84434f843312bf98),
            ("leela", 42, 0x770077c75c915e14),
            ("nab", 42, 0x926694aa417cef7e),
            ("bwaves", 42, 0x349d950b603571cb),
            ("pop2", 42, 0x4a2bd9f7b4f95ec1),
            ("imagick", 42, 0xedc5340a73288721),
            ("povray", 42, 0x372b6fe612d71dd8),
            ("cam4", 42, 0x1ec224f0d6c613ad),
            ("blender", 42, 0xf228eeb8a230b54e),
        ];
        let apps = smt_apps();
        for (name, seed, digest) in PINNED {
            let spec = apps.iter().find(|a| a.name == name).unwrap();
            assert_eq!(
                stream_digest(spec, seed, 200_000),
                digest,
                "{name} at seed {seed}"
            );
        }
        assert_eq!(PINNED.len(), 2 * apps.len());
    }

    #[test]
    fn dep_distance_at_least_one() {
        let t = thread_by_name("mcf").unwrap();
        assert!(t.stream(1).take(5000).all(|i| i.dep_distance >= 1));
    }
}
