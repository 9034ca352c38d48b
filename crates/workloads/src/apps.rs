//! Synthetic applications: named pattern mixes with phase schedules.

use crate::draw::{draw_threshold, unit_bits, Cmp, WeightedPick};
use crate::patterns::{
    HotCold, Kernel, Pattern, PointerChase, RegionFootprint, Stream, Strided, UniformRandom,
};
use crate::suites::Suite;
use crate::trace::{MemKind, TraceRecord, LINE_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Description of one address-stream kernel inside a phase.
///
/// `streams` instantiates that many independent copies of the kernel, each
/// with its own program counter and address region — this is how an
/// IP-stride prefetcher gets multiple concurrent per-PC strides to learn.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PatternSpec {
    /// Sequential streaming over `footprint_lines`.
    Stream {
        /// Footprint in cache lines.
        footprint_lines: u64,
        /// Number of concurrent streams.
        streams: u32,
    },
    /// Constant-stride walks.
    Stride {
        /// Stride in cache lines (may be negative).
        stride: i64,
        /// Footprint in cache lines.
        footprint_lines: u64,
        /// Number of concurrent strided streams.
        streams: u32,
    },
    /// Recurring spatial footprints over fixed-size regions.
    Region {
        /// Lines per region (64 lines = 4 KB regions).
        region_lines: u32,
        /// Number of regions.
        regions: u64,
        /// Fraction of each region touched per visit.
        density: f64,
    },
    /// Pseudo-random permutation walk (pointer chasing).
    PointerChase {
        /// Footprint in cache lines.
        footprint_lines: u64,
    },
    /// Uniformly random accesses.
    Random {
        /// Footprint in cache lines.
        footprint_lines: u64,
    },
    /// Skewed hot/cold reuse.
    HotCold {
        /// Hot-set size in lines.
        hot_lines: u64,
        /// Cold-set size in lines.
        cold_lines: u64,
        /// Fraction of accesses hitting the hot set.
        hot_frac: f64,
    },
}

impl PatternSpec {
    fn streams(&self) -> u32 {
        match *self {
            PatternSpec::Stream { streams, .. } | PatternSpec::Stride { streams, .. } => {
                streams.max(1)
            }
            _ => 1,
        }
    }

    fn footprint(&self) -> u64 {
        match *self {
            PatternSpec::Stream {
                footprint_lines, ..
            }
            | PatternSpec::Stride {
                footprint_lines, ..
            }
            | PatternSpec::PointerChase { footprint_lines }
            | PatternSpec::Random { footprint_lines } => footprint_lines,
            PatternSpec::Region {
                region_lines,
                regions,
                ..
            } => region_lines as u64 * regions,
            PatternSpec::HotCold {
                hot_lines,
                cold_lines,
                ..
            } => hot_lines + cold_lines,
        }
    }

    /// How many consecutive word-granular accesses a program makes to each
    /// line the kernel produces. Regular kernels (streams, strides) walk
    /// every word of a line; irregular kernels touch a line once or twice.
    /// This is what keeps the synthetic miss *bandwidth* realistic: a
    /// mem-ratio-0.35 streaming app transitions lines every ~23
    /// instructions, like word-granular SPEC fp code.
    fn line_repeats(&self) -> u32 {
        match self {
            PatternSpec::Stream { .. } => 8,
            PatternSpec::Stride { .. } => 6,
            PatternSpec::Region { .. } => 4,
            PatternSpec::PointerChase { .. } => 1,
            PatternSpec::Random { .. } => 2,
            PatternSpec::HotCold { .. } => 4,
        }
    }

    fn instantiate(&self, base: u64, salt: u64) -> Kernel {
        match *self {
            PatternSpec::Stream {
                footprint_lines, ..
            } => Kernel::Stream(Stream::new(base, footprint_lines)),
            PatternSpec::Stride {
                stride,
                footprint_lines,
                ..
            } => Kernel::Strided(Strided::new(base, stride, footprint_lines)),
            PatternSpec::Region {
                region_lines,
                regions,
                density,
            } => Kernel::Region(RegionFootprint::new(
                base,
                region_lines,
                regions,
                density,
                false,
                salt,
            )),
            PatternSpec::PointerChase { footprint_lines } => {
                Kernel::PointerChase(PointerChase::new(base, footprint_lines, salt))
            }
            PatternSpec::Random { footprint_lines } => {
                Kernel::Random(UniformRandom::new(base, footprint_lines))
            }
            PatternSpec::HotCold {
                hot_lines,
                cold_lines,
                hot_frac,
            } => Kernel::HotCold(HotCold::new(base, hot_lines, cold_lines, hot_frac)),
        }
    }
}

/// One program phase: an instruction mix plus a weighted set of kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Kernels active in this phase with their selection weights.
    pub patterns: Vec<(PatternSpec, f64)>,
    /// Fraction of instructions that access memory.
    pub mem_ratio: f64,
    /// Fraction of memory operations that are stores.
    pub store_frac: f64,
    /// Fraction of instructions that are branches.
    pub branch_ratio: f64,
    /// Phase length in instructions.
    pub len: u64,
}

impl PhaseSpec {
    /// A phase with a single kernel and typical SPEC-like ratios.
    pub fn single(pattern: PatternSpec, mem_ratio: f64, len: u64) -> Self {
        PhaseSpec {
            patterns: vec![(pattern, 1.0)],
            mem_ratio,
            store_frac: 0.25,
            branch_ratio: 0.15,
            len,
        }
    }
}

/// A named synthetic application: a suite tag plus a cyclic phase schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Short name (the benchmark this app imitates, e.g. `"mcf"`).
    pub name: String,
    /// Which suite catalog the app belongs to.
    pub suite: Suite,
    /// Per-app seed salt, so different apps decorrelate under one seed.
    pub seed_salt: u64,
    /// Phases, executed cyclically.
    pub phases: Vec<PhaseSpec>,
}

impl AppSpec {
    /// Creates an application from parts.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has no patterns — an
    /// application must access memory eventually.
    pub fn new(name: &str, suite: Suite, seed_salt: u64, phases: Vec<PhaseSpec>) -> Self {
        assert!(!phases.is_empty(), "app needs at least one phase");
        assert!(
            phases.iter().all(|p| !p.patterns.is_empty()),
            "every phase needs at least one pattern"
        );
        AppSpec {
            name: name.to_owned(),
            suite,
            seed_salt,
            phases,
        }
    }

    /// Instantiates a lazy trace generator for this app.
    pub fn trace(&self, seed: u64) -> AppTrace {
        AppTrace::new(self, seed)
    }
}

/// The selection weight of each kernel an [`AppTrace`] runs for `phase`:
/// each pattern's weight, split evenly among its streams.
pub(crate) fn kernel_weights(phase: &PhaseSpec) -> Vec<f64> {
    phase
        .patterns
        .iter()
        .flat_map(|(pattern, weight)| {
            let streams = pattern.streams();
            std::iter::repeat_n(weight / streams as f64, streams as usize)
        })
        .collect()
}

struct RuntimeKernel {
    kernel: Kernel,
    pc: u64,
    /// Word-granular accesses per produced line.
    repeats: u32,
    /// Line currently being walked word-by-word.
    current_line: u64,
    /// Word accesses remaining on `current_line`.
    repeats_left: u32,
}

impl RuntimeKernel {
    /// Next byte address: continues walking the current line word-by-word,
    /// fetching a new line from the kernel when the line is exhausted.
    fn next_addr(&mut self, rng: &mut StdRng) -> u64 {
        if self.repeats_left == 0 {
            self.current_line = self.kernel.next_line(rng);
            self.repeats_left = self.repeats;
        }
        let word = self.repeats - self.repeats_left;
        self.repeats_left -= 1;
        self.current_line * LINE_BYTES + (word as u64 % 8) * 8
    }
}

struct RuntimePhase {
    kernels: Vec<RuntimeKernel>,
    /// Picks a kernel by weight.
    pick: WeightedPick,
    /// Below `mem_ratio`: a memory access.
    mem: u64,
    /// Below `mem_ratio + branch_ratio`: a branch.
    branch: u64,
    /// Below `store_frac`: a store.
    store: u64,
    len: u64,
}

/// Lazy infinite instruction generator for an [`AppSpec`].
///
/// Every random decision is an integer compare on a draw's raw bits,
/// against thresholds and kernel-pick bounds precomputed from the spec's
/// float expressions, in the order the float code drew them, so the stream
/// is the one `gen::<f64>()` compares would give.
///
/// # Example
///
/// ```
/// use mab_workloads::suites::{self, Suite};
///
/// let apps = suites::suite(Suite::Spec06Like);
/// let mcf = apps.iter().find(|a| a.name == "mcf").unwrap();
/// let n_mem = mcf.trace(1).take(10_000).filter(|r| r.mem.is_some()).count();
/// assert!(n_mem > 1000);
/// ```
pub struct AppTrace {
    phases: Vec<RuntimePhase>,
    phase_idx: usize,
    in_phase: u64,
    rng: StdRng,
    alu_pc: u64,
    instr: u64,
}

impl std::fmt::Debug for AppTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppTrace")
            .field("phase_idx", &self.phase_idx)
            .field("instr", &self.instr)
            .finish()
    }
}

/// Base line index of generated data regions (keeps data away from PC range).
const DATA_BASE_LINE: u64 = 1 << 24;
/// Base PC of memory-access instructions.
const MEM_PC_BASE: u64 = 0x40_0000;
/// Base PC of the ALU/branch instruction "loop body".
const ALU_PC_BASE: u64 = 0x10_0000;

impl AppTrace {
    fn new(spec: &AppSpec, seed: u64) -> Self {
        let mut next_base = DATA_BASE_LINE;
        let mut next_pc = MEM_PC_BASE;
        let mut phases = Vec::with_capacity(spec.phases.len());
        for (pi, phase) in spec.phases.iter().enumerate() {
            let mut kernels = Vec::new();
            for (ki, (pattern_spec, _)) in phase.patterns.iter().enumerate() {
                let streams = pattern_spec.streams();
                for s in 0..streams {
                    let salt = spec
                        .seed_salt
                        .wrapping_mul(1000)
                        .wrapping_add((pi * 100 + ki * 10 + s as usize) as u64);
                    kernels.push(RuntimeKernel {
                        kernel: pattern_spec.instantiate(next_base, salt),
                        pc: next_pc,
                        repeats: pattern_spec.line_repeats(),
                        current_line: 0,
                        repeats_left: 0,
                    });
                    // Pad regions so kernels never alias.
                    next_base += pattern_spec.footprint() + 4096;
                    next_pc += 0x40;
                }
            }
            let below = |p| draw_threshold(p, Cmp::Below);
            phases.push(RuntimePhase {
                kernels,
                pick: WeightedPick::new(&kernel_weights(phase)),
                mem: below(phase.mem_ratio),
                branch: below(phase.mem_ratio + phase.branch_ratio),
                store: below(phase.store_frac),
                len: phase.len.max(1),
            });
        }
        AppTrace {
            phases,
            phase_idx: 0,
            in_phase: 0,
            rng: StdRng::seed_from_u64(seed ^ spec.seed_salt.wrapping_mul(0x517C_C1B7_2722_0A95)),
            alu_pc: ALU_PC_BASE,
            instr: 0,
        }
    }

    /// Index of the phase the generator is currently in.
    pub fn current_phase(&self) -> usize {
        self.phase_idx
    }

    /// Total instructions generated so far.
    pub fn instructions(&self) -> u64 {
        self.instr
    }
}

impl Iterator for AppTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.in_phase >= self.phases[self.phase_idx].len {
            self.in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
        }
        self.in_phase += 1;
        self.instr += 1;

        let phase = &mut self.phases[self.phase_idx];
        let draw = unit_bits(&mut self.rng);
        let record = if draw < phase.mem {
            let kernel = &mut phase.kernels[phase.pick.pick(&mut self.rng)];
            let addr = kernel.next_addr(&mut self.rng);
            let kind = if unit_bits(&mut self.rng) < phase.store {
                MemKind::Store
            } else {
                MemKind::Load
            };
            TraceRecord {
                pc: kernel.pc,
                mem: Some((kind, addr)),
                is_branch: false,
            }
        } else if draw < phase.branch {
            TraceRecord::branch(ALU_PC_BASE + 0x1000 + (self.instr % 64) * 4)
        } else {
            self.alu_pc = ALU_PC_BASE + (self.alu_pc + 4 - ALU_PC_BASE) % 0x400;
            TraceRecord::alu(self.alu_pc)
        };
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_app() -> AppSpec {
        AppSpec::new(
            "test",
            Suite::Spec06Like,
            9,
            vec![
                PhaseSpec::single(
                    PatternSpec::Stream {
                        footprint_lines: 1024,
                        streams: 1,
                    },
                    0.4,
                    1000,
                ),
                PhaseSpec::single(
                    PatternSpec::PointerChase {
                        footprint_lines: 1024,
                    },
                    0.4,
                    1000,
                ),
            ],
        )
    }

    #[test]
    fn respects_instruction_mix() {
        let app = AppSpec::new(
            "mix",
            Suite::Spec06Like,
            1,
            vec![PhaseSpec {
                patterns: vec![(
                    PatternSpec::Stream {
                        footprint_lines: 64,
                        streams: 1,
                    },
                    1.0,
                )],
                mem_ratio: 0.3,
                store_frac: 0.5,
                branch_ratio: 0.2,
                len: 100_000,
            }],
        );
        let records: Vec<_> = app.trace(3).take(50_000).collect();
        let mem = records.iter().filter(|r| r.mem.is_some()).count() as f64 / records.len() as f64;
        let br = records.iter().filter(|r| r.is_branch).count() as f64 / records.len() as f64;
        let stores = records
            .iter()
            .filter(|r| matches!(r.mem, Some((MemKind::Store, _))))
            .count() as f64;
        let loads = records
            .iter()
            .filter(|r| matches!(r.mem, Some((MemKind::Load, _))))
            .count() as f64;
        assert!((mem - 0.3).abs() < 0.02, "mem ratio {mem}");
        assert!((br - 0.2).abs() < 0.02, "branch ratio {br}");
        assert!((stores / (stores + loads) - 0.5).abs() < 0.03);
    }

    #[test]
    fn phases_cycle() {
        let app = two_phase_app();
        let mut gen = app.trace(5);
        for _ in 0..500 {
            gen.next();
        }
        assert_eq!(gen.current_phase(), 0);
        for _ in 0..1000 {
            gen.next();
        }
        assert_eq!(gen.current_phase(), 1);
        for _ in 0..1000 {
            gen.next();
        }
        assert_eq!(gen.current_phase(), 0, "phases wrap around");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let app = two_phase_app();
        let a: Vec<_> = app.trace(5).take(2000).collect();
        let b: Vec<_> = app.trace(5).take(2000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let app = two_phase_app();
        let a: Vec<_> = app.trace(5).take(2000).collect();
        let b: Vec<_> = app.trace(6).take(2000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn kernels_do_not_alias_address_regions() {
        let app = AppSpec::new(
            "two-kernels",
            Suite::Spec17Like,
            2,
            vec![PhaseSpec {
                patterns: vec![
                    (
                        PatternSpec::Stream {
                            footprint_lines: 256,
                            streams: 2,
                        },
                        0.5,
                    ),
                    (
                        PatternSpec::Random {
                            footprint_lines: 256,
                        },
                        0.5,
                    ),
                ],
                mem_ratio: 1.0,
                store_frac: 0.0,
                branch_ratio: 0.0,
                len: 10_000,
            }],
        );
        // Group addresses by PC; each PC's addresses must stay in a distinct region.
        use std::collections::HashMap;
        let mut by_pc: HashMap<u64, (u64, u64)> = HashMap::new();
        for r in app.trace(1).take(5000) {
            let (_, addr) = r.mem.unwrap();
            let e = by_pc.entry(r.pc).or_insert((u64::MAX, 0));
            e.0 = e.0.min(addr);
            e.1 = e.1.max(addr);
        }
        let mut ranges: Vec<(u64, u64)> = by_pc.values().copied().collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "regions overlap: {w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panics() {
        let _ = AppSpec::new("bad", Suite::Spec06Like, 0, vec![]);
    }

    /// FNV-1a over records `skip..skip + n` of an app's trace: for each,
    /// the pc, the access (none, load or store), its address (0 for none)
    /// and the branch flag.
    fn stream_digest(app: &AppSpec, seed: u64, skip: usize, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for r in app.trace(seed).skip(skip).take(n) {
            let (kind, addr) = match r.mem {
                None => (0u8, 0),
                Some((MemKind::Load, addr)) => (1, addr),
                Some((MemKind::Store, addr)) => (2, addr),
            };
            let bytes = r.pc.to_le_bytes().into_iter().chain([kind]);
            let bytes = bytes.chain(addr.to_le_bytes()).chain([r.is_branch as u8]);
            for byte in bytes {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn streams_are_pinned() {
        // Digests of each catalog app's first 200,000 records, recorded from
        // the float-draw generator the integer thresholds replaced: the
        // generator's output must not move.
        const PINNED: [(&str, u64, u64); 68] = [
            ("mcf", 1, 0xabe5a139b0beecd3),
            ("libquantum", 1, 0xa0323fd04979591e),
            ("lbm", 1, 0xe62d2ab5ad9a822c),
            ("milc", 1, 0x1c1cc21272ecad9e),
            ("cactus", 1, 0xb9ff98e54d25c947),
            ("soplex", 1, 0xd61cc0b2b3c71da9),
            ("gcc", 1, 0xb883e12e6744b47d),
            ("omnetpp", 1, 0x355f6664d9deeb8a),
            ("bzip2", 1, 0x8bdf81153b79754d),
            ("hmmer", 1, 0xb705b451314856e8),
            ("gcc17", 1, 0x5956fad8892cdacf),
            ("lbm17", 1, 0xd67271b2c1fa63d3),
            ("mcf17", 1, 0x3b0d191669664924),
            ("cactuBSSN", 1, 0x03c191e6e1fae19c),
            ("xalancbmk", 1, 0xe2e19470f1af7496),
            ("deepsjeng", 1, 0xb03073e9c31e4268),
            ("exchange2", 1, 0xda470bc8a47736f2),
            ("fotonik3d", 1, 0x33591c6bc7983bd5),
            ("roms", 1, 0xafb105b0606f4ded),
            ("xz", 1, 0xf2a92d0d06f2c34f),
            ("wrf", 1, 0x74369c3d2685d433),
            ("x264", 1, 0x63629fcbc3f135a7),
            ("canneal", 1, 0xaf4ffdbfb7b0d19e),
            ("streamcluster", 1, 0x0328789ad9be5909),
            ("blackscholes", 1, 0x0d99fcf2baf5bcaa),
            ("fluidanimate", 1, 0x3a16126e94e9764a),
            ("bfs", 1, 0x45da003b53f80ad4),
            ("pagerank", 1, 0x9266acbe82d67c70),
            ("components", 1, 0x8f3643996b769207),
            ("bc", 1, 0xd0c7cf0ff8d8ff9b),
            ("cassandra", 1, 0x79c277bcee91e907),
            ("cloud9", 1, 0x7dfd092d607658d9),
            ("nutch", 1, 0x810748ad38ef2075),
            ("media-streaming", 1, 0x2f28e6d73236e459),
            ("mcf", 42, 0x75593dfc2726caa5),
            ("libquantum", 42, 0xc9075e2b2bc1c338),
            ("lbm", 42, 0x67a74359150b2577),
            ("milc", 42, 0x61b3a343ad72b489),
            ("cactus", 42, 0xd481b95695333b8f),
            ("soplex", 42, 0xd11bae54407ab72c),
            ("gcc", 42, 0x1b5b99349b5b4cdb),
            ("omnetpp", 42, 0x0a41a03a81373e70),
            ("bzip2", 42, 0x88da7ec7ffe3f34b),
            ("hmmer", 42, 0xed40c1cf4bfac7d2),
            ("gcc17", 42, 0x6b7dd08e60322c76),
            ("lbm17", 42, 0xc702ab83e1dc8316),
            ("mcf17", 42, 0xac7ecc12579dab5b),
            ("cactuBSSN", 42, 0xb5498789bd21ffa9),
            ("xalancbmk", 42, 0x1ac42d849e9823c6),
            ("deepsjeng", 42, 0x072c6dc4d7ea00f3),
            ("exchange2", 42, 0xe2e1bbde5ea20a4e),
            ("fotonik3d", 42, 0x869aae0a8a907abb),
            ("roms", 42, 0x48aef6116101a33f),
            ("xz", 42, 0xde7c095abe0e3300),
            ("wrf", 42, 0x8321ab693a9d6d3a),
            ("x264", 42, 0xfa318bc270a22ad5),
            ("canneal", 42, 0x537ac088f31391e1),
            ("streamcluster", 42, 0x4d448696ba5c94f6),
            ("blackscholes", 42, 0x24dc2d3e6d0bafe8),
            ("fluidanimate", 42, 0xa85d74a69b16e859),
            ("bfs", 42, 0xe8930b60cb570aea),
            ("pagerank", 42, 0x504b25eb08102f28),
            ("components", 42, 0x0df11b66a9bc78a5),
            ("bc", 42, 0x949532a682124189),
            ("cassandra", 42, 0xcfa37a6c54275aa7),
            ("cloud9", 42, 0x4216c1e22ec7e739),
            ("nutch", 42, 0x00b1b21555d3f56d),
            ("media-streaming", 42, 0xbc04a34a2252c7b9),
        ];
        // Every catalog phase after the first starts at 1M or 2M records,
        // past the window above: these pin 200,000 records across each
        // multi-phase app's first phase change.
        const PHASE_CHANGE: [(&str, u64, usize, u64); 4] = [
            ("mcf", 1, 1_900_000, 0x8d658f74767cc42a),
            ("mcf17", 1, 1_900_000, 0x47515d7cbeb8d65c),
            ("mcf", 42, 1_900_000, 0x93db670a9e447049),
            ("mcf17", 42, 1_900_000, 0x0dfc32998c4a713a),
        ];
        let apps = crate::suites::all_apps();
        let app = |name: &str| apps.iter().find(|a| a.name == name).unwrap();
        for (name, seed, digest) in PINNED {
            assert_eq!(
                stream_digest(app(name), seed, 0, 200_000),
                digest,
                "{name} at seed {seed}"
            );
        }
        assert_eq!(PINNED.len(), 2 * apps.len());
        for (name, seed, skip, digest) in PHASE_CHANGE {
            assert_eq!(
                stream_digest(app(name), seed, skip, 200_000),
                digest,
                "{name} at seed {seed} from record {skip}"
            );
        }
        let multi_phase = apps.iter().filter(|a| a.phases.len() > 1).count();
        assert_eq!(PHASE_CHANGE.len(), 2 * multi_phase);
    }
}
