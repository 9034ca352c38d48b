//! Trace record/replay for experiment runs (`--trace-dir`).
//!
//! A [`TraceStore`] wraps an optional cache directory. When disabled (the
//! default), every run streams records straight from the seeded workload
//! generators, exactly as before. When enabled, the store records each
//! `(workload, seed)` stream to a `.mabt` file on first use and replays the
//! file on every later use — across arms of a sweep, across experiments
//! sharing the directory, and across processes (`scripts/` pass one
//! directory via `TRACE_DIR`).
//!
//! Replay is **byte-identical** to generation: a recorded file is a prefix
//! of the generator stream, the memory simulator consumes a fixed record
//! count, and the SMT replay stream chains back into the generator if the
//! pipeline fetches past the recorded prefix. Reports therefore match
//! generator-mode output bit for bit — asserted by
//! `tests/replay.rs` and the CI determinism job.
//!
//! # Concurrency
//!
//! Recording writes a process-unique temp file and atomically renames it
//! into place, so concurrent processes never observe a half-written trace.
//! Within one process, the store records under one process-wide lock and
//! checks the file again once it holds it, so a trace that several sweep
//! workers first use at once is recorded once and the others wait for it.
//! Callers never pre-record; a file that is already usable is opened
//! without taking the lock.

use mab_smtsim::pipeline::SmtStream;
use mab_traces::format::peek_meta;
use mab_traces::reader::Records;
use mab_traces::{SmtCodec, SmtTraceReader, TraceReader};
use mab_workloads::apps::{AppSpec, AppTrace};
use mab_workloads::smt::{SmtInstr, ThreadGen, ThreadSpec};
use mab_workloads::{MemKind, TraceRecord};
use std::hint::select_unpredictable;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Held while this process records a trace: the temp file a recording
/// writes is named after the process, so two recordings at once would
/// write one file.
static RECORDING: Mutex<()> = Mutex::new(());

/// Records kept per committed instruction when recording SMT streams.
///
/// The SMT pipeline fetches more instructions than it commits (wrong-path
/// fetch after mispredicted branches, and a thread that reached its target
/// keeps running until its partner finishes), so files are sized with this
/// margin. Correctness never depends on it: if a run outreads the file, the
/// replay stream falls back to the generator mid-stream with no change in
/// the records produced.
pub const SMT_RECORD_MARGIN: u64 = 4;

/// Optional on-disk trace cache for experiment runs.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    dir: Option<PathBuf>,
    /// Memo of the memory traces decoded by this store: sweeps replay the
    /// same `(app, seed)` files once per configuration, so repeat runs
    /// iterate the already-decoded records from memory instead of
    /// re-reading and re-decoding the files. Clones share the memo. It
    /// holds the decodes of the app it last served, column-wise
    /// ([`MemColumns`]), one per seed asked for: one for a single-core
    /// sweep, four for a four-core one, whose arms each ask for seeds
    /// `s..s+3`. Decodes are refilled in buffers no running arm replays,
    /// so the store holds at most one app's worth of decodes that no
    /// running arm replays. A cached prefix longer than requested is safe
    /// for the same reason a longer file is: every trace is a prefix of
    /// the deterministic generator stream.
    mem_memo: Arc<Mutex<MemMemo>>,
}

/// The memo: one app's decodes, each of the first `n` records of the
/// file for one seed.
#[derive(Debug, Default)]
struct MemMemo {
    app: String,
    decodes: Vec<(u64, Arc<MemColumns>)>,
    /// Another app's decodes that no running arm held when the memo moved
    /// on: buffers to refill before any is allocated.
    spare: Vec<Arc<MemColumns>>,
}

impl TraceStore {
    /// A store that always streams from the generators.
    pub fn disabled() -> Self {
        TraceStore::default()
    }

    /// A store caching traces under `dir` (created if missing); `None`
    /// disables caching.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — the experiment cannot
    /// honor `--trace-dir`, and silently falling back would break the
    /// "replay reproduces this run" contract.
    pub fn new(dir: Option<PathBuf>) -> Self {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create trace dir {}: {e}", dir.display()));
        }
        TraceStore {
            dir,
            mem_memo: Arc::default(),
        }
    }

    /// Builds the store from parsed CLI options (`--trace-dir`).
    pub fn from_options(opts: &crate::cli::Options) -> Self {
        TraceStore::new(opts.trace_dir.clone())
    }

    fn mem_path(&self, app: &AppSpec, seed: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("mem-{}-s{seed}.mabt", app.name)))
    }

    fn smt_path(&self, spec: &ThreadSpec, seed: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("smt-{}-s{seed}.mabt", spec.name)))
    }

    /// Makes sure a memory trace for `(app, seed)` with at least `n`
    /// records exists, recording it if not. Safe to call from several
    /// threads at once (see the module docs).
    pub fn ensure_mem(&self, app: &AppSpec, seed: u64, n: u64) {
        let Some(path) = self.mem_path(app, seed) else {
            return;
        };
        record_once(&path, n, |tmp| {
            mab_traces::record_app_to_file(app, seed, n, tmp).map(|_| ())
        });
    }

    /// Record source for one core of a memory run: the recorded file when
    /// the store is enabled, the generator otherwise. The file is recorded
    /// first if missing or shorter than `n`, decoded once, and memoized so
    /// the other arms of a sweep replay it from memory.
    pub fn mem_source(&self, app: &AppSpec, seed: u64, n: u64) -> MemSource {
        let Some(path) = self.mem_path(app, seed) else {
            return MemSource::Generated(app.trace(seed));
        };
        self.ensure_mem(app, seed, n);
        // The memo stays locked through a decode, so arms that want the
        // trace being decoded wait for it instead of decoding it again. A
        // decode that panics has taken its buffer out of the memo, so a
        // poisoned lock still guards a valid memo.
        let mut memo = self.mem_memo.lock().unwrap_or_else(PoisonError::into_inner);
        // A decode no running arm replays; an arm that still replays one
        // keeps it to itself.
        let unheld =
            |mut columns: Arc<MemColumns>| Arc::get_mut(&mut columns).is_some().then_some(columns);
        if memo.app != app.name {
            let stale = std::mem::take(&mut memo.decodes);
            memo.spare
                .extend(stale.into_iter().filter_map(|(_, c)| unheld(c)));
            memo.app.clone_from(&app.name);
        }
        let found = memo.decodes.iter().position(|(s, _)| *s == seed);
        let columns = match found {
            Some(i) if memo.decodes[i].1.len() as u64 >= n => Arc::clone(&memo.decodes[i].1),
            _ => {
                // A miss refills this seed's shorter decode or a spare
                // buffer, whichever no arm holds, before allocating.
                let shorter = found.and_then(|i| unheld(memo.decodes.swap_remove(i).1));
                let mut columns = shorter.or_else(|| memo.spare.pop()).unwrap_or_default();
                Arc::get_mut(&mut columns)
                    .expect("no arm holds a buffer being refilled")
                    .decode(&path, n);
                memo.decodes.push((seed, Arc::clone(&columns)));
                columns
            }
        };
        MemSource::Replay {
            columns,
            cursor: 0,
            addr_cursor: 0,
        }
    }

    /// Instruction stream for one SMT hardware thread: the recorded file
    /// (chaining back into the generator if the pipeline reads past it)
    /// when the store is enabled, the generator otherwise. `seed` is the
    /// *effective* per-thread seed: thread 1 of a mix is decorrelated with
    /// [`mab_smtsim::pipeline::THREAD1_SEED_SALT`] before calling. The file
    /// is recorded first, sized for `commits`, if missing or too short.
    pub fn smt_stream(&self, spec: &ThreadSpec, seed: u64, commits: u64) -> SmtStream {
        let Some(path) = self.smt_path(spec, seed) else {
            return SmtStream::Generated(spec.stream(seed));
        };
        let n = commits.saturating_mul(SMT_RECORD_MARGIN);
        record_once(&path, n, |tmp| {
            mab_traces::record_smt_to_file(spec, seed, n, tmp).map(|_| ())
        });
        let reader = SmtTraceReader::open(&path)
            .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display()));
        SmtStream::Boxed(Box::new(SmtReplay {
            file: Some(reader.records()),
            spec: spec.clone(),
            seed,
            yielded: 0,
            generator: None,
        }))
    }
}

/// True when `path` holds a finalized trace with at least `n` records.
fn usable(path: &Path, n: u64) -> bool {
    peek_meta(path).is_ok_and(|meta| meta.record_count >= n)
}

/// Records the trace at `path` unless it already holds `n` records. The
/// check is repeated under [`RECORDING`], so a thread that waited on
/// another's recording of the same file finds it and records nothing.
fn record_once(path: &Path, n: u64, record: impl FnOnce(&Path) -> mab_traces::Result<()>) {
    if usable(path, n) {
        return;
    }
    // The lock guards no data, so a recording that panicked leaves nothing
    // to repair.
    let _recording = RECORDING.lock().unwrap_or_else(PoisonError::into_inner);
    if !usable(path, n) {
        record_atomically(path, record);
    }
}

/// Runs `record` against a process-unique temp path, then renames the
/// result over `path`. Concurrent processes may both record; whichever
/// rename lands last wins with a complete file either way.
fn record_atomically(path: &Path, record: impl FnOnce(&Path) -> mab_traces::Result<()>) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = record(&tmp).and_then(|()| std::fs::rename(&tmp, path).map_err(Into::into));
    if let Err(e) = result {
        std::fs::remove_file(&tmp).ok();
        panic!("cannot record trace {}: {e}", path.display());
    }
}

/// Record source for a memory-simulator run.
///
/// The enum keeps generator mode on the exact pre-replay code path (the
/// simulators take `&mut dyn Iterator`, so this adds no second virtual
/// dispatch for generated runs).
pub enum MemSource {
    /// Seeded workload-model generator.
    Generated(AppTrace),
    /// Recorded trace, decoded once and shared across the runs that replay
    /// it (see [`TraceStore::mem_source`]).
    Replay {
        /// The decoded trace, shared with the store's memo.
        columns: Arc<MemColumns>,
        /// Next record to yield.
        cursor: usize,
        /// Memory records yielded so far: the index of the next address.
        addr_cursor: usize,
    },
}

/// A decoded memory trace, stored column-wise: a pc and a kind byte for
/// every record, and an address for memory records only. That is 9 bytes
/// per record plus 8 per memory record, against 32 for a [`TraceRecord`].
#[derive(Debug, Default)]
pub struct MemColumns {
    pcs: Vec<u64>,
    /// [`LOAD`], [`STORE`] or neither, plus [`BRANCH`] for a branch.
    kinds: Vec<u8>,
    /// The memory records' addresses in order, then one sentinel, so that
    /// the replay cursor has an address to read at every record.
    addrs: Vec<u64>,
}

/// Kind bits of a record. ChampSim imports can set the branch bit on a
/// load or store.
const LOAD: u8 = 1;
const STORE: u8 = 2;
const BRANCH: u8 = 4;

impl MemColumns {
    /// Records held.
    fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Replaces the columns with the first `n` records of the trace at
    /// `path`.
    fn decode(&mut self, path: &Path, n: u64) {
        // The bulk replay decode; per-block `trace_decode` spans from the
        // reader nest under it.
        mab_telemetry::span!(TraceReplay);
        let reader = TraceReader::open(path)
            .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display()));
        let len = usize::try_from(n.min(reader.meta().record_count))
            .expect("a replayed trace fits in the address space");
        self.refill(len, reader.records().take(len));
    }

    /// Replaces the columns with `records`, of which there are `len`. The
    /// pc and kind columns are sized once, exactly; the address column,
    /// whose length no header gives, keeps the capacity an earlier fill
    /// left it.
    fn refill(&mut self, len: usize, records: impl Iterator<Item = TraceRecord>) {
        self.pcs.clear();
        self.kinds.clear();
        self.addrs.clear();
        self.pcs.reserve_exact(len);
        self.kinds.reserve_exact(len);
        for record in records {
            let operand = match record.mem {
                None => 0,
                Some((kind, addr)) => {
                    self.addrs.push(addr);
                    match kind {
                        MemKind::Load => LOAD,
                        MemKind::Store => STORE,
                    }
                }
            };
            let branch = if record.is_branch { BRANCH } else { 0 };
            self.pcs.push(record.pc);
            self.kinds.push(operand | branch);
        }
        self.addrs.push(0);
    }

    /// Record `i`, of which `addr_index` memory records precede. It is built
    /// without branching on the kind, which follows no pattern a branch
    /// predictor could learn: every record reads an address (the sentinel
    /// past the last memory record) and its kind selects the operand.
    #[inline]
    fn record(&self, i: usize, addr_index: usize) -> Option<TraceRecord> {
        let (&pc, &kind) = (self.pcs.get(i)?, self.kinds.get(i)?);
        let addr = self.addrs[addr_index];
        let op = select_unpredictable(kind & STORE != 0, MemKind::Store, MemKind::Load);
        Some(TraceRecord {
            pc,
            mem: select_unpredictable(kind & (LOAD | STORE) != 0, Some((op, addr)), None),
            is_branch: kind & BRANCH != 0,
        })
    }
}

impl std::fmt::Debug for MemSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemSource::Generated(_) => f.write_str("MemSource::Generated"),
            MemSource::Replay { .. } => f.write_str("MemSource::Replay"),
        }
    }
}

impl Iterator for MemSource {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        match self {
            MemSource::Generated(g) => g.next(),
            MemSource::Replay {
                columns,
                cursor,
                addr_cursor,
            } => {
                let record = columns.record(*cursor, *addr_cursor)?;
                *cursor += 1;
                *addr_cursor += usize::from(record.mem.is_some());
                Some(record)
            }
        }
    }
}

/// SMT replay stream: the recorded file first, then — only if the pipeline
/// fetches past the recorded prefix — the generator, skipped forward past
/// the records already replayed. Because the file is a byte-exact prefix of
/// the generator stream, the chained stream equals the pure generator
/// stream record for record, at any file length.
struct SmtReplay {
    file: Option<Records<SmtCodec>>,
    spec: ThreadSpec,
    seed: u64,
    yielded: u64,
    generator: Option<ThreadGen>,
}

impl Iterator for SmtReplay {
    type Item = SmtInstr;

    #[inline]
    fn next(&mut self) -> Option<SmtInstr> {
        if let Some(file) = &mut self.file {
            if let Some(instr) = file.next() {
                self.yielded += 1;
                return Some(instr);
            }
            self.file = None;
        }
        let generator = self.generator.get_or_insert_with(|| {
            let mut g = self.spec.stream(self.seed);
            // Fast-forward past the replayed prefix; from here the
            // generator continues the exact same stream.
            for _ in 0..self.yielded {
                g.next();
            }
            g
        });
        generator.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::{smt, suites};

    fn store(name: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!("mab-tracestore-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        TraceStore::new(Some(dir))
    }

    #[test]
    fn disabled_store_streams_the_generator() {
        let store = TraceStore::disabled();
        let app = suites::app_by_name("mcf").unwrap();
        assert!(matches!(
            store.mem_source(&app, 1, 100),
            MemSource::Generated(_)
        ));
    }

    #[test]
    fn mem_source_replays_the_generator_stream() {
        let store = store("mem");
        let app = suites::app_by_name("mcf").unwrap();
        let replayed: Vec<_> = store.mem_source(&app, 5, 3000).take(3000).collect();
        let generated: Vec<_> = app.trace(5).take(3000).collect();
        assert_eq!(replayed, generated);
    }

    /// The replayed columns' pc buffer, to tell a reused decode from a
    /// fresh one.
    fn pcs_buffer(source: &MemSource) -> *const u64 {
        match source {
            MemSource::Replay { columns, .. } => columns.pcs.as_ptr(),
            MemSource::Generated(_) => panic!("enabled store must replay"),
        }
    }

    #[test]
    fn reused_memo_replays_each_app_exactly() {
        let store = store("mem-reuse");
        let (a, b) = (
            suites::app_by_name("mcf").unwrap(),
            suites::app_by_name("lbm").unwrap(),
        );
        let mut buffers = Vec::new();
        for (app, n) in [(&a, 3000), (&b, 2000), (&a, 3000)] {
            let source = store.mem_source(app, 4, n);
            buffers.push(pcs_buffer(&source));
            let replayed: Vec<_> = source.take(n as usize).collect();
            assert_eq!(replayed, app.trace(4).take(n as usize).collect::<Vec<_>>());
        }
        // Nothing held the earlier decodes, so each miss refilled them.
        assert!(buffers.iter().all(|&p| p == buffers[0]), "{buffers:?}");
    }

    #[test]
    fn four_seeds_of_one_app_stay_decoded_across_arms() {
        let store = store("mem-four");
        let (a, b) = (
            suites::app_by_name("mcf").unwrap(),
            suites::app_by_name("lbm").unwrap(),
        );
        // One four-core arm: seeds s..s+3 of one app, all held at once.
        let arm = |app: &AppSpec| -> Vec<MemSource> {
            (0..4)
                .map(|i| store.mem_source(app, 10 + i, 2000))
                .collect()
        };
        let first: Vec<_> = arm(&a).iter().map(pcs_buffer).collect();
        let second = arm(&a);
        assert_eq!(second.iter().map(pcs_buffer).collect::<Vec<_>>(), first);
        for (i, source) in second.into_iter().enumerate() {
            let want: Vec<_> = a.trace(10 + i as u64).take(2000).collect();
            assert_eq!(source.take(2000).collect::<Vec<_>>(), want);
        }
        // The next app refills the four buffers no arm holds any more.
        let mut refilled: Vec<_> = arm(&b).iter().map(pcs_buffer).collect();
        let mut reused = first.clone();
        refilled.sort_unstable();
        reused.sort_unstable();
        assert_eq!(refilled, reused);
    }

    #[test]
    fn held_source_keeps_its_records_while_another_path_decodes() {
        let store = store("mem-held");
        let (a, b) = (
            suites::app_by_name("mcf").unwrap(),
            suites::app_by_name("lbm").unwrap(),
        );
        let mut held = store.mem_source(&a, 6, 3000);
        let mut replayed: Vec<_> = held.by_ref().take(1000).collect();
        let other = store.mem_source(&b, 6, 2000);
        assert_ne!(pcs_buffer(&held), pcs_buffer(&other));
        let other: Vec<_> = other.take(2000).collect();
        assert_eq!(other, b.trace(6).take(2000).collect::<Vec<_>>());
        replayed.extend(held.take(2000));
        assert_eq!(replayed, a.trace(6).take(3000).collect::<Vec<_>>());
    }

    #[test]
    fn every_record_shape_round_trips_through_the_columns() {
        let mut shapes = Vec::new();
        for (pc, addr) in [
            (0, 0),
            (u64::MAX, u64::MAX),
            (0x400, u64::MAX),
            (u64::MAX, 0),
        ] {
            let branch = |r: TraceRecord| TraceRecord {
                is_branch: true,
                ..r
            };
            shapes.extend([
                TraceRecord::alu(pc),
                TraceRecord::branch(pc),
                TraceRecord::load(pc, addr),
                TraceRecord::store(pc, addr),
                branch(TraceRecord::load(pc, addr)),
                branch(TraceRecord::store(pc, addr)),
            ]);
        }
        let mut columns = MemColumns::default();
        columns.refill(shapes.len(), shapes.iter().copied());
        let source = MemSource::Replay {
            columns: Arc::new(columns),
            cursor: 0,
            addr_cursor: 0,
        };
        assert_eq!(source.collect::<Vec<_>>(), shapes);
    }

    #[test]
    fn clones_of_a_store_share_one_memo_slot() {
        let store = store("mem-clone");
        let app = suites::app_by_name("mcf").unwrap();
        let first = store.clone().mem_source(&app, 8, 1000);
        let second = store.mem_source(&app, 8, 1000);
        assert_eq!(pcs_buffer(&first), pcs_buffer(&second));
    }

    #[test]
    fn workers_first_using_one_trace_both_replay_the_generator() {
        let store = store("mem-race");
        let app = suites::app_by_name("mcf").unwrap();
        let n = 400_000;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let replayed = store.mem_source(&app, 3, n).take(n as usize);
                        replayed.eq(app.trace(3).take(n as usize))
                    })
                })
                .collect();
            for worker in workers {
                assert!(worker.join().expect("worker panicked"));
            }
        });
    }

    #[test]
    fn short_mem_file_is_rerecorded_for_longer_runs() {
        let store = store("mem-grow");
        let app = suites::app_by_name("lbm").unwrap();
        store.ensure_mem(&app, 2, 500);
        let replayed: Vec<_> = store.mem_source(&app, 2, 2000).take(2000).collect();
        assert_eq!(replayed, app.trace(2).take(2000).collect::<Vec<_>>());
    }

    #[test]
    fn smt_stream_continues_past_the_recorded_prefix() {
        let store = store("smt");
        let thread = smt::thread_by_name("gcc").unwrap();
        // Tiny "commits" so the file holds far fewer records than we pull:
        // the chain fallback must splice seamlessly into the generator.
        let stream = store.smt_stream(&thread, 9, 100);
        let SmtStream::Boxed(stream) = stream else {
            panic!("enabled store must replay");
        };
        let replayed: Vec<_> = stream.take(5000).collect();
        let generated: Vec<_> = thread.stream(9).take(5000).collect();
        assert_eq!(replayed, generated);
    }
}
