//! Thread-local hierarchical span stack and the stage clock: the low-level
//! half of the profiler.
//!
//! [`enter`] pushes a `(category, label)` frame onto a per-thread span stack
//! and returns an RAII [`SpanGuard`] that pops it on drop. Frames with the
//! same parent, category and label share one node in a per-thread arena
//! tree, so the profile is an aggregate over calls, not a log of them.
//!
//! There are two ways in, by how hot a path is:
//!
//! - [`enter`] (the [`span!`](crate::span!) macro) times every entry. It is
//!   for paths that run at most a few times per thousand simulated
//!   instructions: runs, epochs, bandit steps, trace block decodes.
//! - A [`StageClock`] profiles a simulator's hot loop, one step (an
//!   instruction, a cycle) at a time, as a fixed set of stages, and deposits
//!   each stage as one leaf when the run ends.
//!
//! Everything here is behind the same gate as the rest of the crate: with
//! the `on` feature off, [`enter`] folds to a no-op guard and the clock's
//! per-step calls fold away; with it on, a disarmed profiler costs one
//! relaxed atomic load and a branch per span, and a branch per clock call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a span measures. Categories double as frame names in collapsed
/// stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Category {
    /// One full simulator run (opened by the sweep engine around each job).
    Run,
    /// Memory-system stage: the L2 and LLC lookups and fills of an L1 miss.
    CacheAccess,
    /// Memory-system stage: waiting for a free demand MSHR.
    Mshr,
    /// Memory-system stage: DRAM controller queueing and service.
    DramQueue,
    /// Memory-system stage: draining completed prefetch fills into the
    /// caches.
    CacheFill,
    /// Memory-system stage: prefetcher training on a demand access.
    PrefetchTrain,
    /// Memory-system stage: issuing queued prefetch candidates into the
    /// hierarchy.
    PrefetchIssue,
    /// SMT fetch stage.
    Fetch,
    /// SMT rename stage.
    Rename,
    /// SMT issue stage.
    Issue,
    /// SMT commit stage.
    Commit,
    /// SMT resource-partitioning policy evaluation at an epoch boundary.
    PolicyEval,
    /// Bandit arm selection.
    BanditSelect,
    /// Bandit reward observation / statistics update.
    BanditUpdate,
    /// Decoding a block of an on-disk `.mabt` trace.
    TraceDecode,
    /// Replaying a recorded trace through a simulator run.
    TraceReplay,
    /// Memory-system stage: producing the next trace record.
    Record,
    /// Memory-system stage: the core model and the multi-core scheduler.
    Core,
    /// Memory-system stage: the L1 lookup.
    L1,
}

impl Category {
    /// Number of distinct categories.
    pub const COUNT: usize = 19;

    /// All categories, in declaration order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Run,
        Category::CacheAccess,
        Category::Mshr,
        Category::DramQueue,
        Category::CacheFill,
        Category::PrefetchTrain,
        Category::PrefetchIssue,
        Category::Fetch,
        Category::Rename,
        Category::Issue,
        Category::Commit,
        Category::PolicyEval,
        Category::BanditSelect,
        Category::BanditUpdate,
        Category::TraceDecode,
        Category::TraceReplay,
        Category::Record,
        Category::Core,
        Category::L1,
    ];

    /// Stable snake_case frame name used in paths and collapsed stacks.
    pub const fn name(self) -> &'static str {
        match self {
            Category::Run => "run",
            Category::CacheAccess => "cache_access",
            Category::Mshr => "mshr",
            Category::DramQueue => "dram_queue",
            Category::CacheFill => "cache_fill",
            Category::PrefetchTrain => "prefetch_train",
            Category::PrefetchIssue => "prefetch_issue",
            Category::Fetch => "fetch",
            Category::Rename => "rename",
            Category::Issue => "issue",
            Category::Commit => "commit",
            Category::PolicyEval => "policy_eval",
            Category::BanditSelect => "bandit_select",
            Category::BanditUpdate => "bandit_update",
            Category::TraceDecode => "trace_decode",
            Category::TraceReplay => "trace_replay",
            Category::Record => "record",
            Category::Core => "core",
            Category::L1 => "l1",
        }
    }

    const fn from_u8(v: u8) -> Category {
        Category::ALL[v as usize]
    }
}

/// Aggregate totals for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Exact number of times the span was entered, or, for a stage-clock
    /// stage, the number of steps the stage covered.
    pub count: u64,
    /// Total nanoseconds across the entries.
    pub total_ns: u64,
}

impl SpanTotals {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &SpanTotals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
    }
}

// ---------------------------------------------------------------------------
// Label interning
// ---------------------------------------------------------------------------

static LABELS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Interns a label (e.g. a prefetcher name) and returns its id for use with
/// `span!(Category, id)`. Id 0 means "no label". Call once at setup time —
/// interning takes a lock — and keep the id on the instrumented object.
pub fn intern(name: &str) -> u32 {
    if !crate::STATIC_ENABLED {
        return 0;
    }
    let clean: String = name
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect();
    let mut labels = LABELS.lock().unwrap();
    if let Some(i) = labels.iter().position(|l| *l == clean) {
        return (i + 1) as u32;
    }
    labels.push(clean);
    labels.len() as u32
}

fn label_name(id: u32) -> Option<String> {
    if id == 0 {
        return None;
    }
    LABELS.lock().unwrap().get((id - 1) as usize).cloned()
}

// ---------------------------------------------------------------------------
// Per-thread span tree
// ---------------------------------------------------------------------------

const NONE: u32 = u32::MAX;

struct Node {
    cat: u8,
    label: u32,
    first_child: u32,
    next_sibling: u32,
    totals: SpanTotals,
}

struct Frame {
    /// Node that was `current` before this span was entered.
    prev: u32,
    /// Entry timestamp.
    start_ns: u64,
}

pub(crate) struct ThreadTree {
    nodes: Vec<Node>,
    current: u32,
    stack: Vec<Frame>,
    epoch: Instant,
}

impl ThreadTree {
    fn new() -> Self {
        ThreadTree {
            nodes: vec![Node {
                cat: 0,
                label: 0,
                first_child: NONE,
                next_sibling: NONE,
                totals: SpanTotals::default(),
            }],
            current: 0,
            stack: Vec::with_capacity(16),
            epoch: Instant::now(),
        }
    }

    /// Clears the tree back to a lone root. Called between runs so node ids
    /// never depend on what ran earlier on this worker.
    fn reset(&mut self) {
        self.nodes.truncate(1);
        let root = &mut self.nodes[0];
        root.first_child = NONE;
        root.totals = SpanTotals::default();
        self.current = 0;
        self.stack.clear();
        self.epoch = Instant::now();
    }

    fn find_or_add(&mut self, parent: u32, cat: u8, label: u32) -> u32 {
        let mut child = self.nodes[parent as usize].first_child;
        while child != NONE {
            let n = &self.nodes[child as usize];
            if n.cat == cat && n.label == label {
                return child;
            }
            child = n.next_sibling;
        }
        let id = self.nodes.len() as u32;
        let head = self.nodes[parent as usize].first_child;
        self.nodes.push(Node {
            cat,
            label,
            first_child: NONE,
            next_sibling: head,
            totals: SpanTotals::default(),
        });
        self.nodes[parent as usize].first_child = id;
        id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Accumulates every non-root node into `out`, keyed by its
    /// `;`-separated path of frame names from the root.
    fn flatten_into(&self, out: &mut BTreeMap<String, SpanTotals>) {
        fn frame_name(node: &Node) -> String {
            let cat = Category::from_u8(node.cat).name();
            match label_name(node.label) {
                Some(label) => format!("{cat}:{label}"),
                None => cat.to_string(),
            }
        }
        fn walk(
            tree: &ThreadTree,
            node: u32,
            prefix: &str,
            out: &mut BTreeMap<String, SpanTotals>,
        ) {
            let mut child = tree.nodes[node as usize].first_child;
            while child != NONE {
                let n = &tree.nodes[child as usize];
                let path = if prefix.is_empty() {
                    frame_name(n)
                } else {
                    format!("{prefix};{}", frame_name(n))
                };
                if n.totals.count != 0 {
                    out.entry(path.clone()).or_default().add(&n.totals);
                }
                walk(tree, child, &path, out);
                child = n.next_sibling;
            }
        }
        walk(self, 0, "", out);
    }
}

thread_local! {
    static TREE: RefCell<ThreadTree> = RefCell::new(ThreadTree::new());
}

/// Runtime master switch for the profiler (set via
/// [`profile::set_enabled`](crate::profile::set_enabled)).
static PROFILING: AtomicBool = AtomicBool::new(false);

pub(crate) fn set_profiling(on: bool) {
    PROFILING.store(on && crate::STATIC_ENABLED, Ordering::SeqCst);
}

#[inline]
pub(crate) fn profiling_runtime() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Resets this thread's span tree (between runs; see
/// [`profile::collect_run`](crate::profile::collect_run)).
pub(crate) fn reset_thread() {
    TREE.with(|t| t.borrow_mut().reset());
}

/// Flattens this thread's span tree into `out` without modifying it.
pub(crate) fn flatten_thread_into(out: &mut BTreeMap<String, SpanTotals>) {
    TREE.with(|t| t.borrow().flatten_into(out));
}

/// True when this thread is inside at least one armed span (used by tests
/// and by [`profile::collect_run`](crate::profile::collect_run) sanity
/// checks).
pub(crate) fn stack_depth() -> usize {
    TREE.with(|t| t.borrow().stack.len())
}

/// Frame names of this thread's live span stack, outermost first. Empty
/// with the `on` feature off or when no span is armed. Crash-safe: every
/// lock/borrow on this path is a `try_*` (the black-box panic hook calls
/// this mid-unwind, possibly with the tree or label table mid-mutation),
/// so contention degrades the result instead of deadlocking or panicking.
pub fn current_stack() -> Vec<String> {
    if !crate::STATIC_ENABLED {
        return Vec::new();
    }
    TREE.try_with(|tree| {
        let Ok(t) = tree.try_borrow() else {
            return Vec::new();
        };
        let labels = LABELS.try_lock().ok();
        let mut names = Vec::with_capacity(t.stack.len());
        let mut cur = t.current;
        for frame in t.stack.iter().rev() {
            let n = &t.nodes[cur as usize];
            let cat = Category::from_u8(n.cat).name();
            let name = if n.label == 0 {
                cat.to_string()
            } else {
                match labels.as_ref().and_then(|l| l.get((n.label - 1) as usize)) {
                    Some(label) => format!("{cat}:{label}"),
                    None => format!("{cat}:#{}", n.label),
                }
            };
            names.push(name);
            cur = frame.prev;
        }
        names.reverse();
        names
    })
    .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// RAII guard returned by [`enter`]: pops the span when dropped. Disarmed
/// (a plain bool, folded away) when the `on` feature is off or profiling is
/// not enabled.
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            exit();
        }
    }
}

/// Enters a span under the current one. Prefer the
/// [`span!`](crate::span!) macro, which scopes the guard for you.
#[inline]
pub fn enter(cat: Category, label: u32) -> SpanGuard {
    if !crate::STATIC_ENABLED || !PROFILING.load(Ordering::Relaxed) {
        return SpanGuard { armed: false };
    }
    TREE.with(|tree| {
        let mut t = tree.borrow_mut();
        let parent = t.current;
        let node = t.find_or_add(parent, cat as u8, label);
        t.nodes[node as usize].totals.count += 1;
        t.current = node;
        let start_ns = t.now_ns();
        t.stack.push(Frame {
            prev: parent,
            start_ns,
        });
    });
    SpanGuard { armed: true }
}

/// Pops the innermost span. Robust to an empty stack (e.g. profiling was
/// reset while a guard was live): a pop with no frame is a no-op.
fn exit() {
    TREE.with(|tree| {
        let mut t = tree.borrow_mut();
        let Some(frame) = t.stack.pop() else {
            return;
        };
        let end = t.now_ns();
        let cur = t.current as usize;
        t.nodes[cur].totals.total_ns += end.saturating_sub(frame.start_ns);
        t.current = frame.prev;
    });
}

/// Deposits `count` entries totalling `total_ns` as a child of the
/// current span: how a [`StageClock`] reports each stage.
pub(crate) fn leaf(cat: Category, label: u32, count: u64, total_ns: u64) {
    if !crate::STATIC_ENABLED || !PROFILING.load(Ordering::Relaxed) || count == 0 {
        return;
    }
    TREE.with(|tree| {
        let mut t = tree.borrow_mut();
        let parent = t.current;
        let node = t.find_or_add(parent, cat as u8, label);
        let n = &mut t.nodes[node as usize];
        n.totals.count += count;
        n.totals.total_ns += total_ns;
    });
}

// ---------------------------------------------------------------------------
// Stage clock
// ---------------------------------------------------------------------------

/// One step in `SAMPLE_PERIOD` is stage-timed: a prime, so the sampled
/// steps cannot lock onto a loop whose period is a power of two.
const SAMPLE_PERIOD: u32 = 1021;

/// The cost of one clock read, measured once per process as the fastest of
/// a few batches of back-to-back reads (a preempted batch reads slower).
fn clock_read_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let batch = || {
            let start = Instant::now();
            for _ in 1..64 {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as u64 / 64
        };
        (0..16).map(|_| batch()).min().unwrap_or(0)
    })
}

/// The one way a hot loop is profiled: as a fixed set of stages, one step
/// (an instruction in memsim, a cycle in smtsim) at a time.
///
/// The loop calls [`StageClock::step`] as each step begins and
/// [`StageClock::lap`] after each stage, which charges the time since the
/// previous clock read to that stage. The run's stage total is its wall
/// time, one clock read at each end of every window ([`StageClock::pause`]
/// and [`StageClock::resume`] leave out work profiled elsewhere). On one
/// step in `SAMPLE_PERIOD` every lap reads the clock, less the cost of one
/// read (floored at 0), and [`StageClock::finish`] splits the total among
/// the stages in proportion to those samples. Each stage becomes one leaf
/// under the current span whose `count` is the steps covered. DESIGN.md
/// §12 ("One stage clock") has the reasoning.
///
/// Latches the profiling switch at [`StageClock::start`], never allocates
/// per step, and folds away with the `on` feature off.
#[derive(Debug)]
pub struct StageClock {
    on: bool,
    /// `(category, label)` and sampled ns per stage, by `lap` index.
    stages: Vec<(Category, u32)>,
    sampled_ns: Vec<u64>,
    /// The step in progress is sampled; `countdown` steps to the next.
    sampling: bool,
    countdown: u32,
    steps: u64,
    /// Wall time of the closed windows, and the open one's start.
    wall_ns: u64,
    window: Option<Instant>,
    /// The sampled step's last clock read.
    last: Option<Instant>,
    read_ns: u64,
}

impl StageClock {
    /// Starts a clock over `stages` and opens its first window. Inert when
    /// profiling is off.
    pub fn start(stages: &[(Category, u32)]) -> StageClock {
        let on = crate::STATIC_ENABLED && PROFILING.load(Ordering::Relaxed);
        StageClock::with(stages, on, if on { clock_read_ns() } else { 0 })
    }

    fn with(stages: &[(Category, u32)], on: bool, read_ns: u64) -> StageClock {
        let mut clock = StageClock {
            on,
            stages: Vec::new(),
            sampled_ns: Vec::new(),
            sampling: false,
            countdown: SAMPLE_PERIOD - 1,
            steps: 0,
            wall_ns: 0,
            window: None,
            last: None,
            read_ns,
        };
        for &(cat, label) in stages {
            clock.stage(cat, label);
        }
        clock.resume();
        clock
    }

    /// The index of stage `(cat, label)`, added if new. 0 when the clock is
    /// inert.
    pub fn stage(&mut self, cat: Category, label: u32) -> usize {
        if !self.on {
            return 0;
        }
        match self.stages.iter().position(|&s| s == (cat, label)) {
            Some(i) => i,
            None => {
                self.stages.push((cat, label));
                self.sampled_ns.push(0);
                self.stages.len() - 1
            }
        }
    }

    /// Begins a step.
    #[inline]
    pub fn step(&mut self) {
        if !crate::STATIC_ENABLED || !self.on {
            return;
        }
        self.steps += 1;
        self.sampling = self.countdown == 0;
        if self.sampling {
            self.countdown = SAMPLE_PERIOD - 1;
            self.last = Some(Instant::now());
        } else {
            self.countdown -= 1;
        }
    }

    /// Charges the time since the previous clock read to `stage`.
    #[inline]
    pub fn lap(&mut self, stage: usize) {
        if crate::STATIC_ENABLED && self.sampling {
            self.lap_sampled(stage);
        }
    }

    #[inline(never)]
    fn lap_sampled(&mut self, stage: usize) {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            let ns = now.duration_since(last).as_nanos() as u64;
            self.sampled_ns[stage] += ns.saturating_sub(self.read_ns);
        }
    }

    /// Closes the open window.
    pub fn pause(&mut self) {
        if let Some(start) = self.window.take() {
            self.wall_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Opens a window.
    pub fn resume(&mut self) {
        if crate::STATIC_ENABLED && self.on {
            self.window = Some(Instant::now());
        }
    }

    /// Closes the clock and deposits every stage as a leaf under the
    /// current span.
    pub fn finish(mut self) {
        self.pause();
        for (cat, label, count, ns) in self.deposits() {
            leaf(cat, label, count, ns);
        }
    }

    /// Each stage's `(category, label, steps, ns)`: the wall total split in
    /// proportion to the sampled intervals. Empty when the clock is inert.
    fn deposits(&self) -> impl Iterator<Item = (Category, u32, u64, u64)> + '_ {
        let steps = self.steps;
        self.stages
            .iter()
            .zip(split(self.wall_ns, &self.sampled_ns))
            .map(move |(&(cat, label), ns)| (cat, label, steps, ns))
    }
}

/// Splits `total` in proportion to `weights`, evenly when they are all 0.
/// The parts are rounded so that they add up to `total` exactly.
fn split(total: u64, weights: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    let even = sum == 0;
    let sum = if even { weights.len() as u128 } else { sum };
    let mut cum = 0u128;
    let mut given = 0u64;
    weights.iter().map(move |&w| {
        cum += if even { 1 } else { w as u128 };
        let upto = (total as u128 * cum / sum) as u64;
        let part = upto - given;
        given = upto;
        part
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_all_matches_count_and_indices() {
        assert_eq!(Category::ALL.len(), Category::COUNT);
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert_eq!(Category::from_u8(i as u8), *c);
            assert!(!c.name().contains(';'));
            assert!(!c.name().contains(' '));
        }
    }

    #[test]
    fn intern_is_stable_and_sanitizes() {
        if !crate::STATIC_ENABLED {
            assert_eq!(intern("anything"), 0);
            return;
        }
        let a = intern("ip-stride");
        let b = intern("ip-stride");
        assert_eq!(a, b);
        assert_ne!(a, 0);
        let odd = intern("has space;semi");
        assert_eq!(label_name(odd).unwrap(), "has_space_semi");
    }

    #[cfg(feature = "on")]
    #[test]
    fn tree_aggregates_repeated_spans_into_one_node() {
        // Use the tree directly (not the thread-local) so parallel tests
        // toggling PROFILING can't interfere.
        let mut t = ThreadTree::new();
        for _ in 0..10 {
            let n = t.find_or_add(0, Category::CacheAccess as u8, 0);
            t.nodes[n as usize].totals.count += 1;
            let c = t.find_or_add(n, Category::DramQueue as u8, 0);
            t.nodes[c as usize].totals.count += 1;
        }
        assert_eq!(t.nodes.len(), 3); // root + 2 distinct paths
        let mut out = BTreeMap::new();
        t.flatten_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out["cache_access"].count, 10);
        assert_eq!(out["cache_access;dram_queue"].count, 10);
    }

    const STAGES: [(Category, u32); 3] = [
        (Category::Commit, 0),
        (Category::Issue, 0),
        (Category::Fetch, 0),
    ];

    /// Runs `steps` steps of three laps each, the middle stage busy.
    fn drive(clock: &mut StageClock, steps: u32) {
        for _ in 0..steps {
            clock.step();
            clock.lap(0);
            std::hint::black_box((0..200u64).sum::<u64>());
            clock.lap(1);
            clock.lap(2);
        }
    }

    #[cfg(feature = "on")]
    #[test]
    fn stage_clock_samples_one_step_per_period_across_windows() {
        let mut clock = StageClock::with(&STAGES, true, 0);
        let mut sampled = 0;
        for step in 0..SAMPLE_PERIOD * 3 {
            if step == SAMPLE_PERIOD + 7 {
                // A window boundary keeps the phase.
                clock.pause();
                clock.resume();
            }
            clock.step();
            sampled += clock.sampling as u32;
        }
        assert_eq!(sampled, 3);
        assert_eq!(clock.steps, SAMPLE_PERIOD as u64 * 3);
    }

    #[test]
    fn split_follows_the_weights_and_adds_up_exactly() {
        let parts: Vec<u64> = split(1_000, &[1, 3, 0, 6]).collect();
        assert_eq!(parts, vec![100, 300, 0, 600]);
        let parts: Vec<u64> = split(10, &[1, 1, 1]).collect();
        assert_eq!(parts.iter().sum::<u64>(), 10);
        let even: Vec<u64> = split(9, &[0, 0, 0]).collect();
        assert_eq!(even, vec![3, 3, 3]);
        assert_eq!(split(5, &[]).count(), 0);
    }

    #[cfg(feature = "on")]
    #[test]
    fn stage_leaves_follow_the_sampled_intervals_and_sum_to_the_wall() {
        let mut clock = StageClock::with(&STAGES, true, 0);
        drive(&mut clock, SAMPLE_PERIOD * 4);
        clock.pause();
        let sampled = clock.sampled_ns.clone();
        assert!(sampled[1] > 0, "{sampled:?}");
        let deposits: Vec<_> = clock.deposits().collect();
        assert_eq!(deposits.len(), 3);
        let total: u64 = deposits.iter().map(|d| d.3).sum();
        assert_eq!(total, clock.wall_ns);
        for (i, &(cat, _, count, ns)) in deposits.iter().enumerate() {
            assert_eq!(cat, STAGES[i].0);
            assert_eq!(count, SAMPLE_PERIOD as u64 * 4);
            let expect =
                clock.wall_ns as u128 * sampled[i] as u128 / sampled.iter().sum::<u64>() as u128;
            assert!(
                ns.abs_diff(expect as u64) <= 1,
                "stage {i}: {ns} vs {expect}"
            );
        }
    }

    #[cfg(feature = "on")]
    #[test]
    fn clock_cost_subtraction_floors_at_zero() {
        let mut clock = StageClock::with(&STAGES, true, u64::MAX);
        drive(&mut clock, SAMPLE_PERIOD * 2);
        assert_eq!(clock.sampled_ns, vec![0, 0, 0]);
        let mut exact = StageClock::with(&STAGES, true, 0);
        drive(&mut exact, SAMPLE_PERIOD * 2);
        assert!(exact.sampled_ns[1] > 0, "{:?}", exact.sampled_ns);
    }

    #[cfg(feature = "on")]
    #[test]
    fn run_without_a_sampled_step_still_deposits_its_time() {
        let mut clock = StageClock::with(&STAGES, true, 0);
        drive(&mut clock, SAMPLE_PERIOD - 1);
        clock.pause();
        assert_eq!(clock.sampled_ns, vec![0, 0, 0]);
        assert!(clock.wall_ns > 0);
        let deposits: Vec<_> = clock.deposits().collect();
        assert_eq!(deposits.iter().map(|d| d.3).sum::<u64>(), clock.wall_ns);
        assert!(deposits.iter().all(|d| d.2 == SAMPLE_PERIOD as u64 - 1));
        assert!(deposits
            .iter()
            .all(|d| d.3.abs_diff(clock.wall_ns / 3) <= 1));
    }

    #[test]
    fn nothing_is_deposited_while_profiling_is_off() {
        let mut clock = StageClock::with(&STAGES, false, 0);
        assert_eq!(clock.stage(Category::Rename, 0), 0);
        drive(&mut clock, SAMPLE_PERIOD * 2);
        clock.pause();
        clock.resume();
        assert_eq!((clock.steps, clock.wall_ns), (0, 0));
        assert_eq!(clock.deposits().count(), 0);
        clock.finish();
        let mut out = BTreeMap::new();
        flatten_thread_into(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
