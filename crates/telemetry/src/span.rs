//! Thread-local hierarchical span stack: the low-level half of the profiler.
//!
//! [`enter`] pushes a `(category, label)` frame onto a per-thread span stack
//! and returns an RAII [`SpanGuard`] that pops it on drop. Frames with the
//! same parent, category and label share one node in a per-thread arena
//! tree, so the profile is an aggregate over calls, not a log of them.
//!
//! Costs are kept proportional to how hot a path is:
//!
//! - [`enter`] is the plain guard for paths that run at most a few times
//!   per thousand simulated cycles (runs, epochs, bandit steps). Each node
//!   times every Nth entry (N from [`Category::sample_period`]); counting
//!   is exact.
//! - [`enter_sampled`] is for per-access paths: the *call site* arms only
//!   every Nth call, unarmed calls bump a caller-owned pending counter
//!   (one plain increment — no thread-local, no clock), and the next armed
//!   call deposits the pending count before entering a real timed span.
//!   Total time is later estimated as `total_ns × count / timed`.
//! - [`leaf`] deposits pre-aggregated batches for paths too hot even for a
//!   per-call branch (per-cycle SMT pipeline stages batch locally and
//!   flush each epoch).
//!
//! Everything here is behind the same gate as the rest of the crate: with
//! the `on` feature off, [`enter`] folds to a no-op guard; with it on, a
//! disarmed profiler costs one relaxed atomic load and a branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span measures. Categories double as frame names in collapsed
/// stacks; per-category sampling periods keep hot paths cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Category {
    /// One full simulator run (opened by the sweep engine around each job).
    Run,
    /// Memory-system demand access below the L1 (L2 lookup and everything
    /// it triggers).
    CacheAccess,
    /// Waiting on / merging into an in-flight MSHR entry.
    Mshr,
    /// DRAM controller queueing and service.
    DramQueue,
    /// Draining completed fills into the caches.
    CacheFill,
    /// Prefetcher training on a demand access.
    PrefetchTrain,
    /// Issuing queued prefetch candidates into the hierarchy.
    PrefetchIssue,
    /// SMT fetch stage (batched per epoch via [`leaf`]).
    Fetch,
    /// SMT rename stage (batched per epoch via [`leaf`]).
    Rename,
    /// SMT issue stage (batched per epoch via [`leaf`]).
    Issue,
    /// SMT commit stage (batched per epoch via [`leaf`]).
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
}

impl Category {
    /// Number of distinct categories.
    pub const COUNT: usize = 16;

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
        }
    }

    /// Every Nth entry of a node in this category is wall-clock timed.
    /// Most categories time every entry: the rare ones (per run / per
    /// bandit step / per epoch) can afford it, and the per-access memory
    /// system categories already arrive through [`enter_sampled`], whose
    /// call sites only arm a small deterministic subset of calls — timing
    /// those armed entries is the whole point of arming them. TraceDecode
    /// uses a direct guard on a moderately hot path, so it samples here.
    pub const fn sample_period(self) -> u32 {
        match self {
            Category::TraceDecode => 4,
            _ => 1,
        }
    }

    const fn from_u8(v: u8) -> Category {
        Category::ALL[v as usize]
    }
}

/// Aggregate totals for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Exact number of times the span was entered.
    pub count: u64,
    /// Number of entries that were wall-clock timed.
    pub timed: u64,
    /// Total nanoseconds across the timed entries only.
    pub total_ns: u64,
}

impl SpanTotals {
    /// Estimated total nanoseconds across *all* entries, extrapolated from
    /// the timed sample: `total_ns × count / timed` (0 when never timed).
    pub fn estimated_ns(&self) -> u64 {
        if self.timed == 0 {
            0
        } else {
            (self.total_ns as u128 * self.count as u128 / self.timed as u128) as u64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &SpanTotals) {
        self.count += other.count;
        self.timed += other.timed;
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
const UNTIMED: u64 = u64::MAX;

struct Node {
    cat: u8,
    label: u32,
    first_child: u32,
    next_sibling: u32,
    /// Remaining entries before the next timed one (0 ⇒ time this entry).
    countdown: u32,
    totals: SpanTotals,
}

struct Frame {
    /// Node that was `current` before this span was entered.
    prev: u32,
    /// Entry timestamp, or [`UNTIMED`] when this entry is not sampled.
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
                countdown: 0,
                totals: SpanTotals::default(),
            }],
            current: 0,
            stack: Vec::with_capacity(16),
            epoch: Instant::now(),
        }
    }

    /// Clears the tree back to a lone root. Called between runs so sampling
    /// phases and node ids never depend on what ran earlier on this worker.
    fn reset(&mut self) {
        self.nodes.truncate(1);
        let root = &mut self.nodes[0];
        root.first_child = NONE;
        root.countdown = 0;
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
            countdown: 0,
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
    enter_impl(cat, label, 0);
    SpanGuard { armed: true }
}

/// Call-site-sampled span for per-access paths too hot for [`enter`]. The
/// caller owns the arming cadence (e.g. every 256th demand access) and a
/// `pending` tally kept next to its other per-instance state: unarmed calls
/// cost one branch and one plain increment, while an armed call deposits
/// the pending unarmed count onto the node and enters a real, always-timed
/// span. Counts stay exact up to the last armed entry, and the timed
/// subset is an unbiased 1-in-N sample of the site.
///
/// `profiling` is the hoisted result of
/// [`profile::enabled`](crate::profile::enabled), read once per access so
/// the per-site cost is a test of a local bool rather than an atomic load.
#[inline]
pub fn enter_sampled(
    cat: Category,
    label: u32,
    pending: &mut u64,
    profiling: bool,
    armed: bool,
) -> SpanGuard {
    if !crate::STATIC_ENABLED || !profiling {
        return SpanGuard { armed: false };
    }
    if !armed {
        *pending += 1;
        return SpanGuard { armed: false };
    }
    enter_impl(cat, label, std::mem::take(pending));
    SpanGuard { armed: true }
}

fn enter_impl(cat: Category, label: u32, deposit: u64) {
    TREE.with(|tree| {
        let mut t = tree.borrow_mut();
        let parent = t.current;
        let node = t.find_or_add(parent, cat as u8, label);
        let start_ns = {
            let now = if t.nodes[node as usize].countdown == 0 {
                t.now_ns()
            } else {
                UNTIMED
            };
            let n = &mut t.nodes[node as usize];
            n.totals.count += 1 + deposit;
            if n.countdown == 0 {
                n.countdown = cat.sample_period() - 1;
            } else {
                n.countdown -= 1;
            }
            now
        };
        t.current = node;
        t.stack.push(Frame {
            prev: parent,
            start_ns,
        });
    });
}

/// Pops the innermost span. Robust to an empty stack (e.g. profiling was
/// reset while a guard was live): a pop with no frame is a no-op.
fn exit() {
    TREE.with(|tree| {
        let mut t = tree.borrow_mut();
        let Some(frame) = t.stack.pop() else {
            return;
        };
        if frame.start_ns != UNTIMED {
            let end = t.now_ns();
            let cur = t.current as usize;
            let n = &mut t.nodes[cur];
            n.totals.timed += 1;
            n.totals.total_ns += end.saturating_sub(frame.start_ns);
        }
        t.current = frame.prev;
    });
}

/// Deposits a pre-aggregated batch as a child of the current span: `count`
/// calls of which `timed` were wall-clock timed for `total_ns` total. This
/// is the escape hatch for paths too hot even for a sampled guard — the SMT
/// pipeline batches per-stage counts locally each epoch and flushes them
/// here.
pub fn leaf(cat: Category, label: u32, count: u64, timed: u64, total_ns: u64) {
    if !crate::STATIC_ENABLED || !PROFILING.load(Ordering::Relaxed) || count == 0 {
        return;
    }
    TREE.with(|tree| {
        let mut t = tree.borrow_mut();
        let parent = t.current;
        let node = t.find_or_add(parent, cat as u8, label);
        let n = &mut t.nodes[node as usize];
        n.totals.count += count;
        n.totals.timed += timed;
        n.totals.total_ns += total_ns;
    });
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
            assert!(c.sample_period() >= 1);
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

    #[cfg(feature = "on")]
    #[test]
    fn sampling_times_first_and_every_nth_entry() {
        let mut t = ThreadTree::new();
        let period = Category::TraceDecode.sample_period() as u64;
        assert!(period > 1, "test needs a sampled category");
        let total = period * 3;
        for _ in 0..total {
            let n = t.find_or_add(0, Category::TraceDecode as u8, 0);
            let node = &mut t.nodes[n as usize];
            node.totals.count += 1;
            if node.countdown == 0 {
                node.countdown = Category::TraceDecode.sample_period() - 1;
                node.totals.timed += 1;
                node.totals.total_ns += 5;
            } else {
                node.countdown -= 1;
            }
        }
        let mut out = BTreeMap::new();
        t.flatten_into(&mut out);
        let totals = out["trace_decode"];
        assert_eq!(totals.count, total);
        assert_eq!(totals.timed, 3);
        assert_eq!(totals.estimated_ns(), 5 * total);
    }

    #[test]
    fn estimated_ns_extrapolates_from_the_sample() {
        let t = SpanTotals {
            count: 100,
            timed: 10,
            total_ns: 1_000,
        };
        assert_eq!(t.estimated_ns(), 10_000);
        let never = SpanTotals {
            count: 5,
            timed: 0,
            total_ns: 0,
        };
        assert_eq!(never.estimated_ns(), 0);
    }
}
