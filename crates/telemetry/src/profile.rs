//! Run-scoped aggregation and reporting for the span profiler.
//!
//! Each simulator run executes inside [`collect_run`], which resets the
//! calling thread's span tree, opens a [`Category::Run`] span around the
//! job, and drains the finished tree into a process-wide merge registry.
//! Because every run starts from an identical empty tree (same node ids;
//! each stage clock starts its own sampling phase) and merging is a
//! commutative sum keyed by span path, the merged profile of a sweep is
//! independent of worker count and scheduling order: `--jobs 1` and
//! `--jobs 8` produce identical counts.
//!
//! [`snapshot`] combines the registry with whatever accumulated on the
//! current thread outside `collect_run` (e.g. serial trace recording) into
//! a [`ProfileReport`], which can render itself as a flamegraph-compatible
//! collapsed-stack file.

use crate::span::{self, Category, SpanTotals};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;

/// Process-wide merge registry: totals per span path, summed over every
/// completed [`collect_run`].
static MERGED: Mutex<BTreeMap<String, SpanTotals>> = Mutex::new(BTreeMap::new());

/// Turns runtime profiling on or off. A no-op (stays off) without the `on`
/// cargo feature. While off, every `span!` guard costs one relaxed load.
pub fn set_enabled(on: bool) {
    span::set_profiling(on);
}

/// True when spans are compiled in *and* runtime profiling is on.
#[inline]
pub fn enabled() -> bool {
    crate::STATIC_ENABLED && span::profiling_runtime()
}

/// Clears the merge registry and the current thread's span tree.
pub fn reset() {
    if !crate::STATIC_ENABLED {
        return;
    }
    MERGED.lock().unwrap().clear();
    span::reset_thread();
}

/// Runs `f` as one profiled simulator run: fresh thread tree, a `run` root
/// span, and a drain into the merge registry afterwards. When profiling is
/// off this is exactly `f()`.
pub fn collect_run<R>(f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    debug_assert_eq!(
        span::stack_depth(),
        0,
        "collect_run entered with live spans on this thread"
    );
    span::reset_thread();
    let result = {
        let _run = span::enter(Category::Run, 0);
        f()
    };
    drain_thread();
    result
}

/// Drains the current thread's span tree into the merge registry and resets
/// the tree.
fn drain_thread() {
    let mut merged = MERGED.lock().unwrap();
    span::flatten_thread_into(&mut merged);
    drop(merged);
    span::reset_thread();
}

/// A merged, path-keyed profile. Paths are `;`-separated frame names
/// (`run;cache_access;dram_queue`), ordered lexicographically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Totals per span path.
    pub spans: BTreeMap<String, SpanTotals>,
}

/// The merged profile so far: registry plus the current thread's
/// still-accumulating tree. Non-destructive, so it can be taken once for
/// the collapsed file and again by the JSONL exporter.
pub fn snapshot() -> ProfileReport {
    let mut spans = if crate::STATIC_ENABLED {
        MERGED.lock().unwrap().clone()
    } else {
        BTreeMap::new()
    };
    if crate::STATIC_ENABLED {
        span::flatten_thread_into(&mut spans);
    }
    ProfileReport { spans }
}

impl ProfileReport {
    /// True when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Accumulates `other` into `self` (path-wise sum).
    pub fn merge(&mut self, other: &ProfileReport) {
        for (path, totals) in &other.spans {
            self.spans.entry(path.clone()).or_default().add(totals);
        }
    }

    /// *Self* nanoseconds per path: the path's total minus its
    /// direct children's, clamped at zero (overlapping children, such as
    /// the bandit's spans inside memsim's train stage, can sum past their
    /// parent).
    pub fn self_ns(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = self
            .spans
            .iter()
            .map(|(path, totals)| (path.clone(), totals.total_ns))
            .collect();
        for (path, totals) in &self.spans {
            let children: u64 = self.direct_children(path).map(|(_, t)| t.total_ns).sum();
            out.insert(path.clone(), totals.total_ns.saturating_sub(children));
        }
        out
    }

    /// Direct children of `path` (one more frame, same prefix).
    pub fn direct_children<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a SpanTotals)> + 'a {
        self.spans.iter().filter_map(move |(p, t)| {
            let rest = p.strip_prefix(path)?.strip_prefix(';')?;
            if rest.contains(';') {
                None
            } else {
                Some((p.as_str(), t))
            }
        })
    }

    /// Writes the profile as collapsed stacks: one `path;path;frame N` line
    /// per span with nonzero self-time, where N is self-time in
    /// nanoseconds. The format loads directly in `inferno-flamegraph`,
    /// speedscope and the original `flamegraph.pl`.
    pub fn write_collapsed<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (path, self_ns) in self.self_ns() {
            if self_ns > 0 {
                writeln!(w, "{path} {self_ns}")?;
            }
        }
        Ok(())
    }

    /// [`ProfileReport::write_collapsed`] to a file.
    pub fn write_collapsed_to_path(&self, path: &std::path::Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_collapsed(&mut file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiling is a process-wide switch; tests that flip it serialize
    /// through this lock so cargo's parallel test runner can't interleave
    /// them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn report(paths: &[(&str, u64, u64)]) -> ProfileReport {
        let spans = paths
            .iter()
            .map(|&(path, count, total_ns)| (path.to_string(), SpanTotals { count, total_ns }))
            .collect();
        ProfileReport { spans }
    }

    #[test]
    fn disarmed_guard_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let r = collect_run(|| {
            let _g = span::enter(Category::CacheAccess, 0);
            42
        });
        assert_eq!(r, 42);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let r = report(&[
            ("run", 1, 1_000),
            ("run;cache_access", 10, 600),
            ("run;cache_access;dram_queue", 10, 200),
        ]);
        let self_ns = r.self_ns();
        assert_eq!(self_ns["run"], 400);
        assert_eq!(self_ns["run;cache_access"], 400);
        assert_eq!(self_ns["run;cache_access;dram_queue"], 200);
        assert_eq!(self_ns.values().sum::<u64>(), 1_000);
    }

    #[test]
    fn self_time_clamps_when_children_exceed_parent() {
        let r = report(&[("run", 1, 100), ("run;cache_access", 4, 300)]);
        // Child's 300ns > parent's 100ns: clamp, don't wrap.
        assert_eq!(r.self_ns()["run"], 0);
    }

    #[test]
    fn merge_is_a_pathwise_sum() {
        let mut a = report(&[("run", 1, 100), ("run;fetch", 5, 50)]);
        let b = report(&[("run", 1, 200), ("run;rename", 2, 20)]);
        a.merge(&b);
        assert_eq!(a.spans["run"].count, 2);
        assert_eq!(a.spans["run"].total_ns, 300);
        assert_eq!(a.spans["run;fetch"].count, 5);
        assert_eq!(a.spans["run;rename"].count, 2);
    }

    #[test]
    fn collapsed_output_is_valid_path_count_lines() {
        let r = report(&[
            ("run", 1, 1_000),
            ("run;cache_access", 10, 600),
            ("run;cache_access;dram_queue", 10, 200),
        ]);
        let mut out = Vec::new();
        r.write_collapsed(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            assert!(stack.split(';').all(|f| !f.is_empty()), "{line}");
            count.parse::<u64>().unwrap();
        }
        assert!(text.contains("run;cache_access;dram_queue 200"), "{text}");
    }

    #[cfg(feature = "on")]
    #[test]
    fn collect_run_merges_identically_regardless_of_threading() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();

        let job = |spins: u64| {
            collect_run(|| {
                for _ in 0..spins {
                    let _a = span::enter(Category::CacheAccess, 0);
                    let _b = span::enter(Category::DramQueue, 0);
                }
            })
        };

        // Serial: both runs on this thread.
        job(100);
        job(37);
        let serial = snapshot();
        let key = |r: &ProfileReport| -> Vec<(String, u64)> {
            r.spans.iter().map(|(p, t)| (p.clone(), t.count)).collect()
        };
        let serial_key = key(&serial);

        // Parallel: one run per thread.
        reset();
        std::thread::scope(|s| {
            s.spawn(|| job(100));
            s.spawn(|| job(37));
        });
        let parallel = snapshot();

        assert_eq!(serial_key, key(&parallel));
        assert_eq!(serial.spans["run"].count, 2);
        assert_eq!(serial.spans["run;cache_access"].count, 137);
        assert_eq!(serial.spans["run;cache_access;dram_queue"].count, 137);

        set_enabled(false);
        reset();
    }

    #[cfg(feature = "on")]
    #[test]
    fn stage_clock_leaves_attach_under_the_current_span() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let stages = [(Category::Fetch, 0), (Category::Commit, 0)];
        collect_run(|| {
            let mut clock = span::StageClock::start(&stages);
            for _ in 0..3_000 {
                clock.step();
                clock.lap(0);
                clock.lap(1);
            }
            clock.finish();
        });
        let snap = snapshot();
        set_enabled(false);
        reset();
        let fetch = snap.spans["run;fetch"];
        let commit = snap.spans["run;commit"];
        assert_eq!((fetch.count, commit.count), (3_000, 3_000));
        assert!(fetch.total_ns + commit.total_ns <= snap.spans["run"].total_ns);
    }
}
