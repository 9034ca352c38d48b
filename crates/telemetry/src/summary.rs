//! Structured progress lines, the sweep progress display and the
//! end-of-run counter summary on stderr.
//!
//! This module is deliberately *not* gated by the `on` feature: experiment
//! binaries route their human-facing progress through it unconditionally
//! (replacing ad-hoc `eprintln!`), while the counter summaries only have
//! content when a recorder is installed.

use crate::counters::Stat;
use crate::hist::Hist;
use crate::Recorder;
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Prefix for every line the sink writes, so telemetry output is filterable
/// from the final result tables on stdout.
pub const PREFIX: &str = "[mab]";

/// Process-wide quiet switch (`--quiet`): suppresses every
/// `[mab]` progress line and the live sweep progress display.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Turns `[mab]` stderr progress lines on or off for the whole process.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::SeqCst);
}

/// True when `[mab]` progress output is suppressed.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

#[doc(hidden)]
pub fn progress_line(msg: &str) {
    if !quiet() {
        eprintln!("{PREFIX} {msg}");
    }
}

/// Live progress/ETA display for sweeps: `[mab] sweep 12/64 runs, 3.2
/// runs/s, ETA 16s`, redrawn in place on stderr. The line renders only when
/// stderr is a TTY and quiet mode is off — on CI logs and redirected
/// streams it is fully inert. It derives rate and ETA from the same
/// [`crate::live`] helpers as the monitoring plane, which counts progress
/// from the runner's arm events instead.
pub struct SweepProgress {
    total: usize,
    done: AtomicUsize,
    last_render_ms: AtomicU64,
    start: Instant,
    active: bool,
}

impl SweepProgress {
    /// A progress display for `total` runs.
    pub fn new(total: usize) -> Self {
        SweepProgress {
            total,
            done: AtomicUsize::new(0),
            last_render_ms: AtomicU64::new(u64::MAX),
            start: Instant::now(),
            active: total > 1 && !quiet() && std::io::stderr().is_terminal(),
        }
    }

    /// Whether this display will ever draw anything.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Records one completed run and redraws (throttled to ~10 Hz).
    pub fn tick(&self) {
        if !self.active {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_render_ms.load(Ordering::Relaxed);
        if last != u64::MAX && done != self.total && elapsed_ms.saturating_sub(last) < 100 {
            return;
        }
        self.last_render_ms.store(elapsed_ms, Ordering::Relaxed);
        let secs = elapsed_ms as f64 / 1e3;
        let rate = crate::live::rate_per_sec(done as u64, secs);
        let eta = crate::live::eta_seconds(done as u64, self.total as u64, secs);
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{PREFIX} sweep {done}/{} runs, {} runs/s, ETA {} ",
            self.total,
            crate::live::format_rate(rate),
            crate::live::format_eta(eta),
        );
        let _ = err.flush();
    }

    /// Clears the progress line (call once after the sweep completes).
    pub fn finish(&self) {
        if !self.active {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{:width$}\r", "", width = 64);
        let _ = err.flush();
    }
}

/// Emits one progress line on stderr, prefixed with [`PREFIX`].
#[macro_export]
macro_rules! progress {
    ($($fmt:tt)*) => {
        $crate::summary::progress_line(&format!($($fmt)*))
    };
}

/// Point-in-time capture of the recorder's counters and histograms.
///
/// The recorder is process-global and cumulative, so a session that wants
/// *its own* totals (e.g. for a run-ledger record) must capture a snapshot
/// at start and subtract it at finish; see [`key_stats_since`].
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    counters: [u64; Stat::COUNT],
    /// Per-histogram `(count, sum)` in stored units; the sum is
    /// reconstructed as `mean × count`, which is exact because the stored
    /// sum is an integer total of `u64` samples.
    hists: [(u64, f64); Hist::COUNT],
}

/// Captures the recorder's current counter and histogram totals.
#[must_use]
pub fn snapshot(rec: &Recorder) -> StatsSnapshot {
    let mut hists = [(0u64, 0.0f64); Hist::COUNT];
    for (slot, &h) in hists.iter_mut().zip(Hist::ALL.iter()) {
        let hist = rec.hist(h);
        let n = hist.count();
        *slot = (n, hist.mean() * n as f64);
    }
    StatsSnapshot {
        counters: rec.counters().snapshot(),
        hists,
    }
}

/// Key output stats accumulated since `base` was captured, as stable
/// `(name, value)` pairs: every counter that moved (by its snake_case
/// name), plus `<hist>_n` / `<hist>_mean` for every histogram that gained
/// samples (means in display units). Pairs come out in declaration order,
/// so the list is deterministic.
#[must_use]
pub fn key_stats_since(rec: &Recorder, base: &StatsSnapshot) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let now = rec.counters().snapshot();
    for (i, &stat) in Stat::ALL.iter().enumerate() {
        let delta = now[i].saturating_sub(base.counters[i]);
        if delta != 0 {
            out.push((stat.name().to_string(), delta as f64));
        }
    }
    for (i, &h) in Hist::ALL.iter().enumerate() {
        let hist = rec.hist(h);
        let n = hist.count();
        let (base_n, base_sum) = base.hists[i];
        let dn = n.saturating_sub(base_n);
        if dn != 0 {
            let dsum = hist.mean() * n as f64 - base_sum;
            out.push((format!("{}_n", h.name()), dn as f64));
            out.push((
                format!("{}_mean", h.name()),
                rec.hist_display(h, dsum / dn as f64),
            ));
        }
    }
    out
}

/// Writes the end-of-run summary to `w`: non-zero counters, non-empty
/// histograms, and the event and decision rings' drop accounting.
pub fn write_summary<W: Write>(rec: &Recorder, w: &mut W) -> std::io::Result<()> {
    let nonzero = rec.counters().nonzero();
    if nonzero.is_empty() && Hist::ALL.iter().all(|&h| rec.hist(h).count() == 0) {
        writeln!(w, "{PREFIX} telemetry: no samples recorded")?;
        return Ok(());
    }
    writeln!(w, "{PREFIX} telemetry summary:")?;
    for (stat, value) in nonzero {
        writeln!(w, "{PREFIX}   {:<22} {value}", stat.name())?;
    }
    for h in Hist::ALL {
        let hist = rec.hist(h);
        if hist.count() != 0 {
            writeln!(
                w,
                "{PREFIX}   {:<22} n={} mean={:.4} p50={:.4} p99={:.4}",
                h.name(),
                hist.count(),
                rec.hist_display(h, hist.mean()),
                rec.hist_display(h, hist.percentile(0.5) as f64),
                rec.hist_display(h, hist.percentile(0.99) as f64),
            )?;
        }
    }
    let (retained, dropped, total) = {
        let ring = rec.ring();
        (ring.len(), ring.dropped(), ring.total())
    };
    writeln!(
        w,
        "{PREFIX}   events: {retained} retained, {dropped} dropped, {total} total"
    )?;
    let trace = rec.trace();
    if trace.total_pushed() != 0 {
        writeln!(
            w,
            "{PREFIX}   decisions: {} retained, {} dropped, {} total, {} unattributed",
            trace.len(),
            trace.dropped(),
            trace.total_pushed(),
            trace.unattributed()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Stat;
    use crate::Recorder;

    #[test]
    fn summary_lists_nonzero_counters_only() {
        let rec = Recorder::new();
        rec.counters().add(Stat::ArmPulls, 5);
        rec.hist(Hist::Reward).record_f64(1.0);
        let mut out = Vec::new();
        write_summary(&rec, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("arm_pulls"), "{text}");
        assert!(text.contains("reward"), "{text}");
        assert!(!text.contains("dram_access"), "{text}");
    }

    #[test]
    fn sweep_progress_respects_quiet() {
        set_quiet(true);
        assert!(quiet());
        let p = SweepProgress::new(10);
        assert!(!p.active());
        // Ticks and finish on an inactive display must not write anything.
        p.tick();
        p.finish();
        set_quiet(false);
    }

    #[test]
    fn single_run_sweep_never_draws() {
        let p = SweepProgress::new(1);
        assert!(!p.active());
    }

    #[test]
    fn key_stats_are_deltas_not_totals() {
        let rec = Recorder::new();
        rec.counters().add(Stat::ArmPulls, 7);
        rec.hist(Hist::Reward).record_f64(2.0);
        let base = snapshot(&rec);

        rec.counters().add(Stat::ArmPulls, 3);
        rec.counters().add(Stat::DramAccess, 2);
        rec.hist(Hist::Reward).record_f64(4.0);
        rec.hist(Hist::Reward).record_f64(6.0);

        let stats = key_stats_since(&rec, &base);
        let get = |name: &str| {
            stats
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {name} in {stats:?}"))
        };
        // Pre-snapshot activity is subtracted out.
        assert_eq!(get("arm_pulls"), 3.0);
        assert_eq!(get("dram_access"), 2.0);
        assert_eq!(get("reward_n"), 2.0);
        // Delta mean over the two new samples (4.0, 6.0), not the lifetime
        // mean over all three.
        assert!((get("reward_mean") - 5.0).abs() < 1e-6, "{stats:?}");
        // Untouched counters never appear.
        assert!(!stats.iter().any(|(k, _)| k == "l1_demand_hit"));
    }

    #[test]
    fn key_stats_since_fresh_snapshot_of_idle_recorder_is_empty() {
        let rec = Recorder::new();
        rec.counters().add(Stat::ArmPulls, 7);
        let base = snapshot(&rec);
        assert!(key_stats_since(&rec, &base).is_empty());
    }

    #[test]
    fn empty_recorder_reports_no_samples() {
        let rec = Recorder::new();
        let mut out = Vec::new();
        write_summary(&rec, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no samples"), "{text}");
    }
}
