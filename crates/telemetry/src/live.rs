//! Shared sweep-progress arithmetic and formatting.
//!
//! Three places show "how far along is this sweep": the stderr
//! progress/ETA line ([`crate::summary::SweepProgress`]), `mab-monitor`'s
//! `/metrics` and `/status` endpoints, and `mab-inspect watch`. Each keeps
//! its own `(done, total, elapsed)` figures (the monitor counts the
//! runner's arm events under its table lock) and derives rate and ETA from
//! the helpers here, so there is exactly one implementation of that
//! arithmetic and formatting.

/// Completed runs per second; 0 when nothing has finished or no time has
/// passed (never negative, never non-finite).
#[must_use]
pub fn rate_per_sec(done: u64, elapsed_secs: f64) -> f64 {
    if done == 0 || !elapsed_secs.is_finite() || elapsed_secs <= 0.0 {
        0.0
    } else {
        done as f64 / elapsed_secs
    }
}

/// Estimated seconds until the sweep completes, extrapolating the observed
/// rate. `None` until the first arm completes (no basis for an estimate);
/// `Some(0.0)` once everything is done.
#[must_use]
pub fn eta_seconds(done: u64, total: u64, elapsed_secs: f64) -> Option<f64> {
    if done >= total {
        return Some(0.0);
    }
    let rate = rate_per_sec(done, elapsed_secs);
    if rate <= 0.0 || !rate.is_finite() {
        None
    } else {
        Some((total - done) as f64 / rate)
    }
}

/// Renders a rate as `12.3` (one decimal). Non-finite or negative rates —
/// which can only come from corrupted inputs — render as `--`.
#[must_use]
pub fn format_rate(rate: f64) -> String {
    if rate.is_finite() && rate >= 0.0 {
        format!("{rate:.1}")
    } else {
        "--".to_string()
    }
}

/// Renders an ETA compactly: `16s`, `4m09s`, `3h25m`, `2d07h`. `None` and
/// non-finite estimates render as `--`.
#[must_use]
pub fn format_eta(eta_secs: Option<f64>) -> String {
    let Some(eta) = eta_secs else {
        return "--".to_string();
    };
    if !eta.is_finite() || eta < 0.0 {
        return "--".to_string();
    }
    let secs = eta.ceil() as u64;
    if secs < 60 {
        format!("{secs}s")
    } else if secs < 3600 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else if secs < 86_400 {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    } else {
        format!("{}d{:02}h", secs / 86_400, (secs % 86_400) / 3600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_handles_degenerate_inputs() {
        assert_eq!(rate_per_sec(0, 10.0), 0.0);
        assert_eq!(rate_per_sec(5, 0.0), 0.0);
        assert_eq!(rate_per_sec(5, -1.0), 0.0);
        assert_eq!(rate_per_sec(5, f64::NAN), 0.0);
        assert!((rate_per_sec(10, 4.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn eta_is_unknown_before_the_first_completion() {
        assert_eq!(eta_seconds(0, 64, 5.0), None);
        assert_eq!(eta_seconds(0, 64, 0.0), None);
    }

    #[test]
    fn eta_extrapolates_and_clamps_at_done() {
        // 16 of 64 in 8s -> 2 runs/s -> 24s left.
        assert_eq!(eta_seconds(16, 64, 8.0), Some(24.0));
        assert_eq!(eta_seconds(64, 64, 8.0), Some(0.0));
        assert_eq!(eta_seconds(70, 64, 8.0), Some(0.0));
    }

    #[test]
    fn eta_with_nonfinite_elapsed_is_unknown() {
        assert_eq!(eta_seconds(3, 64, f64::NAN), None);
        assert_eq!(eta_seconds(3, 64, f64::INFINITY), None);
    }

    #[test]
    fn format_rate_covers_edges() {
        assert_eq!(format_rate(3.25), "3.2");
        assert_eq!(format_rate(0.0), "0.0");
        assert_eq!(format_rate(f64::NAN), "--");
        assert_eq!(format_rate(f64::INFINITY), "--");
        assert_eq!(format_rate(-1.0), "--");
    }

    #[test]
    fn format_eta_spans_seconds_to_days() {
        assert_eq!(format_eta(None), "--");
        assert_eq!(format_eta(Some(f64::NAN)), "--");
        assert_eq!(format_eta(Some(-3.0)), "--");
        assert_eq!(format_eta(Some(0.0)), "0s");
        assert_eq!(format_eta(Some(15.2)), "16s");
        assert_eq!(format_eta(Some(249.0)), "4m09s");
        assert_eq!(format_eta(Some(3600.0)), "1h00m");
        assert_eq!(format_eta(Some(12_300.0)), "3h25m");
        // > 24h: days with zero-padded hours.
        assert_eq!(format_eta(Some(198_000.0)), "2d07h");
    }
}
