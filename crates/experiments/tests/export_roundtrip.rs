//! Round-trip tests: what the telemetry exporters write, `mab-inspect`
//! parses back losslessly — ring-drop accounting under overflow, histogram
//! bucket arrays, and profiler span totals.
//!
//! Lives in its own integration-test binary because the span round-trip
//! flips the process-wide profiling switch.

#![cfg(feature = "telemetry")]

use mab_inspect::artifact::RunArtifact;
use mab_telemetry::{Hist, Occupancy, Recorder, EVENT_CAPACITY};

fn occupancy(cycle: u64) -> Occupancy {
    Occupancy {
        track: "dram_backlog",
        id: 0,
        value: 2.5,
        cycle,
    }
}

fn absorb_jsonl(rec: &Recorder) -> RunArtifact {
    let mut out = Vec::new();
    mab_telemetry::export::write_jsonl(rec, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let mut artifact = RunArtifact::new();
    for line in text.lines() {
        artifact.absorb_line(line);
    }
    assert_eq!(artifact.skipped_lines, 0, "exporter wrote unparsable lines");
    artifact
}

#[test]
fn overflowed_event_ring_drops_surface_in_export_and_report() {
    let rec = Recorder::new();
    let total = EVENT_CAPACITY as u64 + 6;
    for cycle in 0..total {
        rec.emit(occupancy(cycle));
    }
    assert_eq!(rec.ring().dropped(), 6);

    let artifact = absorb_jsonl(&rec);
    assert_eq!(artifact.events_retained, Some(EVENT_CAPACITY as u64));
    assert_eq!(artifact.events_dropped, Some(6));
    assert_eq!(artifact.events_total, Some(total));
    // Only the retained suffix made it into the file.
    assert_eq!(artifact.event_counts["occupancy"], EVENT_CAPACITY as u64);

    let report = mab_inspect::report::render_report(&artifact, 4);
    assert!(
        report.contains(&format!("WARNING: event ring dropped 6 of {total}")),
        "{report}"
    );
}

#[test]
fn histogram_buckets_and_span_totals_round_trip_through_jsonl() {
    let rec = Recorder::new();
    for value in [0.25, 0.5, 0.5, 4.0] {
        rec.hist(Hist::Reward).record_f64(value);
    }

    mab_telemetry::profile::set_enabled(true);
    mab_telemetry::profile::reset();
    mab_telemetry::profile::collect_run(|| {
        for _ in 0..130 {
            let _guard = mab_telemetry::span::enter(mab_telemetry::span::Category::TraceDecode, 0);
        }
    });
    let snapshot = mab_telemetry::profile::snapshot();
    let artifact = absorb_jsonl(&rec);
    mab_telemetry::profile::set_enabled(false);
    mab_telemetry::profile::reset();

    let buckets = &artifact.histogram_buckets["reward"];
    assert_eq!(
        buckets.as_slice(),
        &rec.hist(Hist::Reward).bucket_counts()[..]
    );
    assert_eq!(buckets.iter().sum::<u64>(), 4);

    let expected_self = snapshot.self_ns();
    for (path, totals) in &snapshot.spans {
        let parsed = artifact.spans[path];
        assert_eq!(parsed.count, Some(totals.count), "{path}");
        assert_eq!(parsed.total_ns, totals.total_ns, "{path}");
        assert_eq!(parsed.self_ns, expected_self[path], "{path}");
    }
    assert_eq!(artifact.spans["run;trace_decode"].count, Some(130));
}
