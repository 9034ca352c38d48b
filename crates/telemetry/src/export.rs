//! The JSON-lines exporter.
//!
//! Serialization is hand-rolled: numbers and strings go through the
//! [`json`] codec's float writer and escaper.

use crate::counters::Stat;
use crate::event::Occupancy;
use crate::hist::Hist;
use crate::json;
use crate::Recorder;
use std::io::{self, Write};

/// Floats as a JSON array of [`json::fmt_f64`] numbers.
pub fn json_number_array(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(json::fmt_f64).collect();
    format!("[{}]", items.join(","))
}

/// Occupancy event number `seq` as a JSON object on a single line.
pub fn event_to_json(seq: u64, event: &Occupancy) -> String {
    format!(
        "{{\"seq\":{seq},\"kind\":\"occupancy\",\"track\":\"{}\",\"id\":{},\"value\":{},\"cycle\":{}}}",
        json::escape(event.track),
        event.id,
        json::fmt_f64(event.value),
        event.cycle
    )
}

/// Writes the full recorder state as JSON lines: a meta line, one line per
/// non-zero counter, one per non-empty histogram, then every retained event.
pub fn write_jsonl<W: Write>(rec: &Recorder, w: &mut W) -> io::Result<()> {
    let ring = rec.ring().clone();
    writeln!(
        w,
        "{{\"kind\":\"meta\",\"events_retained\":{},\"events_dropped\":{},\"events_total\":{}}}",
        ring.len(),
        ring.dropped(),
        ring.total()
    )?;
    for stat in Stat::ALL {
        let value = rec.counters().sum(stat);
        if value != 0 {
            writeln!(
                w,
                "{{\"kind\":\"counter\",\"stat\":\"{}\",\"value\":{}}}",
                json::escape(stat.name()),
                value
            )?;
        }
    }
    for h in Hist::ALL {
        let hist = rec.hist(h);
        if hist.count() != 0 {
            let buckets = hist
                .bucket_counts()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                w,
                "{{\"kind\":\"histogram\",\"hist\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
                json::escape(h.name()),
                hist.count(),
                json::fmt_f64(rec.hist_display(h, hist.mean())),
                json::fmt_f64(rec.hist_display(h, hist.percentile(0.5) as f64)),
                json::fmt_f64(rec.hist_display(h, hist.percentile(0.9) as f64)),
                json::fmt_f64(rec.hist_display(h, hist.percentile(0.99) as f64)),
                buckets,
            )?;
        }
    }
    let prof = crate::profile::snapshot();
    let self_ns = prof.self_ns();
    for (path, totals) in &prof.spans {
        writeln!(
            w,
            "{{\"kind\":\"span\",\"path\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            json::escape(path),
            totals.count,
            totals.total_ns,
            self_ns.get(path).copied().unwrap_or(0),
        )?;
    }
    for (seq, event) in ring.numbered() {
        writeln!(w, "{}", event_to_json(seq, event))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupancy(value: f64) -> Occupancy {
        Occupancy {
            track: "dram_backlog",
            id: 2,
            value,
            cycle: 120,
        }
    }

    #[test]
    fn occupancy_round_trips_to_json() {
        assert_eq!(
            event_to_json(7, &occupancy(3.5)),
            "{\"seq\":7,\"kind\":\"occupancy\",\"track\":\"dram_backlog\",\"id\":2,\"value\":3.5,\"cycle\":120}"
        );
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        assert!(event_to_json(0, &occupancy(f64::NAN)).contains("\"value\":null"));
    }
}
