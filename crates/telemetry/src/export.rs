//! JSON-lines and CSV exporters.
//!
//! serde is stubbed in this offline workspace, so serialization is
//! hand-rolled: each event is flattened into `(key, value)` fields shared by
//! both formats, and JSON values go through the [`json`] codec's escaper
//! and float writer.

use crate::counters::Stat;
use crate::event::Event;
use crate::hist::Hist;
use crate::json;
use crate::Recorder;
use std::io::{self, Write};

/// A flattened field value.
#[derive(Debug, Clone, Copy)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Floating point; non-finite values export as `null` / empty.
    F64(f64),
    /// Static string.
    Str(&'static str),
}

/// Flattens an event into `(key, value)` pairs, in [`CSV_COLUMNS`] order.
pub fn event_fields(event: &Event) -> Vec<(&'static str, Field)> {
    match *event {
        Event::Occupancy {
            track,
            id,
            value,
            cycle,
        } => vec![
            ("track", Field::Str(track)),
            ("id", Field::U64(id as u64)),
            ("value", Field::F64(value)),
            ("cycle", Field::U64(cycle)),
        ],
    }
}

/// Escapes a field for CSV: quotes it when it contains a comma, quote or
/// newline, doubling embedded quotes.
pub fn escape_csv(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Floats as a JSON array of [`json::fmt_f64`] numbers.
pub fn json_number_array(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(json::fmt_f64).collect();
    format!("[{}]", items.join(","))
}

fn json_value(f: Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) => json::fmt_f64(v),
        Field::Str(s) => format!("\"{}\"", json::escape(s)),
    }
}

fn csv_value(f: Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) if v.is_finite() => format!("{v}"),
        Field::F64(_) => String::new(),
        Field::Str(s) => escape_csv(s),
    }
}

/// Event number `seq` as a JSON object on a single line.
pub fn event_to_json(seq: u64, event: &Event) -> String {
    let mut line = format!(
        "{{\"seq\":{seq},\"kind\":\"{}\"",
        json::escape(event.kind())
    );
    for (key, value) in event_fields(event) {
        line.push_str(&format!(",\"{}\":{}", json::escape(key), json_value(value)));
    }
    line.push('}');
    line
}

/// Every CSV column, in output order: the event number and kind, then the
/// event's fields.
pub const CSV_COLUMNS: [&str; 6] = ["seq", "kind", "track", "id", "value", "cycle"];

/// Event number `seq` as a CSV row following [`CSV_COLUMNS`].
pub fn event_to_csv(seq: u64, event: &Event) -> String {
    let mut row = vec![seq.to_string(), escape_csv(event.kind())];
    row.extend(event_fields(event).into_iter().map(|(_, v)| csv_value(v)));
    row.join(",")
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
                json_value(Field::F64(rec.hist_display(h, hist.mean()))),
                json_value(Field::F64(rec.hist_display(h, hist.percentile(0.5) as f64))),
                json_value(Field::F64(rec.hist_display(h, hist.percentile(0.9) as f64))),
                json_value(Field::F64(rec.hist_display(h, hist.percentile(0.99) as f64))),
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

/// Writes the retained events as a CSV table ([`CSV_COLUMNS`] header first).
pub fn write_csv<W: Write>(rec: &Recorder, w: &mut W) -> io::Result<()> {
    writeln!(w, "{}", CSV_COLUMNS.join(","))?;
    let ring = rec.ring().clone();
    for (seq, event) in ring.numbered() {
        writeln!(w, "{}", event_to_csv(seq, event))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupancy(value: f64) -> Event {
        Event::Occupancy {
            track: "dram_backlog",
            id: 2,
            value,
            cycle: 120,
        }
    }

    #[test]
    fn csv_escaping_quotes_when_needed() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape_csv("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn occupancy_round_trips_to_json() {
        assert_eq!(
            event_to_json(7, &occupancy(3.5)),
            "{\"seq\":7,\"kind\":\"occupancy\",\"track\":\"dram_backlog\",\"id\":2,\"value\":3.5,\"cycle\":120}"
        );
    }

    #[test]
    fn csv_rows_follow_the_header() {
        let keys: Vec<&str> = event_fields(&occupancy(3.5))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, CSV_COLUMNS[2..]);
        assert_eq!(
            event_to_csv(4, &occupancy(3.5)),
            "4,occupancy,dram_backlog,2,3.5,120"
        );
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let event = occupancy(f64::NAN);
        assert!(event_to_json(0, &event).contains("\"value\":null"));
        assert_eq!(event_to_csv(0, &event), "0,occupancy,dram_backlog,2,,120");
    }
}
