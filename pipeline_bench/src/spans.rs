//! In-memory span recording for the traced run, written out at exit in the
//! `tcl-telemetry` span JSONL schema so `tcl-trace summary|flame|
//! critical-path|diff` read the file unchanged.

use std::time::Instant;

use tcl_telemetry::json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: String,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    dur_us: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// The spans one thread recorded, in close order.
///
/// Each log numbers its spans from `thread << 32`, so ids stay unique across
/// the logs of one run. A disabled log records nothing, so untraced runs
/// execute the same code without the memory.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u64,
    next_id: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for telemetry thread `thread`; span times are offsets from
    /// `epoch`, which every log of one run shares.
    pub fn new(epoch: Instant, thread: u64, enabled: bool) -> Self {
        SpanLog {
            epoch,
            thread,
            next_id: (thread << 32) + 1,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Allocates the id of a span that opens now and closes later, so its
    /// children can name it as their parent before it is recorded.
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a closed span under an id from [`SpanLog::open`].
    pub fn close(
        &mut self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        let start_us = start.saturating_duration_since(self.epoch).as_micros();
        let dur_us = end.saturating_duration_since(start).as_micros();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_us: u64::try_from(start_us).unwrap_or(u64::MAX),
            dur_us: u64::try_from(dur_us).unwrap_or(u64::MAX),
            attrs: attrs.to_vec(),
        });
    }

    /// Records a leaf span (one with no children) and returns its id.
    pub fn leaf(
        &mut self,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, f64)],
    ) -> u64 {
        let id = self.open();
        self.close(id, name, parent, start, end, attrs);
        id
    }

    /// Appends every span as one `{"type":"span",…}` JSONL line.
    pub fn write_jsonl(&self, out: &mut String) {
        for s in &self.spans {
            out.push_str("{\"type\":\"span\",\"name\":\"");
            json::escape_into(&s.name, out);
            out.push_str(&format!("\",\"id\":{},\"parent\":", s.id));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ",\"thread\":{},\"start_us\":{},\"dur_us\":{}",
                self.thread, s.start_us, s.dur_us
            ));
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (i, (key, value)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json::escape_into(key, out);
                    out.push_str("\":");
                    json::number_into(*value, out);
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_round_trip_through_the_trace_loader() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 1, true);
        let root = log.open();
        let t0 = epoch + Duration::from_micros(10);
        let t1 = epoch + Duration::from_micros(30);
        let t2 = epoch + Duration::from_micros(90);
        let child = log.leaf("node.0.spiking", Some(root), t0, t1, &[("rows", 50.0)]);
        log.close(root, "bench.step", None, epoch, t2, &[]);
        let mut text = String::new();
        log.write_jsonl(&mut text);
        let trace = tcl_obs::Trace::parse(&text).expect("loads");
        let spans: Vec<_> = trace.spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[0].thread, 1);
        assert_eq!((spans[0].start_us, spans[0].dur_us), (10, 20));
        assert_eq!(spans[0].attrs, vec![("rows".to_string(), 50.0)]);
        assert_eq!(spans[1].name, "bench.step");
        assert_eq!(spans[1].dur_us, 90);
        // Self time of the parent excludes its child.
        let tree = tcl_obs::SpanTree::build(&trace);
        let summary = tcl_obs::summarize(&tree);
        let step = summary
            .iter()
            .find(|row| row.name == "bench.step")
            .expect("row");
        assert_eq!(step.self_us, 70);
    }

    #[test]
    fn disabled_logs_keep_nothing_and_ids_do_not_collide() {
        let epoch = Instant::now();
        let mut off = SpanLog::new(epoch, 1, false);
        off.leaf("x", None, epoch, epoch, &[]);
        let mut text = String::new();
        off.write_jsonl(&mut text);
        assert!(text.is_empty());
        let mut a = SpanLog::new(epoch, 1, true);
        let mut b = SpanLog::new(epoch, 2, true);
        assert_ne!(a.open(), b.open());
    }
}
