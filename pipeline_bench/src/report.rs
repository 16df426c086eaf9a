//! The benchmark's result line and run metadata, as single-line JSON.

use tcl_telemetry::json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The last line the benchmark prints:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
///
/// A non-finite value cannot be written as a JSON number; it is written as
/// 0 and forces `correct` to false, so a broken measurement never passes
/// as a result.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = String::with_capacity(64 + metrics.len() * 48);
    out.push_str("{\"correct\":");
    out.push_str(if correct && all_finite {
        "true"
    } else {
        "false"
    });
    out.push_str(&format!(
        ",\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    ));
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json::escape_into(&m.name, &mut out);
        out.push_str("\":{\"value\":");
        json::number_into(if m.value.is_finite() { m.value } else { 0.0 }, &mut out);
        out.push_str(",\"unit\":\"");
        json::escape_into(m.unit, &mut out);
        out.push_str("\"}");
    }
    out.push_str("}}");
    out
}

/// A metadata value: text or number.
#[derive(Debug, Clone, PartialEq)]
pub enum Meta {
    /// A string field.
    Text(String),
    /// A numeric field.
    Num(f64),
}

/// `{"meta":{key:value,…}}` — the run's provenance, printed before the
/// result line.
pub fn meta_line(fields: &[(&str, Meta)]) -> String {
    let mut out = String::from("{\"meta\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json::escape_into(key, &mut out);
        out.push_str("\":");
        match value {
            Meta::Text(s) => {
                out.push('"');
                json::escape_into(s, &mut out);
                out.push('"');
            }
            Meta::Num(v) => json::number_into(*v, &mut out),
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", "ms", 1.2034),
                Metric::new("setup_s", "s", 0.8127),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        let v = json::parse_line(&line).expect("valid json");
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(1000));
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let line = result_line(true, 1, 0, &[Metric::new("x", "ms", f64::NAN)]);
        assert!(line.starts_with("{\"correct\":false"));
        assert!(json::parse_line(&line).is_ok());
    }

    #[test]
    fn meta_line_escapes_text() {
        let line = meta_line(&[
            ("rev", Meta::Text("a\"b".into())),
            ("threads", Meta::Num(2.0)),
        ]);
        let v = json::parse_line(&line).expect("valid json");
        let meta = v.get("meta").expect("meta");
        assert_eq!(meta.get("rev").and_then(|r| r.as_str()), Some("a\"b"));
        assert_eq!(meta.get("threads").and_then(|t| t.as_u64()), Some(2));
    }
}
