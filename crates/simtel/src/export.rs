//! Serializers: Chrome trace-event JSON (Perfetto), Prometheus text
//! exposition — plus a dependency-free JSON/Prometheus validity checker used
//! by the golden and smoke tests.
//!
//! Everything here is byte-deterministic: timestamps are formatted from
//! integer nanoseconds (`ns/1000.ns%1000` microseconds, the trace-event
//! unit), floats go through Rust's shortest-roundtrip `{}`, and all
//! iteration is over `BTreeMap`s or first-use-ordered vectors.

use crate::{Labels, Telemetry};

/// Format a nanosecond count as fractional microseconds (the Chrome
/// trace-event timestamp unit) using pure integer math: `1_234_567 ns` →
/// `"1234.567"`.
pub fn fmt_micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Format an `f64` as a JSON number; non-finite values (which only arise
/// from upstream bugs) degrade to `null` rather than emitting invalid JSON.
pub fn fmt_json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Format an `f64` for Prometheus exposition (`+Inf`/`-Inf`/`NaN` spelled
/// the Prometheus way).
pub fn fmt_prom_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

fn json_args(args: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    out.push('}');
    out
}

/// `name` or `name{k=v,...}` — the display name used for counter tracks.
fn series_display_name(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = format!("{name}{{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}={v}"));
    }
    out.push('}');
    out
}

/// Serialize spans and timeseries as a Chrome trace-event JSON array.
///
/// Layout: one Perfetto *process* per distinct process name (pid assigned in
/// first-use order, 1-based), one *thread* per track (tid 1-based within its
/// process); all timeseries live in a synthetic final process named
/// `metrics` as `"C"` (counter) events. Load the file at
/// <https://ui.perfetto.dev>.
pub fn chrome_trace_json(tel: &Telemetry) -> String {
    let tracks = tel.tracer.tracks();
    // Assign pids/tids in first-use order.
    let mut procs: Vec<&str> = Vec::new();
    let mut thread_counts: Vec<usize> = Vec::new();
    let mut track_ids: Vec<(usize, usize)> = Vec::with_capacity(tracks.len());
    for (p, _) in tracks {
        let pi = match procs.iter().position(|q| *q == p.as_ref()) {
            Some(i) => i,
            None => {
                procs.push(p.as_ref());
                thread_counts.push(0);
                procs.len() - 1
            }
        };
        thread_counts[pi] += 1;
        track_ids.push((pi + 1, thread_counts[pi]));
    }
    let metrics_pid = procs.len() + 1;
    let have_series = tel.registry.series().next().is_some();

    let mut lines: Vec<String> = Vec::new();
    for (i, p) in procs.iter().enumerate() {
        lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            json_escape(p)
        ));
    }
    if have_series {
        lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{metrics_pid},\"tid\":0,\"args\":{{\"name\":\"metrics\"}}}}"
        ));
    }
    for (ti, (_, thread)) in tracks.iter().enumerate() {
        let (pid, tid) = track_ids[ti];
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(thread)
        ));
    }
    for s in tel.tracer.spans() {
        let (pid, tid) = track_ids.get(s.track).copied().unwrap_or((0, 0));
        lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
            json_escape(s.name),
            json_escape(s.cat),
            fmt_micros(s.start.0),
            fmt_micros(s.dur_ns),
            json_args(&s.args)
        ));
    }
    for (name, labels, points) in tel.registry.series() {
        let display = json_escape(&series_display_name(name, labels));
        for &(t, v) in points {
            lines.push(format!(
                "{{\"name\":\"{display}\",\"ph\":\"C\",\"ts\":{},\"pid\":{metrics_pid},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                fmt_micros(t.0),
                fmt_json_num(v)
            ));
        }
    }
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    out
}

fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `{k="v",...}` or the empty string; `extra` appends one more pair (used
/// for histogram `le`).
fn prom_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Serialize counters, gauges, histograms (cumulative `le` buckets +
/// `_sum`/`_count`) and timeseries (as their final value) in Prometheus
/// text exposition format.
pub fn prometheus_text(tel: &Telemetry) -> String {
    let mut out = String::new();
    let mut headed: Vec<&str> = Vec::new();
    let head = |out: &mut String, headed: &mut Vec<&str>, name: &'static str, ty: &str| {
        if !headed.contains(&name) {
            headed.push(name);
            if let Some(text) = tel.registry.help_for(name) {
                out.push_str(&format!("# HELP {name} {text}\n"));
            }
            out.push_str(&format!("# TYPE {name} {ty}\n"));
        }
    };
    for (name, labels, v) in tel.registry.counters() {
        head(&mut out, &mut headed, name, "counter");
        out.push_str(&format!("{name}{} {v}\n", prom_labels(labels, None)));
    }
    for (name, labels, v) in tel.registry.gauges() {
        head(&mut out, &mut headed, name, "gauge");
        out.push_str(&format!("{name}{} {}\n", prom_labels(labels, None), fmt_prom_num(v)));
    }
    for (name, labels, h) in tel.registry.histograms() {
        head(&mut out, &mut headed, name, "histogram");
        let mut cum = 0u64;
        for (i, &n) in h.buckets().iter().enumerate() {
            cum += n;
            let le = match h.bounds().get(i) {
                Some(&b) => fmt_prom_num(b),
                None => "+Inf".to_string(),
            };
            out.push_str(&format!(
                "{name}_bucket{} {cum}\n",
                prom_labels(labels, Some(("le", &le)))
            ));
        }
        out.push_str(&format!(
            "{name}_sum{} {}\n",
            prom_labels(labels, None),
            fmt_prom_num(h.sum())
        ));
        out.push_str(&format!("{name}_count{} {}\n", prom_labels(labels, None), h.count()));
    }
    for (name, labels, points) in tel.registry.series() {
        head(&mut out, &mut headed, name, "gauge");
        let last = points.last().map(|&(_, v)| v).unwrap_or(0.0);
        out.push_str(&format!(
            "{name}{} {}\n",
            prom_labels(labels, None),
            fmt_prom_num(last)
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Validity checkers (no external parser crates are available offline; the
// golden/smoke tests need *some* independent check that exporter output is
// well-formed).
// ---------------------------------------------------------------------------

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(c))))
        }
    }
    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }
    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }
    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.i += 1,
            }
        }
    }
    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if self.i == start || (self.i == start + 1 && self.b[start] == b'-') {
            Err(self.err("bad number"))
        } else {
            Ok(())
        }
    }
}

/// Check that `s` is one well-formed JSON document. Returns a message with
/// a byte offset on the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonParser { b: s.as_bytes(), i: 0 };
    p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(())
}

/// Check that `s` looks like valid Prometheus text exposition: every
/// non-comment, non-blank line is `name[{labels}] <number>` with balanced
/// braces and a parseable value.
pub fn validate_prometheus(s: &str) -> Result<(), String> {
    for (i, line) in s.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((metric, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no value separator", i + 1));
        };
        let name_end = metric.find('{').unwrap_or(metric.len());
        let name = &metric[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!("line {}: bad metric name '{name}'", i + 1));
        }
        if metric.matches('{').count() != metric.matches('}').count() {
            return Err(format!("line {}: unbalanced braces", i + 1));
        }
        let ok = value.parse::<f64>().is_ok()
            || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !ok {
            return Err(format!("line {}: bad value '{value}'", i + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_simcore::time::SimTime;

    #[test]
    fn micros_formatting_zero_pads() {
        assert_eq!(fmt_micros(0), "0.000");
        assert_eq!(fmt_micros(1_234_567), "1234.567");
        assert_eq!(fmt_micros(1_000), "1.000");
        assert_eq!(fmt_micros(999), "0.999");
    }

    fn sample_tel() -> Telemetry {
        let mut t = Telemetry::on();
        t.help("web_requests_total", "completed requests");
        t.counter_add("web_requests_total", &[("outcome", "ok")], 7);
        t.gauge_set("sim_heap_depth_max", &[("world", "web")], 42.0);
        t.observe("web_request_delay_seconds", &[], &[0.1, 1.0], 0.25);
        t.observe("web_request_delay_seconds", &[], &[0.1, 1.0], 5.0);
        t.series_push("node_power_watts", &[("node", "edison-0")], SimTime::ZERO, 3.2);
        t.series_push(
            "node_power_watts",
            &[("node", "edison-0")],
            SimTime::from_secs(1),
            4.7,
        );
        let track = t.track_id("web", "node-0");
        t.span_on(track, "web", "request", SimTime::ZERO, SimTime::from_secs(1), &[("id", &7)]);
        t
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_parts() {
        let json = sample_tel().chrome_trace_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("node_power_watts{node=edison-0}"));
        assert!(json.contains("\"ts\":1000000.000"));
    }

    #[test]
    fn prometheus_text_is_valid_and_cumulative() {
        let prom = sample_tel().prometheus_text();
        validate_prometheus(&prom).unwrap();
        assert!(prom.contains("# HELP web_requests_total completed requests"));
        assert!(prom.contains("# TYPE web_requests_total counter"));
        assert!(prom.contains("web_requests_total{outcome=\"ok\"} 7"));
        // cumulative buckets: 0.25 ≤ 1.0, 5.0 → +Inf
        assert!(prom.contains("web_request_delay_seconds_bucket{le=\"0.1\"} 0"));
        assert!(prom.contains("web_request_delay_seconds_bucket{le=\"1\"} 1"));
        assert!(prom.contains("web_request_delay_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("web_request_delay_seconds_count 2"));
        // series exported as final value
        assert!(prom.contains("node_power_watts{node=\"edison-0\"} 4.7"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_tel();
        let b = sample_tel();
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_json("[1, 2,]").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("[1] trailing").is_err());
        assert!(validate_json("[{\"a\":[1,2.5,\"x\"],\"b\":null}]").is_ok());
        assert!(validate_prometheus("9bad_name 1\n").is_err());
        assert!(validate_prometheus("x_total{a=\"b\"} notanumber\n").is_err());
        assert!(validate_prometheus("x_total{a=\"b\"} 12\n").is_ok());
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(prom_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
