//! The repository benchmark: three workloads measured end to end, and a
//! traced replay that breaks the work down layer by layer. See
//! `perfbench/README.md` for the workloads, every metric, and how to read
//! the spans.

pub mod awake;
pub mod expected;
pub mod gen;
pub mod host;
pub mod http;
pub mod load;
pub mod miniapps;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod tier;
pub mod trace;
pub mod workloads;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as registered in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    /// Metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Extra lines printed before the JSON (context, not metrics).
    pub notes: Vec<String>,
    /// Operations attempted (requests, or diagnostic checks).
    pub attempted: usize,
    /// Operations that failed or produced wrong output.
    pub failed: usize,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table, then the result as one JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!("{:<44} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ));
        out
    }
}

/// A JSON number with every digit of the `f64` (shortest round trip);
/// non-finite values, which only a failed run produces, become ±1e300.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else if x > 0.0 {
        "1e300".into()
    } else if x < 0.0 {
        "-1e300".into()
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Default::default() };
        r.put("p50_ms", 0.25, "ms");
        r.put("setup_s", 1.0, "s");
        let text = r.render();
        let last = text.lines().last().unwrap();
        let doc = hec_core::json::Json::parse(last).unwrap();
        let hec_core::json::Json::Obj(fields) = &doc else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("p50_ms").unwrap().get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(m.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(json_num(f64::INFINITY), "1e300");
        assert_eq!(json_num(2.0), "2.0");
    }
}
