//! What one workload run produced, and the one-line JSON result.

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layer: Vec<Metric>,
    /// The wall-clock figures behind the end-to-end metrics, and the
    /// host's slowdown (see `calib`); per-layer metrics of the measured
    /// workload alone.
    pub wall: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, output checks included.
    pub failed: u64,
    /// Every failed output check.
    pub broken: Vec<String>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A failed operation whose output check broke.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.broken(why);
    }

    /// A broken output check that is not itself an operation.
    pub fn broken(&mut self, why: String) {
        self.broken.push(why);
    }

    /// A report line.
    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Takes in another run's per-layer metrics, counts, checks and lines
    /// (its end-to-end metrics and wall figures stay behind).
    pub fn absorb(&mut self, other: Outcome) {
        self.layer.extend(other.layer);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.broken.extend(other.broken);
        self.lines.extend(other.lines);
    }

    /// Looks up an end-to-end metric's value.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// a non-finite value (never a valid measurement) becomes `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = vec![
            Metric {
                name: "p50_ms".into(),
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            },
        ];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \
             \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
