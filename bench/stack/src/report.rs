//! Collects one run's metrics against the manifest and renders them:
//! `name value unit` lines, the driver's result line, and the
//! per-workload JSON file.

use crate::manifest::{self, Metric};
use std::fmt::Write as _;

/// The metrics of one workload run, in recording order.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Fixed environment and sample counts, copied into the JSON file.
    context: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            ..Report::default()
        }
    }

    /// Records a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the manifest does not declare, a second value
    /// for one name, or a value that is not finite — each is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = manifest::find(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in the manifest"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((metric.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn unit(name: &str) -> &'static str {
        manifest::find(name)
            .expect("recorded names are declared")
            .unit
    }

    /// Every recorded metric as a `name value unit` line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            writeln!(out, "{name} {value} {}", Report::unit(name)).expect("string write");
        }
        out
    }

    fn metrics_json(&self, declared: &[Metric]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(declared.len());
        for metric in declared {
            let value = self
                .get(metric.name)
                .ok_or_else(|| format!("declared metric {} was not measured", metric.name))?;
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }

    /// The driver's result line: exactly the declared metrics of the
    /// mode — end-to-end without `--trace`, per-layer with it.
    ///
    /// # Errors
    ///
    /// Names the first declared metric the run did not measure.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let declared: &[Metric] = if trace {
            &manifest::PER_LAYER
        } else {
            &manifest::END_TO_END
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(declared)?
        ))
    }

    /// The per-workload JSON file: context plus every recorded metric.
    pub fn file_json(&self) -> String {
        let mut out = String::from("{\n");
        writeln!(out, "  \"workload\": \"{}\",", self.workload).expect("string write");
        writeln!(out, "  \"seed\": {},", self.seed).expect("string write");
        writeln!(out, "  \"correct\": {},", self.correct()).expect("string write");
        writeln!(out, "  \"attempted\": {},", self.attempted).expect("string write");
        writeln!(out, "  \"failed\": {},", self.failed).expect("string write");
        out.push_str("  \"context\": {");
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
            .collect();
        out.push_str(&context.join(", "));
        out.push_str("},\n  \"metrics\": {\n");
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, value)| {
                format!(
                    "    \"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    Report::unit(name)
                )
            })
            .collect();
        out.push_str(&metrics.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics_of_the_mode() {
        let mut report = Report::new("wire-2k", 42);
        report.attempted = 10;
        for metric in &manifest::END_TO_END {
            report.set(metric.name, 1.5);
        }
        report.set("geo.encode_ns_per_point", 3.25);
        let line = report
            .result_line(false)
            .expect("all end-to-end metrics set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("geo.encode_ns_per_point"));
        assert!(!line.contains('\n'));
        let missing = report
            .result_line(true)
            .expect_err("per-layer metrics missing");
        assert!(missing.contains("was not measured"), "{missing}");
        assert!(report.lines().contains("geo.encode_ns_per_point 3.25 ns\n"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Report::new("wire-2k", 1).set("made.up", 1.0);
    }
}
