//! The result of one run: the contract's last stdout line, plus the
//! run record (host, notes, layer table, spans) written beside it.

use crate::trace::Trace;
use irlt_obs::Json;
use std::path::Path;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra facts for the run record (digest, sample counts, bases).
    pub notes: Vec<(String, Json)>,
    pub trace: Option<Trace>,
    /// Answers that failed their check: `(id, reason)`.
    pub failures: Vec<(String, String)>,
    /// Metrics printed as 0 because the workload never runs their layer.
    pub not_measured: Vec<&'static str>,
}

impl RunResult {
    pub fn new(attempted: u64, failed: u64) -> RunResult {
        RunResult {
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            trace: None,
            failures: Vec::new(),
            not_measured: Vec::new(),
        }
    }

    /// Metrics every traced run must print, on a workload that never
    /// exercises their layer: printed as 0 and listed as not measured in
    /// the run record.
    pub fn not_measured(&mut self, metrics: &[(&'static str, &'static str)]) {
        for &(name, unit) in metrics {
            self.metrics.push(Metric::new(name, 0.0, unit));
            self.not_measured.push(name);
        }
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    pub fn add_failures(&mut self, failures: Vec<(String, String)>) {
        self.failures.extend(failures);
    }

    /// Every metric is a finite number, nothing failed, and at least one
    /// operation ran.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_json(&self) -> Json {
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "metrics".into(),
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::Object(vec![
                                    ("value".into(), Json::Float(m.value)),
                                    ("unit".into(), Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `<stem>.json` (summary, host, notes, failures, layer
    /// table) and, for a traced run, `<stem>-spans.json`.
    pub fn write_record(&self, dir: &Path, stem: &str, host: &Json) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut fields = vec![
            ("result".to_string(), self.summary_json()),
            ("host".to_string(), host.clone()),
            (
                "fail_ratio".to_string(),
                Json::Object(vec![
                    ("failed".into(), Json::Int(self.failed as i64)),
                    ("attempted".into(), Json::Int(self.attempted as i64)),
                ]),
            ),
            (
                "failures".to_string(),
                Json::Array(
                    self.failures
                        .iter()
                        .map(|(id, why)| Json::Str(format!("{id}: {why}")))
                        .collect(),
                ),
            ),
        ];
        fields.push((
            "not_measured".to_string(),
            Json::Array(
                self.not_measured
                    .iter()
                    .map(|m| Json::Str(m.to_string()))
                    .collect(),
            ),
        ));
        fields.extend(self.notes.iter().cloned());
        if let Some(t) = &self.trace {
            fields.push(("layers".into(), t.layer_table_json()));
            fields.push((
                "traced_root_ms".into(),
                Json::Float(t.root_ns() as f64 / 1e6),
            ));
            std::fs::write(
                dir.join(format!("{stem}-spans.json")),
                t.spans_json().to_string(),
            )?;
        }
        std::fs::write(
            dir.join(format!("{stem}.json")),
            Json::Object(fields).to_string_pretty(),
        )
    }
}
