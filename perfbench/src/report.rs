//! The run's result: metrics, counts, check failures and the
//! environment record, rendered as one JSON line.

use std::fmt::Write;

/// A JSON value (just what the report needs).
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Num(x as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    record: Vec<(String, Json)>,
    /// Distinct operations the run attempted (timed requests and sweep
    /// cases). A closed loop repeats its fixed list, and each list entry
    /// counts once, so the count does not move with how many repetitions
    /// fit in the timed region; a failed repetition fails a check instead.
    pub attempted: u64,
    /// Distinct operations whose first attempt returned an error.
    pub failed: u64,
    /// Correctness-check failures; any entry fails the run.
    pub errors: Vec<String>,
}

impl Report {
    /// Sets a metric (a later value for the same name replaces it).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Adds an entry to the environment/details record.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.record.push((key.into(), value.into()));
    }

    /// Folds a correctness check into the report.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.errors.push(e);
        }
    }

    /// Counts the first attempt of a distinct operation.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str((*u).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.errors.is_empty())),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("record".into(), Json::Obj(self.record.clone())),
        ])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_digits() {
        let j = Json::Obj(vec![
            ("a\"b".into(), Json::Num(0.1234567891234)),
            (
                "c".into(),
                Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)]),
            ),
        ]);
        assert_eq!(j.render(), r#"{"a\"b":0.1234567891234,"c":[true,null]}"#);
    }
}
