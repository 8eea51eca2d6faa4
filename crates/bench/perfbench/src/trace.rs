//! In-memory span recorder for the traced run, written out at exit as
//! Chrome-trace JSON (`chrome://tracing`, Perfetto).
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer; the program under test carries none. A disabled tracer
//! costs one branch per call, so the untraced reps stay untraced.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Name of the span that was open when this one began.
    pub parent: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub args: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::end`] (spans nest as a stack).
    pub fn begin(&mut self, name: &str) {
        if self.enabled {
            let now = self.now_us();
            self.open.push((name.to_string(), now));
        }
    }

    /// Close the innermost open span, attaching `args` to it.
    pub fn end(&mut self, args: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        if let Some((name, start_us)) = self.open.pop() {
            let parent = self.open.last().map_or(String::new(), |(p, _)| p.clone());
            self.spans.push(Span {
                name,
                parent,
                start_us,
                dur_us: now - start_us,
                args: args.to_vec(),
            });
        }
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"parent\":\"{}\"", s.parent);
            for (k, v) in &s.args {
                args.push_str(&format!(",\"{k}\":{v}"));
            }
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}{comma}",
                s.name, s.start_us, s.dur_us
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_name_their_parent() {
        let mut t = Tracer::new(true);
        t.begin("workload");
        t.begin("rep");
        t.begin("cluster.run_slice");
        t.end(&[("msgs", 7.0)]);
        t.end(&[]);
        t.end(&[]);
        let names: Vec<(&str, &str)> = t
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("cluster.run_slice", "rep"),
                ("rep", "workload"),
                ("workload", "")
            ]
        );
        assert_eq!(t.spans[0].args, vec![("msgs", 7.0)]);
        assert_eq!(t.durations_ms("rep").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("rep");
        t.end(&[]);
        assert!(t.spans.is_empty());
    }
}
