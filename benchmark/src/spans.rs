//! Harness-side spans: one per call into a layer, recorded from outside the
//! program (spans inside it are a later change). Spans stay in memory and
//! are written once, when the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// An in-memory span log. A disabled tracer records nothing, so the same
/// measurement code serves timed and traced runs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span under the innermost open one.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name: name.to_string(),
                start_us: self.us(start),
                end_us: self.us(end),
                parent: self.open.last().copied(),
            };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span named `name`; spans added meanwhile become its
    /// children.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_us = self.us(Instant::now());
        r
    }

    /// The span list as JSON: `id`, `name`, `start_us`, `end_us`, `parent`,
    /// and `self_us` (duration minus the part its children cover).
    pub fn to_json(&self) -> String {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {parent}, \"self_us\": {:.1}}}{}",
                s.name,
                s.start_us,
                s.end_us,
                (s.end_us - s.start_us - child_us[id]).max(0.0),
                if id + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.scope("outer", |t| t.add("inner", Instant::now(), Instant::now()));
        assert_eq!(t.to_json(), "{\"spans\": [\n]}\n");
    }

    #[test]
    fn children_name_their_parent_and_reduce_self_time() {
        let mut t = Tracer::new(true);
        t.scope("outer", |t| {
            let a = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.add("inner", a, Instant::now());
        });
        let doc = shasta_obs::chrome::parse(&t.to_json()).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("span array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("outer"));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        let num = |s: &shasta_obs::chrome::Json, k: &str| match s.get(k) {
            Some(shasta_obs::chrome::Json::Num(n)) => *n,
            other => panic!("{k}: {other:?}"),
        };
        let outer = num(&spans[0], "end_us") - num(&spans[0], "start_us");
        assert!(num(&spans[0], "self_us") <= outer - 2_000.0 + 1.0);
    }
}
