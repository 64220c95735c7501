//! The benchmark's in-memory span recorder. Spans are recorded around calls
//! into each layer from the benchmark's own files (no span is added inside
//! the program), kept in memory, and written once at the end as Chrome-trace
//! JSON (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `machine.run_batch_accounted`.
    pub name: &'static str,
    /// Start, nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u64,
}

/// Records spans on one thread, parented by call nesting.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` through the
    /// recorder it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Record a span from timestamps measured elsewhere (for instance the
    /// server's own `queue_wait_ns`, laid under a client-side op span).
    /// Returns its index, usable as a `parent`.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Every span, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval that
    /// its children cover (overlapping children are not counted twice).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, span.start_ns);
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Total duration (children included) and call count of one span name.
    pub fn total_of(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// The spans as Chrome-trace "complete" events, one per line, without
    /// the enclosing array — so two recorders' events can share one file.
    /// `pid`/`tid` place them on a named track.
    pub fn chrome_events(&self, pid: u32, tid: u32) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !out.is_empty() {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{id},\"parent\":{},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.self_ns(id) as f64 / 1e3,
            );
        }
        out
    }
}

/// A Chrome-trace metadata event naming a process track.
pub fn process_name_event(pid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// Wrap event fragments (as from [`Recorder::chrome_events`]) into one
/// Chrome-trace document; empty fragments are skipped.
pub fn chrome_document(fragments: &[String]) -> String {
    let parts: Vec<&str> = fragments
        .iter()
        .map(String::as_str)
        .filter(|f| !f.trim().is_empty())
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", parts.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Recorder {
        // op 100..1000 with children 200..400 and 300..600 (overlapping) and
        // a grandchild 350..380 under the second.
        let mut rec = Recorder::new();
        rec.set_op(7);
        let root = rec.add("client.op", 100, 1000, None);
        rec.add("server.queue_wait", 200, 400, Some(root));
        let host = rec.add("server.host", 300, 600, Some(root));
        rec.add("machine.run", 350, 380, Some(host));
        rec
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = fixed();
        // 900 − |[200,600)| = 500: the overlap 300..400 is counted once.
        assert_eq!(rec.self_ns(0), 500);
        assert_eq!(rec.self_ns(1), 200);
        assert_eq!(rec.self_ns(2), 270);
        assert_eq!(rec.self_ns(3), 30);
        // Self times of a tree sum to the root's duration plus what the
        // overlapping children cover twice: 500 + 200 + 270 + 30 = 900 + 100.
        assert_eq!((0..4).map(|id| rec.self_ns(id)).sum::<u64>(), 1000);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut rec = Recorder::new();
        let root = rec.add("a", 100, 200, None);
        rec.add("b", 50, 120, Some(root));
        rec.add("c", 190, 400, Some(root));
        assert_eq!(rec.self_ns(root), 70);
    }

    #[test]
    fn nesting_sets_parents_and_ops() {
        let mut rec = Recorder::new();
        rec.set_op(3);
        let got = rec.span("outer", |rec| rec.span("inner", |_| 41) + 1);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.total_of("inner").1, 1);
    }

    #[test]
    fn chrome_output_is_one_event_per_span() {
        let doc = chrome_document(&[
            process_name_event(1, "client"),
            fixed().chrome_events(1, 0),
            String::new(),
        ]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 4);
        assert!(doc.contains("\"name\":\"machine.run\""));
        assert!(doc.contains("\"parent\":2"));
        assert!(doc.contains("\"parent\":null"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
