//! Per-pulse wire snapshots and an ASCII renderer.
//!
//! Figures 3-4, 4-1, 6-1 and 7-2 of the paper show data frozen mid-flight in
//! an array. With tracing enabled, a [`crate::grid::Grid`] records the words
//! on every wire at every pulse, and [`render_frame`] draws them in the same
//! spirit: one bracketed box per cell showing the southbound (`a`),
//! northbound (`b`) and eastbound (`t`) words entering it. The
//! `examples/figures.rs` binary uses this to re-create the paper's figures as
//! pulse-by-pulse animations.

use crate::word::Word;

/// The words entering every cell at one pulse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFrame {
    /// The pulse at which the snapshot was taken.
    pub pulse: u64,
    /// Grid height.
    pub rows: usize,
    /// Grid width.
    pub cols: usize,
    /// Southbound input per cell, row-major.
    pub a: Vec<Word>,
    /// Northbound input per cell, row-major.
    pub b: Vec<Word>,
    /// Eastbound input per cell, row-major.
    pub t: Vec<Word>,
}

impl TraceFrame {
    /// `true` if no wire carries data at this pulse.
    pub fn is_idle(&self) -> bool {
        self.a
            .iter()
            .chain(&self.b)
            .chain(&self.t)
            .all(|w| !w.is_present())
    }
}

/// Accumulates [`TraceFrame`]s while a grid runs.
#[derive(Debug, Default)]
pub struct Tracer {
    frames: Vec<TraceFrame>,
}

impl Tracer {
    /// Record the wire state for one pulse.
    pub fn snapshot(
        &mut self,
        pulse: u64,
        rows: usize,
        cols: usize,
        a: &[Word],
        b: &[Word],
        t: &[Word],
    ) {
        self.frames.push(TraceFrame {
            pulse,
            rows,
            cols,
            a: a.to_vec(),
            b: b.to_vec(),
            t: t.to_vec(),
        });
    }

    /// All recorded frames in pulse order.
    pub fn frames(&self) -> &[TraceFrame] {
        &self.frames
    }

    /// The recorded frames, in pulse order, by value.
    pub fn into_frames(self) -> Vec<TraceFrame> {
        self.frames
    }

    /// Discard all frames.
    pub fn clear(&mut self) {
        self.frames.clear();
    }
}

/// Render one frame as ASCII art: each cell is drawn as
/// `[a:<word> b:<word> t:<word>]`, omitting idle wires.
pub fn render_frame(frame: &TraceFrame) -> String {
    let mut cell_texts: Vec<String> = Vec::with_capacity(frame.rows * frame.cols);
    for r in 0..frame.rows {
        for c in 0..frame.cols {
            let idx = r * frame.cols + c;
            let mut parts = Vec::new();
            if frame.a[idx].is_present() {
                parts.push(format!("a:{}", frame.a[idx]));
            }
            if frame.b[idx].is_present() {
                parts.push(format!("b:{}", frame.b[idx]));
            }
            if frame.t[idx].is_present() {
                parts.push(format!("t:{}", frame.t[idx]));
            }
            cell_texts.push(parts.join(" "));
        }
    }
    let width = cell_texts.iter().map(|s| s.len()).max().unwrap_or(0).max(1);
    let mut out = format!("pulse {}\n", frame.pulse);
    for r in 0..frame.rows {
        for c in 0..frame.cols {
            let text = &cell_texts[r * frame.cols + c];
            out.push('[');
            out.push_str(text);
            for _ in text.len()..width {
                out.push(' ');
            }
            out.push(']');
        }
        out.push('\n');
    }
    out
}

/// Render every non-idle frame, separated by blank lines — a pulse-by-pulse
/// animation of the array in the style of Figure 3-4.
pub fn render_animation(frames: &[TraceFrame]) -> String {
    frames
        .iter()
        .filter(|f| !f.is_idle())
        .map(render_frame)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> TraceFrame {
        TraceFrame {
            pulse: 3,
            rows: 1,
            cols: 2,
            a: vec![Word::Elem(4), Word::Null],
            b: vec![Word::Null, Word::Elem(9)],
            t: vec![Word::Bool(true), Word::Null],
        }
    }

    #[test]
    fn render_shows_only_present_wires() {
        let s = render_frame(&frame());
        assert!(s.contains("pulse 3"));
        assert!(s.contains("a:4"));
        assert!(s.contains("t:T"));
        assert!(s.contains("b:9"));
        assert!(!s.contains("a:."));
    }

    #[test]
    fn idle_frames_are_skipped_in_animation() {
        let idle = TraceFrame {
            pulse: 9,
            rows: 1,
            cols: 1,
            a: vec![Word::Null],
            b: vec![Word::Null],
            t: vec![Word::Null],
        };
        assert!(idle.is_idle());
        let anim = render_animation(&[frame(), idle]);
        assert!(anim.contains("pulse 3"));
        assert!(!anim.contains("pulse 9"));
    }

    #[test]
    fn tracer_accumulates_and_clears() {
        let mut t = Tracer::default();
        t.snapshot(0, 1, 1, &[Word::Null], &[Word::Null], &[Word::Null]);
        t.snapshot(1, 1, 1, &[Word::Elem(1)], &[Word::Null], &[Word::Null]);
        assert_eq!(t.frames().len(), 2);
        assert_eq!(t.frames()[1].pulse, 1);
        t.clear();
        assert!(t.frames().is_empty());
    }
}
