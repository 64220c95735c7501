//! Reading the server's own counters from outside: the `STATS` frame and the
//! Prometheus text inside a `METRICS` frame, and deltas between two scrapes.

use std::collections::BTreeMap;

/// Numeric samples by name. Prometheus samples keep their label set in the
/// name (`sdb_batch_size_bucket{le="4"}`); non-numeric `STATS` fields
/// (`backend=columnar`) are dropped.
pub type Samples = BTreeMap<String, f64>;

/// Parse a `STATS key=value ...` frame.
pub fn parse_stats(frame: &str) -> Option<Samples> {
    let body = frame.strip_prefix("STATS ")?;
    Some(
        body.split_whitespace()
            .filter_map(|pair| {
                let (key, value) = pair.split_once('=')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect(),
    )
}

/// Undo the frame escaping (`\\`, `\n`, `\r`).
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Parse a `METRICS <escaped exposition>` frame.
pub fn parse_metrics(frame: &str) -> Option<Samples> {
    let text = unescape(frame.strip_prefix("METRICS ")?);
    Some(
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect(),
    )
}

/// Two scrapes around a window.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Scraped before the window.
    pub before: Samples,
    /// Scraped after it.
    pub after: Samples,
}

impl Delta {
    /// `after − before` of a counter; 0 when the server does not export it.
    pub fn of(&self, name: &str) -> f64 {
        let get = |s: &Samples| s.get(name).copied().unwrap_or(0.0);
        get(&self.after) - get(&self.before)
    }

    /// `Δnum ÷ Δden`, 0 when the denominator did not move.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let den = self.of(den);
        if den == 0.0 {
            0.0
        } else {
            self.of(num) / den
        }
    }

    /// `Δhits ÷ (Δhits + Δmisses)`, 0 when neither moved.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.of(hits), self.of(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The first unsigned integer after `key` in `text` — enough to read named
/// fields out of the single-line `PROFILE` JSON (`"queue_wait_ns":123`) and
/// out of `RESULT` frames (`pulses=123`) without a JSON parser.
pub fn number_after(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_frames_parse_and_skip_words() {
        let s = parse_stats("STATS tables=3 queries=120 backend=columnar cse_hits=7").unwrap();
        assert_eq!(s["tables"], 3.0);
        assert_eq!(s["cse_hits"], 7.0);
        assert!(!s.contains_key("backend"));
        assert!(parse_stats("RESULT rows=1").is_none());
    }

    #[test]
    fn metrics_frames_unescape_and_keep_labels() {
        let frame = "METRICS # HELP x helps\\n# TYPE x counter\\nx 4\\n\
                     h_bucket{le=\"10\"} 2\\nh_sum 1.5e3\\n";
        let m = parse_metrics(frame).unwrap();
        assert_eq!(m["x"], 4.0);
        assert_eq!(m["h_bucket{le=\"10\"}"], 2.0);
        assert_eq!(m["h_sum"], 1500.0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn deltas_ratios_and_missing_counters() {
        let d = Delta {
            before: parse_metrics("METRICS hits 10\\nmisses 10\\nsum 100\\ncount 4\\n").unwrap(),
            after: parse_metrics("METRICS hits 40\\nmisses 20\\nsum 700\\ncount 10\\n").unwrap(),
        };
        assert_eq!(d.of("hits"), 30.0);
        assert_eq!(d.of("absent"), 0.0);
        assert_eq!(d.ratio("sum", "count"), 100.0);
        assert_eq!(d.ratio("sum", "absent"), 0.0);
        assert_eq!(d.hit_ratio("hits", "misses"), 0.75);
        assert_eq!(d.hit_ratio("absent", "absent"), 0.0);
    }

    #[test]
    fn named_numbers_are_found_by_their_quoted_key() {
        let json = "{\"predicted\":{\"pulse_budget\":96},\"actual\":{\"pulses\":80},\
                    \"steps\":[{\"actual_pulses\":5}]}";
        assert_eq!(number_after(json, "\"pulses\":"), Some(80));
        assert_eq!(number_after(json, "\"pulse_budget\":"), Some(96));
        assert_eq!(number_after(json, "\"missing\":"), None);
        assert_eq!(
            number_after("RESULT rows=3 pulses=12 csv=", " pulses="),
            Some(12)
        );
    }
}
