//! Validation for the Prometheus text exposition produced by
//! [`crate::metrics::Registry::render`] (and scraped over the `METRICS` wire
//! verb). Used by tests and by the CLI's `--check-metrics`.

use std::collections::BTreeMap;

/// One sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name as written (may carry a `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Raw label block including braces (`{le="10"}`), or empty.
    pub labels: String,
    pub value: f64,
}

/// A parsed exposition: declared families plus every sample, in file order.
#[derive(Debug, Default)]
pub struct Exposition {
    /// family name -> declared type (`counter` | `gauge` | `histogram`).
    pub types: BTreeMap<String, String>,
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The first sample matching `name` (exact) and `labels`.
    pub fn value(&self, name: &str, labels: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }

    /// Family a sample belongs to, resolving histogram suffixes.
    fn family_of<'a>(&'a self, sample_name: &'a str) -> Option<(&'a str, &'a str)> {
        if let Some(kind) = self.types.get(sample_name) {
            return Some((sample_name, kind));
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                if let Some(kind) = self.types.get(base) {
                    if kind == "histogram" {
                        return Some((base, kind));
                    }
                }
            }
        }
        None
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse an exposition without structural checks beyond line syntax.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("line {n}: TYPE without name"))?;
            let kind = it.next().ok_or(format!("line {n}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric type {kind:?}"));
            }
            if !valid_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            if exp
                .types
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample: name[{labels}] value
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {n}: sample without value: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {n}: bad sample value {value:?}"))?;
        let (name, labels) = match head.find('{') {
            Some(i) => {
                if !head.ends_with('}') {
                    return Err(format!("line {n}: unterminated label block: {head:?}"));
                }
                (&head[..i], &head[i..])
            }
            None => (head, ""),
        };
        if !valid_name(name) {
            return Err(format!("line {n}: invalid sample name {name:?}"));
        }
        exp.samples.push(Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    Ok(exp)
}

/// Parse and structurally validate: every sample belongs to a declared
/// family, counter samples are finite and non-negative, histogram buckets are
/// cumulative with a `+Inf` bucket equal to `_count`.
pub fn validate(text: &str) -> Result<Exposition, String> {
    let exp = parse(text)?;
    if exp.types.is_empty() {
        return Err("no # TYPE declarations".to_string());
    }
    for s in &exp.samples {
        let Some((family, kind)) = exp.family_of(&s.name) else {
            return Err(format!("sample {} has no # TYPE declaration", s.name));
        };
        if !s.value.is_finite() {
            return Err(format!("sample {}{} is not finite", s.name, s.labels));
        }
        if (kind == "counter" || kind == "histogram") && s.value < 0.0 {
            return Err(format!(
                "{kind} family {family}: sample {}{} is negative",
                s.name, s.labels
            ));
        }
    }
    // Histogram structure.
    for (family, kind) in &exp.types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let buckets: Vec<&Sample> = exp
            .samples
            .iter()
            .filter(|s| s.name == bucket_name)
            .collect();
        if buckets.is_empty() {
            return Err(format!("histogram {family} has no buckets"));
        }
        let mut prev = 0.0f64;
        for b in &buckets {
            if b.value < prev {
                return Err(format!(
                    "histogram {family}: bucket {} not cumulative",
                    b.labels
                ));
            }
            prev = b.value;
        }
        let last = buckets.last().unwrap();
        if !last.labels.contains("le=\"+Inf\"") {
            return Err(format!("histogram {family}: last bucket is not +Inf"));
        }
        let count = exp
            .value(&format!("{family}_count"), "")
            .ok_or(format!("histogram {family}: missing _count"))?;
        exp.value(&format!("{family}_sum"), "")
            .ok_or(format!("histogram {family}: missing _sum"))?;
        if (last.value - count).abs() > f64::EPSILON {
            return Err(format!(
                "histogram {family}: +Inf bucket {} != count {count}",
                last.value
            ));
        }
    }
    Ok(exp)
}

/// Check that every counter-like series present in both expositions did not
/// decrease from `before` to `after` (histogram `_bucket`/`_sum`/`_count`
/// lines are counters too).
pub fn counters_monotonic(before: &Exposition, after: &Exposition) -> Result<(), String> {
    for b in &before.samples {
        let Some((_, kind)) = before.family_of(&b.name) else {
            continue;
        };
        if kind == "gauge" {
            continue;
        }
        if let Some(after_v) = after.value(&b.name, &b.labels) {
            if after_v < b.value {
                return Err(format!(
                    "counter {}{} went backwards: {} -> {after_v}",
                    b.name, b.labels, b.value
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("q_total", "Queries.").add(3);
        r.counter_with("op_pulses_total", "Pulses.", &[("op", "join")])
            .add(11);
        r.gauge("queue_depth", "Depth.").set(2.0);
        let h = r.histogram("lat_ns", "Latency.", &[10, 100]);
        h.observe(7);
        h.observe(70);
        h.observe(700);
        r
    }

    #[test]
    fn rendered_registry_validates() {
        let _l = crate::metrics::test_guard();
        let text = sample_registry().render();
        let exp = validate(&text).expect("exposition must validate");
        assert_eq!(exp.value("q_total", ""), Some(3.0));
        assert_eq!(exp.value("op_pulses_total", "{op=\"join\"}"), Some(11.0));
        assert_eq!(exp.value("lat_ns_count", ""), Some(3.0));
        assert_eq!(
            exp.types.get("lat_ns").map(String::as_str),
            Some("histogram")
        );
    }

    #[test]
    fn scrapes_validate_while_another_thread_observes() {
        let _l = crate::metrics::test_guard();
        let r = Registry::new();
        let h = r.histogram("lat_ns", "Latency.", &[10, 100]);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let mut v = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    h.observe(v % 200);
                    v += 7;
                }
            });
            start.wait();
            let verdict = (0..3000).try_for_each(|_| validate(&r.render()).map(drop));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            verdict.expect("every scrape must validate");
        });
    }

    #[test]
    fn undeclared_sample_is_rejected() {
        let err = validate("# TYPE a counter\na 1\nb 2\n").unwrap_err();
        assert!(err.contains("b"), "{err}");
    }

    #[test]
    fn non_cumulative_histogram_is_rejected() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        let err = validate(text).unwrap_err();
        assert!(err.contains("cumulative"), "{err}");
    }

    #[test]
    fn inf_bucket_must_match_count() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 4\n";
        let err = validate(text).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn negative_counter_is_rejected() {
        let err = validate("# TYPE a counter\na -1\n").unwrap_err();
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn monotonicity_check_flags_regressions() {
        let _l = crate::metrics::test_guard();
        let r = sample_registry();
        let before = validate(&r.render()).unwrap();
        r.counter("q_total", "Queries.").add(2);
        let after = validate(&r.render()).unwrap();
        counters_monotonic(&before, &after).expect("grown counters are fine");
        counters_monotonic(&after, &before).expect_err("shrunk counters must fail");
    }

    #[test]
    fn gauges_may_move_both_ways() {
        let _l = crate::metrics::test_guard();
        let r = sample_registry();
        let before = validate(&r.render()).unwrap();
        r.gauge("queue_depth", "Depth.").set(0.5);
        let after = validate(&r.render()).unwrap();
        counters_monotonic(&before, &after).unwrap();
        counters_monotonic(&after, &before).unwrap();
    }
}
