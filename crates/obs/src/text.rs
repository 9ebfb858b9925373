//! Parser for the Prometheus text exposition format produced by
//! [`Registry::render`](crate::Registry::render).
//!
//! The engine's own tests and CI gates consume metric snapshots as text
//! (that is what a scraper would see), so this module gives them an exact
//! decoder: samples keep their raw integer values where the text is an
//! integer, and [`histogram_snapshot`] reconstructs per-bucket counts from
//! the cumulative `_bucket{le=…}` rows — lossless, because each emitted
//! `le` bound is the inclusive upper edge of exactly one bucket.

use crate::metrics::{bucket_index, HistogramSnapshot, BUCKETS};

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric (or series: `_bucket`, `_sum`, `_count`) name.
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// The value as a float (`+Inf` parses to `f64::INFINITY`).
    pub value: f64,
    /// The value as an exact integer, when the text was one.
    pub exact: Option<u64>,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when the sample's labels, ignoring `le`, equal `want` exactly.
    fn labels_match(&self, want: &[(&str, &str)]) -> bool {
        let mine: Vec<_> = self.labels.iter().filter(|(k, _)| k != "le").collect();
        mine.len() == want.len()
            && mine
                .iter()
                .zip(want)
                .all(|((k, v), (wk, wv))| k == wk && v == wv)
    }
}

/// Parses an exposition document into its samples, skipping comment and
/// blank lines. Errors name the offending line.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line)?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let err = |why: &str| format!("bad exposition line ({why}): {line:?}");
    let (series, value_text) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .filter(|&close| close > open)
                .ok_or_else(|| err("unclosed label block"))?;
            (&line[..open + 1], line[close + 1..].trim())
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| err("no value"))?;
            (&line[..sp], line[sp + 1..].trim())
        }
    };
    let (name, labels) = if let Some(name) = series.strip_suffix('{') {
        let open = line.find('{').unwrap();
        let close = line.rfind('}').unwrap();
        (name.to_string(), parse_labels(&line[open + 1..close])?)
    } else {
        (series.to_string(), Vec::new())
    };
    if name.is_empty() {
        return Err(err("empty metric name"));
    }
    let value: f64 = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().map_err(|_| err("unparseable value"))?,
    };
    Ok(Sample {
        name,
        labels,
        value,
        exact: value_text.parse().ok(),
    })
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        let after = after
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted label value: {rest:?}"))?;
        // Scan to the closing quote, honouring \\ and \" escapes.
        let mut value = String::new();
        let mut chars = after.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return Err(format!("dangling escape: {rest:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {rest:?}"))?;
        labels.push((key, value));
        rest = after[end + 1..].trim_start().trim_start_matches(',').trim();
    }
    Ok(labels)
}

/// Reconstructs a [`HistogramSnapshot`] for the histogram `name` with
/// constant labels `labels` from parsed samples: cumulative
/// `{name}_bucket{le=…}` rows are differenced back into per-bucket counts
/// (each finite `le` identifies its bucket uniquely), and `{name}_sum`
/// restores the value sum. Returns `None` when no `_count` row matches.
pub fn histogram_snapshot(
    samples: &[Sample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSnapshot> {
    samples
        .iter()
        .find(|s| s.name == format!("{name}_count") && s.labels_match(labels))?;
    let mut snap = HistogramSnapshot::empty();
    let bucket_series = format!("{name}_bucket");
    let mut rows: Vec<(usize, u64)> = Vec::new();
    for s in samples {
        if s.name != bucket_series || !s.labels_match(labels) {
            continue;
        }
        let le = s.label("le")?;
        if le == "+Inf" {
            continue;
        }
        let bound: u64 = le.parse().ok()?;
        rows.push((bucket_index(bound), s.exact?));
    }
    rows.sort_unstable();
    let mut prev = 0u64;
    for (idx, cumulative) in rows {
        debug_assert!(idx < BUCKETS);
        snap.buckets[idx] = cumulative.checked_sub(prev)?;
        prev = cumulative;
    }
    let sum = samples
        .iter()
        .find(|s| s.name == format!("{name}_sum") && s.labels_match(labels))?;
    snap.sum = sum.exact?;
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn parses_scalars_and_labels() {
        let samples =
            parse("# HELP x y\n# TYPE x counter\nx 7\nx_more{a=\"b\",c=\"d e\"} 9\ng -3\n")
                .unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "x");
        assert_eq!(samples[0].exact, Some(7));
        assert_eq!(samples[1].label("c"), Some("d e"));
        assert_eq!(samples[2].value, -3.0);
        assert_eq!(samples[2].exact, None);
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let samples = parse("m{v=\"a\\\"b\\\\c\"} 1\n").unwrap();
        assert_eq!(samples[0].label("v"), Some("a\"b\\c"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("novalue\n").is_err());
        assert!(parse("m{unclosed=\"x\" 1\n").is_err());
        // A `}` before the first `{` must not slice the line backwards.
        assert!(parse("}{\n").is_err());
        assert!(parse("a}{ 1\n").is_err());
    }

    #[test]
    fn histogram_round_trips_exactly() {
        let reg = Registry::new();
        let h = reg.histogram_with("rwd_lat_ns", "lat", &[("endpoint", "hit_time")]);
        for v in [0u64, 1, 63, 64, 65, 4096, 4097, 1 << 40, u64::MAX] {
            h.record(v);
            h.record(v);
        }
        let samples = parse(&reg.render()).unwrap();
        let snap = histogram_snapshot(&samples, "rwd_lat_ns", &[("endpoint", "hit_time")])
            .expect("histogram present");
        assert_eq!(snap, h.snapshot());
    }
}
