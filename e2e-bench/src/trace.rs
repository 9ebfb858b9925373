//! Spans recorded from the benchmark's own code around every call into a
//! layer, registry deltas read through `rwd_obs`, and the small statistics
//! the report needs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rwd_obs::text::{self, Sample};

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one operation share `op`.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store, written out once at exit. When off, recording is
/// a no-op, so untraced runs pay only for the clock reads they make anyway.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the span's id for its children.
    pub fn span(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(spans.len() - 1)
    }

    /// Records a part the engine reported only as a duration, laid out from
    /// `*cursor`, and advances the cursor past it.
    pub fn part(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        cursor: &mut Instant,
        dur: Duration,
    ) {
        let start = *cursor;
        *cursor += dur;
        self.span(name, op, parent, start, *cursor);
    }

    /// Per span name: count, total time and self time (duration minus the
    /// time its children cover), in milliseconds, sorted by name.
    pub fn layers(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns[i]);
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e6, own as f64 / 1e6))
            .collect()
    }

    /// Writes every span as a tab-separated row.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A parsed metrics exposition, for before/after deltas.
pub struct Scrape(Vec<Sample>);

impl Scrape {
    /// The process-wide engine registry.
    pub fn global() -> Scrape {
        Scrape::parse(&rwd_obs::global().render())
    }

    pub fn parse(exposition: &str) -> Scrape {
        Scrape(text::parse(exposition).expect("the registry renders valid exposition text"))
    }

    /// `(count, sum)` of a histogram series, zero when it is absent.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
        text::histogram_snapshot(&self.0, name, labels).map_or((0, 0), |h| (h.count(), h.sum))
    }

    /// A counter's value, zero when it is absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .and_then(|s| s.exact)
            .unwrap_or(0)
    }

    /// Histogram time spent between two scrapes, in milliseconds.
    pub fn delta_ms(&self, before: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
        let (_, a) = before.hist(name, labels);
        let (_, b) = self.hist(name, labels);
        b.saturating_sub(a) as f64 / 1e6
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
