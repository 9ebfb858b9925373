//! Seeded input generation: the base graph, the churn trace and the query
//! sequence. Everything here is a pure function of the workload seed and
//! lives in the benchmark, so a change to the repository's own generators
//! never changes what the benchmark feeds the system.

use std::collections::HashSet;

use rwd_graph::NodeId;
use rwd_serve::Query;
use rwd_stream::EdgeBatch;

/// splitmix64: small, fast, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated query. Mapped onto the server's [`Query`] at send time,
/// so the sequence itself can be compared and hashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ask {
    HitTime(u32),
    HitProb(u32),
    Coverage,
    Top(u16),
    Seeds,
}

impl Ask {
    pub fn query(self) -> Query {
        match self {
            Ask::HitTime(v) => Query::HitTime(NodeId(v)),
            Ask::HitProb(v) => Query::HitProb(NodeId(v)),
            Ask::Coverage => Query::Coverage,
            Ask::Top(m) => Query::TopUncovered(m as usize),
            Ask::Seeds => Query::Seeds,
        }
    }

    /// HitTime / HitProb: the point queries `query_p50_us` measures.
    pub fn is_point(self) -> bool {
        matches!(self, Ask::HitTime(_) | Ask::HitProb(_))
    }

    /// Coverage / TopUncovered: the set queries `reads.set_query_p50_us`
    /// measures.
    pub fn is_set(self) -> bool {
        matches!(self, Ask::Coverage | Ask::Top(_))
    }
}

/// Nodes of the base graph.
const NODES: usize = 20_000;
/// Barabási–Albert attachments per arriving node.
const ATTACH: usize = 8;
/// Edits per churn batch, half of them deletions.
const BATCH_EDITS: usize = 10;
const DELETES: usize = BATCH_EDITS / 2;
/// Churn edits touch only nodes of at most twice the mean degree.
const DEGREE_CAP: usize = 4 * ATTACH;
/// Share of Coverage / TopUncovered queries in the sequence.
const SET_SHARE: f64 = 0.004;
/// Share of Seeds queries in the sequence.
const SEEDS_SHARE: f64 = 0.001;

/// Everything the system under test receives.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    pub nodes: usize,
    /// Canonical `(min, max)` undirected edges of the base graph, with the
    /// weight the weighted pipeline uses (ignored by the unweighted one).
    pub edges: Vec<(u32, u32, f64)>,
    /// Churn batches in application order (timestamps `1..`).
    pub trace: Vec<EdgeBatch>,
    pub asks: Vec<Ask>,
}

/// Deterministic edge weight in `(0, 2]`.
fn weight(seed: u64, u: u32, v: u32) -> f64 {
    let mut r = Rng::new(seed, ((u as u64) << 32) | v as u64);
    2.0 * (1.0 - r.unit())
}

/// Barabási–Albert preferential attachment (repeated-endpoints method):
/// a clique on `attach + 1` nodes, then every later node attaches to
/// `attach` distinct earlier nodes with probability proportional to degree.
fn barabasi_albert(n: usize, attach: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    let m0 = attach + 1;
    let mut edges = Vec::with_capacity(m0 * attach / 2 + (n - m0) * attach);
    let mut ends: Vec<u32> = Vec::with_capacity(2 * edges.capacity());
    for u in 0..m0 as u32 {
        for v in (u + 1)..m0 as u32 {
            edges.push((u, v));
            ends.extend([u, v]);
        }
    }
    let mut picks = Vec::with_capacity(attach);
    for u in m0 as u32..n as u32 {
        picks.clear();
        while picks.len() < attach {
            let t = ends[rng.below(ends.len() as u64) as usize];
            if !picks.contains(&t) {
                picks.push(t);
            }
        }
        for &v in &picks {
            edges.push((v.min(u), v.max(u)));
            ends.extend([u, v]);
        }
    }
    edges
}

/// A valid churn trace over `base`: every deletion names a live edge, every
/// insertion an absent pair, and no pair is edited twice in one batch.
/// Edits touch only nodes of degree at most [`DEGREE_CAP`], so no batch
/// resamples a hub's walks and the cost of a batch does not depend on which
/// hubs a seed's trace happens to hit.
fn churn_trace(batches: usize, base: &[(u32, u32)], seed: u64, rng: &mut Rng) -> Vec<EdgeBatch> {
    let mut live: Vec<(u32, u32)> = base.to_vec();
    let mut member: HashSet<(u32, u32)> = live.iter().copied().collect();
    let mut degree = vec![0usize; NODES];
    for &(u, v) in base {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let small = |degree: &[usize], e: (u32, u32)| {
        degree[e.0 as usize] <= DEGREE_CAP && degree[e.1 as usize] <= DEGREE_CAP
    };
    let n = NODES as u64;
    let mut trace = Vec::with_capacity(batches);
    for t in 1..=batches as u64 {
        let mut batch = EdgeBatch::new(t);
        let mut edited = HashSet::new();
        while batch.deletions.len() < DELETES {
            let i = rng.below(live.len() as u64) as usize;
            if !small(&degree, live[i]) {
                continue;
            }
            let e = live.swap_remove(i);
            member.remove(&e);
            edited.insert(e);
            degree[e.0 as usize] -= 1;
            degree[e.1 as usize] -= 1;
            batch.deletions.push(e);
        }
        while batch.insertions.len() < BATCH_EDITS - DELETES {
            let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
            let e = (a.min(b), a.max(b));
            if a == b || member.contains(&e) || edited.contains(&e) || !small(&degree, e) {
                continue;
            }
            edited.insert(e);
            member.insert(e);
            live.push(e);
            degree[e.0 as usize] += 1;
            degree[e.1 as usize] += 1;
            batch.insertions.push((e.0, e.1, weight(seed, e.0, e.1)));
        }
        trace.push(batch);
    }
    trace
}

fn ask_sequence(asks: usize, rng: &mut Rng) -> Vec<Ask> {
    let n = NODES as u64;
    (0..asks)
        .map(|_| {
            let x = rng.unit();
            if x < SET_SHARE {
                if rng.below(2) == 0 {
                    Ask::Coverage
                } else {
                    Ask::Top(10)
                }
            } else if x < SET_SHARE + SEEDS_SHARE {
                Ask::Seeds
            } else {
                let v = rng.below(n) as u32;
                if rng.below(2) == 0 {
                    Ask::HitTime(v)
                } else {
                    Ask::HitProb(v)
                }
            }
        })
        .collect()
}

/// Generates one workload's inputs from its seed: the base graph, a churn
/// trace of `batches` batches and a sequence of `asks` queries.
pub fn generate(batches: usize, asks: usize, seed: u64) -> Inputs {
    let base = barabasi_albert(NODES, ATTACH, &mut Rng::new(seed, 1));
    let trace = churn_trace(batches, &base, seed, &mut Rng::new(seed, 2));
    let asks = ask_sequence(asks, &mut Rng::new(seed, 3));
    let edges = base
        .into_iter()
        .map(|(u, v)| (u, v, weight(seed, u, v)))
        .collect();
    Inputs {
        nodes: NODES,
        edges,
        trace,
        asks,
    }
}

/// FNV-1a over every generated value: printed with each run so two runs
/// can be checked to have received the same inputs.
pub fn fingerprint(inputs: &Inputs) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    };
    eat(inputs.nodes as u64);
    for &(u, v, w) in &inputs.edges {
        eat(((u as u64) << 32) | v as u64);
        eat(w.to_bits());
    }
    for b in &inputs.trace {
        eat(b.timestamp);
        for &(u, v, w) in &b.insertions {
            eat(((u as u64) << 32) | v as u64);
            eat(w.to_bits());
        }
        for &(u, v) in &b.deletions {
            eat(((u as u64) << 32) | v as u64);
        }
    }
    for a in &inputs.asks {
        eat(match *a {
            Ask::HitTime(v) => v as u64,
            Ask::HitProb(v) => (1 << 40) | v as u64,
            Ask::Coverage => 2 << 40,
            Ask::Top(m) => (3 << 40) | m as u64,
            Ask::Seeds => 4 << 40,
        });
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::weighted::WeightedCsrGraph;
    use rwd_graph::CsrGraph;

    /// Batches and queries of the tests' inputs; every other size is the
    /// one the workloads run with.
    const BATCHES: usize = 30;
    const ASKS: usize = 50_000;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = generate(BATCHES, ASKS, 11);
        let b = generate(BATCHES, ASKS, 11);
        assert_eq!(a, b);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let a = generate(BATCHES, ASKS, 11);
        let b = generate(BATCHES, ASKS, 12);
        assert_ne!(a.edges, b.edges);
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.asks, b.asks);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn trace_applies_cleanly_to_both_pipelines() {
        let inputs = generate(BATCHES, ASKS, 5);
        let plain: Vec<(u32, u32)> = inputs.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let mut g = CsrGraph::from_edges(inputs.nodes, &plain).unwrap();
        let mut wg = WeightedCsrGraph::from_weighted_edges(inputs.nodes, &inputs.edges).unwrap();
        assert_eq!(g.m(), inputs.edges.len(), "base edges are distinct");
        for batch in &inputs.trace {
            assert_eq!(batch.len(), BATCH_EDITS);
            g = batch.apply(&g).expect("valid unweighted batch").graph;
            wg = batch
                .apply_weighted(&wg)
                .expect("valid weighted batch")
                .graph;
        }
        assert_eq!(g.m(), inputs.edges.len());
        assert_eq!(wg.m(), inputs.edges.len());
    }

    #[test]
    fn query_mix_matches_the_shares() {
        let inputs = generate(BATCHES, ASKS, 3);
        let set = inputs.asks.iter().filter(|a| a.is_set()).count();
        let point = inputs.asks.iter().filter(|a| a.is_point()).count();
        // SET_SHARE of 50k is 200 set queries; ±60 is over four standard
        // deviations of the binomial count.
        assert!((140..=260).contains(&set), "{set} set queries");
        assert!(point > 49_500, "{point} point queries");
        assert!(inputs
            .asks
            .iter()
            .all(|a| !matches!(a, Ask::HitTime(v) | Ask::HitProb(v) if *v as usize >= NODES)));
    }
}
