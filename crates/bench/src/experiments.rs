//! One function per paper table/figure. Each prints the same rows/series
//! the paper reports and writes a TSV under `results/`.
//!
//! Scale discipline: the default configuration finishes on a laptop-class
//! machine in minutes; `--full` switches every experiment to the paper's
//! exact sizes (the Fig. 9 full series needs ≈6 GB for the walk index of
//! the 1M-node graph, as the paper's own `O(nRL)` analysis predicts).

use std::time::Instant;

use rwd_core::algo::{ApproxGreedy, DpGreedy};
use rwd_core::baselines;
use rwd_core::metrics::{self, MetricParams};
use rwd_core::problem::{Params, Problem, Selection};
use rwd_core::report::{fmt_f, Table};
use rwd_core::Strategy;
use rwd_datasets::{scalability_graph, Dataset};
use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::WalkIndex;

use crate::paper_synthetic;

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Use the paper's full dataset scales.
    pub full: bool,
}

impl Options {
    /// Dataset scale for the four SNAP stand-ins (Figs. 6–8, 10).
    fn dataset_scale(&self, d: Dataset) -> f64 {
        if self.full {
            return 1.0;
        }
        match d {
            Dataset::CaGrQc => 1.0,     // 5.2k nodes — already small
            Dataset::CaHepPh => 0.5,    // 6k nodes
            Dataset::Brightkite => 0.1, // 5.8k nodes
            Dataset::Epinions => 0.1,   // 7.6k nodes
        }
    }

    /// Scale for the Fig. 9 scalability series.
    fn scalability_scale(&self) -> f64 {
        if self.full {
            1.0
        } else {
            0.1
        }
    }
}

fn save(table: &Table, name: &str) {
    let path = format!("{}/{name}.tsv", crate::RESULTS_DIR);
    if let Err(e) = table.write_tsv(&path) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("[saved {path}]");
    }
}

fn dataset_graph(d: Dataset, opts: Options) -> CsrGraph {
    d.synthetic_connected(opts.dataset_scale(d))
        .expect("dataset generation")
}

fn eval(g: &CsrGraph, sel: &[NodeId], l: u32) -> metrics::Metrics {
    metrics::evaluate(
        g,
        sel,
        MetricParams {
            l,
            r: 500,
            seed: 0xE7A1_5EED,
        },
    )
}

/// Table 1: the Example 3.1 inverted index (exact paper values).
pub fn table1(_opts: Options) {
    println!("== Table 1: inverted index of Example 3.1 (R = 1, L = 2) ==\n");
    use rwd_graph::generators::paper_example::{example31_walks, v};
    let idx = WalkIndex::from_walks(8, 2, &example31_walks());

    let mut t = Table::new(["node", "postings <id, weight>"]);
    for owner in 1..=8 {
        let entries: Vec<String> = idx
            .postings(0, v(owner))
            .iter()
            .map(|p| format!("<v{}, {}>", p.id.index() + 1, p.weight))
            .collect();
        t.row([format!("v{owner}"), entries.join(", ")]);
    }
    println!("{}", t.render());
    save(&t, "table1");
}

/// Table 2: dataset summary (published vs generated stand-ins).
pub fn table2(opts: Options) {
    println!("== Table 2: datasets (published vs synthetic stand-in) ==\n");
    let mut t = Table::new([
        "name",
        "paper n",
        "paper m",
        "standin n",
        "standin m",
        "scale",
    ]);
    for d in Dataset::all() {
        let spec = d.spec();
        let scale = opts.dataset_scale(d);
        let g = d.synthetic(scale).expect("generation");
        t.row([
            spec.name.to_string(),
            spec.nodes.to_string(),
            spec.edges.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            format!("{scale}"),
        ]);
    }
    println!("{}", t.render());
    save(&t, "table2");
}

/// Shared machinery for Figs. 2 and 3: DP greedy vs approximate greedy
/// effectiveness as a function of R.
fn fig23(problem: Problem, name: &str) {
    let g = paper_synthetic();
    let k = 30;
    println!(
        "== {name}: DP{suffix} vs Approx{suffix} on power-law n = {}, m = {}, k = {k} ==\n",
        g.n(),
        g.m(),
        suffix = problem.suffix()
    );
    let mut t = Table::new(["L", "R", "AHT(DP)", "AHT(Approx)", "EHN(DP)", "EHN(Approx)"]);
    for l in [5u32, 10] {
        let dp = DpGreedy::new(
            problem,
            Params {
                k,
                l,
                r: 1,
                seed: 7,
                ..Params::default()
            },
        )
        .run(&g)
        .expect("dp greedy");
        let dp_m = eval(&g, &dp.nodes, l);
        for r in [50usize, 100, 150, 200, 250] {
            let ap = ApproxGreedy::new(
                problem,
                Params {
                    k,
                    l,
                    r,
                    seed: 7,
                    ..Params::default()
                },
            )
            .run(&g)
            .expect("approx greedy");
            let ap_m = eval(&g, &ap.nodes, l);
            t.row([
                l.to_string(),
                r.to_string(),
                fmt_f(dp_m.aht, 4),
                fmt_f(ap_m.aht, 4),
                fmt_f(dp_m.ehn, 1),
                fmt_f(ap_m.ehn, 1),
            ]);
        }
    }
    println!("{}", t.render());
    save(&t, name);
}

/// Fig. 2: effectiveness of DPF1 vs ApproxF1 (AHT and EHN vs R).
pub fn fig2(_opts: Options) {
    fig23(Problem::MinHittingTime, "fig2");
}

/// Fig. 3: effectiveness of DPF2 vs ApproxF2.
pub fn fig3(_opts: Options) {
    fig23(Problem::MaxCoverage, "fig3");
}

/// Fig. 4: running time of the DP greedy vs the approximate greedy.
///
/// The DP solvers run in the paper's plain (non-lazy) mode here — that is
/// the configuration whose cost the paper reports; a CELF column is added
/// as a bonus ablation.
pub fn fig4(_opts: Options) {
    let g = paper_synthetic();
    let k = 30;
    let r = 250;
    println!(
        "== Fig 4: running time (s), k = {k}, R = {r}, n = {}, m = {} ==\n",
        g.n(),
        g.m()
    );
    let mut t = Table::new(["L", "algorithm", "seconds (plain)", "seconds (CELF)"]);
    for l in [5u32, 10] {
        for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
            let plain = DpGreedy::new(
                problem,
                Params {
                    k,
                    l,
                    r: 1,
                    seed: 7,
                    strategy: Strategy::Sweep,
                    ..Params::default()
                },
            )
            .run(&g)
            .expect("dp plain");
            let lazy = DpGreedy::new(
                problem,
                Params {
                    k,
                    l,
                    r: 1,
                    seed: 7,
                    strategy: Strategy::Celf,
                    ..Params::default()
                },
            )
            .run(&g)
            .expect("dp lazy");
            t.row([
                l.to_string(),
                format!("DP{}", problem.suffix()),
                fmt_f(plain.elapsed.as_secs_f64(), 3),
                fmt_f(lazy.elapsed.as_secs_f64(), 3),
            ]);
        }
        for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
            let sweep = ApproxGreedy::new(
                problem,
                Params {
                    k,
                    l,
                    r,
                    seed: 7,
                    strategy: Strategy::Sweep,
                    ..Params::default()
                },
            )
            .run(&g)
            .expect("approx sweep");
            let lazy = ApproxGreedy::new(
                problem,
                Params {
                    k,
                    l,
                    r,
                    seed: 7,
                    strategy: Strategy::Celf,
                    ..Params::default()
                },
            )
            .run(&g)
            .expect("approx lazy");
            t.row([
                l.to_string(),
                format!("Approx{}", problem.suffix()),
                fmt_f(sweep.elapsed.as_secs_f64(), 3),
                fmt_f(lazy.elapsed.as_secs_f64(), 3),
            ]);
        }
    }
    println!("{}", t.render());
    save(&t, "fig4");
}

/// Fig. 5: approximate-greedy running time as a function of R (linear).
pub fn fig5(_opts: Options) {
    let g = paper_synthetic();
    let k = 30;
    println!("== Fig 5: Approx running time vs R (k = {k}) ==\n");
    let mut t = Table::new(["L", "R", "ApproxF1 (s)", "ApproxF2 (s)"]);
    for l in [5u32, 10] {
        for r in [50usize, 100, 150, 200, 250] {
            let p = Params {
                k,
                l,
                r,
                seed: 7,
                strategy: Strategy::Sweep,
                ..Params::default()
            };
            let a1 = ApproxGreedy::new(Problem::MinHittingTime, p)
                .run(&g)
                .expect("f1");
            let a2 = ApproxGreedy::new(Problem::MaxCoverage, p)
                .run(&g)
                .expect("f2");
            t.row([
                l.to_string(),
                r.to_string(),
                fmt_f(a1.elapsed.as_secs_f64(), 4),
                fmt_f(a2.elapsed.as_secs_f64(), 4),
            ]);
        }
    }
    println!("{}", t.render());
    save(&t, "fig5");
}

/// The four algorithms of Figs. 6–8.
fn four_algorithms(g: &CsrGraph, k: usize, l: u32) -> Vec<Selection> {
    let p = Params {
        k,
        l,
        r: 100,
        seed: 7,
        ..Params::default()
    };
    vec![
        baselines::degree_top_k(g, k).expect("degree"),
        baselines::dominate_greedy(g, k).expect("dominate"),
        ApproxGreedy::new(Problem::MinHittingTime, p)
            .run(g)
            .expect("approx f1"),
        ApproxGreedy::new(Problem::MaxCoverage, p)
            .run(g)
            .expect("approx f2"),
    ]
}

/// Shared machinery for Figs. 6 and 7: metric vs k on the four datasets.
fn fig67(metric: &str, name: &str, opts: Options) {
    let l = 6;
    println!("== {name}: {metric} vs k on the four datasets (L = {l}, R = 100) ==\n");
    let mut t = Table::new(["dataset", "k", "Degree", "Dominate", "ApproxF1", "ApproxF2"]);
    for d in Dataset::all() {
        let g = dataset_graph(d, opts);
        eprintln!("  [{}] n = {}, m = {}", d.spec().name, g.n(), g.m());
        for k in [20usize, 40, 60, 80, 100] {
            let sels = four_algorithms(&g, k, l);
            let mut row = vec![d.spec().name.to_string(), k.to_string()];
            for sel in &sels {
                let m = eval(&g, &sel.nodes, l);
                let value = if metric == "AHT" { m.aht } else { m.ehn };
                row.push(fmt_f(value, if metric == "AHT" { 4 } else { 1 }));
            }
            t.row(row);
        }
    }
    println!("{}", t.render());
    save(&t, name);
}

/// Fig. 6: AHT vs k for Degree/Dominate/ApproxF1/ApproxF2.
pub fn fig6(opts: Options) {
    fig67("AHT", "fig6", opts);
}

/// Fig. 7: EHN vs k.
pub fn fig7(opts: Options) {
    fig67("EHN", "fig7", opts);
}

/// Fig. 8: running time vs k (L = 6) and vs L (k = 100) on Epinions.
pub fn fig8(opts: Options) {
    let g = dataset_graph(Dataset::Epinions, opts);
    println!(
        "== Fig 8: running time on Epinions stand-in (n = {}, m = {}) ==\n",
        g.n(),
        g.m()
    );
    let mut t = Table::new(["sweep", "x", "Degree", "Dominate", "ApproxF1", "ApproxF2"]);
    for k in [20usize, 40, 60, 80, 100] {
        let sels = four_algorithms(&g, k, 6);
        let mut row = vec!["k (L=6)".to_string(), k.to_string()];
        for sel in &sels {
            row.push(fmt_f(sel.elapsed.as_secs_f64(), 3));
        }
        t.row(row);
    }
    for l in [2u32, 4, 6, 8, 10] {
        let sels = four_algorithms(&g, 100, l);
        let mut row = vec!["L (k=100)".to_string(), l.to_string()];
        for sel in &sels {
            row.push(fmt_f(sel.elapsed.as_secs_f64(), 3));
        }
        t.row(row);
    }
    println!("{}", t.render());
    save(&t, "fig8");
}

/// Fig. 9: scalability of the approximate greedy over the G_1..G_10 series.
pub fn fig9(opts: Options) {
    let scale = opts.scalability_scale();
    println!("== Fig 9: scalability, BA series at scale {scale} (k = 100, L = 6, R = 100) ==\n");
    let mut t = Table::new(["i", "nodes", "edges", "ApproxF1 (s)", "ApproxF2 (s)"]);
    for i in 1..=10 {
        let build_start = Instant::now();
        let g = scalability_graph(i, scale).expect("scalability graph");
        let gen_time = build_start.elapsed();
        let p = Params {
            k: 100,
            l: 6,
            r: 100,
            seed: 7,
            strategy: Strategy::Celf,
            ..Params::default()
        };
        let a1 = ApproxGreedy::new(Problem::MinHittingTime, p)
            .run(&g)
            .expect("f1");
        let a2 = ApproxGreedy::new(Problem::MaxCoverage, p)
            .run(&g)
            .expect("f2");
        t.row([
            i.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            fmt_f(a1.elapsed.as_secs_f64(), 3),
            fmt_f(a2.elapsed.as_secs_f64(), 3),
        ]);
        eprintln!(
            "  [G_{i}] n = {} built in {:.1}s, F1 {:.1}s, F2 {:.1}s",
            g.n(),
            gen_time.as_secs_f64(),
            a1.elapsed.as_secs_f64(),
            a2.elapsed.as_secs_f64()
        );
    }
    println!("{}", t.render());
    save(&t, "fig9");
}

/// Fig. 10: effect of L on AHT and EHN (CAGrQc and CAHepPh, k = 60).
pub fn fig10(opts: Options) {
    let k = 60;
    println!("== Fig 10: effect of L (k = {k}, R = 100) ==\n");
    let mut t = Table::new([
        "dataset", "L", "metric", "Degree", "Dominate", "ApproxF1", "ApproxF2",
    ]);
    for d in [Dataset::CaGrQc, Dataset::CaHepPh] {
        let g = dataset_graph(d, opts);
        for l in [2u32, 4, 6, 8, 10] {
            let sels = four_algorithms(&g, k, l);
            let ms: Vec<metrics::Metrics> = sels.iter().map(|s| eval(&g, &s.nodes, l)).collect();
            let mut aht_row = vec![d.spec().name.to_string(), l.to_string(), "AHT".into()];
            let mut ehn_row = vec![d.spec().name.to_string(), l.to_string(), "EHN".into()];
            for m in &ms {
                aht_row.push(fmt_f(m.aht, 4));
                ehn_row.push(fmt_f(m.ehn, 1));
            }
            t.row(aht_row);
            t.row(ehn_row);
        }
    }
    println!("{}", t.render());
    save(&t, "fig10");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales_are_laptop_sized() {
        let opts = Options { full: false };
        for d in Dataset::all() {
            let g = dataset_graph(d, opts);
            assert!(g.n() <= 13_000, "{}: n = {}", d.spec().name, g.n());
        }
        assert!(Options { full: true }.dataset_scale(Dataset::Epinions) == 1.0);
        assert_eq!(opts.scalability_scale(), 0.1);
    }

    #[test]
    fn table_experiments_run_clean() {
        // Smoke: the cheap experiments must complete and write TSVs.
        let opts = Options { full: false };
        table1(opts);
        table2(opts);
        assert!(std::path::Path::new("results/table1.tsv").exists());
        assert!(std::path::Path::new("results/table2.tsv").exists());
    }

    #[test]
    fn four_algorithms_return_distinct_labels() {
        let g = crate::small_synthetic();
        let sels = four_algorithms(&g, 5, 4);
        let labels: Vec<&str> = sels.iter().map(|s| s.algorithm.as_str()).collect();
        assert_eq!(labels, vec!["Degree", "Dominate", "ApproxF1", "ApproxF2"]);
        for sel in &sels {
            assert_eq!(sel.nodes.len(), 5);
        }
    }
}
