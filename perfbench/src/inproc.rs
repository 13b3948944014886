//! In-process calls into the library crates: the reference answers every
//! wire answer is checked against, and the per-layer ledger of the traced
//! run.
//!
//! The engine is built exactly as `dht serve --algorithm auto` builds it
//! (paper defaults, shared 64 MiB column cache), so `Session::run` here
//! answers what the server should answer, bit for bit.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use dht_core::queryline::{parse_query_line, ParseOptions};
use dht_core::spec::AlgorithmChoice;
use dht_core::QuerySpec;
use dht_engine::{Engine, EngineConfig, PlanCounters, Session};
use dht_graph::{Graph, NodeSet};
use dht_walks::backward::backward_dht_into;
use dht_walks::{Phase, WalkScratch};

use crate::report::{median, Metrics};

/// The server's parse options under `--algorithm auto`.
fn parse_options() -> ParseOptions {
    ParseOptions {
        default_two_way: AlgorithmChoice::Auto,
        ..ParseOptions::default()
    }
}

/// The loaded workload graph and its engine.
pub struct Reference {
    engine: Engine,
    sets: Vec<NodeSet>,
    /// Container decode time, in ms.
    load_ms: f64,
    /// `Engine::with_config` time (includes `GraphStats`), in ms.
    build_ms: f64,
}

impl Reference {
    pub fn load(graph: &Path, sets: &Path) -> Result<Reference, String> {
        let started = Instant::now();
        let graph: Graph = dht_graph::binfmt::read_graph_file(graph)
            .map_err(|e| format!("load {}: {e}", graph.display()))?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        let sets = dht_cli::setsfile::read_node_sets_file(sets).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let engine = Engine::with_config(graph, EngineConfig::paper_default());
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(Reference {
            engine,
            sets,
            load_ms,
            build_ms,
        })
    }

    fn parse(&self, line: &str) -> Result<QuerySpec, String> {
        match parse_query_line(line, &self.sets, &parse_options(), 1) {
            Ok(Some(parsed)) => Ok(parsed.spec),
            Ok(None) => Err(format!("'{line}' is not a query")),
            Err(error) => Err(error.to_string()),
        }
    }

    /// The expected wire answer of every mix line, computing each distinct
    /// line once, on two sessions in parallel (answers do not depend on
    /// the cache, so the split cannot change them).
    pub fn expected(&self, lines: &[String]) -> Result<Vec<String>, String> {
        let mut distinct: Vec<&str> = lines.iter().map(String::as_str).collect();
        distinct.sort_unstable();
        distinct.dedup();
        // Alternate lines between the halves, so the n-way lines (which
        // sort together) are shared out too.
        let solve = |half: usize| -> Result<Vec<(&str, String)>, String> {
            let mut session = self.engine.session();
            distinct
                .iter()
                .skip(half)
                .step_by(2)
                .map(|&line| Ok((line, answer(&mut session, &self.parse(line)?)?)))
                .collect()
        };
        let (first, second) = std::thread::scope(|scope| {
            let other = scope.spawn(|| solve(1));
            (solve(0), other.join().expect("reference thread panicked"))
        });
        let answers: HashMap<&str, String> = first?.into_iter().chain(second?).collect();
        Ok(lines
            .iter()
            .map(|line| answers[line.as_str()].clone())
            .collect())
    }

    /// Runs the mix twice on one traced session (a warm-up pass, then a
    /// measured pass) and fills the in-process layer metrics.  Returns the
    /// expected answers and the p50 of `Session::run_with_plan` over all
    /// measured lines, in ms.
    pub fn ledger(
        &self,
        lines: &[String],
        metrics: &mut Metrics,
    ) -> Result<(Vec<String>, f64), String> {
        let specs: Vec<QuerySpec> = lines
            .iter()
            .map(|line| self.parse(line))
            .collect::<Result<_, _>>()?;
        let mut session = self.engine.session();
        let expected: Vec<String> = specs
            .iter()
            .map(|spec| answer(&mut session, spec))
            .collect::<Result<_, _>>()?;

        let cache = self
            .engine
            .shared_cache()
            .expect("the engine shares its cache");
        let stats_before = cache.stats();
        let y_before = self.engine.shared_y_table_stats().unwrap_or((0, 0));
        let plans_before = bbj_and_two_way(self.engine.plan_counters());
        session.set_trace_enabled(true);
        let (mut parse_us, mut plan_us) = (Vec::new(), Vec::new());
        let (mut two_way_ms, mut nway_ms, mut all_ms) = (Vec::new(), Vec::new(), Vec::new());
        for (line, spec) in lines.iter().zip(&specs) {
            let started = Instant::now();
            std::hint::black_box(self.parse(line)?);
            parse_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            std::hint::black_box(session.explain(spec).map_err(|e| e.to_string())?);
            plan_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let output = session.run_with_plan(spec).map_err(|e| e.to_string())?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(output);
            all_ms.push(ms);
            match spec {
                QuerySpec::TwoWay(_) => two_way_ms.push(ms),
                QuerySpec::NWay(_) => nway_ms.push(ms),
            }
        }
        let stats = cache.stats();
        let y = self.engine.shared_y_table_stats().unwrap_or((0, 0));
        let plans = bbj_and_two_way(self.engine.plan_counters());
        let trace = session.trace();
        let queries = lines.len() as f64;
        let per_query = |phase: Phase| trace.phase_ms(phase) / queries;
        let children = [
            Phase::ColumnBuild,
            Phase::ColumnHit,
            Phase::YBuild,
            Phase::YHit,
            Phase::TopK,
        ];

        metrics.add("graph.load_ms", self.load_ms, "ms");
        metrics.add("engine.build_ms", self.build_ms, "ms");
        metrics.add("engine.plan_us", median(&plan_us), "us");
        let two_way_plans = (plans.1 - plans_before.1) as f64;
        let bbj = (plans.0 - plans_before.0) as f64;
        metrics.add(
            "engine.plan_bbj_frac",
            if two_way_plans > 0.0 {
                bbj / two_way_plans
            } else {
                0.0
            },
            "ratio",
        );
        metrics.add("engine.run_twoway_ms", median(&two_way_ms), "ms");
        metrics.add("engine.run_nway_ms", median(&nway_ms), "ms");
        metrics.add("walks.column_build_ms", per_query(Phase::ColumnBuild), "ms");
        metrics.add(
            "walks.column_build_n",
            trace.phase_count(Phase::ColumnBuild) as f64,
            "count",
        );
        metrics.add("walks.y_build_ms", per_query(Phase::YBuild), "ms");
        metrics.add("walks.column_hit_ms", per_query(Phase::ColumnHit), "ms");
        metrics.add(
            "walks.column_hit_n",
            trace.phase_count(Phase::ColumnHit) as f64,
            "count",
        );
        let hits = (stats.hits - stats_before.hits) as f64;
        let misses = (stats.misses - stats_before.misses) as f64;
        metrics.add("walks.cache_hit_rate", ratio(hits, hits + misses), "ratio");
        metrics.add(
            "walks.cache_evictions",
            (stats.evictions - stats_before.evictions) as f64,
            "count",
        );
        let y_hits = (y.0 - y_before.0) as f64;
        let y_misses = (y.1 - y_before.1) as f64;
        metrics.add(
            "walks.y_hit_rate",
            ratio(y_hits, y_hits + y_misses),
            "ratio",
        );
        metrics.add(
            "walks.cache_resident_mb",
            cache.bytes_used() as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        metrics.add("walks.sweep_edges_per_s", self.sweep_edges_per_s(), "1/s");
        metrics.add("rankjoin.topk_ms", per_query(Phase::TopK), "ms");
        metrics.add("core.parse_us", median(&parse_us), "us");
        let join_self: f64 =
            per_query(Phase::Join) - children.iter().map(|&p| per_query(p)).sum::<f64>();
        metrics.add("core.join_self_ms", join_self, "ms");
        Ok((expected, median(&all_ms)))
    }

    /// Dense-equivalent edge sweep rate of the backward walk kernel: 32
    /// backward columns (the members of `S3`) built through the walks API,
    /// counted as `depth × edges` each; the median of three timings.
    fn sweep_edges_per_s(&self) -> f64 {
        let graph = self.engine.graph();
        let config = self.engine.config();
        let targets: Vec<_> = self.sets[3].iter().collect();
        let mut scratch = WalkScratch::new();
        let mut scores = Vec::new();
        let seconds: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                for &target in &targets {
                    backward_dht_into(
                        graph,
                        &config.params,
                        target,
                        config.d,
                        config.engine,
                        &mut scratch,
                        &mut scores,
                    );
                    std::hint::black_box(&scores);
                }
                started.elapsed().as_secs_f64()
            })
            .collect();
        let edges = (targets.len() * config.d * graph.edge_count()) as f64;
        edges / median(&seconds)
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// `(B-BJ plans, two-way plans)` tallied so far.
fn bbj_and_two_way(counters: &PlanCounters) -> (u64, u64) {
    let counts = counters.chosen_counts();
    let get = |label: &str| {
        counts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, c)| *c)
    };
    let two_way = ["f-bj", "f-idj", "b-bj", "b-idj-x", "b-idj-y"]
        .iter()
        .map(|l| get(l))
        .sum();
    (get("b-bj"), two_way)
}

fn answer(session: &mut Session<'_>, spec: &QuerySpec) -> Result<String, String> {
    let output = session.run(spec).map_err(|e| e.to_string())?;
    Ok(format!("OK {}", dht_server::wire::encode_output(&output)))
}
