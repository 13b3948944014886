//! The repository benchmark: seeded inputs, a long-running serving side
//! (`dht serve`, or `dht route` over two backends), a closed-loop load over
//! the real TCP line protocol, bitwise answer checks and one JSON result
//! line.  See `perfbench/README.md`.
//!
//! ```text
//! dht-perfbench --workload <hot-twoway|cold-mixed|routed-twoway> --seed <n>
//!               --seconds <s> --trace <0|1> --dht <path> --work-dir <dir>
//! ```

mod fleet;
mod inproc;
mod inputs;
mod load;
mod report;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fleet::{stat_field, sum_backend_fields, Fleet, Shape};
use inputs::Inputs;
use load::Phase;
use report::{median, percentile, Metrics};

/// Warm-up before every measured phase, in seconds: long enough to fill
/// the caches and to let the server reach its long-running state.
const WARMUP_S: f64 = 3.0;
/// Set-ups per untraced run, spread evenly over its rounds; `setup_s` is
/// their median.  A set-up of `dht serve` takes about 5 ms, mostly process
/// start, so the median needs many of them.
const SETUPS_PER_RUN: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotTwoway,
    ColdMixed,
    RoutedTwoway,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-twoway" => Some(Workload::HotTwoway),
            "cold-mixed" => Some(Workload::ColdMixed),
            "routed-twoway" => Some(Workload::RoutedTwoway),
            _ => None,
        }
    }

    pub fn nodes(self) -> usize {
        match self {
            Workload::ColdMixed => 20_000,
            Workload::HotTwoway | Workload::RoutedTwoway => 5_000,
        }
    }

    pub fn has_nway(self) -> bool {
        self == Workload::ColdMixed
    }

    pub fn routed(self) -> bool {
        self == Workload::RoutedTwoway
    }

    /// Independent inputs per untraced run; each round measures
    /// `--seconds / rounds`.
    ///
    /// - `cold-mixed`: one input.  A round must cover several passes of the
    ///   mix, because its lines differ in cost by up to 20 times (a two-way
    ///   line against a four-set n-way line): a round of under one pass
    ///   measures whichever lines fall in its window, and that window moves
    ///   with the pace of the warm-up.
    /// - `routed-twoway`: whether a backend trips the wake latch differs
    ///   from round to round; pooling several rounds averages the two states.
    /// - `hot-twoway`: one input, because every round is latched, and one
    ///   round that was not would dominate the pooled samples (it answers
    ///   about 15 times as many queries).
    fn rounds(self) -> u64 {
        match self {
            Workload::HotTwoway => 1,
            Workload::ColdMixed => 1,
            Workload::RoutedTwoway => 6,
        }
    }

    fn shape(self) -> Shape {
        if self.routed() {
            Shape::Routed
        } else {
            Shape::Direct
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dht: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: get("--trace")? == "1",
        dht: PathBuf::from(get("--dht")?),
        work: PathBuf::from(get("--work-dir")?),
    })
}

/// Every phase run, for `attempted`/`failed` and the correctness verdict.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    first_failure: Option<String>,
}

impl Tally {
    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed();
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&phase.first_failure);
        }
    }
}

fn latencies(phase: &Phase) -> Vec<f64> {
    phase.samples.iter().map(|s| s.ms).collect()
}

/// A warm-up, then the measured closed loop, against a running fleet.  The
/// measured connections resume the mix where the warm-up's stopped.
fn serve_mix(
    fleet: &Fleet,
    inputs: &Inputs,
    expected: &[String],
    seconds: f64,
    tally: &mut Tally,
) -> Phase {
    let run = |starts: &[usize], seconds| {
        load::closed_loop(
            fleet.port(),
            &inputs.lines,
            expected,
            starts,
            seconds,
            false,
            || fleet.cpu_ms(),
        )
    };
    let warm = run(&load::first_lines(inputs.lines.len()), WARMUP_S);
    tally.count(&warm);
    let phase = run(&warm.next, seconds);
    tally.count(&phase);
    phase
}

/// Starts the fleet `repeats` times; keeps the last one running and
/// returns every set-up time.
fn start_fleet(
    args: &Args,
    shape: Shape,
    inputs: &Inputs,
    repeats: usize,
) -> Result<(Fleet, Vec<f64>), String> {
    let mut setups = Vec::new();
    loop {
        let (fleet, seconds) = Fleet::start(&args.dht, shape, inputs)?;
        setups.push(seconds);
        if setups.len() == repeats {
            return Ok((fleet, setups));
        }
        fleet.stop();
    }
}

fn end_to_end(metrics: &mut Metrics, setups: &[f64], served: &Phase, rss_mb: &[f64]) {
    let ms = latencies(served);
    metrics.add("setup_s", median(setups), "s");
    metrics.add("qps", served.qps(), "1/s");
    metrics.add("p50_ms", median(&ms), "ms");
    metrics.add("p95_ms", percentile(&ms, 0.95), "ms");
    metrics.add("peak_rss_mb", median(rss_mb), "MiB");
}

/// CPU time of the serving processes over a phase, per answered query.
fn cpu_ms_per_query(phase: &Phase) -> f64 {
    phase.cpu_ms / phase.samples.len().max(1) as f64
}

/// Figures printed but not gated: the CPU per query, the tail the sample
/// supports, the n-way median and the failure share.
fn print_extras(workload: Workload, phase: &Phase) {
    println!(
        "  {:<28} {:>14.4} ms",
        "cpu_ms_per_query",
        cpu_ms_per_query(phase)
    );
    let ms = latencies(phase);
    let p99 = percentile(&ms, 0.99);
    let beyond = ms.iter().filter(|&&v| v > p99).count();
    println!(
        "  {:<28} {p99:>14.4} ms ({} samples, {beyond} beyond)",
        "p99_ms",
        ms.len(),
    );
    if workload.has_nway() {
        let nway: Vec<f64> = phase
            .samples
            .iter()
            .filter(|s| s.nway)
            .map(|s| s.ms)
            .collect();
        println!(
            "  {:<28} {:>14.4} ms ({} samples)",
            "nway_p50_ms",
            median(&nway),
            nway.len()
        );
    }
    let failed_frac = phase.failed() as f64 / phase.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>14.4} ratio ({} of {})",
        "failed_frac",
        failed_frac,
        phase.failed(),
        phase.attempted
    );
}

/// Per-phase medians of the `# trace:` comments of a traced phase:
/// `(queue_ms, serialize_ms, unaccounted_ms)`.
fn trace_medians(phase: &Phase) -> (f64, f64, f64) {
    let (mut queue, mut serialize, mut unaccounted) = (Vec::new(), Vec::new(), Vec::new());
    for sample in &phase.samples {
        let Some(comment) = &sample.trace else {
            continue;
        };
        let owned: f64 = ["parse_ms", "queue_ms", "plan_ms", "join_ms", "serialize_ms"]
            .iter()
            .map(|key| stat_field(comment, key))
            .sum();
        queue.push(stat_field(comment, "queue_ms"));
        serialize.push(stat_field(comment, "serialize_ms"));
        unaccounted.push(sample.ms - owned);
    }
    (median(&queue), median(&serialize), median(&unaccounted))
}

/// `STATS` counters summed over the `dht serve` processes.
fn backend_sum(stats: &[String], key: &str) -> f64 {
    stats.iter().map(|line| stat_field(line, key)).sum()
}

/// Generates the inputs of one round and prints their shape.
fn round_inputs(args: &Args, work: &Path, round: u64) -> Result<Inputs, String> {
    let seed = args
        .seed
        .wrapping_mul(args.workload.rounds())
        .wrapping_add(round);
    let inputs = inputs::generate(&work.join(format!("round-{round}")), args.workload, seed)?;
    let nway = inputs
        .lines
        .iter()
        .filter(|l| l.starts_with("nway"))
        .count();
    println!(
        "inputs (seed {seed}): {} nodes, {} sets of {}, {} query lines ({nway} n-way)",
        args.workload.nodes(),
        inputs::SETS,
        inputs::SET_SIZE,
        inputs.lines.len(),
    );
    Ok(inputs)
}

/// The untraced run: end-to-end metrics only, pooled over the workload's
/// rounds.
fn run_untraced(args: &Args, work: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let (mut served, mut setups, mut rss_mb) = (Phase::default(), Vec::new(), Vec::new());
    let rounds = args.workload.rounds();
    for round in 0..rounds {
        let inputs = round_inputs(args, work, round)?;
        let expected =
            inproc::Reference::load(&inputs.graph, &inputs.sets)?.expected(&inputs.lines)?;
        let repeats = SETUPS_PER_RUN.div_ceil(rounds as usize);
        let (fleet, round_setups) = start_fleet(args, args.workload.shape(), &inputs, repeats)?;
        setups.extend(round_setups);
        let seconds = args.seconds / rounds as f64;
        let phase = serve_mix(&fleet, &inputs, &expected, seconds, tally);
        let ms = latencies(&phase);
        println!(
            "  round {round}: {:.2} q/s, p50 {:.2} ms, p95 {:.2} ms",
            phase.qps(),
            median(&ms),
            percentile(&ms, 0.95)
        );
        served.absorb(phase);
        rss_mb.push(fleet.peak_rss_mb());
        fleet.stop();
    }
    let mut metrics = Metrics::default();
    end_to_end(&mut metrics, &setups, &served, &rss_mb);
    metrics.print();
    print_extras(args.workload, &served);
    Ok(metrics)
}

/// The traced run: the in-process ledger, then the served phases with and
/// without `TRACE`, and the server and router counters.
fn run_traced(args: &Args, work: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let inputs = &round_inputs(args, work, 0)?;
    let mut layers = Metrics::default();
    let reference = inproc::Reference::load(&inputs.graph, &inputs.sets)?;
    let (expected, engine_p50) = reference.ledger(&inputs.lines, &mut layers)?;
    drop(reference);

    let mut routed_p50 = None;
    let mut router = [0.0; 4];
    if args.workload.routed() {
        let (fleet, _) = start_fleet(args, Shape::Routed, inputs, 1)?;
        let front_before = fleet.front_stats()?;
        let served = serve_mix(&fleet, inputs, &expected, args.seconds, tally);
        let front = fleet.front_stats()?;
        let backends = fleet.backend_stats()?;
        fleet.stop();
        routed_p50 = Some(median(&latencies(&served)));
        let delta = |key: &str| stat_field(&front, key) - stat_field(&front_before, key);
        router = [
            backend_sum(&backends, "p50_ms") / backends.len() as f64,
            delta("fanout"),
            delta("whole"),
            sum_backend_fields(&front, ".reconnects")
                - sum_backend_fields(&front_before, ".reconnects"),
        ];
    }

    // The direct server: on `routed-twoway` this is the `hot-twoway` set-up
    // over the same graph and lines, which the router's cost is measured
    // against (`TRACE` does not cross the router).
    let (fleet, _) = start_fleet(args, Shape::Direct, inputs, 1)?;
    let before = fleet.backend_stats()?;
    let plain = serve_mix(&fleet, inputs, &expected, args.seconds, tally);
    let after = fleet.backend_stats()?;
    let traced = load::closed_loop(
        fleet.port(),
        &inputs.lines,
        &expected,
        &plain.next,
        args.seconds,
        true,
        || fleet.cpu_ms(),
    );
    tally.count(&traced);
    fleet.stop();

    let client_p50 = median(&latencies(&plain));
    let (queue, serialize, unaccounted) = trace_medians(&traced);
    let delta = |key: &str| backend_sum(&after, key) - backend_sum(&before, key);
    layers.add("server.wire_overhead_ms", client_p50 - engine_p50, "ms");
    layers.add("server.queue_wait_ms", queue, "ms");
    layers.add("server.serialize_ms", serialize, "ms");
    layers.add("server.unaccounted_ms", unaccounted, "ms");
    layers.add("server.cpu_ms_per_query", cpu_ms_per_query(&plain), "ms");
    layers.add("server.busy_rejections", delta("rejected"), "count");
    layers.add("server.dropped", delta("dropped"), "count");
    layers.add(
        "router.overhead_ms",
        routed_p50.map_or(0.0, |p50| p50 - client_p50),
        "ms",
    );
    layers.add("router.backend_p50_ms", router[0], "ms");
    layers.add("router.fanout_n", router[1], "count");
    layers.add("router.whole_routed_n", router[2], "count");
    layers.add("router.reconnects", router[3], "count");
    let base = plain.qps();
    layers.add("trace.overhead_frac", (base - traced.qps()) / base, "ratio");
    layers.add("trace.base_qps", base, "1/s");
    layers.print();
    Ok(layers)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let work = args.work.join(format!("run-{}", std::process::id()));
    let mut tally = Tally::default();
    let outcome = if args.trace {
        run_traced(&args, &work, &mut tally)
    } else {
        run_untraced(&args, &work, &mut tally)
    };
    std::fs::remove_dir_all(&work).ok();
    match outcome {
        Ok(metrics) => {
            if let Some(failure) = &tally.first_failure {
                println!("first failure: {failure}");
            }
            let correct = tally.failed == 0;
            println!(
                "{}",
                report::result_line(correct, tally.attempted, tally.failed, &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}
