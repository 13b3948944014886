//! Seeded, hermetic workload inputs.
//!
//! Everything the serving side reads is generated here from the workload
//! seed with the repository's own generators (`dht gen`, `dht shard-sets`,
//! called in-process), and written to files: the servers receive only
//! those files.  The query mix is the `dht gen` zipfian two-way mix, with
//! seeded n-way lines interleaved for the mixed workload.

use std::path::{Path, PathBuf};

use crate::Workload;

/// Node sets per graph (degree bands of the BA ranking, `S0` = hubs).
pub const SETS: usize = 8;
/// Members per node set.
pub const SET_SIZE: usize = 32;
/// Two-way lines in the zipfian mix.
const TWO_WAY_LINES: usize = 200;
/// One n-way line follows every this many two-way lines (about 10%).
const NWAY_EVERY: usize = 9;
/// Distinct n-way lines the n-way slots cycle through: two per shape.
const NWAY_POOL: usize = 2 * SHAPES.len();
/// Shard count of the routed fleet.
const SHARDS: usize = 2;

/// The generated files and the query mix of one workload.
pub struct Inputs {
    pub graph: PathBuf,
    pub sets: PathBuf,
    /// Per-backend set files (base sets plus shard aliases); routed only.
    pub shard_sets: Vec<PathBuf>,
    pub lines: Vec<String>,
}

/// Runs `dht <command> --<key> <value>...` in-process.
fn cli(command: &str, options: &[(&str, String)]) -> Result<String, String> {
    let mut args = vec![command.to_string()];
    for (key, value) in options {
        args.push(format!("--{key}"));
        args.push(value.clone());
    }
    dht_cli::run(&args).map_err(|error| format!("dht {command}: {error}"))
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// The n-way shapes and their arity, cycled through by the n-way lines.
const SHAPES: [(&str, usize); 5] = [
    ("triangle", 3),
    ("chain", 3),
    ("star", 3),
    ("chain", 4),
    ("star", 4),
];
/// Set offsets of an n-way line: line `i` joins `S(i+r+o)` (mod `SETS`) for
/// the first `arity` offsets.
const NWAY_OFFSETS: [usize; 4] = [0, 3, 5, 6];

/// `NWAY_POOL` n-way lines in a balanced design: line `i` has shape
/// `SHAPES[i % 5]` and joins the sets at `NWAY_OFFSETS` from `S(i + r)`,
/// with the rotation `r` drawn from the seed.  Every seed joins the same
/// mix of shapes, and any 5 consecutive n-way slots join each shape once,
/// so a short measured window sees them all.  Random set and shape draws
/// made the n-way latencies, and with them `p95_ms`, move by up to 40%
/// from seed to seed.
fn nway_pool(seed: u64) -> Vec<String> {
    let rotation = (seed % SETS as u64) as usize;
    (0..NWAY_POOL)
        .map(|i| {
            let (shape, arity) = SHAPES[i % SHAPES.len()];
            let sets: Vec<String> = NWAY_OFFSETS[..arity]
                .iter()
                .map(|offset| format!("S{}", (i + rotation + offset) % SETS))
                .collect();
            format!("nway {shape} {} 10 auto", sets.join(" "))
        })
        .collect()
}

/// Writes every input of `workload` for `seed` into `dir`.
fn write(dir: &Path, workload: Workload, seed: u64) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let graph = dir.join("graph.dht");
    let sets = dir.join("graph.sets");
    let queries = dir.join("twoway.queries");
    cli(
        "gen",
        &[
            ("nodes", workload.nodes().to_string()),
            ("attach", "4".into()),
            ("seed", seed.to_string()),
            ("out", path_arg(&graph)),
            ("sets-out", path_arg(&sets)),
            ("sets", SETS.to_string()),
            ("set-size", SET_SIZE.to_string()),
            ("queries-out", path_arg(&queries)),
            ("queries", TWO_WAY_LINES.to_string()),
            ("zipf-s", "1".into()),
            ("k", "10".into()),
        ],
    )?;
    let text = std::fs::read_to_string(&queries).map_err(|e| format!("read queries: {e}"))?;
    let two_way: Vec<String> = text.lines().map(str::to_string).collect();
    let lines = if workload.has_nway() {
        let pool = nway_pool(seed);
        let mut lines = Vec::with_capacity(two_way.len() + two_way.len() / NWAY_EVERY);
        for (index, line) in two_way.into_iter().enumerate() {
            lines.push(line);
            if (index + 1) % NWAY_EVERY == 0 {
                lines.push(pool[(index / NWAY_EVERY) % pool.len()].clone());
            }
        }
        lines
    } else {
        two_way
    };
    std::fs::write(dir.join("mix.queries"), lines.join("\n") + "\n")
        .map_err(|e| format!("write mix: {e}"))?;
    let mut shard_sets = Vec::new();
    if workload.routed() {
        cli(
            "shard-sets",
            &[
                ("sets", path_arg(&sets)),
                ("shards", SHARDS.to_string()),
                ("out-prefix", path_arg(&dir.join("shard"))),
            ],
        )?;
        shard_sets = (0..SHARDS)
            .map(|i| dir.join(format!("shard{i}.sets")))
            .collect();
    }
    Ok(Inputs {
        graph,
        sets,
        shard_sets,
        lines,
    })
}

fn file_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .map(|entry| entry.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("list {}: {e}", dir.display()))?;
    names.sort();
    Ok(names)
}

/// Generates the inputs twice from the same seed and checks that the two
/// copies are byte-identical, then returns the first copy.
pub fn generate(work: &Path, workload: Workload, seed: u64) -> Result<Inputs, String> {
    let first = work.join("inputs");
    let second = work.join("inputs-again");
    let inputs = write(&first, workload, seed)?;
    write(&second, workload, seed)?;
    let names = file_names(&first)?;
    if names != file_names(&second)? {
        return Err("seeded inputs differ: file lists".into());
    }
    for name in &names {
        let a = std::fs::read(first.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        let b = std::fs::read(second.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        if a != b {
            return Err(format!("seeded inputs differ: {name}"));
        }
    }
    std::fs::remove_dir_all(&second).map_err(|e| format!("remove copy: {e}"))?;
    Ok(inputs)
}
