//! The closed-loop load generator: `CONNECTIONS` client connections, each
//! sending its next query line only after the previous answer arrived, for
//! a fixed time.  Every answer is compared bitwise with the in-process
//! reference.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::fleet::Conn;

/// Client connections of every phase (the callers wait for each answer).
const CONNECTIONS: usize = 2;

/// One answered request.
pub struct Sample {
    /// Whether the query line is an n-way join.
    pub nway: bool,
    /// Client-observed latency, in ms.
    pub ms: f64,
    /// The `# trace:` comment of a traced request.
    pub trace: Option<String>,
}

/// The outcome of one phase.
#[derive(Default)]
pub struct Phase {
    /// Requests whose answer matched the reference.
    pub samples: Vec<Sample>,
    pub attempted: usize,
    /// `ERR` finals.
    pub errors: usize,
    /// Answers that differ from the reference.
    pub mismatches: usize,
    /// Connections that failed with an I/O error.
    pub io_errors: usize,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Wall time from the first send to the last answer, in seconds.
    pub elapsed_s: f64,
    /// CPU of the serving processes over the phase, in ms.
    pub cpu_ms: f64,
    /// The mix index each connection would have sent next; a following
    /// phase resumes there, as a long-running client would.
    pub next: Vec<usize>,
}

impl Phase {
    pub fn failed(&self) -> usize {
        self.errors + self.mismatches + self.io_errors
    }

    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s
    }

    /// Pools `other` into this phase, summing its time and CPU.
    pub fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.elapsed_s += other.elapsed_s;
        self.cpu_ms += other.cpu_ms;
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.io_errors += other.io_errors;
        self.next.extend(other.next);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Drives one connection until `deadline`, then holds it open across two
/// waits on `done` while the caller reads the servers' CPU: a router's
/// per-connection thread, and its CPU time, ends with the connection.
fn connection(
    port: u16,
    lines: &[String],
    expected: &[String],
    start: usize,
    deadline: Instant,
    traced: bool,
    done: &Barrier,
) -> Phase {
    let mut phase = Phase::default();
    let mut conn = Conn::open(port);
    let next = match conn {
        Ok(ref mut conn) => drive(conn, lines, expected, start, deadline, traced, &mut phase),
        Err(ref error) => {
            phase.attempted += 1;
            phase.io_errors += 1;
            phase.first_failure = Some(format!("connect: {error}"));
            start
        }
    };
    phase.next.push(next);
    done.wait();
    done.wait();
    drop(conn);
    phase
}

fn drive(
    conn: &mut Conn,
    lines: &[String],
    expected: &[String],
    start: usize,
    deadline: Instant,
    traced: bool,
    phase: &mut Phase,
) -> usize {
    let fail = |phase: &mut Phase, what: String| {
        if phase.first_failure.is_none() {
            phase.first_failure = Some(what);
        }
    };
    let mut index = start;
    while Instant::now() < deadline {
        let line = index % lines.len();
        index += 1;
        phase.attempted += 1;
        let sent = Instant::now();
        let result = if traced {
            conn.traced(&lines[line])
                .map(|(comment, answer)| (Some(comment), answer))
        } else {
            conn.request(&lines[line]).map(|answer| (None, answer))
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match result {
            Err(error) => {
                phase.io_errors += 1;
                fail(phase, format!("'{}': {error}", lines[line]));
                break;
            }
            Ok((_, answer)) if answer.starts_with("ERR") => {
                phase.errors += 1;
                fail(phase, format!("'{}' answered '{answer}'", lines[line]));
            }
            Ok((_, answer)) if answer != expected[line] => {
                phase.mismatches += 1;
                fail(
                    phase,
                    format!(
                        "'{}' answered '{answer}', expected '{}'",
                        lines[line], expected[line]
                    ),
                );
            }
            Ok((trace, _)) => phase.samples.push(Sample {
                nway: lines[line].starts_with("nway"),
                ms,
                trace,
            }),
        }
    }
    index % lines.len()
}

/// Where each connection of a first phase starts: connection `i` at line
/// `i * len / CONNECTIONS`.
pub fn first_lines(len: usize) -> Vec<usize> {
    (0..CONNECTIONS).map(|i| i * len / CONNECTIONS).collect()
}

/// Runs the mix against `port` for `seconds`: connection `i` starts at
/// line `starts[i]` and walks the mix in order.  With `traced`
/// every line carries the `TRACE` prefix.  `cpu_ms` reads the serving
/// processes' CPU; it is read before the first send and after the last
/// answer.
pub fn closed_loop(
    port: u16,
    lines: &[String],
    expected: &[String],
    starts: &[usize],
    seconds: f64,
    traced: bool,
    cpu_ms: impl Fn() -> f64,
) -> Phase {
    let done = Barrier::new(starts.len() + 1);
    let cpu_before = cpu_ms();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (parts, elapsed_s, cpu_after) = std::thread::scope(|scope| {
        let done = &done;
        let handles: Vec<_> = starts
            .iter()
            .map(|&start| {
                scope
                    .spawn(move || connection(port, lines, expected, start, deadline, traced, done))
            })
            .collect();
        done.wait();
        let elapsed_s = started.elapsed().as_secs_f64();
        let cpu_after = cpu_ms();
        done.wait();
        let parts: Vec<Phase> = handles
            .into_iter()
            .map(|handle| handle.join().expect("load connection thread panicked"))
            .collect();
        (parts, elapsed_s, cpu_after)
    });
    let mut phase = Phase::default();
    for part in parts {
        phase.absorb(part);
    }
    phase.elapsed_s = elapsed_s;
    phase.cpu_ms = cpu_after - cpu_before;
    phase
}
