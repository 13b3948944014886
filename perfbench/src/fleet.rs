//! The serving side: `dht serve` / `dht route` child processes, the wire
//! client, and the per-process CPU and memory readings.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::Inputs;

/// How long a child may take to exit after `SHUTDOWN` before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// One line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(("127.0.0.1", port))?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends one request line and reads its one-line response.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.read_line()
    }

    /// Sends a `TRACE`-prefixed query and returns `(trace comment, answer)`.
    pub fn traced(&mut self, line: &str) -> std::io::Result<(String, String)> {
        let comment = self.request(&format!("TRACE {line}"))?;
        let answer = if comment.starts_with("# trace:") {
            self.read_line()?
        } else {
            comment.clone()
        };
        Ok((comment, answer))
    }
}

/// Reads `key=value` fields of a `STATS` line.
pub fn stat_field(stats: &str, key: &str) -> f64 {
    stats
        .split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

/// Sums every `backend.<name>.<suffix>=` field of a router `STATS` line.
pub fn sum_backend_fields(stats: &str, suffix: &str) -> f64 {
    stats
        .split_whitespace()
        .filter_map(|field| field.split_once('='))
        .filter(|(key, _)| key.starts_with("backend.") && key.ends_with(suffix))
        .filter_map(|(_, value)| value.parse::<f64>().ok())
        .sum()
}

struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

impl Proc {
    /// Spawns `dht <args>` and waits for its `listening on 127.0.0.1:PORT`
    /// line.
    fn spawn(dht: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(dht)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dht.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("dht {} exited before listening", args[0]));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                let port = addr.rsplit(':').next().and_then(|p| p.parse().ok());
                match port {
                    Some(port) => {
                        return Ok(Proc {
                            child,
                            stdout,
                            port,
                        })
                    }
                    None => {
                        child.kill().ok();
                        child.wait().ok();
                        return Err(format!("unreadable listen line: {line}"));
                    }
                }
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the process to exit, killing it after the grace period.
    fn reap(&mut self) {
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    break;
                }
            }
        }
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).ok();
    }
}

/// What serves a workload: one direct `dht serve`, or a `dht route` in
/// front of per-shard backends.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Direct,
    Routed,
}

/// A running serving side.  Dropping it stops every process it started.
pub struct Fleet {
    /// Backends first, then the router (if any).
    procs: Vec<Proc>,
    shape: Shape,
}

fn serve_args(graph: &Path, sets: &Path, workers: usize) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--graph"].iter().map(|s| s.to_string()).collect();
    args.push(graph.to_string_lossy().into_owned());
    args.push("--sets".into());
    args.push(sets.to_string_lossy().into_owned());
    for part in ["--port", "0", "--algorithm", "auto", "--workers"] {
        args.push(part.into());
    }
    args.push(workers.to_string());
    args
}

impl Fleet {
    /// Starts the serving side and returns it with its set-up time: from
    /// the first process launch to the first `OK PONG` at the front door.
    pub fn start(dht: &Path, shape: Shape, inputs: &Inputs) -> Result<(Fleet, f64), String> {
        let started = Instant::now();
        let mut fleet = Fleet {
            procs: Vec::new(),
            shape,
        };
        match shape {
            Shape::Direct => {
                let args = serve_args(&inputs.graph, &inputs.sets, 2);
                fleet.procs.push(Proc::spawn(dht, &args)?);
            }
            Shape::Routed => {
                for sets in &inputs.shard_sets {
                    let args = serve_args(&inputs.graph, sets, 1);
                    fleet.procs.push(Proc::spawn(dht, &args)?);
                }
                let mut args: Vec<String> = vec!["route".into()];
                for backend in &fleet.procs {
                    args.push("--backend".into());
                    args.push(format!("127.0.0.1:{}", backend.port));
                }
                for part in ["--port", "0", "--own-backends", "1"] {
                    args.push(part.into());
                }
                fleet.procs.push(Proc::spawn(dht, &args)?);
            }
        }
        let pong = Conn::open(fleet.port())
            .and_then(|mut conn| conn.request("PING"))
            .map_err(|e| format!("PING: {e}"))?;
        if pong != "OK PONG" {
            return Err(format!("PING answered '{pong}'"));
        }
        Ok((fleet, started.elapsed().as_secs_f64()))
    }

    /// The front door's port (the router, or the only server).
    pub fn port(&self) -> u16 {
        self.procs.last().expect("a fleet has a process").port
    }

    /// Ports of the `dht serve` processes.
    fn backend_ports(&self) -> Vec<u16> {
        let servers = match self.shape {
            Shape::Direct => &self.procs[..],
            Shape::Routed => &self.procs[..self.procs.len() - 1],
        };
        servers.iter().map(|p| p.port).collect()
    }

    /// CPU time of the serving processes' live threads, in ms.
    pub fn cpu_ms(&self) -> f64 {
        self.procs.iter().map(|p| proc_cpu_ms(p.pid())).sum()
    }

    /// Summed peak resident memory of the serving processes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .map(|p| proc_peak_rss_kb(p.pid()))
            .sum::<f64>()
            / 1024.0
    }

    /// `STATS` of every `dht serve` process.
    pub fn backend_stats(&self) -> Result<Vec<String>, String> {
        self.backend_ports().into_iter().map(stats).collect()
    }

    /// `STATS` at the front door.
    pub fn front_stats(&self) -> Result<String, String> {
        stats(self.port())
    }

    /// Sends `SHUTDOWN` to every process and waits until each has exited.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Router first: it drains before the backends go away.
        for proc in self.procs.iter_mut().rev() {
            if let Ok(mut conn) = Conn::open(proc.port) {
                conn.request("SHUTDOWN").ok();
            }
            proc.reap();
        }
        self.procs.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn stats(port: u16) -> Result<String, String> {
    Conn::open(port)
        .and_then(|mut conn| conn.request("STATS"))
        .map_err(|e| format!("STATS: {e}"))
}

fn proc_file(pid: u32, name: &str) -> String {
    std::fs::read_to_string(PathBuf::from(format!("/proc/{pid}/{name}"))).unwrap_or_default()
}

/// CPU time of the live threads of `pid`, in ms: the first field of each
/// `/proc/<pid>/task/<tid>/schedstat` is its time on a CPU in ns.
fn proc_cpu_ms(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    let ns: f64 = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<f64>().ok())
        .sum();
    ns / 1e6
}

fn proc_peak_rss_kb(pid: u32) -> f64 {
    proc_file(pid, "status")
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
