//! Client side: a blocking line-protocol client (TCP or Unix-domain,
//! with request pipelining) and the `bench-serve` load generator.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Serialize;

use hypersweep_analysis::StrategyKind;

use crate::protocol::{ErrorKind, Request, Response};

/// Schema tag stamped into `BENCH_serve.json`. `v2` added pipelining
/// (`pipeline_depth`), microsecond percentiles, answer-table and
/// per-shard accounting, and the transport label; every `v1` field is
/// preserved with unchanged meaning.
pub const BENCH_SCHEMA: &str = "hypersweep-serve-bench/v2";

/// The client's transport: the daemon serves both from one reactor.
enum ClientStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl ClientStream {
    fn try_clone(&self) -> io::Result<ClientStream> {
        Ok(match self {
            ClientStream::Tcp(s) => ClientStream::Tcp(s.try_clone()?),
            ClientStream::Unix(s) => ClientStream::Unix(s.try_clone()?),
        })
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// A blocking client for the line-delimited JSON protocol.
pub struct Client {
    reader: BufReader<ClientStream>,
    writer: ClientStream,
}

impl Client {
    /// Connect to a running daemon over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::over(ClientStream::Tcp(stream))
    }

    /// Connect to a running daemon over its Unix-domain socket
    /// (`serve --uds PATH`).
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        Self::over(ClientStream::Unix(stream))
    }

    fn over(stream: ClientStream) -> io::Result<Client> {
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one raw line and return the raw response line (no trailing
    /// newline) — the malformed-input tests speak through this.
    pub fn send_raw(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_reply_line()
    }

    /// Pipeline: send every line in one write, then read one reply per
    /// line. The daemon answers in request order.
    pub fn send_raw_batch<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Vec<String>> {
        let mut batch = String::new();
        for line in lines {
            batch.push_str(line.as_ref());
            batch.push('\n');
        }
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()?;
        lines.iter().map(|_| self.read_reply_line()).collect()
    }

    fn read_reply_line(&mut self) -> io::Result<String> {
        let mut response = String::new();
        let read = self.reader.read_line(&mut response)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Send a request and parse the response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let line = self.send_raw(&request.to_line())?;
        Response::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Pipeline a batch of requests (one write, in-order replies).
    pub fn request_batch(&mut self, requests: &[Request]) -> io::Result<Vec<Response>> {
        let lines: Vec<String> = requests.iter().map(Request::to_line).collect();
        self.send_raw_batch(&lines)?
            .iter()
            .map(|line| {
                Response::parse(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            })
            .collect()
    }
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Daemon TCP address, e.g. `127.0.0.1:7071`.
    pub addr: String,
    /// Connect over this Unix-domain socket instead of TCP.
    pub uds: Option<PathBuf>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per client.
    pub requests: usize,
    /// Requests pipelined per write (1 = strict request/reply).
    pub pipeline_depth: usize,
    /// Largest dimension the mixed workload asks for.
    pub max_dim: u32,
}

/// What `bench-serve` measures; serialized to `BENCH_serve.json`.
#[derive(Clone, Debug, Serialize)]
pub struct BenchReport {
    /// Always [`BENCH_SCHEMA`].
    pub schema: String,
    /// Concurrent client connections.
    pub clients: u64,
    /// Requests issued per client.
    pub requests_per_client: u64,
    /// Total requests issued.
    pub total_requests: u64,
    /// Successful (non-error) responses.
    pub ok: u64,
    /// Structured error responses other than `busy`.
    pub errors: u64,
    /// `busy` rejections (backpressure working as designed; accounted at
    /// the shared worker pool, upstream of the cache shards).
    pub busy: u64,
    /// Wall-clock duration of the run, in milliseconds.
    pub elapsed_ms: f64,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Median request latency, milliseconds. At `pipeline_depth > 1`
    /// latencies are amortized: batch wall time / batch size.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds (same amortization).
    pub p99_ms: f64,
    /// Run-cache hit rate observed by the daemon after the run.
    pub cache_hit_rate: f64,
    /// `"tcp"` or `"uds"`.
    pub transport: String,
    /// Requests pipelined per write.
    pub pipeline_depth: u64,
    /// Median request latency in microseconds (the closed-form tier
    /// resolves far below a millisecond).
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// `plan`/`predict` replies served from the answer table
    /// (`answers.table_hits`), measured across the whole run.
    pub table_hits: u64,
    /// `table_hits` over total requests issued.
    pub table_hit_rate: f64,
    /// Run-cache shards behind the daemon.
    pub cache_shards: u64,
    /// Audits routed to each shard (`cache.shard<i>.requests`), index =
    /// shard. Empty when the daemon's telemetry is disabled.
    pub shard_requests: Vec<u64>,
}

/// The deterministic mixed workload: request `seq` of any client. Cycles
/// request types (`plan`, `predict`, `audit`, `status`), strategies, and
/// dimensions, so every client issues the same stream — which is exactly
/// what makes concurrent-vs-single-client byte-comparison meaningful.
pub fn mixed_request(seq: usize, max_dim: u32) -> Request {
    const CLOSED_FORM: [StrategyKind; 6] = [
        StrategyKind::Clean,
        StrategyKind::Visibility,
        StrategyKind::Cloning,
        StrategyKind::Synchronous,
        StrategyKind::CleanThroughRoot,
        StrategyKind::CloningSmallestFirst,
    ];
    const AUDITABLE: [StrategyKind; 8] = StrategyKind::ALL;
    let lo = 4u32.min(max_dim.max(1));
    let hi = max_dim.min(8).max(lo);
    let dim = lo + (seq / 4) as u32 % (hi - lo + 1);
    match seq % 4 {
        0 => Request::Plan {
            strategy: CLOSED_FORM[(seq / 4) % CLOSED_FORM.len()],
            dim,
        },
        1 => Request::Predict {
            strategy: CLOSED_FORM[(seq / 4) % CLOSED_FORM.len()],
            dim,
        },
        2 => Request::Audit {
            strategy: AUDITABLE[(seq / 4) % AUDITABLE.len()],
            dim,
        },
        _ => Request::Status,
    }
}

fn bench_connect(cfg: &BenchConfig) -> io::Result<Client> {
    match &cfg.uds {
        Some(path) => Client::connect_uds(path),
        None => Client::connect(&cfg.addr),
    }
}

/// Run the load generator against a live daemon and aggregate latencies.
pub fn run_bench(cfg: &BenchConfig) -> io::Result<BenchReport> {
    let clients = cfg.clients.max(1);
    let requests = cfg.requests.max(1);
    let depth = cfg.pipeline_depth.max(1);

    // Counter baselines, so a long-lived daemon reports this run's table
    // hits rather than its lifetime total.
    let mut probe = bench_connect(cfg)?;
    let hits_before = probe_metrics(&mut probe)?.0;

    let started = Instant::now();
    let mut per_client: Vec<io::Result<ClientTally>> = Vec::with_capacity(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client_worker(cfg, requests, depth)))
            .collect();
        for handle in handles {
            per_client.push(handle.join().expect("bench client panicked"));
        }
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<Duration> = Vec::with_capacity(clients * requests);
    let (mut ok, mut errors, mut busy) = (0u64, 0u64, 0u64);
    for tally in per_client {
        let tally = tally?;
        ok += tally.ok;
        errors += tally.errors;
        busy += tally.busy;
        latencies.extend(tally.latencies);
    }
    latencies.sort();
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[rank].as_secs_f64() * 1e3
    };

    // Follow-up probes read the daemon's counters after the run.
    let (hits_after, shard_requests) = probe_metrics(&mut probe)?;
    let (cache_hit_rate, cache_shards) = match probe.request(&Request::Status)? {
        Response::Status(status) => {
            let total = status.cache.hits + status.cache.misses;
            let rate = if total == 0 {
                0.0
            } else {
                status.cache.hits as f64 / total as f64
            };
            (rate, status.cache.shards)
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("status probe got a {} response", other.tag()),
            ))
        }
    };

    let total_requests = (clients * requests) as u64;
    let table_hits = hits_after.saturating_sub(hits_before);
    let p50_ms = percentile(0.50);
    let p99_ms = percentile(0.99);
    Ok(BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        clients: clients as u64,
        requests_per_client: requests as u64,
        total_requests,
        ok,
        errors,
        busy,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_rps: total_requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms,
        p99_ms,
        cache_hit_rate,
        transport: if cfg.uds.is_some() { "uds" } else { "tcp" }.to_string(),
        pipeline_depth: depth as u64,
        p50_us: p50_ms * 1e3,
        p99_us: p99_ms * 1e3,
        table_hits,
        table_hit_rate: table_hits as f64 / total_requests as f64,
        cache_shards,
        shard_requests,
    })
}

/// Read `(answers.table_hits, per-shard request counts)` from a
/// `metrics` reply. Both default to empty when telemetry is off.
fn probe_metrics(probe: &mut Client) -> io::Result<(u64, Vec<u64>)> {
    let reply = match probe.request(&Request::Metrics)? {
        Response::Metrics(reply) => reply,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("metrics probe got a {} response", other.tag()),
            ))
        }
    };
    let table_hits = reply.series.counter("answers.table_hits").unwrap_or(0);
    let mut shard_requests = Vec::new();
    while let Some(count) = reply
        .series
        .counter(&format!("cache.shard{}.requests", shard_requests.len()))
    {
        shard_requests.push(count);
    }
    Ok((table_hits, shard_requests))
}

struct ClientTally {
    ok: u64,
    errors: u64,
    busy: u64,
    latencies: Vec<Duration>,
}

fn client_worker(cfg: &BenchConfig, requests: usize, depth: usize) -> io::Result<ClientTally> {
    let mut client = bench_connect(cfg)?;
    let mut tally = ClientTally {
        ok: 0,
        errors: 0,
        busy: 0,
        latencies: Vec::with_capacity(requests),
    };
    let mut seq = 0;
    while seq < requests {
        let batch: Vec<Request> = (seq..requests.min(seq + depth))
            .map(|s| mixed_request(s, cfg.max_dim))
            .collect();
        seq += batch.len();
        let sent = Instant::now();
        let responses = client.request_batch(&batch)?;
        // Amortized per-request latency: the batch round trip divided by
        // its size (individual in-batch timings are not observable from
        // one flush).
        let each = sent.elapsed() / batch.len() as u32;
        for response in responses {
            tally.latencies.push(each);
            match response {
                Response::Error(e) if e.kind == ErrorKind::Busy => tally.busy += 1,
                Response::Error(_) => tally.errors += 1,
                _ => tally.ok += 1,
            }
        }
    }
    Ok(tally)
}

impl BenchReport {
    /// Pretty JSON for `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench reports serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_is_deterministic_and_varied() {
        let a: Vec<Request> = (0..64).map(|s| mixed_request(s, 8)).collect();
        let b: Vec<Request> = (0..64).map(|s| mixed_request(s, 8)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|r| matches!(r, Request::Plan { .. })));
        assert!(a.iter().any(|r| matches!(r, Request::Predict { .. })));
        assert!(a.iter().any(|r| matches!(r, Request::Audit { .. })));
        assert!(a.iter().any(|r| matches!(r, Request::Status)));
        // Every dimension stays within the requested bound.
        for r in &a {
            if let Request::Plan { dim, .. }
            | Request::Predict { dim, .. }
            | Request::Audit { dim, .. } = r
            {
                assert!((1..=8).contains(dim));
            }
        }
    }

    #[test]
    fn bench_report_serializes_with_schema() {
        let report = BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            clients: 4,
            requests_per_client: 32,
            total_requests: 128,
            ok: 120,
            errors: 0,
            busy: 8,
            elapsed_ms: 10.0,
            throughput_rps: 12_800.0,
            p50_ms: 0.05,
            p99_ms: 1.5,
            cache_hit_rate: 0.9,
            transport: "tcp".to_string(),
            pipeline_depth: 8,
            p50_us: 50.0,
            p99_us: 1500.0,
            table_hits: 64,
            table_hit_rate: 0.5,
            cache_shards: 8,
            shard_requests: vec![4, 4, 4, 4, 4, 4, 4, 4],
        };
        let json = report.to_json();
        assert!(json.contains("hypersweep-serve-bench/v2"));
        // Every v1 field survives the schema bump alongside the new ones.
        for field in [
            "clients",
            "requests_per_client",
            "total_requests",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "cache_hit_rate",
            "pipeline_depth",
            "table_hit_rate",
            "cache_shards",
            "shard_requests",
            "transport",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
    }
}
