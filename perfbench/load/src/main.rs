//! Closed-loop load generator for `hypersweep serve`.
//!
//! ```text
//! perfbench-load --addr HOST:PORT --out FILE STREAM...
//! ```
//!
//! Each STREAM file is one connection's requests, one wire line each.
//! A connection sends its next line only after the previous reply line
//! arrived (pipeline depth 1), so every latency is one request's own time
//! from send to reply, never a batch average. All connections connect
//! first and start together; the phase's wall time runs from that start to
//! the last reply.
//!
//! FILE gets one line per request, connection by connection in send order:
//! `<latency_ns> <fnv1a64 of the reply line, hex> <reply type tag>`.
//! Stdout gets one JSON object: `{"wall_ns":N,"requests":N}`.
//!
//! Only the standard library is used: the generator depends on the wire
//! bytes alone, not on any hypersweep crate.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One request's measurement.
struct Sample {
    latency_ns: u64,
    digest: u64,
    tag: String,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The reply's `"type"` tag; every reply line starts with it.
fn reply_tag(line: &str) -> String {
    line.strip_prefix("{\"type\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("?")
        .to_string()
}

fn drive(
    stream: TcpStream,
    requests: Vec<String>,
    start: Arc<Barrier>,
) -> Result<Vec<Sample>, String> {
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut samples = Vec::with_capacity(requests.len());
    let mut reply = String::new();
    let mut wire = Vec::new();
    start.wait();
    for request in &requests {
        wire.clear();
        wire.extend_from_slice(request.as_bytes());
        wire.push(b'\n');
        reply.clear();
        let sent = Instant::now();
        writer.write_all(&wire).map_err(|e| e.to_string())?;
        let n = reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        let latency_ns = sent.elapsed().as_nanos() as u64;
        if n == 0 || !reply.ends_with('\n') {
            return Err(format!("connection closed before replying to {request}"));
        }
        let line = reply.trim_end_matches('\n');
        samples.push(Sample {
            latency_ns,
            digest: fnv1a64(line.as_bytes()),
            tag: reply_tag(line),
        });
    }
    Ok(samples)
}

fn run(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut out = None;
    let mut streams = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args.get(i).cloned();
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
            }
            path => streams.push(path.to_string()),
        }
        i += 1;
    }
    let addr = addr.ok_or("--addr HOST:PORT is required")?;
    let out = out.ok_or("--out FILE is required")?;
    if streams.is_empty() {
        return Err("at least one request stream file is required".into());
    }
    let mut work = Vec::new();
    for path in &streams {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let conn = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        work.push((conn, lines));
    }
    let start = Arc::new(Barrier::new(work.len() + 1));
    let handles: Vec<_> = work
        .into_iter()
        .map(|(conn, lines)| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || drive(conn, lines, start))
        })
        .collect();
    start.wait();
    let began = Instant::now();
    let mut results = Vec::new();
    for handle in handles {
        results.push(handle.join().map_err(|_| "a connection thread panicked")??);
    }
    let wall_ns = began.elapsed().as_nanos() as u64;
    let file = std::fs::File::create(&out).map_err(|e| format!("{out}: {e}"))?;
    let mut w = BufWriter::new(file);
    let mut total = 0usize;
    for samples in &results {
        for s in samples {
            writeln!(w, "{} {:016x} {}", s.latency_ns, s.digest, s.tag)
                .map_err(|e| e.to_string())?;
        }
        total += samples.len();
    }
    w.flush().map_err(|e| e.to_string())?;
    println!("{{\"wall_ns\":{wall_ns},\"requests\":{total}}}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-load: {e}");
            ExitCode::FAILURE
        }
    }
}
