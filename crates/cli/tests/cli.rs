//! End-to-end tests of the `hypersweep` binary.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hypersweep"))
}

/// A `hypersweep serve` child, killed on drop, so a failed assertion does
/// not leave the daemon running.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn list_shows_every_experiment() {
    let out = bin().arg("list").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for id in ["f1", "t2", "t10", "e11", "e15"] {
        assert!(text.contains(id), "missing {id}");
    }
}

#[test]
fn run_prints_metrics_and_succeeds() {
    let out = bin()
        .args(["run", "visibility", "5", "--policy", "synchronous"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("agents          : 16"));
    assert!(text.contains("ideal time      : 5"));
    assert!(text.contains("monotone=true"));
}

#[test]
fn run_rejects_unknown_strategy_and_bad_dimension() {
    let out = bin().args(["run", "nonsense", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown strategy 'nonsense'"), "{err}");
    let out = bin().args(["run", "clean", "99"]).output().unwrap();
    assert!(!out.status.success());
}

/// `run`, `trace` and `watch` take every strategy label the wire takes;
/// the frontier baseline has no engine run and says so, without a panic.
#[test]
fn run_trace_and_watch_accept_every_wire_label() {
    let out = bin().args(["run", "frontier", "4"]).output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("frontier does not support the fifo schedule"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");

    for args in [
        &["run", "flood", "4"][..],
        &["run", "clean-through-root", "4", "--fast"],
        &["run", "frontier", "4", "--fast"],
        &["watch", "cloning-smallest-first", "3"],
    ] {
        let out = bin().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.contains("captured") || text.contains("capture=Some"),
            "{args:?}: {text}"
        );
    }

    let dir = std::env::temp_dir().join("hypersweep-cli-labels");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cloning-smallest-first-4.json");
    let path = path.to_str().unwrap();
    let out = bin()
        .args(["trace", "cloning-smallest-first", "4", path])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().args(["audit", "4", path]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("all_clean=true"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn synchronous_variant_under_async_policy_fails_cleanly() {
    let out = bin()
        .args(["run", "synchronous", "4", "--policy", "fifo"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("does not support"));
}

#[test]
fn report_single_experiment_renders_a_table() {
    let out = bin().args(["report", "t5"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("T5"));
    assert!(text.contains("predicted"));
}

#[test]
fn watch_renders_frames() {
    let out = bin()
        .args(["watch", "visibility", "3", "--stride", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("level 0:"));
    assert!(text.contains("captured"));
}

/// `watch --stride` counts events between frames and says so when it
/// refuses a value.
#[test]
fn watch_stride_refusals_describe_the_film() {
    for (stride, needle) in [
        (
            "0",
            "at least 1 (watch renders a frame every N events; omit",
        ),
        (
            "2000000",
            "exceeds the supported limit 1000000 (no film has that",
        ),
    ] {
        let out = bin()
            .args(["watch", "visibility", "3", "--stride", stride])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(
            err.contains(needle) && err.contains("range is 1..=1000000"),
            "{err}"
        );
        assert!(
            !err.contains("oracle") && !err.contains("schedule"),
            "{err}"
        );
    }
}

#[test]
fn trace_then_audit_roundtrip() {
    let dir = std::env::temp_dir().join("hypersweep-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("vis5.json");
    let out = bin()
        .args(["trace", "visibility", "5", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["audit", "5", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("monotone=true"));
    std::fs::remove_file(path).ok();
}

/// The `capture=` field of the first line of `text` that has one.
fn capture_field(text: &str) -> &str {
    let line = text
        .lines()
        .find_map(|l| l.split_once("capture=").map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("no capture= in {text}"));
    line.split("  ").next().unwrap_or(line).trim()
}

/// `audit` verifies with the evader `run`, `report` and served audits
/// use: greedy up to `H_10`, lazy from `H_11` on. For every strategy label
/// at both sides of that switch, auditing the exported trace captures the
/// intruder exactly where `run --fast` does.
#[test]
fn audit_captures_like_run_on_both_sides_of_the_evader_switch() {
    let dir = std::env::temp_dir().join("hypersweep-cli-audit-evader");
    std::fs::create_dir_all(&dir).unwrap();
    for kind in hypersweep_analysis::StrategyKind::ALL {
        let label = kind.label();
        for d in ["10", "11"] {
            let path = dir.join(format!("{label}-{d}.json"));
            let path = path.to_str().unwrap();
            let traced = bin().args(["trace", label, d, path]).output().unwrap();
            assert!(traced.status.success(), "trace {label} {d}");
            let audit = bin().args(["audit", d, path]).output().unwrap();
            let audit = String::from_utf8(audit.stdout).unwrap();
            let run = bin().args(["run", label, d, "--fast"]).output().unwrap();
            let run = String::from_utf8(run.stdout).unwrap();
            assert_eq!(
                capture_field(&audit),
                capture_field(&run),
                "{label} on H_{d}"
            );
            assert!(capture_field(&run).contains("Captured"), "{label} on H_{d}");
            std::fs::remove_file(path).ok();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_rejects_out_of_range_max_dim() {
    let out = bin()
        .args(["report", "t5", "--max-dim", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--max-dim 0 must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("at least 1"), "{err}");

    let out = bin()
        .args(["report", "t5", "--max-dim", "25"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--max-dim 25 must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("exceeds"), "{err}");
    assert!(err.contains("20"), "{err}");
}

#[test]
fn report_with_cache_cap_is_byte_identical_and_reports_evictions() {
    let dir = std::env::temp_dir().join("hypersweep-cli-cache-cap");
    let unbounded = dir.join("unbounded");
    let capped = dir.join("capped");
    let out = bin()
        .args(["report", "t3", "--json", unbounded.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args([
            "report",
            "t3",
            "--cache-cap",
            "1",
            "--json",
            capped.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("evicted"), "{err}");
    let a = std::fs::read_to_string(unbounded.join("t3.json")).unwrap();
    let b = std::fs::read_to_string(capped.join("t3.json")).unwrap();
    assert_eq!(a, b, "a capped run cache changed the exported report");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_cap_zero_is_rejected_with_a_clear_message() {
    // `report` and `serve` share the flag; both must refuse 0 before doing
    // any work, with the same mirrored validation message.
    for command in [
        vec!["report", "t5", "--cache-cap", "0"],
        vec!["serve", "--addr", "127.0.0.1:0", "--cache-cap", "0"],
    ] {
        let out = bin().args(&command).output().unwrap();
        assert!(!out.status.success(), "{command:?} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--cache-cap must be at least 1"),
            "{command:?}: {err}"
        );
        assert!(err.contains("omit the flag"), "{command:?}: {err}");
    }
    // Non-numeric input still gets the usage-shaped error.
    let out = bin()
        .args(["report", "t5", "--cache-cap", "many"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--cache-cap needs an integer"), "{err}");
}

#[test]
fn report_timings_renders_the_phase_table() {
    let out = bin()
        .args(["report", "t2", "t5", "--timings"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("phase timings (telemetry spans):"), "{err}");
    for phase in ["warm", "experiments", "report"] {
        assert!(err.contains(phase), "missing phase row '{phase}': {err}");
    }
    assert!(err.contains("per-experiment spans:"), "{err}");
    for id in ["t2", "t5"] {
        assert!(err.contains(id), "missing experiment row '{id}': {err}");
    }
    assert!(err.contains("jobs, mean"), "missing pool line: {err}");
    // The table rides on stderr; stdout stays the report alone.
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("phase timings"), "{text}");
}

#[test]
fn serve_bench_and_graceful_shutdown() {
    // Start the daemon on an ephemeral port and learn the port from its
    // startup line.
    let mut daemon = ServeChild(
        bin()
            .args(["serve", "--addr", "127.0.0.1:0", "--max-dim", "10"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut stderr = BufReader::new(daemon.0.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    // Mixed load from the bundled generator.
    let bench_out = std::env::temp_dir().join("hypersweep-cli-bench-serve.json");
    let out = bin()
        .args([
            "bench-serve",
            "--addr",
            &addr,
            "--connections",
            "4",
            "--requests",
            "24",
            "--pipeline-depth",
            "4",
            "--max-dim",
            "6",
            "--out",
            bench_out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8(out.stdout).unwrap();
    assert!(summary.contains("req/s"), "{summary}");
    let report = std::fs::read_to_string(&bench_out).unwrap();
    assert!(report.contains("hypersweep-serve-bench/v2"), "{report}");
    assert!(report.contains("\"errors\": 0"), "{report}");
    assert!(report.contains("\"pipeline_depth\": 4"), "{report}");
    assert!(report.contains("\"table_hits\""), "{report}");
    std::fs::remove_file(&bench_out).ok();

    // Gate mode against handcrafted v2 baselines of this run's mix (4
    // connections x 24 requests at depth 1): a slow one passes, an
    // impossibly fast one trips the 25% gate. A baseline of another mix is
    // refused before the load runs, naming both values.
    for (name, clients, rps, passes) in [
        ("slow", 4, "0.001", true),
        ("impossible", 4, "1e15", false),
        ("other-mix", 1000, "0.001", false),
    ] {
        let baseline = std::env::temp_dir().join(format!("hypersweep-cli-serve-{name}.json"));
        let header = format!(
            "{{\"schema\": \"hypersweep-serve-bench/v2\", \"clients\": {clients}, \
             \"requests_per_client\": 24, \"pipeline_depth\": 1, \"throughput_rps\": {rps}}}\n"
        );
        std::fs::write(&baseline, header).unwrap();
        let out = bin()
            .env("BENCH_SERVE_BASELINE", &baseline)
            .args(["bench-serve", "--addr", &addr, "--connections", "4"])
            .args(["--requests", "24", "--max-dim", "6"])
            .output()
            .unwrap();
        let (text, err) = (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        );
        assert_eq!(out.status.success(), passes, "{name}: {text}{err}");
        if clients == 4 {
            assert!(text.contains("bench-serve/check: "), "{name}: {text}");
            assert_eq!(err.contains("REGRESSION"), !passes, "{name}: {err}");
        } else {
            assert!(text.is_empty(), "{name}: ran before refusing: {text}");
            assert!(
                err.contains("clients 1000, this run uses 4"),
                "{name}: {err}"
            );
        }
        std::fs::remove_file(&baseline).ok();
    }

    // Graceful shutdown via the protocol; the daemon must exit 0 with a
    // final status line on stdout and the drain summary on stderr.
    let mut control = std::net::TcpStream::connect(&addr).unwrap();
    writeln!(control, r#"{{"type":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    BufReader::new(control.try_clone().unwrap())
        .read_line(&mut ack)
        .unwrap();
    assert!(ack.contains("\"type\":\"shutdown\""), "{ack}");

    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "daemon exited with {status}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(rest.contains("drained"), "{rest}");
    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut daemon.0.stdout.take().unwrap(), &mut stdout).unwrap();
    assert!(stdout.contains("\"type\":\"status\""), "{stdout}");
}

#[test]
fn telemetry_gate_passes_and_fails_on_the_5_percent_line() {
    use hypersweep_server::{BenchReport, BENCH_SCHEMA};
    let dir = std::env::temp_dir().join("hypersweep-cli-telemetry-gate");
    std::fs::create_dir_all(&dir).unwrap();
    // A full v2 report of CI's mix, 8 clients x 64 requests over TCP, at
    // `rps`, then changed by `tweak`.
    let write = |name: &str, rps: f64, tweak: fn(&mut BenchReport)| {
        let mut report = BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            clients: 8,
            requests_per_client: 64,
            total_requests: 512,
            ok: 512,
            errors: 0,
            busy: 0,
            elapsed_ms: 512.0 / rps * 1e3,
            throughput_rps: rps,
            p50_ms: 0.05,
            p99_ms: 0.5,
            cache_hit_rate: 0.99,
            transport: "tcp".to_string(),
            pipeline_depth: 1,
            p50_us: 50.0,
            p99_us: 500.0,
            table_hits: 256,
            table_hit_rate: 0.5,
            cache_shards: 8,
            shard_requests: vec![0, 0, 64, 64, 0, 0, 0, 0],
        };
        tweak(&mut report);
        let path = dir.join(name);
        std::fs::write(&path, report.to_json() + "\n").unwrap();
        path
    };
    let off = write("off.json", 1000.0, |_| {});
    let within = write("within.json", 970.0, |_| {}); // 3% overhead
    let beyond = write("beyond.json", 900.0, |_| {}); // 10% overhead
    let out_file = dir.join("BENCH_telemetry.json");
    let gate = |on: &std::path::Path| {
        bin()
            .args([
                "telemetry-gate",
                on.to_str().unwrap(),
                off.to_str().unwrap(),
                "--out",
                out_file.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };

    let out = gate(&within);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("telemetry-gate:"), "{text}");
    let written = std::fs::read_to_string(&out_file).unwrap();
    assert!(written.contains("\"pass\":true"), "{written}");
    assert!(written.contains("\"gate_pct\""), "{written}");

    let out = gate(&beyond);
    assert!(!out.status.success(), "10% overhead must fail the gate");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("REGRESSION"), "{err}");
    let written = std::fs::read_to_string(&out_file).unwrap();
    assert!(written.contains("\"pass\":false"), "{written}");

    // A file that is not a v2 report, and a report of another load mix,
    // are refused before anything is compared or written.
    let one_field = dir.join("one-field.json");
    std::fs::write(&one_field, "{\"throughput_rps\": 970}\n").unwrap();
    let other_mix = write("other-mix.json", 970.0, |r| r.clients = 1000);
    let refusals = [
        (
            &one_field,
            "report schema '' != 'hypersweep-serve-bench/v2'".to_string(),
        ),
        (
            &other_mix,
            format!(
                "{} was measured at clients 1000, {} at clients 8",
                other_mix.display(),
                off.display()
            ),
        ),
    ];
    for (on, message) in refusals {
        std::fs::remove_file(&out_file).ok();
        let out = gate(on);
        assert_eq!(out.status.code(), Some(1), "{on:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&message), "{on:?}: {err}");
        assert!(out.stdout.is_empty(), "{on:?} was compared");
        assert!(!out_file.exists(), "{on:?} wrote a comparison");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_flags_a_corrupt_trace() {
    let dir = std::env::temp_dir().join("hypersweep-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    // A lone walker that recontaminates.
    let bad = r#"[
        {"time":0,"kind":{"Spawn":{"agent":0,"node":0,"role":"Worker"}}},
        {"time":1,"kind":{"Move":{"agent":0,"from":0,"to":1,"role":"Worker"}}}
    ]"#;
    std::fs::write(&path, bad).unwrap();
    let out = bin()
        .args(["audit", "3", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "corrupt trace must fail the audit");
    std::fs::remove_file(path).ok();
}

#[test]
fn audit_refuses_malformed_traces_and_names_recontaminated_nodes() {
    let dir = std::env::temp_dir().join("hypersweep-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let spawn = r#"{"time":0,"kind":{"Spawn":{"agent":0,"node":0,"role":"Worker"}}}"#;
    let audit = |name: &str, second: &str| {
        let path = dir.join(name);
        std::fs::write(&path, format!("[{spawn},{second}]")).unwrap();
        let out = bin()
            .args(["audit", "3", path.to_str().unwrap()])
            .output()
            .unwrap();
        std::fs::remove_file(path).ok();
        let text = String::from_utf8_lossy(&out.stdout).into_owned()
            + &String::from_utf8_lossy(&out.stderr);
        (out.status.code(), text)
    };
    // Each malformed move exits 1 with a message naming event 1, where it
    // used to index out of bounds (exit 101) or wrap an occupancy count.
    for (name, second, why) in [
        (
            "oob.json",
            r#"{"time":1,"kind":{"Move":{"agent":0,"from":0,"to":99,"role":"Worker"}}}"#,
            "node 99 is outside 0..8",
        ),
        (
            "vacant.json",
            r#"{"time":1,"kind":{"Move":{"agent":1,"from":2,"to":3,"role":"Worker"}}}"#,
            "no agent stands on node 2",
        ),
        (
            "jump.json",
            r#"{"time":1,"kind":{"CloneSpawn":{"parent":0,"child":1,"from":0,"to":3}}}"#,
            "node 3 is not a neighbour of node 0",
        ),
    ] {
        let (code, text) = audit(name, second);
        assert_eq!(code, Some(1), "{name}: {text}");
        assert!(
            text.contains("event 1") && text.contains(why),
            "{name}: {text}"
        );
    }
    // A legal but recontaminating walk is audited and its violation names
    // the node.
    let (code, text) = audit(
        "walk.json",
        r#"{"time":1,"kind":{"Move":{"agent":0,"from":0,"to":1,"role":"Worker"}}}"#,
    );
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("violation: step 1 event 2: recontamination at node 0"),
        "{text}"
    );
}

// --- campaign-scale check knobs -----------------------------------------

#[test]
fn check_campaign_size_and_stride_reject_zero_and_absurd_values() {
    // Mirrors the `--max-dim` contract: structured messages that name the
    // valid range, emitted before any work happens.
    for (args, needle) in [
        (vec!["check", "--campaign-size", "0"], "at least 1"),
        (
            vec!["check", "--campaign-size", "10000001"],
            "exceeds the supported limit",
        ),
        (vec!["check", "--schedules", "0"], "at least 1"),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("valid range"), "{args:?}: {err}");
    }
    // The checker has no stride: its oracles run after every event.
    let out = bin().args(["check", "--stride", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--stride applies only to watch"), "{err}");
    // A planted index outside the campaign is caught up front too.
    let out = bin()
        .args(["check", "--campaign-size", "10", "--plant", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("outside the campaign"), "{err}");
}

#[test]
fn check_plant_fails_at_exactly_the_planted_schedule() {
    let dir = std::env::temp_dir().join("hypersweep-cli-plant");
    std::fs::create_dir_all(&dir).unwrap();
    let cx = dir.join("cx.json");
    let out = bin()
        .args([
            "check",
            "--strategy",
            "clean",
            "--dim",
            "4",
            "--campaign-size",
            "4096",
            "--plant",
            "97",
            "--jobs",
            "4",
            "--out",
            cx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a planted campaign must exit nonzero"
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("FAIL @ schedule 97"), "{text}");
    let replay = std::fs::read_to_string(&cx).unwrap();
    assert!(replay.contains("\"schedule\""), "{replay}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_replay_of_a_deeply_nested_file_fails_cleanly() {
    let dir = std::env::temp_dir().join("hypersweep-cli-deep-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(60_000)).unwrap();
    let out = bin()
        .args(["check", "--replay", deep.to_str().unwrap()])
        .output()
        .unwrap();
    // Exit 1 with a message, not 134 from a stack-overflow abort.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("nesting deeper than"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_replay_refuses_dimensions_outside_the_checked_range() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let replay = std::fs::read_to_string(format!("{corpus}/mutant-d3-stalled-synchronizer.json"));
    let replay = replay.unwrap();
    let dir = std::env::temp_dir().join("hypersweep-cli-replay-dims");
    std::fs::create_dir_all(&dir).unwrap();
    // 29 first: a build without the range check panics on it at once,
    // before any dimension it would try to build a cube for.
    for dim in [29, u32::MAX, 0, 17] {
        let path = dir.join(format!("d{dim}.json"));
        let edited = replay.replace("\"dim\": 3,", &format!("\"dim\": {dim},"));
        std::fs::write(&path, edited).unwrap();
        let out = bin()
            .args(["check", "--replay", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "dim {dim}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("dimensions 1..=16"), "dim {dim}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `check --replay`'s stdout and exit code for every corpus file, run from
/// the workspace root, against `tests/golden/check-replays.txt`.
#[test]
fn check_replay_of_every_corpus_file_matches_its_golden() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut names: Vec<String> = std::fs::read_dir(format!("{root}/tests/corpus"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    let mut golden = String::new();
    for name in names {
        let path = format!("tests/corpus/{name}");
        let out = bin()
            .current_dir(root)
            .args(["check", "--replay", &path])
            .output()
            .unwrap();
        golden += &format!("$ hypersweep check --replay {path}\n");
        golden += &String::from_utf8(out.stdout).unwrap();
        let code = out.status.code().expect("the binary exits on its own");
        golden += &format!("exit {code}\n");
    }
    hypersweep_testutil::golden("check-replays.txt", &golden);
}

#[test]
fn check_timings_renders_the_campaign_phase_table() {
    let out = bin()
        .args([
            "check",
            "--strategy",
            "clean",
            "--dim",
            "4",
            "--campaign-size",
            "64",
            "--timings",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("campaign phase timings"), "{err}");
    for row in ["campaigns", "shrink", "schedules", "slices"] {
        assert!(err.contains(row), "missing row '{row}': {err}");
    }
    // The table rides on stderr; stdout stays the campaign table alone.
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("campaign phase timings"), "{text}");
}

/// The stderr summary line of a hypercube, a grid and a dynamic campaign
/// agrees, up to ` (mean`, with the counts of its table row: `check:` with
/// no churn clause on the hypercube, `scenario:` with its mutations and
/// rejected proposals otherwise (the forms perfbench's `SUMMARY` reads).
/// The scenario table has no events column, so those come from the
/// library's run of the same campaign.
#[test]
fn check_summary_line_matches_the_table_row_for_every_campaign_kind() {
    use hypersweep_scenario::{resolve, run_scenario_campaign, GridStrategy, ScenarioId};
    let common = ["--schedules", "20", "--seed", "3", "--jobs", "1"];
    let cases: [(&[&str], Option<ScenarioId>); 3] = [
        (&["--strategy", "clean", "--dim", "4"], None),
        (
            &["--scenario", "grid", "--dim", "6"],
            Some(ScenarioId::Grid),
        ),
        (
            &["--scenario", "dynamic", "--dim", "5"],
            Some(ScenarioId::Dynamic),
        ),
    ];
    for (args, scenario) in cases {
        let out = bin().arg("check").args(args).args(common).output().unwrap();
        assert!(out.status.success(), "{args:?}: {out:?}");
        let (text, err) = (String::from_utf8(out.stdout), String::from_utf8(out.stderr));
        let (text, err) = (text.unwrap(), err.unwrap());
        let row: Vec<&str> = text.lines().nth(3).unwrap().split_whitespace().collect();
        let expected = match scenario {
            // strategy dim schedules steps events sched/s violations verdict
            None => format!(
                "check: {} schedules, {} steps, {} events, {} violations",
                row[2], row[3], row[4], row[6]
            ),
            // scenario strategy instance side nodes schedules steps moves
            // team churn sched/s verdict
            Some(id) => {
                let scenario = resolve(id).unwrap();
                let instance = scenario.default_instance();
                let side = row[3].parse().unwrap();
                let campaign = scenario.campaign(GridStrategy::Sweep, side, instance, 20, 3, 0);
                let registry = hypersweep_telemetry::MetricsRegistry::disabled();
                let events = run_scenario_campaign(&campaign, 1, &registry).events;
                let (mutations, proposals) = row[9].split_once('/').unwrap_or(("0", "0"));
                let (mutations, proposals): (u64, u64) =
                    (mutations.parse().unwrap(), proposals.parse().unwrap());
                assert_eq!(row[11], "ok", "{text}");
                format!(
                    "scenario: {} schedules, {} steps, {events} events, 0 violations, \
                     {mutations} mutations ({} rejected)",
                    row[5],
                    row[6],
                    proposals - mutations
                )
            }
        };
        let line = err.lines().next().unwrap_or_default();
        let (counts, _) = line.split_once(" (mean").expect("a summary line");
        assert_eq!(counts, expected, "{args:?}\n{text}{err}");
    }
}

#[test]
fn check_rejects_plant_for_scenario_campaigns() {
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "--scenario",
                "grid",
                "--dim",
                "6",
                "--campaign-size",
                "8",
                "--plant",
                "3",
            ],
            "--plant applies only",
        ),
        // Scenario campaigns have no replay format, so `--out` would
        // silently write nothing.
        (
            &[
                "--scenario",
                "grid",
                "--strategy",
                "mutant-grid-leaky-guard",
                "--dim",
                "6",
                "--schedules",
                "8",
                "--out",
                "never-written.json",
            ],
            "--out applies only",
        ),
        // The hypercube checker has one instance, so `--instance` would be
        // silently ignored, with or without an explicit `--scenario`.
        (
            &[
                "--strategy",
                "clean",
                "--dim",
                "3",
                "--schedules",
                "5",
                "--instance",
                "holes:1",
            ],
            "--instance applies only",
        ),
        (
            &[
                "--scenario",
                "hypercube",
                "--strategy",
                "clean",
                "--dim",
                "3",
                "--schedules",
                "5",
                "--instance",
                "holes:1",
            ],
            "--instance applies only",
        ),
    ];
    let dir = std::env::temp_dir().join(format!(
        "hypersweep-cli-check-refusal-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, message) in cases {
        let out = bin()
            .arg("check")
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(!dir.join("never-written.json").exists());
    }
}

/// A bench knob that does not parse is refused, naming the variable and
/// its value, before anything is measured or written.
#[test]
fn bench_knobs_refuse_values_they_cannot_parse() {
    let dir =
        std::env::temp_dir().join(format!("hypersweep-cli-bench-knobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    for (command, var, value) in [
        ("bench-audit", "BENCH_AUDIT_BUDGET_MS", "2s"),
        ("bench-check", "BENCH_CHECK_BUDGET_MS", "fast"),
        ("bench-check", "BENCH_CHECK_SCHEDULES", "-3"),
    ] {
        let out = bin()
            .env("BENCH_AUDIT_DIMS", "6")
            .env("BENCH_CHECK_DIMS", "4")
            .env(var, value)
            .args([command, "--out", report.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("{var} '{value}'")), "{err}");
        assert!(
            out.stdout.is_empty(),
            "{var}={value} measured before refusing"
        );
        assert!(!report.exists(), "{var}={value} wrote a report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `bench-audit` at `d = 6`: it writes a v3 report, passes against a slow
/// handcrafted baseline, trips the 25% gate against an impossibly fast
/// one, and refuses a baseline of the older v2 schema, naming the file.
#[test]
fn bench_audit_writes_a_v3_report_and_gates_against_handcrafted_baselines() {
    let dir = std::env::temp_dir().join("hypersweep-cli-bench-audit");
    std::fs::create_dir_all(&dir).unwrap();
    let audit = |baseline: Option<&std::path::Path>| {
        let mut cmd = bin();
        cmd.env("BENCH_AUDIT_DIMS", "6")
            .env("BENCH_AUDIT_BUDGET_MS", "20");
        if let Some(path) = baseline {
            cmd.env("BENCH_AUDIT_BASELINE", path);
        }
        let report = dir.join("BENCH_audit.json");
        let out = cmd
            .args(["bench-audit", "--out", report.to_str().unwrap()])
            .output()
            .unwrap();
        let (text, err) = (String::from_utf8(out.stdout), String::from_utf8(out.stderr));
        (out.status.success(), text.unwrap(), err.unwrap())
    };

    let (ok, text, err) = audit(None);
    assert!(ok, "{err}");
    assert!(
        text.contains("audit_throughput/packed-stride1/d6: "),
        "{text}"
    );
    assert!(text.contains("audit_throughput/packed/d6: "), "{text}");
    let report = std::fs::read_to_string(dir.join("BENCH_audit.json")).unwrap();
    assert!(report.contains("\"hypersweep-audit-bench/v3\""), "{report}");
    assert!(
        report.contains("\"packed_stride1_events_per_sec\""),
        "{report}"
    );
    assert!(!report.contains("speedup"), "{report}");

    let baseline = |name: &str, schema: &str, rate: &str| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"hypersweep-audit-bench/{schema}\",\"contiguity_every\":64,\
                 \"dims\":[{{\"d\":6,\"events\":582,\"packed_stride1_events_per_sec\":{rate},\
                 \"packed_events_per_sec\":{rate}}}]}}\n"
            ),
        )
        .unwrap();
        path
    };
    let (ok, text, err) = audit(Some(&baseline("slow.json", "v3", "0.001")));
    assert!(ok, "{err}");
    assert!(
        text.contains("audit_throughput/check/stride1/d6: "),
        "{text}"
    );
    assert!(
        text.contains("audit_throughput/check/sampled/d6: "),
        "{text}"
    );

    let (ok, _, err) = audit(Some(&baseline("impossible.json", "v3", "1e15")));
    assert!(!ok, "an impossible baseline must trip the gate");
    assert!(err.contains("REGRESSION (stride1) at d=6"), "{err}");
    assert!(err.contains("REGRESSION (sampled) at d=6"), "{err}");

    let v2 = baseline("v2.json", "v2", "0.001");
    let (ok, text, err) = audit(Some(&v2));
    assert!(!ok, "a v2 baseline must be refused");
    assert!(
        !text.contains("audit_throughput/"),
        "measured first: {text}"
    );
    assert!(err.contains("'hypersweep-audit-bench/v2'"), "{err}");
    assert!(err.contains(v2.to_str().unwrap()), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_check_writes_a_report_and_gates_against_itself() {
    let dir = std::env::temp_dir().join("hypersweep-cli-bench-check");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("BENCH_check.json");
    let fast = |cmd: &mut Command| {
        cmd.env("BENCH_CHECK_DIMS", "6")
            .env("BENCH_CHECK_SCHEDULES", "8")
            .env("BENCH_CHECK_BUDGET_MS", "50");
    };
    let mut cmd = bin();
    fast(&mut cmd);
    let out = cmd
        .args([
            "bench-check",
            "--jobs",
            "2",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.contains("hypersweep-check-bench/v2"), "{text}");
    assert!(text.contains("schedules_per_sec"), "{text}");
    assert!(text.contains("events_per_sec"), "{text}");
    for strategy in ["cloning", "clean", "visibility"] {
        assert!(
            text.contains(&format!("\"strategy\": \"{strategy}\"")),
            "{text}"
        );
    }

    // Gate mode with handcrafted baselines, so the verdict is
    // deterministic regardless of how noisy this machine is: a slow
    // baseline passes, an impossibly fast one trips the 25% gate.
    let baseline = |name: &str, rate: &str| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"hypersweep-check-bench/v2\",\"stride\":1,\"jobs\":2,\
                 \"runs\":[{{\"strategy\":\"clean\",\"d\":6,\"schedules\":8,\
                 \"schedules_per_sec\":{rate},\"events_per_sec\":{rate}}}]}}\n"
            ),
        )
        .unwrap();
        path
    };
    let slow = baseline("slow.json", "0.001");
    let mut cmd = bin();
    fast(&mut cmd);
    let out = cmd
        .env("BENCH_CHECK_BASELINE", slow.to_str().unwrap())
        .args(["bench-check", "--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("bench-check/gate"), "{text}");

    let impossible = baseline("impossible.json", "1000000000000000.0");
    let mut cmd = bin();
    fast(&mut cmd);
    let out = cmd
        .env("BENCH_CHECK_BASELINE", impossible.to_str().unwrap())
        .args(["bench-check", "--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "an impossible baseline must trip the gate"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("REGRESSION"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

// --- managed daemon lifecycle -------------------------------------------

/// A managed daemon's state directory. Dropping it stops the daemon the
/// directory records (a no-op once stopped) and removes the directory, so
/// a failed assertion does not leave a detached daemon running.
struct StateDir(std::path::PathBuf);

impl std::ops::Deref for StateDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = bin()
            .args(["daemon", "stop", "--state-dir"])
            .arg(&self.0)
            .output();
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh state directory for one daemon test.
fn daemon_dir(name: &str) -> StateDir {
    let dir = std::env::temp_dir().join(format!(
        "hypersweep-cli-daemon-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    StateDir(dir)
}

/// Crude field extraction from `state.json`, enough for tests.
fn state_field(dir: &std::path::Path, field: &str) -> String {
    let text = std::fs::read_to_string(dir.join("state.json")).expect("state.json");
    let needle = format!("\"{field}\":");
    let start = text.find(&needle).expect(field) + needle.len();
    text[start..]
        .trim_start_matches('"')
        .chars()
        .take_while(|c| !matches!(c, '"' | ',' | '}'))
        .collect()
}

/// One request/reply round trip against a daemon's TCP address.
fn daemon_request(addr: &str, line: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect daemon");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    reply
}

fn daemon_cmd(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    bin()
        .arg("daemon")
        .args(args)
        .arg("--state-dir")
        .arg(dir)
        .output()
        .expect("run daemon command")
}

#[test]
fn daemon_lifecycle_start_status_stop_and_force_takeover() {
    let dir = daemon_dir("lifecycle");

    // status on an empty dir: not running, exit code 3.
    let out = daemon_cmd(&dir, &["status"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    let out = daemon_cmd(&dir, &["start", "--addr", "127.0.0.1:0"]);
    assert!(out.status.success(), "{out:?}");
    let out = daemon_cmd(&dir, &["status"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let first_pid = state_field(&dir, "pid");

    // A second start is refused while the first is alive...
    let out = daemon_cmd(&dir, &["start", "--addr", "127.0.0.1:0"]);
    assert!(!out.status.success(), "double start must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--force"),
        "{out:?}"
    );

    // ...and --force takes it over with a new PID.
    let out = daemon_cmd(&dir, &["start", "--addr", "127.0.0.1:0", "--force"]);
    assert!(out.status.success(), "{out:?}");
    let second_pid = state_field(&dir, "pid");
    assert_ne!(first_pid, second_pid, "takeover must replace the daemon");

    let out = daemon_cmd(&dir, &["stop"]);
    assert!(out.status.success(), "{out:?}");
    let out = daemon_cmd(&dir, &["status"]);
    assert_eq!(out.status.code(), Some(3), "stopped daemon reads as down");
    assert!(!dir.join("state.json").exists(), "state retired at stop");
}

#[test]
fn daemon_warm_restart_after_kill9_serves_byte_identical_replies() {
    let dir = daemon_dir("kill9");
    let audit = r#"{"type":"audit","strategy":"clean","dim":6}"#;

    // First life: compute one audit, then stop gracefully so the cache
    // snapshot is flushed and compacted.
    let out = daemon_cmd(&dir, &["start", "--addr", "127.0.0.1:0"]);
    assert!(out.status.success(), "{out:?}");
    let cold = daemon_request(&state_field(&dir, "addr"), audit);
    assert!(cold.contains("\"monotone\":true"), "{cold}");
    assert!(daemon_cmd(&dir, &["stop"]).status.success());

    // Second life dies hard: kill -9 leaves the state file and socket
    // behind.
    let out = daemon_cmd(&dir, &["start", "--addr", "127.0.0.1:0"]);
    assert!(out.status.success(), "{out:?}");
    let pid = state_field(&dir, "pid");
    let killed = Command::new("kill").args(["-9", &pid]).status().unwrap();
    assert!(killed.success());
    // Wait for the PID to actually die (kill returns before reaping).
    for _ in 0..100 {
        if daemon_cmd(&dir, &["status"]).status.code() == Some(3) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = daemon_cmd(&dir, &["status"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("stale"),
        "{out:?}"
    );
    assert!(
        dir.join("daemon.sock").exists(),
        "kill -9 orphans the socket"
    );

    // Third life: start reclaims the stale state and socket, warm-loads
    // the persisted cache, and the audit answers byte-identically.
    let out = daemon_cmd(&dir, &["start", "--addr", "127.0.0.1:0"]);
    assert!(out.status.success(), "{out:?}");
    let warm = daemon_request(&state_field(&dir, "addr"), audit);
    assert_eq!(warm, cold, "warm reply must be byte-identical");
    let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap();
    assert!(
        log.contains("warm-loaded 1"),
        "warm load not logged:\n{log}"
    );
    assert!(log.contains("cleanup"), "stale cleanup not logged:\n{log}");

    assert!(daemon_cmd(&dir, &["stop"]).status.success());
}
