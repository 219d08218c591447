#!/usr/bin/env python3
"""End-to-end benchmark of the hypersweep binary: serve, check and report.

    python3 perfbench/run.py --workload hot-small --seed 1 --seconds 30 --trace 0

Run from the repository root. The runner builds the `hypersweep` binary and
the std-only load generator (`perfbench/load`) from source, drives the
binary through its three user entry points under the chosen workload, checks
every output against the digests recorded in `perfbench/expected.json`, and
prints one JSON object as the last line of stdout. With `--trace 1` it also
builds `perfbench/trace`, replays the same inputs in process with spans
around each layer's public calls, and prints the per-layer metrics instead.

The end-to-end phases depend only on CLI arguments, deterministic CLI output
and wire bytes. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

EXPECTED_PATH = BENCH / "expected.json"


class Failure(Exception):
    """The benchmark could not run (build error, missing program)."""


class Ctx:
    """Paths, child processes and tallies of one run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
        self.bin = self.target / "release" / "hypersweep"
        self.load = self.target / "release" / "perfbench-load"
        self.calibrate = self.target / "release" / "perfbench-calibrate"
        self.live = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_kb = 0
        self.setups = []
        self.first_digest = {}

    def note(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def rss(self, kb):
        self.peak_rss_kb = max(self.peak_rss_kb, kb)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(manifest=None, package=None):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"]
    if manifest:
        cmd += ["--manifest-path", str(manifest)]
    if package:
        cmd += ["-p", package]
    if subprocess.run(cmd).returncode != 0:
        raise Failure(f"build failed: {' '.join(cmd)}")


def reap(proc):
    """Wait for `proc`; return (exit code, peak RSS in KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_cli(ctx, args, name, cwd=None):
    """Run the binary to completion: (exit code, stdout, stderr, wall s)."""
    out_path = ctx.work / f"{name}.out"
    err_path = ctx.work / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(ctx.bin.resolve())] + args, stdout=out, stderr=err, cwd=cwd)
        rc, rss = reap(proc)
        wall = time.perf_counter() - start
    ctx.rss(rss)
    return rc, out_path.read_bytes(), err_path.read_bytes(), wall


# ---------------------------------------------------------------- serving


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Line:
    """A blocking line-protocol connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def ask(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.file.readline()
        if not reply.endswith(b"\n"):
            raise Failure(f"daemon closed the connection on {line}")
        return reply.decode().rstrip("\n")

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    """One `hypersweep serve` process, timed from spawn to first reply."""

    def __init__(self, ctx, spec, name, persist=None, telemetry=True):
        self.ctx = ctx
        self.port = free_port()
        args = [
            "serve", "--addr", f"127.0.0.1:{self.port}", "--max-dim", str(spec["max_dim"]),
            "--jobs", "1",
        ]
        if spec["cache_cap"] is not None:
            args += ["--cache-cap", str(spec["cache_cap"])]
        if persist is not None:
            args += ["--persist", str(persist)]
        if not telemetry:
            args.append("--no-telemetry")
        self.err = open(ctx.work / f"{name}.err", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(ctx.bin.resolve())] + args, stdout=subprocess.DEVNULL, stderr=self.err
        )
        ctx.live.append(self.proc)
        while True:
            try:
                self.line = Line(self.port)
                break
            except OSError:
                if self.proc.poll() is not None:
                    raise Failure(f"daemon exited during start ({name})")
                time.sleep(0.0002)
        self.first_reply = self.line.ask(wl.STATUS)
        self.setup_s = time.perf_counter() - start

    def metrics(self):
        reply = json.loads(self.line.ask('{"type":"metrics"}'))
        return reply["series"]

    def stop(self):
        ack = self.line.ask('{"type":"shutdown"}')
        self.line.close()
        rc, rss = reap(self.proc)
        self.ctx.live.remove(self.proc)
        self.err.close()
        self.ctx.rss(rss)
        return ack.startswith('{"type":"shutdown"') and rc == 0


def run_load(ctx, port, streams, name):
    """Drive `streams` through the closed-loop generator.

    Returns (wall s, [(request, latency ns, digest, tag)]).
    """
    paths = []
    for i, stream in enumerate(streams):
        p = ctx.work / f"{name}.{i}.req"
        p.write_text("".join(r + "\n" for r in stream))
        paths.append(str(p))
    out = ctx.work / f"{name}.lat"
    res = subprocess.run(
        [str(ctx.load.resolve()), "--addr", f"127.0.0.1:{port}", "--out", str(out)] + paths,
        capture_output=True, text=True,
    )
    if res.returncode != 0:
        raise Failure(f"load generator failed: {res.stderr.strip()}")
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    rows = []
    lines = out.read_text().splitlines()
    i = 0
    for stream in streams:
        for request in stream:
            lat, digest, tag = lines[i].split()
            rows.append((request, int(lat), digest, tag))
            i += 1
    return summary["wall_ns"] / 1e9, rows


def check_replies(ctx, rows, expected, phase):
    for request, _, digest, tag in rows:
        if request == wl.STATUS:
            ctx.note(tag == "status", f"{phase}: status reply tagged {tag}")
            continue
        want = expected.get(request)
        same = ctx.first_digest.setdefault(request, digest) == digest
        ctx.note(
            want == digest and same,
            f"{phase}: reply to {request} digest {digest}, recorded {want}",
        )


def counter(series, name):
    v = series.get(name)
    return v["value"] if v else 0


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


def write_persisted_cache(ctx, spec, expected):
    """The untimed earlier life of the churn daemon: compute and persist."""
    path = ctx.work / "cache.jsonl"
    d = Daemon(ctx, spec, "persist-life", persist=path)
    for request in wl.persisted_life_inputs():
        reply = d.line.ask(request)
        digest = format(fnv1a64(reply.encode()), "016x")
        ctx.note(expected.get(request) == digest, f"persisted life: {request}")
    ctx.note(d.stop(), "persisted life: shutdown")
    return path


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def start_daemon(ctx, spec, name, persisted):
    """A daemon as the workload runs it; its start is one `setup_s` sample.

    On churn it warm-loads its own copy of the persisted cache file.
    """
    persist = None
    if persisted is not None:
        persist = ctx.work / f"{name}.jsonl"
        shutil.copyfile(persisted, persist)
    d = Daemon(ctx, spec, name, persist=persist)
    ctx.note(d.first_reply.startswith('{"type":"status"'), f"{name}: first reply")
    ctx.setups.append(d.setup_s)
    return d


def serve_prepare(ctx, expected, state):
    spec = wl.WORKLOADS[ctx.workload]["serve"]
    state["serve_inputs"] = wl.serve_inputs(ctx.workload, ctx.seed)
    state["persisted"] = None
    if spec["warmup"] == "persisted":
        state["persisted"] = write_persisted_cache(ctx, spec, expected["serve"])
    state["serve"] = {}


def serve_round(ctx, expected, state, r):
    """One timed pass of the workload's stream.

    hot-small keeps one daemon, warmed once, so every pass is all hits.
    cold-large and churn start a fresh daemon for every pass, so every pass
    starts from the memo state the workload specifies: empty, or warm-loaded
    from the persisted file. Either way request i does the same work in
    every pass, and its latency is the least over the passes.
    """
    spec = wl.WORKLOADS[ctx.workload]["serve"]
    inputs = state["serve_inputs"]
    expected = expected["serve"]
    d = state.get("daemon")
    if d is None:
        d = start_daemon(ctx, spec, f"serve-{r}", state["persisted"])
        if inputs["warmup"]:
            _, rows = run_load(ctx, d.port, [inputs["warmup"]], "warmup")
            check_replies(ctx, rows, expected, "warm-up")
        if spec["warmup"] == "universe":
            state["daemon"] = d
    before = d.metrics()
    wall, rows = run_load(ctx, d.port, inputs["streams"], "timed")
    after = d.metrics()
    if "daemon" not in state:
        ctx.note(d.stop(), "serve: shutdown")
    check_replies(ctx, rows, expected, "serve")
    if ctx.workload == "cold-large":
        evicted = counter(after, "cache.evictions") - counter(before, "cache.evictions")
        ctx.note(evicted == 0, f"serve: {evicted} evictions on a memo sized above the keyspace")
    s = state["serve"]
    lat = [row[1] for row in rows]
    s["best_ns"] = [min(a, b) for a, b in zip(s["best_ns"], lat)] if r else lat
    if r == 0:
        s.update(requests=len(rows), wall_s=wall, rows=rows, before=before, after=after)


def setup_round(ctx, expected, state, r):
    """A cold start beyond the serve phase's own, for the `setup_s` median,
    after a bare process start (`perfbench-calibrate --noop`) timed the
    same way, which scales it."""
    start = time.perf_counter()
    rc = subprocess.run([str(ctx.calibrate.resolve()), "--noop"]).returncode
    state.setdefault("bare_start_s", []).append(time.perf_counter() - start)
    ctx.note(rc == 0, f"calibration --noop: exit {rc}")
    spec = wl.WORKLOADS[ctx.workload]["serve"]
    d = start_daemon(ctx, spec, f"start-{r}", state["persisted"])
    ctx.note(d.stop(), "cold start: shutdown")


# --------------------------------------------------------------- checking

SUMMARY = re.compile(
    r"^(?:check|scenario): (\d+) schedules, (\d+) steps, (\d+) events, (\d+) violations"
    r"(?:, (\d+) mutations \((\d+) rejected\))?",
    re.M,
)


def campaign_columns(stderr):
    m = SUMMARY.search(stderr.decode())
    if not m:
        return None
    keys = ["schedules", "steps", "events", "violations", "mutations", "rejected"]
    return {k: int(v) for k, v in zip(keys, m.groups()) if v is not None}


def check_round(ctx, expected, state, r):
    if r == 0:
        state["check"] = [dict(c, walls=[]) for c in wl.check_inputs(ctx.workload, ctx.seed)]
    for i, c in enumerate(state["check"]):
        want = expected.get(" ".join(c["args"]))
        rc, _, err, wall = run_cli(ctx, c["args"], f"check-{i}")
        cols = campaign_columns(err)
        ctx.note(
            rc == 0 and cols is not None and cols == want,
            f"{' '.join(c['args'])}: exit {rc}, columns {cols}, recorded {want}",
        )
        c["walls"].append(wall)
        c["columns"] = cols


def shrink_round(ctx, expected, state, r):
    if r == 0:
        state["shrink"] = dict(wl.shrink_inputs(ctx.workload, ctx.seed), walls=[])
    args = state["shrink"]["args"]
    key = " ".join(args)
    want = expected.get(key, {})
    replay = ctx.work / "replay.json"
    if replay.exists():
        replay.unlink()
    rc, _, _, wall = run_cli(ctx, args + ["--out", "replay.json"], "shrink", cwd=ctx.work)
    state["shrink"]["walls"].append(wall)
    ok = rc != 0 and replay.exists()
    digest = hashlib.sha256(replay.read_bytes()).hexdigest() if ok else None
    ctx.note(ok and digest == want.get("replay"), f"{key}: exit {rc}, replay {digest}")
    rc2, out, _, _ = run_cli(ctx, ["check", "--replay", "replay.json"], "replay", cwd=ctx.work)
    ctx.note(
        rc2 == 0 and hashlib.sha256(out).hexdigest() == want.get("verify"),
        f"{key}: check --replay exit {rc2}",
    )


def report_round(ctx, expected, state, r):
    if r == 0:
        state["report"] = dict(wl.report_inputs(ctx.workload), walls=[])
    args = state["report"]["args"]
    key = " ".join(args)
    rc, out, _, wall = run_cli(ctx, args, "report")
    state["report"]["walls"].append(wall)
    digest = hashlib.sha256(out).hexdigest()
    ctx.note(rc == 0 and digest == expected.get(key), f"{key}: exit {rc}, stdout {digest}")
    state["report"]["stdout_fnv"] = format(fnv1a64(out), "016x")


def calibrate_round(ctx, expected, state, r):
    """One sample of the host's speed: the fixed calibration kernel."""
    res = subprocess.run([str(ctx.calibrate.resolve())], capture_output=True, text=True)
    ns, checksum = res.stdout.split()
    ctx.note(
        res.returncode == 0 and checksum == CALIBRATION_CHECKSUM,
        f"calibration: exit {res.returncode}, checksum {checksum}",
    )
    state.setdefault("calibration_ns", []).append(int(ns))


# The calibration kernel's fixed result, and the times that define the
# reference host speed: every end-to-end timing is reported as it would
# read on a host where the kernel's best round takes 20 ms, and `setup_s`
# as it would where a bare process start takes 1 ms (median).
CALIBRATION_CHECKSUM = "9e8a6bc1e2110eca"
CALIBRATION_REF_NS = 20_000_000
BARE_START_REF_S = 0.001

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "serve_rps": "req/s",
    "serve_p50_us": "us",
    "serve_p99_us": "us",
    "check_clean_ms": "ms/schedule",
    "check_visibility_ms": "ms/schedule",
    "check_cloning_ms": "ms/schedule",
    "check_synchronous_ms": "ms/schedule",
    "check_grid_ms": "ms/schedule",
    "check_dynamic_ms": "ms/schedule",
    "check_shrink_ms": "ms",
    "report_s": "s",
}

# Rounds run one sample of every phase each, so the samples of every metric
# spread over the whole run rather than bunching into one stretch of it.
ROUND = [
    ("calibrate", calibrate_round),
    ("serve", serve_round),
    ("check", check_round),
    ("shrink", shrink_round),
    ("report", report_round),
    ("setup", setup_round),
]
MIN_ROUNDS = 3


def run_end_to_end(ctx, expected, seconds, rounds=None):
    """Run rounds until `seconds` have passed (at least MIN_ROUNDS), or
    exactly `rounds` of them; return the end-to-end metrics and the state
    the traced run reads.

    A timing is the best of its samples: a campaign's, the shrink drill's
    or the report's fastest round, and each served request's fastest pass
    (the serve metrics are the percentiles and rate of those per-request
    latencies). On a shared host another tenant's load only ever adds time
    and comes and goes within a second, so the best of many short samples
    repeats from run to run where their median moves with the neighbours'
    load. `setup_s` is the median of every cold start.

    The host's own speed also shifts by 20-40% for minutes at a time,
    moving every timing of a run together. Every timing is therefore
    scaled to the reference speed by the calibration kernel's best round
    (rates the other way), except `setup_s`: a process start leans on the
    kernel (exec, page faults) and moved twice as far as the kernel in a
    slow spell, so it is scaled by the median bare process start instead.
    The raw values are printed beside the scaled ones.
    """
    state = {}
    serve_prepare(ctx, expected, state)
    busy = {name: 0.0 for name, _ in ROUND}
    deadline = time.perf_counter() + seconds
    r = 0
    while r < rounds if rounds else (r < MIN_ROUNDS or time.perf_counter() < deadline):
        for name, phase in ROUND:
            t0 = time.perf_counter()
            phase(ctx, expected, state, r)
            busy[name] += time.perf_counter() - t0
        r += 1
    if "daemon" in state:
        ctx.note(state.pop("daemon").stop(), "serve: shutdown")
    state["rounds"] = r
    log(f"[{ctx.workload}] {r} rounds; " + ", ".join(f"{k} {v:.1f}s" for k, v in busy.items()))

    serve = state["serve"]
    best = sorted(serve["best_ns"])
    p50, _ = percentile(best, 0.50)
    p99, serve["p99_beyond"] = percentile(best, 0.99)
    ctx.note(serve["p99_beyond"] >= 10, f"serve: only {serve['p99_beyond']} samples beyond p99")
    raw = {
        "setup_s": statistics.median(ctx.setups),
        "peak_rss_mb": ctx.peak_rss_kb / 1024,
        # One connection at depth 1: the rate is the inverse mean latency.
        "serve_rps": len(best) / (sum(best) / 1e9),
        "serve_p50_us": p50 / 1e3,
        "serve_p99_us": p99 / 1e3,
        "check_shrink_ms": min(state["shrink"]["walls"]) * 1e3,
        "report_s": min(state["report"]["walls"]),
    }
    for c in state["check"]:
        raw[c["metric"]] = min(c["walls"]) * 1e3 / c["schedules"]
    # How much slower than the reference this run's host was.
    slow = min(state["calibration_ns"]) / CALIBRATION_REF_NS
    slow_start = statistics.median(state["bare_start_s"]) / BARE_START_REF_S
    state["raw"] = raw
    result = {k: v / slow for k, v in raw.items()}
    result["setup_s"] = raw["setup_s"] / slow_start
    result["peak_rss_mb"] = raw["peak_rss_mb"]
    result["serve_rps"] = raw["serve_rps"] * slow
    return result, state


def print_end_to_end(ctx, result, state):
    s = state["serve"]
    rounds = state["rounds"]
    print(f"# {ctx.workload} seed {ctx.seed}: end-to-end, best of {rounds} rounds")
    print(
        f"  host: calibration kernel {min(state['calibration_ns']) / 1e6:.3f} ms "
        f"(reference {CALIBRATION_REF_NS / 1e6:.0f} ms), bare process start "
        f"{statistics.median(state['bare_start_s']) * 1e3:.3f} ms (reference {BARE_START_REF_S * 1e3:.0f} ms); "
        "values at the reference speed, raw in brackets"
    )
    for name, unit in END_TO_END_UNITS.items():
        extra = ""
        if name == "serve_p99_us":
            extra = f"  (n={s['requests']} requests, {s['p99_beyond']} beyond)"
        elif name in ("serve_p50_us", "serve_rps"):
            extra = f"  (n={s['requests']} requests)"
        elif name == "setup_s":
            extra = f"  (median of {len(ctx.setups)} cold starts)"
        print(f"  {name:<22} {result[name]:>14.4f} {unit}  [{state['raw'][name]:.4f}]{extra}")
    print(f"  operations attempted {ctx.attempted}, failed {ctx.failed}")
    for p in ctx.problems:
        print(f"  FAILED: {p}")


# -------------------------------------------------------------- recording


def record(ctx):
    """Write expected.json from the current program.

    Entries already recorded for an unchanged key are kept, so resizing one
    phase re-records only that phase. Delete the file first when the
    program's outputs change on purpose.
    """
    old = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    expected = {}
    spec = {"max_dim": 16, "cache_cap": 4096}
    d = Daemon(ctx, spec, "record")
    universe = wl.record_universe()
    _, rows = run_load(ctx, d.port, [universe], "record")
    d.stop()
    expected["serve"] = {r: digest for r, _, digest, _ in rows}
    for workload in wl.WORKLOADS:
        for cseed in wl.CAMPAIGN_SEEDS:
            for c in wl.check_inputs_for(workload, cseed):
                key = " ".join(c["args"])
                if key in old:
                    expected[key] = old[key]
                    continue
                rc, _, err, _ = run_cli(ctx, c["args"], "rec-check")
                cols = campaign_columns(err)
                if rc != 0 or cols is None or cols["violations"] != 0:
                    raise Failure(f"recording {c['args']}: exit {rc}, {cols}")
                expected[key] = cols
        args = wl.shrink_args(workload, wl.SHRINK_SEED)
        key = " ".join(args)
        if key in old:
            expected[key] = old[key]
        else:
            replay = ctx.work / "replay.json"
            rc, _, _, _ = run_cli(ctx, args + ["--out", "replay.json"], "rec-shrink", cwd=ctx.work)
            rc2, out, _, _ = run_cli(ctx, ["check", "--replay", "replay.json"], "rec-replay", cwd=ctx.work)
            if rc == 0 or rc2 != 0:
                raise Failure(f"recording {args}: exit {rc}, replay exit {rc2}")
            expected[key] = {
                "replay": hashlib.sha256(replay.read_bytes()).hexdigest(),
                "verify": hashlib.sha256(out).hexdigest(),
            }
            replay.unlink()
        spec_r = wl.report_inputs(workload)
        rc, out, _, _ = run_cli(ctx, spec_r["args"], "rec-report")
        if rc != 0:
            raise Failure(f"recording {spec_r['args']}: exit {rc}")
        expected[" ".join(spec_r["args"])] = hashlib.sha256(out).hexdigest()
        log(f"recorded {workload}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# -------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    # Every process the run starts inherits one CPU: the daemon, the load
    # generator and each CLI run then never migrate or wake each other
    # across CPUs, which on a 2-vCPU guest moved latencies from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    name = "record" if args.record else f"{args.workload}-{args.seed}-{os.getpid()}"
    work = Path(".bench_work") / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(args.workload, args.seed, work)
    try:
        build(package="hypersweep-cli")
        build(manifest=BENCH / "load" / "Cargo.toml")
        if args.record:
            record(ctx)
            return 0
        expected = json.loads(EXPECTED_PATH.read_text())
        # The traced run needs one untraced round for its comparisons, not
        # the end-to-end metrics.
        result, state = run_end_to_end(ctx, expected, args.seconds, 1 if args.trace else None)
        print_end_to_end(ctx, result, state)
        if args.trace:
            import traced

            build(manifest=BENCH / "trace" / "Cargo.toml")
            metrics = traced.run(ctx, state, sys.modules[__name__])
        else:
            metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        print(
            json.dumps(
                {
                    "correct": ctx.failed == 0,
                    "attempted": ctx.attempted,
                    "failed": ctx.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    except (Failure, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        for proc in ctx.live:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
