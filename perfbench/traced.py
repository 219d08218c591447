"""The traced run of `run.py --trace 1`: per-layer metrics for one workload.

Daemon-side numbers come from the `metrics` snapshots the untraced serve
phase took before and after its timed stream (exact counters and histogram
sums, never log2 percentiles). Everything else comes from `perfbench-trace`,
which replays the same inputs in process with spans around each crate's
public calls. The traced replay must reproduce the untraced outputs: reply
bytes, campaign columns, the checker's own schedules and report stdout.
"""

import statistics
import subprocess

import workloads as wl

PER_LAYER_UNITS = {
    "server.parse_ns": "ns",
    "server.table_ns": "ns",
    "server.table_share": "ratio",
    "server.handle_hit_us": "us",
    "server.serialize_ns": "ns",
    "server.transport_us": "us",
    "server.pool_hop_us": "us",
    "server.reactor_inline_ms": "ms",
    "server.table_build_ms": "ms",
    "analysis.memo_hit_share": "ratio",
    "analysis.memo_misses": "count",
    "analysis.memo_evictions": "count",
    "analysis.pool_wait_us": "us",
    "analysis.persist_appends": "count",
    "analysis.warm_load_ms": "ms",
    "analysis.report_warm_s": "s",
    "analysis.report_experiments_s": "s",
    "analysis.report_dedup_share": "ratio",
    "analysis.report_reexec": "count",
    "core.fast_ms": "ms",
    "core.clean_fast_ns_per_event": "ns",
    "intruder.audit_ms": "ms",
    "intruder.greedy_evader_ms": "ms",
    "intruder.events_per_s": "1/s",
    "topology.kernel_gbps": "GB/s",
    "sim.setup_us": "us",
    "sim.runnable_ns": "ns",
    "sim.terminated_ns": "ns",
    "sim.runnable_len": "count",
    "sim.step_ns": "ns",
    "sim.round_us": "us",
    "check.adversary_ns": "ns",
    "check.oracle_ns": "ns",
    "check.loop_other_ns": "ns",
    "check.steps": "count",
    "check.events": "count",
    "check.shrink_attempts": "count",
    "check.shrink_rerun_ms": "ms",
    "scenario.reference_ms": "ms",
    "scenario.dynamic_mutations": "count",
    "telemetry.overhead_pct": "%",
}

# The evader switches from greedy to lazy above n = 1024 (d = 10).
GREEDY_MAX_DIM = 10


def delta(state, name, field="value"):
    before, after = state["serve"]["before"], state["serve"]["after"]
    get = lambda s: (s.get(name) or {}).get(field, 0)  # noqa: E731
    return get(after) - get(before)


def daemon_side(state, metrics):
    hits = delta(state, "cache.hits")
    misses = delta(state, "cache.misses")
    metrics["analysis.memo_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["analysis.memo_misses"] = misses
    metrics["analysis.memo_evictions"] = delta(state, "cache.evictions")
    metrics["analysis.persist_appends"] = delta(state, "cache.persist_appends")
    audits = delta(state, "server.latency.audit_us", "count")
    audit_sum = delta(state, "server.latency.audit_us", "sum")
    job_sum = delta(state, "pool.job_us", "sum")
    metrics["analysis.pool_wait_us"] = (audit_sum - job_sum) / audits if audits else 0.0
    # Table-served requests: client-side mean minus the daemon's own mean.
    predicts = [
        r[1] for r in state["serve"]["rows"] if r[0].startswith('{"type":"predict","strategy"')
    ]
    served = delta(state, "server.latency.predict_us", "count")
    daemon_mean = delta(state, "server.latency.predict_us", "sum") / served if served else 0.0
    client_mean = statistics.fmean(predicts) / 1e3 if predicts else 0.0
    metrics["server.transport_us"] = client_mean - daemon_mean
    return audit_sum / audits if audits else 0.0


def telemetry_overhead(ctx, runner):
    """serve_rps of the hot-small stream with telemetry on against off."""
    spec = wl.WORKLOADS["hot-small"]["serve"]
    inputs = wl.serve_inputs("hot-small", ctx.seed)
    rps = {True: [], False: []}
    for i, telemetry in enumerate([True, False, True, False]):
        d = runner.Daemon(ctx, spec, f"telemetry-{i}", telemetry=telemetry)
        runner.run_load(ctx, d.port, [inputs["warmup"]], f"telemetry-warm-{i}")
        wall, rows = runner.run_load(ctx, d.port, inputs["streams"], f"telemetry-{i}")
        ctx.note(d.stop(), "telemetry overhead: shutdown")
        rps[telemetry].append(len(rows) / wall)
    on, off = statistics.median(rps[True]), statistics.median(rps[False])
    return (off / on - 1.0) * 100.0


def write_spec(ctx, state):
    spec = wl.WORKLOADS[ctx.workload]["serve"]
    inputs = state["serve_inputs"]
    lines = [
        f"max_dim {spec['max_dim']}",
        f"cache_cap {spec['cache_cap'] if spec['cache_cap'] is not None else 'none'}",
    ]
    if state.get("persisted"):
        lines.append(f"persist {state['persisted']}")
    warm = ctx.work / "trace-warmup.req"
    warm.write_text("".join(r + "\n" for r in inputs["warmup"]))
    lines.append(f"warmup {warm}")
    for i, stream in enumerate(inputs["streams"]):
        p = ctx.work / f"trace-stream.{i}.req"
        p.write_text("".join(r + "\n" for r in stream))
        lines.append(f"stream {p}")
    for c in state["check"]:
        lines.append("campaign " + " ".join(c["args"]))
    lines.append("shrink " + " ".join(state["shrink"]["args"]))
    lines.append("report " + " ".join(state["report"]["args"]))
    audit_dims = [
        int(r.split('"dim":')[1].rstrip("}"))
        for r in inputs["warmup"] + [r for s in inputs["streams"] for r in s]
        if r.startswith('{"type":"audit","strategy"')
    ]
    lines.append(f"greedy_dim {min(max(audit_dims), GREEDY_MAX_DIM)}")
    lines.append(f"kernel_dim {spec['max_dim']}")
    report_args = state["report"]["args"]
    fast_dim = int(report_args[report_args.index("--max-dim") + 1]) if "--max-dim" in report_args else 10
    lines.append(f"clean_fast_dim {fast_dim}")
    path = ctx.work / "trace.spec"
    path.write_text("\n".join(lines) + "\n")
    return path


def run(ctx, state, runner):
    """Per-layer metrics of the workload; `runner` is the run.py module."""
    metrics = {}
    daemon_audit_mean = daemon_side(state, metrics)
    metrics["telemetry.overhead_pct"] = telemetry_overhead(ctx, runner)

    spec = write_spec(ctx, state)
    spans = ctx.work.parent / f"{ctx.workload}-{ctx.seed}.spans.tsv"
    tracer = ctx.target / "release" / "perfbench-trace"
    res = subprocess.run(
        [str(tracer.resolve()), str(spec), str(spans)], capture_output=True, text=True
    )
    if res.returncode != 0:
        raise runner.Failure(f"tracer failed: {res.stderr.strip()}")

    shares, walls, aux = {}, {}, {}
    traced_digests, traced_columns = {}, {}
    for line in res.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value = rest.split()
            metrics[name] = float(value)
        elif kind == "share":
            phase, rest2 = rest.split(" ", 1)
            layer, seconds = rest2.rsplit(" ", 1)
            shares.setdefault(phase, {})[layer] = float(seconds)
        elif kind == "wall":
            phase, seconds = rest.split()
            walls[phase] = float(seconds)
        elif kind == "fidelity":
            what, bad, of = rest.split()
            ctx.note(int(bad) == 0, f"traced {what}: {bad} of {of} differ from the checker")
        elif kind == "columns":
            args, cols = rest.split(" = ")
            traced_columns[args] = [int(x) for x in cols.split()]
        elif kind == "digest":
            digest, request = rest.split(" ", 1)
            traced_digests[request] = digest
        elif kind == "aux":
            name, value = rest.split(" ", 1)
            aux[name] = value

    # Fidelity against the untraced run.
    daemon_digests = {}
    for request, _, digest, _ in state["serve"]["rows"]:
        daemon_digests.setdefault(request, digest)
    for request, digest in traced_digests.items():
        ctx.note(
            daemon_digests.get(request) == digest,
            f"traced reply to {request} differs from the daemon's",
        )
    for c in state["check"]:
        key = " ".join(c["args"])
        cols = c["columns"] or {}
        want = [cols.get(k) for k in ("schedules", "steps", "events", "violations")]
        ctx.note(traced_columns.get(key) == want, f"traced columns of {key}: {traced_columns.get(key)} vs {want}")
    ctx.note(
        aux.get("report_stdout_fnv") == state["report"]["stdout_fnv"],
        "traced report stdout differs from the CLI's",
    )

    audit_handle_us = float(aux["audit_handle_us"].split()[0])
    metrics["server.pool_hop_us"] = daemon_audit_mean - audit_handle_us

    print_shares(ctx, state, shares, walls, aux, metrics)
    missing = [m for m in PER_LAYER_UNITS if m not in metrics]
    if missing:
        raise runner.Failure(f"tracer did not report {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def print_shares(ctx, state, shares, walls, aux, metrics):
    untraced = {
        "serve": state["serve"]["wall_s"],
        "check": sum(min(c["walls"]) for c in state["check"]),
        "shrink": min(state["shrink"]["walls"]),
        "report": min(state["report"]["walls"]),
    }
    print(f"# {ctx.workload} seed {ctx.seed}: traced run")
    for phase in ("serve", "check", "shrink", "report"):
        layers = shares.get(phase, {})
        total = sum(layers.values())
        other = sum(v for k, v in layers.items() if k.startswith("other"))
        named = 1.0 - other / total if total else 0.0
        wall = walls.get(phase, 0.0)
        over = (wall / untraced[phase] - 1.0) * 100.0 if untraced[phase] else 0.0
        print(
            f"  {phase}: traced {wall:.3f}s vs untraced {untraced[phase]:.3f}s "
            f"(tracing overhead {over:+.1f}%), {named * 100:.1f}% of {total:.3f}s "
            "in named layers"
        )
        for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = secs / total if total else 0.0
            print(f"    {layer:<36} {secs:>9.4f}s {share * 100:6.2f}%")
        if phase in ("serve", "check"):
            ctx.note(named >= 0.9, f"{phase}: only {named * 100:.1f}% of traced time in named layers")
    words = aux["serve_requests"].split()
    n, table, hit, computed, evicted = (int(words[i]) for i in (0, 2, 4, 6, 8))
    print(
        f"  serve requests {n}: table {table / n:.4f}, memo/scenario hit {hit / n:.4f}, "
        f"computed {computed / n:.4f}, evicted {evicted} ({evicted / n:.4f} per request)"
    )
    print(f"  mean runnable-set size {metrics['sim.runnable_len']:.1f}")
    print(f"  shrink attempts {metrics['check.shrink_attempts']:.0f}")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<34} {metrics.get(name, float('nan')):>16.4f} {unit}")
