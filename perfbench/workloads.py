"""Seeded inputs for the hypersweep end-to-end benchmark.

Everything a run sends to the program is built here from the workload name
and the run's seed: the request streams the daemon serves, the `check`
campaign arguments, the shrink drills and the `report` invocations. The
same (workload, seed) pair always yields byte-identical inputs; the
program never sees the seed itself.

Campaign seeds and the serve phase's `holes:<seed>` instance seeds are
drawn from small pools whose expected outputs are recorded in
`expected.json` (see `run.py --record`), so every run can check its outputs
whatever its seed.
"""

import random

WIRE_STRATEGIES = [
    "clean",
    "clean-through-root",
    "visibility",
    "cloning",
    "cloning-smallest-first",
    "synchronous",
    "flood",
    "frontier",
]

# Pools the seed draws from. Every member has recorded outputs.
CAMPAIGN_SEEDS = list(range(1, 11))
HOLE_SEEDS = list(range(1, 9))

# Inputs whose cost depends strongly on their seed stay fixed, so every
# run does the same work: the grid campaigns' `holes:<seed>` instance (its
# node count varies with the seed) and the shrink drill's campaign seed
# (the shrink's search path varies with it).
CHECK_HOLES = 3
SHRINK_SEED = 1

# Rotating adversary families: schedule counts stay multiples of this so
# every family gets the same share of each campaign.
ADVERSARY_FAMILIES = 5


def rng_for(workload, seed, stream):
    """An independent generator per (workload, seed, purpose)."""
    return random.Random(f"{workload}/{seed}/{stream}")


def plan(strategy, dim):
    return f'{{"type":"plan","strategy":"{strategy}","dim":{dim}}}'


def predict(strategy, dim):
    return f'{{"type":"predict","strategy":"{strategy}","dim":{dim}}}'


def audit(strategy, dim):
    return f'{{"type":"audit","strategy":"{strategy}","dim":{dim}}}'


def scenario(tag, name, side, instance=None):
    inst = "" if instance is None else f',"instance":"{instance}"'
    return f'{{"type":"{tag}","scenario":"{name}","dim":{side}{inst}}}'


STATUS = '{"type":"status"}'


def grid_instances(holes):
    return ["full"] + [f"holes:{h}" for h in holes] + ["corridor"]


# Each workload: how the daemon runs, what its stream draws from, and the
# size of one sample of every phase. A run repeats rounds of one sample per
# phase until its time is up (see run.py). On a shared host the best of many
# short samples repeats far better than the best of a few long ones, so each
# sample is sized from the measured unit costs (README.md) to take about
# 0.02-0.35 s on the 2-core development VM.
WORKLOADS = {
    "hot-small": {
        "serve": {
            "max_dim": 8,
            "cache_cap": None,
            "warmup": "universe",
            "requests": 3000,
            "status_share": 0.02,
        },
        "check": [
            ("clean", 6, None, 75),
            ("visibility", 6, None, 250),
            ("cloning", 6, None, 750),
            ("synchronous", 6, None, 3000),
            ("grid", 6, "holes", 1500),
            ("dynamic", 6, None, 300),
        ],
        "shrink": {"dim": 7},
        "report": {"args": ["report", "all"]},
    },
    "cold-large": {
        "serve": {
            "max_dim": 16,
            "cache_cap": 4096,
            "warmup": "table",
            "requests": 3000,
            "status_share": 0.02,
        },
        "check": [
            ("clean", 9, None, 5),
            ("visibility", 9, None, 10),
            ("cloning", 11, None, 5),
            ("synchronous", 12, None, 20),
            ("grid", 16, "full", 100),
            ("dynamic", 10, None, 75),
        ],
        "shrink": {"dim": 8},
        "report": {"args": ["report", "t2", "t3", "--full", "--max-dim", "16"]},
    },
    "churn": {
        "serve": {
            "max_dim": 13,
            "cache_cap": 16,
            "warmup": "persisted",
            "requests": 1000,
            "status_share": 0.02,
            "audit_cycles": 4,
            "scenario_requests": 200,
        },
        "check": [
            ("clean", 8, None, 10),
            ("visibility", 8, None, 20),
            ("cloning", 8, None, 100),
            ("synchronous", 8, None, 750),
            ("grid", 10, "holes", 300),
            ("dynamic", 8, None, 150),
        ],
        "shrink": {"dim": 8},
        "report": {"args": ["report", "all", "--cache-cap", "16"]},
    },
}

# Cold audits, summed over the 8 strategies, cost about 0.4 s at d = 9 and
# 2 s at d = 10 (the greedy evader at n = 512 and 1024), 0.2 s at d = 15
# and 0.4 s at d = 16: each longer than a whole round. The cold-large miss
# set keeps d <= 8 (greedy) and d = 11..14 (lazy), both sides of the switch.
COLD_AUDIT_DIMS = list(range(1, 9)) + list(range(11, 15))
# Churn's audit keyspace: lazy-evader recomputes of about 1-6 ms each.
CHURN_AUDIT_DIMS = range(11, 14)


def hot_small_keys(holes):
    keys = []
    for s in WIRE_STRATEGIES:
        for d in range(1, 9):
            keys += [plan(s, d), predict(s, d), audit(s, d)]
    for side in range(4, 9):
        for inst in grid_instances(holes):
            keys += [scenario("plan", "grid", side, inst), scenario("audit", "grid", side, inst)]
        keys += [scenario("plan", "dynamic", side), scenario("audit", "dynamic", side)]
    return keys


def cold_large_keys(holes):
    """(audit keys, scenario keys, table keys) of the cold-large universe."""
    audits = [audit(s, d) for s in WIRE_STRATEGIES for d in COLD_AUDIT_DIMS]
    scen = []
    for side in range(8, 17):
        for inst in grid_instances(holes):
            scen += [scenario("plan", "grid", side, inst), scenario("audit", "grid", side, inst)]
    for side in range(6, 13):
        scen += [scenario("plan", "dynamic", side), scenario("audit", "dynamic", side)]
    table = [f(s, d) for s in WIRE_STRATEGIES for d in range(1, 17) for f in (plan, predict)]
    return audits, scen, table


def churn_keys(holes):
    """(audit keys, scenario keys, table keys) of the churn universe."""
    audits = [audit(s, d) for s in WIRE_STRATEGIES for d in CHURN_AUDIT_DIMS]
    scen = []
    for side in range(10, 14):
        for inst in grid_instances(holes):
            scen.append(scenario("audit", "grid", side, inst))
        scen.append(scenario("plan", "dynamic", side - 2))
    table = [f(s, d) for s in WIRE_STRATEGIES for d in range(1, 14) for f in (plan, predict)]
    return audits, scen, table


def record_universe():
    """Every request line any seed of any workload can send (status aside)."""
    keys = set()
    keys.update(hot_small_keys(HOLE_SEEDS))
    a, s, t = cold_large_keys(HOLE_SEEDS)
    keys.update(a + s + t)
    a, s, t = churn_keys(HOLE_SEEDS)
    keys.update(a + s + t)
    return sorted(keys)


def serve_inputs(workload, seed):
    """The serve phase's inputs: {"holes": [..], "warmup": [..], "streams": [[..]]}.

    The one stream is the closed-loop request sequence of the run's single
    connection; every round sends it again.
    """
    spec = WORKLOADS[workload]["serve"]
    rng = rng_for(workload, seed, "serve")
    holes = sorted(rng.sample(HOLE_SEEDS, 2))
    n = spec["requests"]
    status_share = spec["status_share"]
    if workload == "hot-small":
        keys = hot_small_keys(holes)
        # The warm-up touches every key, so the timed phase is all hits.
        warmup = list(keys)
        rng.shuffle(warmup)
        timed = [STATUS if rng.random() < status_share else rng.choice(keys) for _ in range(n)]
    elif workload == "cold-large":
        audits, scen, table = cold_large_keys(holes)
        # The warm-up only touches the answer table: the memo stays empty.
        warmup = [rng.choice(table) for _ in range(400)]
        # Every computed key appears once at a seeded position, so the
        # miss set is the whole universe whatever the seed or interleaving.
        timed = audits + scen
        fill = n - len(timed)
        for _ in range(fill):
            r = rng.random()
            if r < status_share:
                timed.append(STATUS)
            elif r < 0.55:
                timed.append(rng.choice(audits))
            elif r < 0.80:
                timed.append(rng.choice(table))
            else:
                timed.append(rng.choice(scen))
        rng.shuffle(timed)
    elif workload == "churn":
        audits, scen, table = churn_keys(holes)
        # The memo sees only the audits, and sees them as one seeded order
        # of the whole audit keyspace repeated. Its LRU shards then miss on
        # the same keys every cycle (a shard whose keys outnumber its
        # capacity misses on each of them; one whose keys fit hits), so the
        # recompute work is the same whatever the order. The seed draws the
        # order, the positions of the audits among the other requests, and
        # those requests; the counts of each kind are fixed.
        order = list(audits)
        rng.shuffle(order)
        n_status = round(n * status_share)
        n_audit = spec["audit_cycles"] * len(order)
        n_scen = spec["scenario_requests"]
        kinds = ["s"] * n_status + ["a"] * n_audit + ["c"] * n_scen
        kinds += ["t"] * (n - len(kinds))
        rng.shuffle(kinds)
        warmup = []
        timed = []
        cycle = iter(order * spec["audit_cycles"])
        for kind in kinds:
            if kind == "s":
                timed.append(STATUS)
            elif kind == "a":
                timed.append(next(cycle))
            elif kind == "c":
                timed.append(rng.choice(scen))
            else:
                timed.append(rng.choice(table))
    else:
        raise KeyError(workload)
    return {"holes": holes, "warmup": warmup, "streams": [timed]}


def persisted_life_inputs():
    """The untimed earlier life that writes churn's persisted cache file."""
    audits, _, _ = churn_keys([])
    return audits


def campaign_seed(workload, seed, phase):
    rng = rng_for(workload, seed, f"campaign/{phase}")
    return rng.choice(CAMPAIGN_SEEDS)


def campaign(workload, index, cseed):
    """One check-phase campaign with campaign seed `cseed`."""
    name, dim, instance, schedules = WORKLOADS[workload]["check"][index]
    assert schedules % ADVERSARY_FAMILIES == 0, (workload, name)
    if name in ("grid", "dynamic"):
        args = ["check", "--scenario", name, "--dim", str(dim)]
        if instance == "holes":
            args += ["--instance", f"holes:{CHECK_HOLES}"]
        elif instance is not None:
            args += ["--instance", instance]
    else:
        args = ["check", "--strategy", name, "--dim", str(dim)]
    args += ["--campaign-size", str(schedules), "--seed", str(cseed), "--jobs", "1"]
    return {"metric": f"check_{name}_ms", "args": args, "schedules": schedules}


def check_inputs_for(workload, cseed):
    return [campaign(workload, i, cseed) for i in range(len(WORKLOADS[workload]["check"]))]


def check_inputs(workload, seed):
    """CLI argument lists of the check phase, one per campaign."""
    return [
        campaign(workload, i, campaign_seed(workload, seed, c[0]))
        for i, c in enumerate(WORKLOADS[workload]["check"])
    ]


def shrink_args(workload, cseed):
    dim = WORKLOADS[workload]["shrink"]["dim"]
    return [
        "check", "--strategy", "mutant-eager-guard", "--dim", str(dim),
        "--campaign-size", str(ADVERSARY_FAMILIES), "--seed", str(cseed), "--jobs", "1",
    ]


def shrink_inputs(workload, seed):
    return {"args": shrink_args(workload, SHRINK_SEED)}


def report_inputs(workload):
    return {"args": WORKLOADS[workload]["report"]["args"] + ["--jobs", "1"]}


def all_inputs(workload, seed):
    """Everything the program receives in one run, for the determinism test."""
    return {
        "serve": serve_inputs(workload, seed),
        "check": check_inputs(workload, seed),
        "shrink": shrink_inputs(workload, seed),
        "report": report_inputs(workload),
    }
