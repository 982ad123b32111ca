"""Request sets for the oscmean benchmark, generated from a seed.

A ``mean-*`` run serves a fixed set of blocks whose number depends only on
``--seconds``.  Every block holds the same mix of request classes
(dimension, precision, mean index, spacing), shuffled, with fresh random
values, so the mix does not depend on the seed.  The set is fixed before the
run starts, so the requests judged, and so ``attempted`` and ``failed``,
are the same in every run of a seed however fast the host is.
``verify-batch`` is one fixed batch of commands.

A request is the argv passed to ``oscmean.cli.main`` plus what the judge
needs to know about it (its literals and mean index).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from decimal import Decimal, localcontext
from typing import Dict, List

WORKLOADS = ("mean-spread", "mean-clustered", "verify-batch")

SPREAD_DIMENSIONS = (2, 3, 5, 7, 10)
SPREAD_PRECISIONS = (53, 113, 256)
SPREAD_RANGE = (0.2, 50.0)
SPREAD_MIN_LN_GAP = 0.05
#: Per (n, precision) cell: three k = 1 requests and one k >= 2 request.
SPREAD_K1_PER_CELL = 3
#: k >= 2 requests per block that get an input <= 1.
SPREAD_LOW_SLICE = 2

#: n -> requests per (precision, decade) cell.  n = 5 gets three times the
#: weight so that the median latency falls well inside one class rather
#: than near the edge between the n = 3 and n = 5 classes, where it would
#: jump with the mix and with the host's speed.
CLUSTER_DIMENSIONS = {3: 1, 5: 3, 7: 1}
CLUSTER_PRECISIONS = (53, 113)
CLUSTER_CENTRE = (0.3, 30.0)
#: One request per decade of relative spacing in [1e-10, 1e-2].
CLUSTER_DECADES = tuple(range(-10, -2))
CLUSTER_DIGITS = 20

#: Wall seconds one block takes on the host the benchmark was sized on; a
#: run's set holds ``--seconds`` worth of blocks at that speed.
BLOCK_WALL_S = {"mean-spread": 2.0, "mean-clustered": 1.1}
#: A traced run sends every request twice, once with spans, so its set is
#: this share of the blocks (the first ones) of an untraced run's set.
TRACED_SHARE = 0.5
#: The first requests of every mean-* run; their output bytes are hashed.
HASHED_REQUESTS = 24


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _mean_request(literals: List[str], k: int, bits: int, kind: str) -> Dict:
    argv = ["mean", "--values", ",".join(literals), "--json", "--precision", str(bits)]
    if k != 1:
        argv += ["--k", str(k)]
    return {"argv": argv, "literals": literals, "k": k, "kind": kind}


def _log_uniform_with_gap(rng: random.Random, n: int, lo: float, hi: float,
                          gap: float) -> List[float]:
    """n sorted log-uniform draws on [lo, hi] with adjacent ln-gaps >= gap."""
    span = math.log(hi / lo) - (n - 1) * gap
    base = sorted(rng.uniform(0.0, span) for _ in range(n))
    return [lo * math.exp(u + i * gap) for i, u in enumerate(base)]


def _spread_literals(rng: random.Random, n: int, low_slice: bool,
                     above_one: bool) -> List[str]:
    lo, hi = SPREAD_RANGE
    while True:
        draw = _log_uniform_with_gap(rng, n, 1.0 if above_one else lo, hi,
                                     SPREAD_MIN_LN_GAP)
        literals = [format(x, ".15g") for x in draw]
        exact = sorted(Decimal(s) for s in literals)
        if len(set(exact)) != n:
            continue
        if above_one and exact[0] <= 1:
            continue
        if low_slice and exact[0] > 1:
            continue
        rng.shuffle(literals)
        return literals


def spread_block(seed: int, block: int) -> List[Dict]:
    """60 requests: per (n, precision), three k = 1 and one k in 2..n."""
    rng = _rng("mean-spread", seed, block)
    cells = [(n, bits) for n in SPREAD_DIMENSIONS for bits in SPREAD_PRECISIONS]
    low = set(rng.sample(range(len(cells)), SPREAD_LOW_SLICE))
    out = []
    for index, (n, bits) in enumerate(cells):
        for _ in range(SPREAD_K1_PER_CELL):
            out.append(_mean_request(_spread_literals(rng, n, False, False), 1, bits, "k1"))
        k = rng.randint(2, n)
        if index in low:
            literals = _spread_literals(rng, n, True, False)
            out.append(_mean_request(literals, k, bits, "k2-low"))
        else:
            literals = _spread_literals(rng, n, False, True)
            out.append(_mean_request(literals, k, bits, "k2"))
    rng.shuffle(out)
    return out


def _cluster_literals(rng: random.Random, n: int, decade: int) -> List[str]:
    with localcontext() as ctx:
        ctx.prec = 40
        centre = Decimal(math.exp(rng.uniform(*map(math.log, CLUSTER_CENTRE))))
        spacing = Decimal(10.0 ** (decade + rng.random()))
        value = centre
        values = [value]
        for _ in range(n - 1):
            value = value * (1 + spacing * Decimal(0.5 + rng.random()))
            values.append(value)
    return [format(v, f".{CLUSTER_DIGITS}g") for v in values]


def _collapse_literals(rng: random.Random, n: int) -> List[str]:
    """Clustered literals plus one that differs from its neighbour only in
    the 20th significant digit, so the two are one double at 53 bits."""
    literals = _cluster_literals(rng, n - 1, rng.choice(CLUSTER_DECADES))
    twin = Decimal(literals[-1])
    ulp = Decimal(1).scaleb(twin.adjusted() - CLUSTER_DIGITS + 1)
    literals.append(format(twin + ulp, f".{CLUSTER_DIGITS}g"))
    return literals


def clustered_block(seed: int, block: int) -> List[Dict]:
    """82 k = 1 requests: per (n, precision), one to three per spacing
    decade, plus one collapsing request at each precision."""
    rng = _rng("mean-clustered", seed, block)
    out = []
    for n, weight in CLUSTER_DIMENSIONS.items():
        for bits in CLUSTER_PRECISIONS:
            for decade in CLUSTER_DECADES:
                for _ in range(weight):
                    literals = _cluster_literals(rng, n, decade)
                    rng.shuffle(literals)
                    out.append(_mean_request(literals, 1, bits, f"gap1e{decade}"))
    for bits in CLUSTER_PRECISIONS:
        literals = _collapse_literals(rng, rng.choice(list(CLUSTER_DIMENSIONS)))
        rng.shuffle(literals)
        out.append(_mean_request(literals, 1, bits, "collapse"))
    rng.shuffle(out)
    return out


def verify_batch(seed: int) -> List[Dict]:
    """The verification user's batch: one verify run and two conjecture runs."""
    s = str(seed)
    return [
        {"argv": ["verify", "--max-n", "7", "--precision", "113", "--seed", s, "--json"]},
        {"argv": ["conjecture", "--n", "3", "--seed", s, "--json"]},
        {"argv": ["conjecture", "--n", "5", "--seed", s, "--json"]},
    ]


BLOCKS = {"mean-spread": spread_block, "mean-clustered": clustered_block}


def request_set(workload: str, seed: int, seconds: float,
                traced: bool = False) -> List[Dict]:
    """The requests of a ``mean-*`` run, block after block."""
    share = TRACED_SHARE if traced else 1.0
    blocks = max(1, int(seconds * share / BLOCK_WALL_S[workload]))
    return [r for b in range(blocks) for r in BLOCKS[workload](seed, b)]


def block_size(workload: str) -> int:
    return len(BLOCKS[workload](0, 0))


def setup_requests(workload: str, seed: int) -> List[Dict]:
    """One k = 1 request per distinct n of the mix, drawn apart from the set.

    Collapsing requests are skipped: they are refused before any hyperplane
    is built, so they would not pay the cold cost being measured.
    """
    if workload not in BLOCKS:
        return []
    seen = {}
    for request in BLOCKS[workload](seed, -1):
        if request["k"] == 1 and request["kind"] != "collapse":
            seen.setdefault(len(request["literals"]), request)
    return [seen[n] for n in sorted(seen)]


def fingerprint(workload: str, seed: int, seconds: float) -> str:
    """sha256 of the generated inputs of a run."""
    if workload in BLOCKS:
        requests = [r["argv"] for r in request_set(workload, seed, seconds)]
    else:
        requests = [r["argv"] for r in verify_batch(seed)]
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()
