"""Seeded query batches for the three benchmark workloads.

Each workload is one batch of ``numsem`` CLI queries, built only from the
seed; the program under test receives nothing but the argv lists.  Query
cost grows exponentially in the input size, so a batch drawn uniformly
would have a total cost dominated by whichever few large queries the seed
happened to pick.  To keep the batch cost steady from seed to seed, sizes
are drawn by stratified sampling: one draw from the middle of each
equal-width stratum of a fixed ladder, or of each equal-size stratum of a
cost-sorted candidate list.  Flags are assigned by position along the
ladders, and fixed anchor queries hold the latency percentiles (see
ANCHORS).  The seed chooses the remaining values and the order of the batch.

Sizes stay clear of the documented-but-slow inputs listed in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("irreducible-tree", "frobenius-classes", "avoid-join")
DEFAULT_SEED = 1
BATCH_SIZE = 120
# Share of each stratum the seed draws from, around its middle.  Query cost
# varies steeply with size, so a narrow window keeps a batch's cost, and the
# queries that hold its latency percentiles, nearly the same from seed to seed.
DRAW_WIDTH = 0.15


@dataclass(frozen=True)
class Query:
    """One CLI query and the inputs the output checker needs."""

    command: str  # irreducibles | semigroups | maximal | solve
    required: tuple[int, ...]
    frobenius: int | None
    forbidden: tuple[int, ...]
    fmt: str  # text | json
    parallel: int
    group: str  # label for the per-group breakdown of the traced run

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        if self.required:
            argv += ["-A", ",".join(map(str, self.required))]
        if self.frobenius is not None:
            argv += ["-F", str(self.frobenius)]
        if self.forbidden:
            argv += ["-B", ",".join(map(str, self.forbidden))]
        if self.fmt != "text":
            argv += ["--format", self.fmt]
        if self.parallel != 1:
            argv += ["--parallel", str(self.parallel)]
        return argv


def generated_mask(required, bound: int) -> int:
    """Bitmap on [0, bound] of the monoid generated by ``required``."""
    mask = 1
    limit = (1 << (bound + 1)) - 1
    for g in sorted(set(required)):
        if g <= 0 or g > bound:
            continue
        while True:
            grown = (mask | mask << g) & limit
            if grown == mask:
                break
            mask = grown
    return mask


def in_monoid(value: int, required) -> bool:
    return bool(generated_mask(required, value) >> value & 1)


def _position(rng: random.Random | None, i: int) -> float:
    """A seeded point in stratum i, within the middle DRAW_WIDTH of it; its middle
    when rng is None."""
    return i + 0.5 + (DRAW_WIDTH * (rng.random() - 0.5) if rng else 0.0)


def ladder(rng: random.Random | None, n: int, lo: int, hi: int, power: float = 1.0) -> list[int]:
    """n stratified draws from [lo, hi]; power > 1 thins out the top of the range.

    A query whose cost depends on a single size, such as F when A is empty,
    passes rng=None: the ladder is then the same for every seed, because a
    neighbouring size can cost half as much again.
    """
    return [lo + round((hi - lo) * (_position(rng, i) / n) ** power) for i in range(n)]


def _feasible_f(required, frobenius: int) -> int:
    """The largest F' <= frobenius outside the monoid generated by ``required``."""
    while in_monoid(frobenius, required):
        frobenius -= 1
    return frobenius


def _irreducible_tree(rng: random.Random) -> list[Query]:
    queries = []
    # A = {}: cost is a fixed function of F, doubling about every 4 steps
    # (16 ms at F=44 on the seed commit), so the slowest tenth of the batch
    # comes from the top of this ladder.
    for f in ladder(None, 30, 16, 47):
        queries.append(Query("irreducibles", (), f, (), "text", 1, "A=0"))
    # A = {a}: one query per (a, F) cell of a fixed ladder, since the cost
    # of F and F + 1 can differ twofold.  Small a lets F reach 95 while
    # every query stays below the slowest tenth.
    for a in range(7, 10):
        for f in ladder(None, 8, 40, 95):
            queries.append(
                Query("irreducibles", (a,), _feasible_f((a,), f), (), "text", 1, "A=1"))
    # A = {a, b}, again one query per (a, F stratum) cell, with b stepping
    # through (a, 2a) along the F ladder.
    for a in range(9, 14):
        for j, f in enumerate(ladder(rng, 5, 50, 95)):
            b = a + 1 + 2 * j % (a - 1)
            queries.append(
                Query("irreducibles", (a, b), _feasible_f((a, b), f), (), "text", 1, "A=2"))
    # Infeasible: F lies in <A>, so the run ends with exit 2 and a witness.
    for _ in range(11):
        a = rng.randint(7, 17)
        if rng.random() < 0.5:
            required, f = (a,), a * rng.randint(2, 120 // a)
        else:
            b = rng.randint(a + 1, 2 * a - 1)
            required, f = (a, b), a + b + a * rng.randint(0, 2)
        queries.append(Query("irreducibles", required, f, (), "text", 1, "infeasible"))
    return _assign_flags(queries, parallel_every=3)


# F values at which the largest class of ``semigroups -A a -F F`` has exactly
# d removable elements, read off the seed commit's class structure.  Class
# expansion scans 2^d subsets, so d sets the cost of a query.
# For a = 4 and 5 the query time at the seed commit depends on d alone
# (about 55 ms at d=14, doubling per step); for larger a it also varies with F.
F_FOR_MAX_REMOVABLE = {
    4: {10: (39, 41, 42), 11: (43, 45, 46), 12: (47, 49, 50), 13: (51, 53, 54),
        14: (55, 57, 58), 15: (59, 61, 62), 16: (63, 65, 66), 17: (67, 69)},
    5: {10: (33, 34, 36), 11: (37, 38), 12: (39, 41, 42), 13: (43, 44, 46),
        14: (47, 48), 15: (49, 51, 52), 16: (53, 54, 56), 17: (57, 58)},
}
# Queries per largest-class size d in the A = {a} half: thinned as 2^d grows.
QUERIES_PER_MAX_REMOVABLE = {10: 24, 11: 20, 12: 8, 13: 2}


def _frobenius_classes(rng: random.Random) -> list[Query]:
    queries = []
    # A = {}: trace yield is high, so member construction and sorting dominate.
    for f in ladder(None, 30, 8, 21, power=2.5):
        queries.append(Query("semigroups", (), f, (), "text", 1, "A=0"))
    # A = {a}: large removable sets with a low trace yield, so the subset scan dominates.
    required = sorted(F_FOR_MAX_REMOVABLE)
    turn = 0
    for d, count in QUERIES_PER_MAX_REMOVABLE.items():
        for _ in range(count):
            a = required[turn % len(required)]
            turn += 1
            f = rng.choice(F_FOR_MAX_REMOVABLE[a][d])
            queries.append(Query("semigroups", (a,), f, (), "text", 1, "A=1"))
    for _ in range(6):
        a = rng.randint(4, 7)
        queries.append(
            Query("semigroups", (a,), a * rng.randint(3, 56 // a), (), "text", 1, "infeasible"))
    return _assign_flags(queries, parallel_every=0)


with open(Path(__file__).with_name("avoid_join_pools.json")) as _fh:
    POOLS = json.load(_fh)


# Share of each cost-ordered pool the workload draws from, cheapest first.
# Cost rises steeply at the top of a pool (pairs: 57 ms at 0.8, 110 ms at 0.9
# and 300 ms at the end), and a batch must stay cheap enough for many passes.
POOL_SHARE = 0.65


def stratified_pick(rng: random.Random, items: list, k: int) -> list:
    """One random item from each of k equal-size strata of the cheapest POOL_SHARE
    of a cost-ordered list."""
    items = items[:round(POOL_SHARE * len(items))]
    return [items[int(_position(rng, i) * len(items) / k)] for i in range(k)]


def _avoid_join(rng: random.Random) -> list[Query]:
    queries = []
    for forbidden in stratified_pick(rng, POOLS["forbidden_pairs"], 24):
        queries.append(Query("maximal", (), None, tuple(forbidden), "text", 1, "pair"))
    for forbidden in stratified_pick(rng, POOLS["forbidden_triples"], 12):
        queries.append(Query("maximal", (), None, tuple(forbidden), "text", 1, "triple"))
    for required, forbidden in stratified_pick(rng, POOLS["required_single"], 24):
        queries.append(Query("maximal", tuple(required), None, tuple(forbidden), "text", 1, "A=1"))
    # |B| = 1: the join has nothing to do.
    for b in ladder(None, 6, 16, 30):
        queries.append(Query("maximal", (), None, (b,), "text", 1, "single"))
    for a in range(6, 9):
        # A fixed ladder: the cost of one b varies fiftyfold between neighbours.
        for b in ladder(None, 5, 30, 52):
            queries.append(Query("maximal", (a,), None, (_feasible_f((a,), b),), "text", 1, "single"))
    for _ in range(9):
        a = rng.randint(6, 9)
        forbidden = tuple(sorted({a * rng.randint(4, 60 // a), rng.randint(30, 60)}))
        queries.append(Query("maximal", (a,), None, forbidden, "text", 1, "infeasible"))
    # Every other query along each cost ladder asks for the solution sets.
    return _assign_flags([
        replace(q, command="solve") if i % 2 else q for i, q in enumerate(queries)
    ], parallel_every=0)


def _assign_flags(queries: list[Query], parallel_every: int) -> list[Query]:
    """Flag every 5th query along the ladders for JSON, and every ``parallel_every``-th
    for ``--parallel 2``.

    Assigning flags by ladder position rather than by seed keeps the
    flagged share of each size, and so the batch's cost and peak memory,
    the same for every seed.
    """
    out = []
    for i, q in enumerate(queries):
        fmt = "json" if i % 5 == 4 else "text"
        parallel = 2 if parallel_every and i % parallel_every == parallel_every - 1 else 1
        out.append(replace(q, fmt=fmt, parallel=parallel))
    return out


# Anchors: copies of one query, the same for every seed, whose cost lies
# near the median or the 90th percentile of the batch.  A percentile that
# falls inside a block of identical queries does not depend on which other
# queries the seed drew: without them, a seed that moved a few queries
# across the median changed query_p50_ms by 10-15%.  They carry no flags.
ANCHORS = {
    "irreducible-tree": [(Query("irreducibles", (), 29, (), "text", 1, "A=0"), 16),
                         (Query("irreducibles", (), 45, (), "text", 1, "A=0"), 14)],
    "frobenius-classes": [(Query("semigroups", (5,), 36, (), "text", 1, "A=1"), 16),
                          (Query("semigroups", (5,), 42, (), "text", 1, "A=1"), 14)],
    "avoid-join": [(Query("solve", (), None, (23,), "text", 1, "single"), 16),
                   (Query("maximal", (), None, (29,), "text", 1, "single"), 14)],
}


_BUILDERS = {
    "irreducible-tree": _irreducible_tree,
    "frobenius-classes": _frobenius_classes,
    "avoid-join": _avoid_join,
}


def build(workload: str, seed: int) -> list[Query]:
    """The query batch of a workload; the same seed always gives the same batch."""
    rng = random.Random(f"{workload}/{seed}")
    batch = _BUILDERS[workload](rng)
    for query, copies in ANCHORS[workload]:
        batch += [query] * copies
    rng.shuffle(batch)
    assert len(batch) == BATCH_SIZE, (workload, len(batch))
    return batch
