"""Seeded input streams for the three workloads.

Every input is a word in the simple reflections, made here from the seed
and the Cartan data (see ``weyl``), so two commits receive identical inputs
whatever their element representation or enumeration order.  Streams are
stratified rather than purely random: each round holds a fixed mix of
groups, kinds and lengths, so that the mixture behind a median or tail
latency is the same on every seed and only the elements change.
"""

from __future__ import annotations

import itertools
import random

from weyl import Group

# constant-cold: G2, B3 and A4 (|W| <= 120, checked by the oracle) once per
# round with any triple; the larger groups twice per round, once with an
# ordinary Chevalley triple and once with an equivariant (w, v, w) triple.
# Both of those reach the base case at w0, so every such op enumerates its
# group, and each group forms one tight latency cluster: the median falls
# among the C4/B4 ops and the tail among the A5/F4 ops on every seed.
ORACLE_GROUPS = ("G2", "B3", "A4")
BIG_GROUPS = ("D4", "C4", "B4", "A5", "F4")
COLD_REPEATS = 1  # per round, each re-asking an earlier triple (a disk-cache hit)
COLD_ROUND = len(ORACLE_GROUPS) + 2 * len(BIG_GROUPS) + COLD_REPEATS
COLD_ROUNDS = 4  # per run; puts the tail among the A5 ops, the median among C4/B4

# product-warm: a fixed pool of pairs, cycled.  The first pass fills the
# memo and the Bruhat table (cold products set the tail); later passes read
# them (the median).  A fixed pool keeps the cache tables, and so peak
# memory, independent of speed.  Each pair draws its own w and a short v, so
# a cold product's cost is mostly Bruhat comparisons of w against the group,
# which keeps the cold costs close together.  Two A5 slots per B4 slot put
# the median inside the A5 cluster.
WARM_SLOTS = (("A5", 4, 2), ("A5", 3, 2), ("B4", 4, 2))
WARM_ROUNDS = 16

# oracle-sweep: one row per op, a row being one w against a fresh seeded
# one-element vs, so rows seldom repeat and the oracle's caches keep growing
# as in the first pass of a full sweep.  A round is six rows: two A4 rows per
# B3 row, half of each group's rows with a v of length 3 and half with one of
# length 6.  The rows' w walk each group in a length-stratified order.
SWEEP_PATTERN = (("A4", 3), ("B3", 3), ("A4", 6), ("A4", 3), ("B3", 6), ("A4", 6))

def _rng(seed: int, *tag) -> random.Random:
    return random.Random(repr((seed,) + tag))


def _any_word(g: Group, word, rng: random.Random):
    """A seeded, usually non-canonical, reduced word of the same element."""
    return g.reduce(g.vec(word), rng)


def _small_triple(g: Group, rng: random.Random):
    """w, v <= u, with l(w) + l(v) >= l(u) as a rule: ordinary or equivariant."""
    u = g.climb((), rng.randint(2, g.nroots), rng)
    w = g.subword(rng, _any_word(g, u, rng), 0.7)
    v = g.subword(rng, _any_word(g, u, rng), 0.7)
    return w, v, u


def _chevalley_triple(g: Group, rng: random.Random):
    """(w, s_i, u) with u = w r_beta a cover and <omega_i, beta^vee> != 0.

    By Chevalley's formula the ordinary constant is that pairing, so it is
    nonzero and the engine must reach its base case.
    """
    while True:
        length = rng.randint(2, g.nroots)
        u = _any_word(g, g.climb((), length, rng), rng)
        p = rng.randrange(length)
        w = g.mul(u[:p] + u[p + 1:])
        if len(w) == length - 1:
            beta = g.coroot(u[p + 1:], u[p])
            i = rng.choice([k for k, c in enumerate(beta, 1) if c])
            return w, (i,), g.mul(u)


def _restriction_triple(g: Group, rng: random.Random):
    """(w, v, w) with v <= w, and a seeded non-canonical reduced word of w.

    ``c_{w,v}^w = S_v|_w``, which the check computes from that other word.
    """
    w = g.climb((), rng.randint(g.nroots - 4, g.nroots - 1), rng)
    check_word = _any_word(g, w, rng)
    return w, g.subword(rng, check_word, 0.3), w, check_word


def constant_cold(seed: int):
    """Endless stream of CLI constant queries, in seeded rounds.

    A fresh query carries an ``id``; a repeat carries ``repeat_of``, the id
    of the earlier fresh query with the same triple.
    """
    rng = _rng(seed, "constant-cold")
    groups = {label: Group(label) for label in ORACLE_GROUPS + BIG_GROUPS}
    slots = list(ORACLE_GROUPS) + [(label, kind) for label in BIG_GROUPS for kind in ("triple", "restrict")]
    fresh: list[dict] = []
    asked: dict[tuple, dict] = {}
    while True:
        order = rng.sample(slots, len(slots))
        for k in sorted(rng.sample(range(1, len(slots) + 1), COLD_REPEATS), reverse=True):
            order.insert(k, None)
        for slot in order:
            if slot is None:
                src = rng.choice(fresh)
                yield {**src, "id": None, "repeat_of": src["id"]}
                continue
            check_word = None
            if slot in ORACLE_GROUPS:
                label, check = slot, "oracle"
                w, v, u = _small_triple(groups[label], rng)
            elif slot[1] == "triple":
                (label, check), (w, v, u) = slot, _chevalley_triple(groups[slot[0]], rng)
            else:
                (label, check), (w, v, u, check_word) = slot, _restriction_triple(groups[slot[0]], rng)
            op = {"id": len(fresh), "repeat_of": None, "group": label, "w": w, "v": v, "u": u,
                  "check": check, "check_word": check_word}
            same = asked.get((label, w, v, u))
            if same is not None:  # drawn again by chance: a repeat too
                yield {**same, "id": None, "repeat_of": same["id"]}
                continue
            asked[label, w, v, u] = op
            fresh.append(op)
            yield op


def product_warm(seed: int) -> list[dict]:
    """The pool of (w, v) pairs with their check points x, in cycling order."""
    rng = _rng(seed, "product-warm")
    groups = {label: Group(label) for label in ("A5", "B4")}
    pool = []
    for _ in range(WARM_ROUNDS):
        for label, lw, lv in WARM_SLOTS:
            g = groups[label]
            w, v = g.climb((), lw, rng), g.climb((), lv, rng)
            # x >= w and x >= v, so S_w|_x S_v|_x is nonzero and the check bites
            top = g.demazure(w, v)
            x = g.climb(top, rng.randint(len(top), g.nroots), rng)
            pool.append({"group": label, "w": w, "v": v, "x": x})
    return pool


def _stratified(elements, rng: random.Random):
    """All elements, so that every prefix has about the group's length profile."""
    by_len: dict[int, list] = {}
    for w in elements:
        by_len.setdefault(len(w), []).append(w)
    keyed = []
    for ws in by_len.values():
        rng.shuffle(ws)
        off = rng.random()
        keyed += [((k + off) / len(ws), w) for k, w in enumerate(ws)]
    keyed.sort()
    return [w for _, w in keyed]


def oracle_sweep(seed: int):
    """Endless row stream: SWEEP_PATTERN over the groups, each cycling its w."""
    rng = _rng(seed, "oracle-sweep")
    groups = {label: Group(label) for label, _ in SWEEP_PATTERN}
    elements = {label: g.elements() for label, g in groups.items()}
    by_len = {(label, n): [w for w in elements[label] if len(w) == n] for label, n in SWEEP_PATTERN}
    cursors = {label: itertools.cycle(_stratified(els, rng)) for label, els in elements.items()}
    for label, n in itertools.cycle(SWEEP_PATTERN):
        yield {"group": label, "w": next(cursors[label]), "vs": [rng.choice(by_len[label, n])]}
