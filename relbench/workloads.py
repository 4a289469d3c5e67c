"""The benchmark's four workloads: inputs, query lists and verdict checks.

A workload is built once per process from the seed.  Its queries are
called in a fixed order on every pass.  They reach relcore through module
attributes at call time, so the tracer's wrappers see them.

`check` compares the answers of the first pass with closed forms or with a
second computation.  A value recorded from the seed program is used only
where neither exists, and is marked as such.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from relcore import definable as df
from relcore import finstruct as fs
from relcore import gallery
from relcore.atoms import DLO, make_sample

import oracles

RANDOM_CORES = 240
ISO_QUERIES = 1000

# growth_up_to_reversal(S2, n) for n = 1..7.  No closed form is used for
# it: these values are recorded from the seed program, and betweenness
# growth must agree with them as a second computation.
SEED_REVERSAL = (1, 1, 2, 2, 4, 5, 9)

# compute_core of the pair-cover total sample on 3 atoms keeps all 12
# elements; recorded from the seed program.
SEED_PAIR_COVER_3_CORE = 12


@dataclass
class Workload:
    queries: list[tuple[str, Callable[[], object]]]
    digest: str
    check: Callable[[dict], list[str]]
    # Percentile reported as query_tail_ms: the highest of 50, 75, 90, 99
    # with at least 10 of a run's latencies beyond it at the seed.
    tail: float


def _digest(raw) -> str:
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


def _random_structures(kind: str, seed: int, count: int):
    """`count` structures (size, [(name, arity, tuples)]) of at most 8
    elements and at most 3 relations of arity <= 3, and a relabelled copy of
    each.

    Sizes, arities and densities follow a fixed design; the seed draws only
    the tuples.  Query times depend mostly on the design, so this keeps the
    medians of different seeds close without fixing the inputs.
    """
    design = random.Random(f"{kind}:design")
    rng = random.Random(f"{kind}:{seed}")
    out = []
    for _ in range(count):
        size = design.randint(1, 8)
        rels = []
        for i in range(design.randint(1, 3)):
            arity = design.randint(1, 3)
            density = design.choice((0.08, 0.15, 0.3)) if arity == 3 else design.choice((0.2, 0.35, 0.5))
            tuples = tuple(t for t in itertools.product(range(size), repeat=arity) if rng.random() < density)
            rels.append((f"R{i}", arity, tuples))
        out.append((size, rels))
    return out, [_relabelled(raw, rng) for raw in out]


def _relabelled(raw, rng: random.Random):
    size, rels = raw
    perm = list(range(size))
    rng.shuffle(perm)
    return size, [(name, arity, tuple(tuple(perm[x] for x in t) for t in ts)) for name, arity, ts in rels]


def _finite(raw) -> fs.FinStructure:
    size, rels = raw
    sig = fs.Signature(tuple((name, arity) for name, arity, _ in rels))
    return fs.FinStructure(sig, size, {name: frozenset(ts) for name, _, ts in rels})


def _problems(answers: dict, checks: dict[str, Callable]) -> list[str]:
    out = []
    for name, check in checks.items():
        if name in answers:
            try:
                out.extend(f"{name}: {p}" for p in check(answers[name]))
            except Exception as exc:  # a check that cannot run is a failed check
                out.append(f"{name}: check raised {type(exc).__name__}: {exc}")
    return out


def _expect(condition: bool, message: str) -> list[str]:
    return [] if condition else [message]


def _orders_and_classes(D, d: int):
    orders = df.enumerate_invariant_orders(D)
    return orders, [df.classify_signed_lex(o, d) for o in orders]


def _check_orders(ans, d: int) -> list[str]:
    """2^d * d! orders, classified one to one onto the signed lexicographic ones."""
    orders, classes = ans
    every = {
        (sigma, dirs)
        for sigma in itertools.permutations(range(d))
        for dirs in itertools.product(("asc", "desc"), repeat=d)
    }
    return _expect(len(set(orders)) == len(orders) == len(every), f"{len(orders)} orders, expected {len(every)}") + _expect(
        None not in classes and {(c.sigma, c.directions) for c in classes} == every,
        "orders are not exactly the signed lexicographic ones",
    )


def definable(seed: int) -> Workload:
    """Sampling, orbit enumeration and invariant-order search; no hom search
    and no canonical form."""
    jord = {d: df.increasing_tuple_structure(d) for d in (1, 2, 3)}
    cover = gallery.pair_cover().total
    perm = gallery.generic_permutation_companion()
    samples = [
        ("jord2", jord[2], 14),
        ("jord3", jord[3], 9),
        ("pair-cover", cover, 8),
        ("tagged-pairs", gallery.tagged_pair_structure(), 6),
        ("perm-companion", perm, 12),
        ("betweenness", gallery.betweenness_reduct(), 14),
        ("jord1^2", df.full_power_def(jord[1], 2), 7),
    ]
    queries = []
    checks = {}
    for label, D, k in samples:
        atoms = make_sample(D.base, k)
        name = f"sample {label}@{k}"
        queries.append((name, lambda D=D, atoms=atoms: df.sample(D, atoms)))
        checks[name] = lambda ans, D=D, k=k: oracles.check_sample(D, k, ans)

    queries.append(("point_orbits perm-companion n=3", lambda: df.point_orbits(perm, 3)))
    checks["point_orbits perm-companion n=3"] = lambda ans: (
        _expect(len(set(ans)) == len(ans), "descriptors repeat")
        + _expect(len(ans) == oracles.orbit_count([2, 2], 3, subsets=False), f"{len(ans)} orbits")
    )
    for label, D, dims in (("pair-cover", cover, [2] * 4), ("jord3", jord[3], [3])):
        name = f"growth base {label} n=3"
        queries.append((name, lambda D=D: df.unlabelled_growth(D, 3, "base")))
        checks[name] = lambda ans, dims=dims: _expect(
            ans == oracles.orbit_count(dims, 3, subsets=True), f"{ans} classes"
        )

    for d in (1, 2, 3):
        name = f"invariant orders d={d}"
        queries.append((name, lambda d=d: _orders_and_classes(jord[d], d)))
        checks[name] = lambda ans, d=d: _check_orders(ans, d)
    spec = [(label, k) for label, _, k in samples] + [q for q, _ in queries]
    return Workload(queries, _digest(spec), lambda answers: _problems(answers, checks), 75.0)


def core(seed: int) -> Workload:
    """Searches that must run to the end: core tests and core computation."""
    johnson = df.sample(gallery.johnson_graph_def(), make_sample(DLO, 6))
    j6 = johnson.structure
    cover3 = df.sample(gallery.pair_cover().total, make_sample(DLO, 3)).structure
    spider = gallery.spider(5)
    raws, copies = _random_structures("core", seed, RANDOM_CORES)
    structures = [_finite(raw) for raw in raws]

    queries = [
        ("is_core johnson@6", lambda: fs.is_core(j6)),
        ("endos johnson@6", lambda: fs.enumerate_endos(j6)),
        ("core pair-cover@3", lambda: fs.compute_core(cover3)),
        ("core spider5", lambda: fs.compute_core(spider)),
    ]
    queries += [
        (f"core random {i}", lambda s=s: fs.compute_core(s)) for i, s in enumerate(structures)
    ]

    spider_core = [0] + [x for x in range(15) if x % 3]

    def check_endos(ans):
        maps = [h.mapping for h in ans]
        return _expect(len(maps) == math.factorial(6), f"{len(maps)} endomorphisms, expected 6! = 720") + _expect(
            set(maps) == oracles.atom_permutation_maps(johnson.points),
            "endomorphisms differ from the maps induced by atom permutations",
        )

    def check_random(i, ans):
        # Second computation: the core of a relabelled copy has the same size.
        again = fs.compute_core(_finite(copies[i]))
        return (
            oracles.check_core_result(structures[i], ans)
            + _expect(again.core.size == ans.core.size, f"relabelled copy has a core of {again.core.size}")
            + _expect(fs.is_core(ans.core), "core has a non-injective endomorphism")
        )

    checks = {
        "is_core johnson@6": lambda ans: _expect(ans is True, "Johnson sample on 6 atoms is a core"),
        "endos johnson@6": check_endos,
        "core pair-cover@3": lambda ans: oracles.check_core_result(cover3, ans)
        + _expect(ans.core.size == SEED_PAIR_COVER_3_CORE, f"core of {ans.core.size} elements (seed: 12)"),
        "core spider5": lambda ans: oracles.check_core_result(spider, ans)
        + _expect(ans.core.size == 2 * 5 + 1, f"core of {ans.core.size} elements, expected 2n+1 = 11")
        + _expect(list(ans.old_ids) == spider_core, "core is not the hub plus parts 1 and 2"),
    }
    for i in range(RANDOM_CORES):
        checks[f"core random {i}"] = lambda ans, i=i: check_random(i, ans)
    return Workload(queries, _digest((seed, raws, copies)), lambda answers: _problems(answers, checks), 99.0)


def _two_order_pattern(pi) -> fs.FinStructure:
    n = len(pi)
    sig = fs.Signature((("prec1", 2), ("prec2", 2)))
    prec1 = frozenset((i, j) for i in range(n) for j in range(n) if i < j)
    prec2 = frozenset((i, j) for i in range(n) for j in range(n) if pi[i] < pi[j])
    return fs.FinStructure(sig, n, {"prec1": prec1, "prec2": prec2})


def witness(seed: int) -> Workload:
    """Short queries answered by the first map the search finds."""
    target = df.sample(gallery.generic_permutation_companion(), make_sample(DLO, 8)).structure
    perms = [pi for size in range(1, 5) for pi in itertools.permutations(range(size))]
    patterns = [_two_order_pattern(pi) for pi in perms]
    raws, copies = _random_structures("witness", seed, ISO_QUERIES)
    pairs = [(_finite(raw), _finite(copy)) for raw, copy in zip(raws, copies)]

    queries = [
        (f"embed {''.join(map(str, pi))}", lambda p=p: fs.find_hom(p, target, "embedding"))
        for pi, p in zip(perms, patterns)
    ]
    queries += [(f"iso {i}", lambda a=a, b=b: fs.find_hom(a, b, "iso")) for i, (a, b) in enumerate(pairs)]

    checks = {}
    for (name, _), (source, dest) in zip(queries, [(p, target) for p in patterns] + pairs):
        onto = dest.size if name.startswith("iso") else None
        checks[name] = lambda ans, source=source, dest=dest, onto=onto: _expect(
            ans is not None
            and oracles.is_embedding(source, dest, ans.mapping)
            and (onto is None or len(set(ans.mapping)) == onto),
            "no valid witness returned, though one exists by construction",
        )
    return Workload(queries, _digest((seed, raws, copies)), lambda answers: _problems(answers, checks), 99.0)


def growth(seed: int) -> Workload:
    """Growth sequences: per-subset induced structures and canonical forms."""
    s2 = gallery.dense_local_order()
    betw = gallery.betweenness_reduct()
    queries = [(f"s2 homogeneous n={n}", lambda n=n: df.unlabelled_growth(s2, n, "homogeneous")) for n in range(1, 9)]
    queries += [(f"s2 reversal n={n}", lambda n=n: df.growth_up_to_reversal(s2, n)) for n in range(1, 8)]
    queries += [
        (f"betweenness homogeneous n={n}", lambda n=n: df.unlabelled_growth(betw, n, "homogeneous"))
        for n in range(1, 7)
    ]
    checks = {}
    for n in range(1, 9):
        checks[f"s2 homogeneous n={n}"] = lambda ans, n=n: _expect(
            ans == oracles.local_order_count(n), f"{ans}, closed form {oracles.local_order_count(n)}"
        )
    for n in range(1, 8):
        full = oracles.local_order_count(n)
        checks[f"s2 reversal n={n}"] = lambda ans, n=n, full=full: _expect(
            ans == SEED_REVERSAL[n - 1] and (full + 1) // 2 <= ans <= full,
            f"{ans}, seed value {SEED_REVERSAL[n - 1]}, bounds {(full + 1) // 2}..{full}",
        )

    def check_all(answers):
        out = _problems(answers, checks)
        for n in range(1, 7):
            betw_n, rev_n = answers.get(f"betweenness homogeneous n={n}"), answers.get(f"s2 reversal n={n}")
            if betw_n is not None and rev_n is not None and betw_n != rev_n:
                out.append(f"betweenness homogeneous n={n}: {betw_n}, S2 up to reversal gives {rev_n}")
        return out

    return Workload(queries, _digest([q for q, _ in queries]), check_all, 90.0)


WORKLOADS = {"definable": definable, "core": core, "witness": witness, "growth": growth}
