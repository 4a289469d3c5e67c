"""Reference computations that check relcore's answers.

Everything here is the benchmark's own code: it reads relcore's data
structures but calls none of its algorithms, so a change to the program
cannot change what an answer is checked against.
"""

from __future__ import annotations

import itertools
import math


def _compile(phi):
    """Closure over an environment of (value, label) pairs."""
    kind = type(phi).__name__
    if kind == "Const":
        value = phi.value
        return lambda env: value
    if kind == "Less":
        i, j = phi.i, phi.j
        return lambda env: env[i][0] < env[j][0]
    if kind == "Eq":
        i, j = phi.i, phi.j
        return lambda env: env[i][0] == env[j][0]
    if kind == "Label":
        i, label = phi.i, phi.label
        return lambda env: env[i][1] == label
    if kind == "Not":
        inner = _compile(phi.arg)
        return lambda env: not inner(env)
    parts = [_compile(f) for f in phi.args]
    if kind == "And":
        return lambda env: all(f(env) for f in parts)
    if kind == "Or":
        return lambda env: any(f(env) for f in parts)
    raise TypeError(f"unknown formula node {kind}")


def _guard_allows(entry, sort_name: str) -> bool:
    if entry == "*":
        return True
    if isinstance(entry, frozenset):
        return sort_name in entry
    return entry == sort_name


def check_sample(D, atom_count: int, result) -> list[str]:
    """Compare a sample of D on atoms 0..atom_count-1 (labels cycling through
    the alphabet) with an independent evaluation of every clause."""
    alphabet = D.base.alphabet
    atoms = [(v, v % alphabet) for v in range(atom_count)]
    points = [
        (si, combo)
        for si, sort in enumerate(D.sorts)
        for combo in itertools.combinations(atoms, sort.dim)
    ]
    problems = []
    expected_count = sum(math.comb(atom_count, s.dim) for s in D.sorts)
    if len(points) != expected_count:
        problems.append(f"reference enumerates {len(points)} points, closed form {expected_count}")
    got = [(p.sort, tuple((int(a.value), a.label) for a in p.atoms)) for p in result.points]
    if sorted(got) != sorted(points) or result.structure.size != expected_count:
        return problems + [f"{result.structure.size} points, expected {expected_count}"]
    ours = {p: i for i, p in enumerate(points)}
    translate = [ours[p] for p in got]
    expected: dict[str, set] = {}
    for clause in D.clauses:
        phi = _compile(clause.formula)
        groups = [
            [i for i, (si, _) in enumerate(points) if _guard_allows(entry, D.sorts[si].name)]
            for entry in clause.guard
        ]
        rel = expected.setdefault(clause.name, set())
        for combo in itertools.product(*groups):
            env = [a for i in combo for a in points[i][1]]
            if phi(env):
                rel.add(combo)
    actual = {
        name: {tuple(translate[x] for x in t) for t in ts}
        for name, ts in result.structure.relations.items()
    }
    if actual != expected:
        wrong = sorted(n for n in set(actual) | set(expected) if actual.get(n) != expected.get(n))
        problems.append(f"relations {wrong} differ from the reference evaluation")
    return problems


def _pattern(points, ordered: bool):
    """Points (sort, values) relabelled by the rank of their values in the support."""
    support = sorted({v for _, combo in points for v in combo})
    rank = {v: r for r, v in enumerate(support)}
    shape = tuple((si, tuple(rank[v] for v in combo)) for si, combo in points)
    return tuple(sorted(shape)) if not ordered else shape


def orbit_count(dims: list[int], n: int, subsets: bool) -> int:
    """Orbits of n-tuples (or n-element sets) of points of the given sort
    dimensions over the dense order with one label.

    Every orbit is realised on n * max(dims) atoms, so that sample is
    enumerated and each tuple or set is reduced to its rank pattern.
    """
    atoms = range(n * max(dims))
    points = [(si, combo) for si, d in enumerate(dims) for combo in itertools.combinations(atoms, d)]
    choose = itertools.combinations(points, n) if subsets else itertools.product(points, repeat=n)
    return len({_pattern(c, ordered=not subsets) for c in choose})


def local_order_count(n: int) -> int:
    """Local orders on n points up to isomorphism, in closed form:
    (1/2n) * sum over odd divisors d of n of phi(d) * 2^(n/d)."""
    total = 0
    for d in range(1, n + 1, 2):
        if n % d == 0:
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            total += phi * 2 ** (n // d)
    return total // (2 * n)


def is_hom(source, target, mapping) -> bool:
    if len(mapping) != source.size or any(not 0 <= y < target.size for y in mapping):
        return False
    return all(
        tuple(mapping[x] for x in t) in target.relations[name]
        for name, ts in source.relations.items()
        for t in ts
    )


def is_embedding(source, target, mapping) -> bool:
    """Injective, and a tuple holds in the source exactly when its image
    holds in the target."""
    if len(set(mapping)) != len(mapping) or not is_hom(source, target, mapping):
        return False
    image = set(mapping)
    for name, ts in target.relations.items():
        inside = {u for u in ts if all(y in image for y in u)}
        if len(inside) != len(source.relations[name]):
            return False
    return True


def induced(structure, keep) -> dict[str, set]:
    """Relations induced on the sorted element list `keep`, re-indexed."""
    new_of = {old: new for new, old in enumerate(keep)}
    return {
        name: {tuple(new_of[x] for x in t) for t in ts if all(x in new_of for x in t)}
        for name, ts in structure.relations.items()
    }


def check_core_result(structure, res) -> list[str]:
    """The core is the induced substructure on old_ids and the retraction is
    a homomorphism onto it that fixes it pointwise."""
    keep = list(res.old_ids)
    if keep != sorted(set(keep)) or any(not 0 <= x < structure.size for x in keep):
        return [f"old_ids {keep} are not distinct sorted elements"]
    problems = []
    if res.core.size != len(keep) or induced(structure, keep) != {
        n: set(ts) for n, ts in res.core.relations.items()
    }:
        problems.append("core is not the substructure induced on old_ids")
    mapping = res.retraction.mapping
    if not is_hom(structure, res.core, mapping):
        problems.append("retraction is not a homomorphism onto the core")
    elif any(mapping[old] != new for new, old in enumerate(keep)):
        problems.append("retraction does not fix the core")
    return problems


def atom_permutation_maps(points) -> set[tuple[int, ...]]:
    """Maps on increasing atom pairs induced by every permutation of the atoms."""
    pairs = [tuple(int(a.value) for a in p.atoms) for p in points]
    index = {p: i for i, p in enumerate(pairs)}
    atoms = sorted({v for p in pairs for v in p})
    out = set()
    for perm in itertools.permutations(atoms):
        image = dict(zip(atoms, perm))
        out.add(tuple(index[tuple(sorted((image[a], image[b])))] for a, b in pairs))
    return out
