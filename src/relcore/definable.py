"""Orbit-finite structures over an atom base.

A definable structure consists of sorts (each a dimension: its points are
strictly increasing atom tuples of that length) and relation clauses, each
guarding a tuple of sorts and carrying a quantifier-free formula over the
concatenated coordinates.  Sampling on a finite atom sample produces an
explicit finite structure; orbit and growth counting enumerate abstract
support patterns instead of concrete samples.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .atoms import DLO, Atom, AtomBase, AtomSample
from .errors import (
    ArityMismatch,
    BaseMismatch,
    InvalidDimension,
    SignatureMismatch,
    Unsupported,
    charge,
    headroom,
    json_int,
    metered,
    parsing,
    require_ints,
)
from .finstruct import FinStructure, Signature, _canonical_encoding
from . import formulas as fm

GUARD_ANY = "*"


@dataclass(frozen=True)
class Sort:
    name: str
    dim: int

    def __post_init__(self):
        require_ints([self.dim], f"sort {self.name!r} dimension", InvalidDimension)
        if self.dim < 0:
            raise InvalidDimension(f"sort {self.name!r} has dimension {self.dim}")


@dataclass(frozen=True)
class Point:
    """An element of a definable structure: a sort index plus its atom tuple."""

    sort: int
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for i in range(1, len(self.atoms)):
            if not self.atoms[i - 1].value < self.atoms[i].value:
                raise InvalidDimension("point atoms must be strictly increasing")


@dataclass(frozen=True)
class RelationClause:
    """One defining clause of a relation.

    guard entries are a sort name, a frozenset of sort names, or "*";
    clauses sharing a name contribute the union of their tuple sets.
    """

    name: str
    arity: int
    guard: tuple
    formula: fm.Formula

    def __post_init__(self):
        guard = tuple(
            frozenset(g) if isinstance(g, (set, frozenset, list)) else g for g in self.guard
        )
        object.__setattr__(self, "guard", guard)
        if len(guard) != self.arity:
            raise ArityMismatch(
                f"clause {self.name!r}: guard length {len(guard)} != arity {self.arity}"
            )


@dataclass(frozen=True)
class DefStructure:
    base: AtomBase
    sorts: tuple[Sort, ...]
    clauses: tuple[RelationClause, ...]
    # guards[c][g]: the sorts that entry g of clause c admits, as one
    # (dim, indices) pair per dim, both ascending.  Built here, the one
    # place that reads guard entries.
    guards: tuple = field(init=False, repr=False, compare=False)
    # reads[c]: the positions clause c's formula reads, from the same
    # fm.check walk that rejects a formula not over the base.
    reads: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sorts", tuple(self.sorts))
        object.__setattr__(self, "clauses", tuple(self.clauses))
        index = {s.name: i for i, s in enumerate(self.sorts)}
        if len(index) != len(self.sorts):
            raise SignatureMismatch(f"duplicate sort names in {[s.name for s in self.sorts]}")
        arities: dict[str, int] = {}
        guards, reads = [], []
        for clause in self.clauses:
            prev = arities.setdefault(clause.name, clause.arity)
            if prev != clause.arity:
                raise SignatureMismatch(
                    f"relation {clause.name!r} used with arities {prev} and {clause.arity}"
                )
            guard = []
            for entry in clause.guard:
                named = set(index) if entry == GUARD_ANY else entry if isinstance(entry, frozenset) else {entry}
                unknown = named.difference(index)
                if unknown:
                    raise SignatureMismatch(
                        f"clause {clause.name!r} guards unknown sorts {sorted(unknown)}"
                    )
                by_dim: dict[int, list[int]] = {}
                for i in sorted(index[n] for n in named):
                    by_dim.setdefault(self.sorts[i].dim, []).append(i)
                guard.append(tuple((dim, tuple(by_dim[dim])) for dim in sorted(by_dim)))
            read = fm.check(clause.formula, self.base)
            top = max(read, default=-1)
            # every guarded sort combination is at least this long
            least = sum(entry[0][0] for entry in guard if entry)
            if all(guard) and top >= least:
                raise ArityMismatch(
                    f"clause {clause.name!r} uses position {top} on sorts totalling {least} coordinates"
                )
            guards.append(tuple(guard))
            reads.append(read)
        object.__setattr__(self, "guards", tuple(guards))
        object.__setattr__(self, "reads", tuple(reads))

    def max_dim(self) -> int:
        return max((s.dim for s in self.sorts), default=0)

    def signature(self) -> Signature:
        seen: dict[str, int] = {}
        for clause in self.clauses:
            seen.setdefault(clause.name, clause.arity)
        return Signature(tuple(seen.items()))

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "sorts": [{"name": s.name, "dim": s.dim} for s in self.sorts],
            "relations": [
                {
                    "name": c.name,
                    "arity": c.arity,
                    "guard": [sorted(g) if isinstance(g, frozenset) else g for g in c.guard],
                    "formula": fm.to_json(c.formula),
                }
                for c in self.clauses
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "DefStructure":
        with parsing("definable structure"):
            base = AtomBase.from_json(data["base"])
            sorts = tuple(Sort(d["name"], json_int(d["dim"])) for d in data["sorts"])
            clauses = tuple(
                RelationClause(
                    c["name"],
                    json_int(c["arity"]),
                    c["guard"],
                    fm.from_json(c["formula"]),
                )
                for c in data["relations"]
            )
            return DefStructure(base, sorts, clauses)


@dataclass(frozen=True)
class SampleResult:
    structure: FinStructure
    points: tuple[Point, ...]


def _sampling_cost(D: DefStructure, counts: Sequence[int]) -> int:
    """The work of sampling points of D, counts[i] of sort i: dim + 1 steps
    for each point plus the guard combinations of D's clauses."""
    return sum(n * (sort.dim + 1) for sort, n in zip(D.sorts, counts)) + sum(
        math.prod(sum(counts[i] for _, ids in entry for i in ids) for entry in guard) for guard in D.guards
    )


def _encode(points: Sequence[Point]) -> list:
    """Points as (sort, ((rank, label), ...)), the rank of an atom being the
    place of its value among all values the points use.  This is the one
    point encoding inside this module."""
    rank = {v: r for r, v in enumerate(sorted({a.value for p in points for a in p.atoms}))}
    return [(p.sort, tuple((rank[a.value], a.label) for a in p.atoms)) for p in points]


def _plan(D: DefStructure, sorts: Sequence[int]) -> list:
    """How D induces its relations on points of the given sorts, in this
    order: one (relation index, compiled scan, groups, reads) per clause
    and combination of dims in its guard that admits some point, the groups
    holding the ids of the points each guard entry admits.  Relations are
    indexed in signature order.  The scan is formulas.compile_scan's, which
    caches it.

    reads is None when the formula reads every coordinate of every entry
    (see DefStructure.reads).  Otherwise it holds, per entry, the key (sort
    indices, coordinates read) of the partition of its group that _run
    evaluates the formula on: the formula's truth on a combination depends
    only on the (rank, label) pairs of its points at the coordinates read."""
    # per sort indices of one dim in a guard entry: the ids of the points
    # they admit, in order
    groups = {}
    for ids in {ids for guard in D.guards for entry in guard for _, ids in entry}:
        chosen = set(ids)
        groups[ids] = [pid for pid, si in enumerate(sorts) if si in chosen]
    index = {name: r for r, name in enumerate(D.signature().names())}
    plan = []
    for clause, guard, read in zip(D.clauses, D.guards, D.reads):
        for parts in itertools.product(*guard):
            if all(groups[ids] for _, ids in parts):
                reads, start = [], 0
                for dim, ids in parts:
                    reads.append((ids, tuple(c for c in range(dim) if start + c in read)))
                    start += dim
                if all(len(cs) == dim for (dim, _), (_, cs) in zip(parts, reads)):
                    reads = None
                scan = fm.compile_scan(clause.formula, tuple(dim for dim, _ in parts))
                plan.append((index[clause.name], scan, [groups[ids] for _, ids in parts], reads))
    return plan


def _run(plan: list, words: Sequence, count: int) -> list[set]:
    """The tuple sets of count relations that a plan (see _plan) induces
    on points with these words, each as long as its sort's dim.

    An entry that reads every coordinate scans its groups tuple by tuple.
    Any other runs its scan once per point type: each group is split, once
    per run and key, into classes of points that agree at the coordinates
    read; the scan runs on the first point of every class, and each
    combination it accepts stands for the product of its classes."""
    rels: list[set] = [set() for _ in range(count)]
    # per (sort indices, coordinates read): the first point of each class
    # mapped to the class
    partitions: dict[tuple, dict] = {}
    for r, scan, groups, reads in plan:
        if reads is None:
            scan(groups, words, rels[r])
            continue
        members = []
        for group, key in zip(groups, reads):
            classes = partitions.get(key)
            if classes is None:
                by_type: dict[tuple, list] = {}
                for pid in group:
                    word = words[pid]
                    by_type.setdefault(tuple([word[c] for c in key[1]]), []).append(pid)
                classes = partitions[key] = {ids[0]: ids for ids in by_type.values()}
            members.append(classes)
        hits: set = set()
        scan([list(classes) for classes in members], words, hits)
        update = rels[r].update
        for hit in hits:
            update(itertools.product(*[classes[pid] for classes, pid in zip(members, hit)]))
    return rels


def _structure_on(D: DefStructure, encoded: Sequence) -> FinStructure:
    """The structure D induces on encoded points, in the given order.
    Callers charge the sampling work (see _sampling_cost) before calling
    it."""
    sig = D.signature()
    rels = _run(_plan(D, [si for si, _ in encoded]), [word for _, word in encoded], len(sig.relations))
    return FinStructure._built(sig, len(encoded), dict(zip(sig.names(), map(frozenset, rels))))


def sample(D: DefStructure, A: AtomSample) -> SampleResult:
    """Explicit finite structure on all points supported inside A.  The
    points and their guard combinations are charged to the work budget, once,
    before any point is built.  A's atoms are sorted and distinct, so an
    atom's index is its rank."""
    if A.base != D.base:
        raise BaseMismatch(f"sample base {A.base} differs from structure base {D.base}")
    charge(_sampling_cost(D, [math.comb(len(A.atoms), sort.dim) for sort in D.sorts]), "sampling")
    ranked = [(k, a.label) for k, a in enumerate(A.atoms)]
    encoded, points = [], []
    for si, sort in enumerate(D.sorts):
        words = itertools.combinations(ranked, sort.dim)
        for word, atoms in zip(words, itertools.combinations(A.atoms, sort.dim)):
            encoded.append((si, word))
            points.append(Point(si, atoms))
    return SampleResult(_structure_on(D, encoded), tuple(points))


def induce_on_points(D: DefStructure, points: Sequence[Point]) -> FinStructure:
    """Structure induced on an explicit list of points, in the given order;
    each point must name a sort of D and carry as many atoms as its dim."""
    for p in points:
        if not (0 <= p.sort < len(D.sorts) and len(p.atoms) == D.sorts[p.sort].dim):
            raise InvalidDimension(f"point of sort {p.sort} with {len(p.atoms)} atoms is not a point of D")
    sorts = [p.sort for p in points]
    charge(_sampling_cost(D, [sorts.count(si) for si in range(len(D.sorts))]), "sampling")
    return _structure_on(D, _encode(points))


def reduct(D: DefStructure, clauses: Iterable[RelationClause]) -> DefStructure:
    return DefStructure(D.base, D.sorts, tuple(clauses))


def disjoint_union_def(left: DefStructure, right: DefStructure) -> DefStructure:
    """Union of sorts; every clause re-guarded to its originating sorts,
    each guard entry as the set of their names in the union."""
    if left.base != right.base:
        raise BaseMismatch("disjoint union requires a common base")
    sorts = list(left.sorts)
    taken = {s.name for s in sorts}
    for s in right.sorts:
        name = s.name
        while name in taken:
            name = name + "'"
        taken.add(name)
        sorts.append(Sort(name, s.dim))
    clauses = [
        RelationClause(
            c.name,
            c.arity,
            tuple(frozenset(sorts[shift + i].name for _, ids in entry for i in ids) for entry in guard),
            c.formula,
        )
        for D, shift in ((left, 0), (right, len(left.sorts)))
        for c, guard in zip(D.clauses, D.guards)
    ]
    return DefStructure(left.base, tuple(sorts), tuple(clauses))


@metered
def full_power_def(D: DefStructure, d: int) -> DefStructure:
    """Power structure on d-tuples of points, in support-pattern normal form.

    Each sort of the result is a sharing pattern of d increasing tuples; a
    point is the (increasing) union of the component supports.  Relations
    are the projection-instantiated relations of D plus component equality,
    named exactly as in the finite full power so that samples line up.
    A relation of arity k takes (d * sorts)^k clauses.  Before any is
    built, each is charged what building it costs: two steps per node of
    its formula (copied, then checked), one per position mapped (k * m),
    two per guard entry, and one.
    """
    require_ints([d], "power dimension", InvalidDimension)
    if d < 1:
        raise InvalidDimension(f"power dimension must be >= 1, got {d}")
    if len(D.sorts) != 1:
        raise Unsupported("full power is only defined for single-sort structures")
    m = D.sorts[0].dim
    orbits = _orbits(DefStructure(DLO, (Sort("t", m),), ()), d, False)
    patterns = [tuple(slots for _, slots in shape) for _, shape in orbits]
    names = ("p[" + "|".join(",".join(map(str, r)) for r in rows) + "]" for rows in patterns)
    sorts = tuple(Sort(name, len(set().union(*rows))) for name, rows in zip(names, patterns))
    named = {s.name: rows for s, rows in zip(sorts, patterns)}

    merged: dict[str, tuple[int, fm.Formula]] = {}
    for clause in D.clauses:
        arity, parts = merged.get(clause.name, (clause.arity, None))
        phi = clause.formula
        merged[clause.name] = (clause.arity, phi if parts is None else fm.Or(parts, phi))

    equal = fm.And(tuple(fm.Eq(c, m + c) for c in range(m))) if m else fm.TRUE
    atoms_rels = list(merged.items()) + [("=", (2, equal))]
    count = sum((d * len(sorts)) ** k for _, (k, _) in atoms_rels)
    work = sum((d * len(sorts)) ** k * (2 * fm.size(phi) + k * m + 2 * k + 1) for _, (k, phi) in atoms_rels)
    charge(work, f"a power with {count} clauses")
    clauses = []
    for name, (k, phi) in atoms_rels:
        for js in itertools.product(range(d), repeat=k):
            rel_name = f"{name}@{','.join(str(j + 1) for j in js)}"
            for combo in itertools.product(sorts, repeat=k):
                offsets = []
                start = 0
                for s in combo:
                    offsets.append(start)
                    start += s.dim
                mapping = {}
                for l in range(k):
                    rows = named[combo[l].name][js[l]]
                    for c in range(m):
                        mapping[l * m + c] = offsets[l] + rows[c]
                body = fm.shift_positions(phi, mapping)
                clauses.append(
                    RelationClause(rel_name, k, tuple(s.name for s in combo), body)
                )
    return DefStructure(D.base, sorts, tuple(clauses))


def _type(word, shape, base: AtomBase, as_set: bool):
    """Canonical key of a support pattern under base automorphisms; as_set
    forgets the order of the points.  A tuple's key is its descriptor: the
    pattern on an ordered base; on an unordered one its least relabelling
    under the permutations of the support, which orders the slots by label,
    then by the points holding them, earliest point first.  A set's key on
    an unordered base is its sorts and the canonical encoding (charged as
    it runs, never printed) of its incidence structure: a unary relation
    per label on the atoms and per sort on the points, and membership."""
    shape = tuple(sorted(shape) if as_set else shape)
    s = len(word)
    if base.ordered:
        return repr((s, word, shape))
    if as_set:
        sorts = tuple(si for si, _ in shape)
        rels = [{(k,) for k in range(s) if word[k] == label} for label in range(base.alphabet)]
        rels += [{(s + i,) for i, sj in enumerate(sorts) if sj == si} for si in sorted(set(sorts))]
        rels.append({(k, s + i) for i, (_, slots) in enumerate(shape) for k in slots})
        return sorts, _canonical_encoding(s + len(shape), rels)
    order = sorted(range(s), key=lambda k: (word[k], [k not in slots for _, slots in shape]))
    relabelled = tuple((si, tuple(sorted(map(order.index, slots)))) for si, slots in shape)
    return repr((s, tuple(word[k] for k in order), relabelled))


def _covers(D: DefStructure, n: int, as_set: bool) -> list:
    """covers[s], for s = 0..n*max_dim: the choices of n abstract points
    (sort, slots) whose slots cover the support {0..s-1}, n-element sets of
    them when as_set, counted by inclusion-exclusion over the atoms a
    choice misses.

    Charges the orbit pre-count to the work budget: for each support size,
    its k abstract points and n + s steps for every label word and covering
    choice, the size of the pattern.  The count stops at the first support
    size that exceeds the headroom, so a huge n raises at once.
    """
    work, allowed = 0, headroom()
    within = []  # within[t]: the choices inside a fixed set of t atoms
    covers = []
    for s in range(n * D.max_dim() + 1):
        k = sum(math.comb(s, sort.dim) for sort in D.sorts)
        within.append(math.comb(k, n) if as_set else k**n)
        covers.append(within[s] and sum(  # within[s - j] is 0 for all but a few j
            (-1) ** j * math.comb(s, j) * w for j, w in enumerate(reversed(within)) if w))
        work += k + D.base.alphabet**s * covers[s] * (n + s)
        if work > allowed:
            break
    charge(work, "orbit enumeration")
    return covers


def _orbits(D: DefStructure, n: int, as_set: bool):
    """Yields (word, shape) once per base-automorphism orbit of n-tuples of
    points (of n-element point sets when as_set).

    Walks the supports {0..s-1} for s = 0..n*max_dim, every label word on
    a support, and every choice (shape) of n abstract points (sort, slots)
    that covers it (see _covering_choices); the first choice met in an
    orbit represents it, slot k being the atom of rank k and label word[k].
    No atom is built.  On an ordered base every covering choice with its
    word is its own orbit; on an unordered one each choice's key (see
    _type) is looked up in a seen set.

    Before the walk, the covering choices are counted and the pre-count
    charged (see _covers).  The depth-first walk that generates them
    charges its nodes as it goes.
    """
    covers = _covers(D, n, as_set)
    seen = set()
    for s, count in enumerate(covers):
        if not count:
            continue
        covering = _covering_choices(D, n, s, as_set)
        for word in itertools.product(range(D.base.alphabet), repeat=s):
            for shape in covering:
                if not D.base.ordered:
                    key = _type(word, shape, D.base, as_set)
                    if key in seen:
                        continue
                    seen.add(key)
                yield word, shape


def _covering_choices(D: DefStructure, n: int, s: int, as_set: bool) -> list:
    """The choices of n abstract points (sort, slots) on the support
    {0..s-1} whose slots cover it, in the order in which
    itertools.combinations (as_set) or itertools.product yields them from
    the points listed by sort, then slots.

    A depth-first walk over slot bitmasks: a prefix is cut once its
    uncovered slots outnumber what the points still to choose can cover,
    and the last point is taken only from those containing every uncovered
    slot.  Each point tried before the last position counts one step,
    charged when the walk ends or as soon as the count passes the headroom
    it started with.  Iterative, so that n is not bounded by the recursion
    limit.
    """
    points = [
        (si, slots) for si, sort in enumerate(D.sorts) for slots in itertools.combinations(range(s), sort.dim)
    ]
    masks = [sum(1 << k for k in slots) for _, slots in points]
    index = {(si, mask): j for j, ((si, _), mask) in enumerate(zip(points, masks))}
    reach = max(len(slots) for _, slots in points)  # the most slots one point covers
    full = (1 << s) - 1
    containing: dict[int, list[int]] = {}

    def finishing(need: int) -> list[int]:
        """The points whose slots contain need, ascending."""
        got = containing.get(need)
        if got is None:
            u = need.bit_count()
            free = [k for k in range(s) if not need >> k & 1]
            got = containing[need] = sorted(
                index[si, need | sum(1 << k for k in extra)]
                for si, sort in enumerate(D.sorts)
                if sort.dim >= u
                for extra in itertools.combinations(free, sort.dim - u)
            )
        return got

    shapes: list = []
    chosen: list[int] = []  # the points picked at positions 0..len - 1
    covered = [0]  # covered[i]: the slots of chosen[:i]
    start = 0  # the first point to try at position len(chosen)
    work, allowed = 0, headroom()
    while True:
        left = n - 1 - len(chosen)  # the points to choose after this one
        deeper = False
        if left:
            for j in range(start, len(points) - left if as_set else len(points)):
                work += 1
                if work > allowed:
                    charge(work, "orbit enumeration")
                mask = covered[-1] | masks[j]
                if s - mask.bit_count() <= left * reach:
                    chosen.append(j)
                    covered.append(mask)
                    start = j + 1 if as_set else 0
                    deeper = True
                    break
        else:
            tail = finishing(full & ~covered[-1])
            prefix = tuple(points[j] for j in chosen)
            shapes.extend(prefix + (points[j],) for j in tail[bisect.bisect_left(tail, start):])
        if deeper:
            continue
        if not chosen:
            break
        start = chosen.pop() + 1
        covered.pop()
    charge(work, "orbit enumeration")
    return shapes


@metered
def point_orbits(D: DefStructure, n: int) -> list[str]:
    """The descriptors (see _type) of the base-automorphism orbits of
    n-tuples of points, one per orbit (see _orbits), sorted."""
    require_ints([n], "tuple length", InvalidDimension)
    if n < 1:
        raise InvalidDimension(f"need n >= 1, got {n}")
    return sorted(_type(word, shape, D.base, False) for word, shape in _orbits(D, n, False))


@metered
def unlabelled_growth(D: DefStructure, n: int, mode: str = "base") -> int:
    """Number of classes of n-element subsets of D's points.

    mode="base" counts orbits under base automorphisms (support-pattern
    classes).  On an ordered base every covering choice with its word is
    its own orbit (see _orbits), so the count is the sum over support sizes
    s of alphabet^s times the covering choices (see _covers), charged the
    orbit pre-count and nothing else; an unordered base walks its orbits.
    mode="homogeneous" counts isomorphism classes of the induced
    n-point structures, which equals the orbit count of the full
    automorphism group exactly when D is homogeneous in its listed
    relations; asserting that is the caller's responsibility.
    mode="reversal" also identifies a class with its relation-reversed
    class and requires a single binary relation.  The orbit enumeration and
    every orbit's induced relations and canonical encoding (see
    finstruct._canonical_encoding) charge one work meter, as does, in
    reversal mode, the reversed encoding of every class found.  The
    encodings are compared directly: within one call the size and the
    relation order are fixed, so they are equal exactly when the induced
    structures are isomorphic.  Orbits that induce identical relations
    share one canonical search, and a repeat charges nothing for it.
    """
    if mode not in ("base", "homogeneous", "reversal"):
        raise Unsupported(f"unknown growth mode {mode!r}")
    sig = D.signature()
    if mode == "reversal" and (len(sig.relations) != 1 or sig.relations[0][1] != 2):
        raise Unsupported("reversal counting needs exactly one binary relation")
    require_ints([n], "subset size", InvalidDimension)
    if n < 1:
        raise InvalidDimension(f"need n >= 1, got {n}")
    if mode == "base" and D.base.ordered:
        return sum(D.base.alphabet**s * count for s, count in enumerate(_covers(D, n, True)))
    orbits = _orbits(D, n, True)
    if mode == "base":
        return sum(1 for _ in orbits)
    # the sampling charge and the plan of each sequence of point sorts
    plans: dict[tuple, tuple] = {}
    # the distinct induced structures searched, each keyed by its
    # relations' tuple sets
    searched: set[tuple] = set()
    forms = set()
    for word, shape in orbits:
        sorts = tuple(si for si, _ in shape)
        plan = plans.get(sorts)
        if plan is None:
            cost = _sampling_cost(D, [sorts.count(si) for si in range(len(D.sorts))])
            plan = plans[sorts] = (cost, _plan(D, sorts))
        charge(plan[0], "sampling")
        words = [tuple([(k, word[k]) for k in slots]) for _, slots in shape]
        rels = _run(plan[1], words, len(sig.relations))
        key = tuple(map(frozenset, rels))
        if key not in searched:
            searched.add(key)
            forms.add(_canonical_encoding(n, rels))
    if mode == "reversal":
        # the reversed encoding depends only on the class
        forms = {min(form, _canonical_encoding(n, [{t[::-1] for t in ts} for ts in form])) for form in forms}
    return len(forms)


def growth_up_to_reversal(D: DefStructure, n: int) -> int:
    """unlabelled_growth(D, n, "reversal"), an alias kept only for the
    public API and for relbench, which calls and traces it by name."""
    return unlabelled_growth(D, n, "reversal")


def increasing_tuple_structure(d: int) -> DefStructure:
    """The canonical ordered base in dimension d: strictly increasing
    d-tuples with all coordinatewise order and equality relations.  Its
    2d^2 clauses are charged before any is built, at full_power_def's rate:
    seven steps each, two for the atomic formula (built, then checked), two
    per guard entry, and one."""
    require_ints([d], "dimension", InvalidDimension)
    if d < 1:
        raise InvalidDimension(f"need dimension >= 1, got {d}")
    charge(7 * 2 * d * d, f"a structure with {2 * d * d} clauses")
    clauses = [
        RelationClause(f"{name}{i + 1}{j + 1}", 2, (GUARD_ANY, GUARD_ANY), atomic(i, d + j))
        for i in range(d)
        for j in range(d)
        for name, atomic in (("lt", fm.Less), ("eq", fm.Eq))
    ]
    return DefStructure(DLO, (Sort("t", d),), tuple(clauses))


@metered
def enumerate_invariant_orders(D: DefStructure) -> list[tuple[str, ...]]:
    """All invariant strict total orders on D's points, each given as the
    set of pair-orbit descriptors it contains.

    Every candidate must be irreflexive, total, antisymmetric and
    transitive on one point triple per orbit (see _composition_table);
    invariance makes the check conclusive.  Each decision charges the
    entries of the table row it scans, at least one, as the triple (i, j, i)
    is in every row but the diagonal's: 120,156 in all at d = 3.  The orbit
    walks charge the call that builds the table, and the budget is the only
    bound on d: from d = 4 the triple orbits' pre-count raises TooLarge.
    """
    if len(D.sorts) != 1:
        raise Unsupported("invariant order enumeration needs a single sort")
    if D.base != DLO:
        raise Unsupported("invariant order enumeration is defined over the dense order")
    d = D.sorts[0].dim
    if d < 1:
        raise InvalidDimension(f"need dimension >= 1, got {d}")

    # A triple (a, b, c) broken by points i, j, k (a, b true, c false)
    # makes the rotations (b, swap c, swap a) from j, k, i and
    # (swap c, a, swap b) from k, i, j broken too, so a decision breaks a
    # triple exactly when it breaks one whose first descriptor it set true.
    rows, pairs, names = _composition_table(d)
    results = []
    stack = [(0, 0, 1)]  # pairs decided, then true and false classes as bitmasks; the diagonal is false
    while stack:
        idx, true, false = stack.pop()
        if idx == len(pairs):
            results.append(tuple(sorted(names[c] for c in range(len(names)) if true >> c & 1)))
            continue
        a, b = pairs[idx]
        for chosen, dropped in ((a, b), (b, a)):
            now_true, now_false = true | 1 << chosen, false | 1 << dropped
            charge(len(rows[chosen]), "invariant order search")
            if not any(now_true >> c_jk & 1 and ik & now_false for c_jk, ik in rows[chosen]):
                stack.append((idx + 1, now_true, now_false))
    return sorted(results)


@functools.lru_cache(maxsize=3)
def _composition_table(d: int):
    """Pair classes of Jord_d and their composition table, built once per d
    from one point triple (i, j, k) per orbit (see _orbits).  The walks are
    charged to the call that builds the table, the triple orbits' pre-count
    before the pair walk, so that a d too large raises at once.

    Class 0 is the diagonal and class c >= 1 the pair _pair_reps(d)[c - 1];
    a pair's slots, relabelled to their support, look up its class.
    Returns, as tuples, the rows, the swap pairs and every class's
    descriptor.  The row of c_ij holds, per c_jk, (c_jk, bitmask of the
    c_ik) over the triples with i != j != k.  A swap pair is a class and
    its reversed shape's, the lesser descriptor first, sorted by it.
    """
    triples = _orbits(DefStructure(DLO, (Sort("t", d),), ()), 3, False)
    next(triples)  # runs the pre-count; the first orbit, (i, i, i), adds nothing
    diag = ((0, tuple(range(d))),) * 2
    reps = ((_type((0,) * d, diag, DLO, False), diag),) + _pair_reps(d)
    names = tuple(name for name, _ in reps)
    ids = {(p, q): c for c, (_, ((_, p), (_, q))) in enumerate(reps)}

    def cls(p, q):
        c = ids.get((p, q))
        if c is None:
            support = sorted({*p, *q})
            c = ids[p, q] = ids[tuple(map(support.index, p)), tuple(map(support.index, q))]
        return c

    rows: list[dict] = [{} for _ in reps]
    for _, ((_, i), (_, j), (_, k)) in triples:
        if i != j != k:
            row = rows[cls(i, j)]
            c_jk = cls(j, k)
            row[c_jk] = row.get(c_jk, 0) | 1 << cls(i, k)
    swaps = [(c, ids[q, p]) for c, (_, ((_, p), (_, q))) in enumerate(reps)]
    pairs = sorted(((a, b) for a, b in swaps if names[a] < names[b]), key=lambda pair: names[pair[0]])
    return tuple(tuple(row.items()) for row in rows), tuple(pairs), names


@dataclass(frozen=True)
class SignedLex:
    """A signed lexicographic order: compare coordinates in the order given
    by sigma, each read ascending or descending."""

    sigma: tuple[int, ...]
    directions: tuple[str, ...]

    def __post_init__(self):
        require_ints(self.sigma, "coordinate", InvalidDimension)
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise InvalidDimension(f"sigma {self.sigma} is not a permutation")
        if len(self.directions) != len(self.sigma):
            raise InvalidDimension("one direction per coordinate is required")
        for r in self.directions:
            if r not in ("asc", "desc"):
                raise Unsupported(f"unknown direction {r!r}")

    def less(self, a: Sequence, b: Sequence) -> bool:
        for pos, direction in zip(self.sigma, self.directions):
            if a[pos] != b[pos]:
                return a[pos] < b[pos] if direction == "asc" else a[pos] > b[pos]
        return False

    def to_json(self) -> dict:
        return {"sigma": list(self.sigma), "directions": list(self.directions)}


@functools.lru_cache(maxsize=8)
def _pair_reps(d: int) -> tuple:
    """(descriptor, shape) of one pair per orbit of distinct Jord_d points,
    from the orbit walk (see _orbits); slots order as the atoms' values do."""
    pairs = _orbits(DefStructure(DLO, (Sort("t", d),), ()), 2, False)
    return tuple((_type(word, shape, DLO, False), shape) for word, shape in pairs if shape[0] != shape[1])


@metered
def classify_signed_lex(order: Iterable[str], d: int) -> Optional[SignedLex]:
    """The signed lexicographic order agreeing with the pair-orbit union on
    every orbit, else None.  Of the orbits (see _pair_reps) tied on the chosen
    coordinates, take the first coordinate that, up or down, agrees with the
    union wherever it differs, and drop the orbits it splits.  Exact: an orbit
    is decided at its first differing chosen coordinate, and along an agreeing
    order every other free coordinate meets both directions on kept orbits the
    order holds alike.  Each step charges tied orbits x free coordinates first."""
    require_ints([d], "dimension", InvalidDimension)
    if d < 1:
        raise InvalidDimension(f"need dimension >= 1, got {d}")
    chosen = set(order)
    tied = [(desc in chosen, p, q) for desc, ((_, p), (_, q)) in _pair_reps(d)]
    sigma, directions = [], []
    while tied:
        free = [c for c in range(d) if c not in sigma]
        charge(len(tied) * len(free), "signed lexicographic classification")
        for c in free:
            agrees = {(p[c] < q[c]) == less for less, p, q in tied if p[c] != q[c]}
            if len(agrees) == 1:
                break
        else:
            return None
        sigma.append(c)
        directions.append("asc" if True in agrees else "desc")
        tied = [(less, p, q) for less, p, q in tied if p[c] == q[c]]
    return SignedLex(tuple(sigma), tuple(directions))
