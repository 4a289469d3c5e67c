"""Concrete library of named structures and their special maps.

Contents: the tagged ordered-pair structure and its folding onto the tagged
increasing-pair cover of the Johnson pair graph, fiber rotations and lifted
atom permutations with the induced maps downstairs, the spider structure
whose core drops a whole part, the partitioned dense order and its
two-copy companion, the dense local order and its betweenness reduct, and
the two-order companion of the generic permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .atoms import DLO, AtomSample, labeled_dlo, make_sample
from .definable import (
    DefStructure,
    Point,
    RelationClause,
    SampleResult,
    Sort,
    increasing_tuple_structure,
    reduct,
    sample,
)
from .errors import (
    HomValidationError,
    InvalidElement,
    KernelViolation,
    TooSmall,
    charge,
    metered,
    parsing,
    require_ints,
)
from .finstruct import FinStructure, Hom, Signature, hom_violations
from . import formulas as fm

TAGS = 4

# On two stored increasing pairs occupying positions (0,1) and (2,3):
_SOME_COMMON = fm.Or(fm.Eq(0, 2), fm.Eq(0, 3), fm.Eq(1, 2), fm.Eq(1, 3))
_BOTH_COMMON = fm.And(fm.Eq(0, 2), fm.Eq(1, 3))
_EXACTLY_ONE_COMMON = fm.And(_SOME_COMMON, fm.Not(_BOTH_COMMON))
_NO_COMMON = fm.And(
    fm.Not(fm.Eq(0, 2)), fm.Not(fm.Eq(0, 3)), fm.Not(fm.Eq(1, 2)), fm.Not(fm.Eq(1, 3))
)


def _tagged_pairs(orients: tuple[str, ...]) -> DefStructure:
    """Increasing pairs with a tag mod 4, one sort per orientation prefix
    and tag.  The tag-selected coordinate of a pair with orientation o and
    tag m sits at stored position (m % 2) ^ o.  R steps the tag, E links
    pairs sharing exactly the selected coordinate, N links pairs with
    disjoint supports."""
    names = {(o, m): f"{prefix}{m}" for o, prefix in enumerate(orients) for m in range(TAGS)}
    clauses = [
        RelationClause("R", 2, (s, names[o, (m + 1) % TAGS]), fm.And(fm.Eq(0, 2), fm.Eq(1, 3)))
        for (o, m), s in names.items()
    ]
    clauses += [
        RelationClause("E", 2, (s, t), fm.And(fm.Eq((m % 2) ^ o, 2 + ((n % 2) ^ p)), _EXACTLY_ONE_COMMON))
        for (o, m), s in names.items()
        for (p, n), t in names.items()
    ]
    clauses.append(RelationClause("N", 2, ("*", "*"), _NO_COMMON))
    return DefStructure(DLO, tuple(Sort(s, 2) for s in names.values()), tuple(clauses))


def tagged_pair_structure() -> DefStructure:
    """All injective ordered pairs of atoms carrying a tag mod 4.

    A pair with first coordinate below the second sits in an "a" sort, the
    reverse orientation in a "d" sort, always stored as the increasing pair.
    Every defining formula is order-free.
    """
    return _tagged_pairs(("a", "d"))


def johnson_graph_def() -> DefStructure:
    """The Johnson pair graph: increasing pairs, adjacent iff they share an atom."""
    sorts = (Sort("v", 2),)
    clauses = (
        RelationClause("E", 2, ("*", "*"), _EXACTLY_ONE_COMMON),
        RelationClause("N", 2, ("*", "*"), _NO_COMMON),
    )
    return DefStructure(DLO, sorts, clauses)


@dataclass(frozen=True)
class CoverSample:
    """Matched samples of the tagged cover and the pair graph underneath."""

    atoms: AtomSample
    total: SampleResult
    base: SampleResult
    projection: tuple[int, ...]

    def fibers(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {b: [] for b in range(self.base.structure.size)}
        for x, b in enumerate(self.projection):
            out[b].append(x)
        return {b: tuple(xs) for b, xs in out.items()}


@dataclass(frozen=True)
class CoverData:
    """The tagged increasing-pair structure over the pair graph, with the
    tag-forgetting projection."""

    total: DefStructure
    basestruct: DefStructure

    def sample(self, atoms: AtomSample) -> CoverSample:
        total = sample(self.total, atoms)
        base = sample(self.basestruct, atoms)
        base_index = {p: i for i, p in enumerate(base.points)}
        projection = tuple(base_index[Point(0, p.atoms)] for p in total.points)
        return CoverSample(atoms, total, base, projection)


def pair_cover() -> CoverData:
    """Increasing pairs with a tag mod 4, over the Johnson pair graph."""
    return CoverData(_tagged_pairs(("m",)), johnson_graph_def())


def fold_orientation(point: Point) -> Point:
    """Send an oriented tagged pair to its increasing-pair form.

    Ascending pairs keep their tag; descending pairs step the tag by one.
    """
    orient, tag = divmod(point.sort, TAGS)
    return Point((tag + orient) % TAGS, point.atoms)


def fold_orientation_hom(atoms: AtomSample) -> Hom:
    """The folding map, validated on matched samples."""
    src = sample(tagged_pair_structure(), atoms)
    dst = sample(pair_cover().total, atoms)
    dst_index = {p: i for i, p in enumerate(dst.points)}
    mapping = tuple(dst_index[fold_orientation(p)] for p in src.points)
    return Hom(src.structure, dst.structure, mapping)


def kernel_check(cs: CoverSample) -> bool:
    """Fiber equality must coincide with reachability along at most two R-steps."""
    struct = cs.total.structure
    rel_r = struct.rel("R")
    n = struct.size
    succ = {x: {y for y in range(n) if (x, y) in rel_r} for x in range(n)}
    for x in range(n):
        for y in range(n):
            same_fiber = cs.projection[x] == cs.projection[y]
            linked = (
                x == y
                or (x, y) in rel_r
                or (y, x) in rel_r
                or any((z, y) in rel_r for z in succ[x])
            )
            if same_fiber != linked:
                return False
    return True


def induced_base_map(cs: CoverSample, endo: Sequence[int]) -> tuple[int, ...]:
    """Map on pair-graph vertices induced by a fiber-respecting map upstairs.

    Raises InvalidElement for a map that is not one int in
    0..total.size-1 per point upstairs, KernelViolation when the input
    merges fibers inconsistently, and refuses maps whose induced action
    breaks an E or N tuple.
    """
    endo = list(endo)
    require_ints(endo, "image")
    size = cs.total.structure.size
    if len(endo) != size:
        raise InvalidElement(f"map has length {len(endo)}, the cover sample has {size} points")
    for y in endo:
        if not 0 <= y < size:
            raise InvalidElement(f"image {y} outside 0..{size - 1}")
    result: dict[int, int] = {}
    for x, b in enumerate(cs.projection):
        image = cs.projection[endo[x]]
        if b in result and result[b] != image:
            raise KernelViolation(f"fiber over vertex {b} is split by the map")
        result[b] = image
    mapped = tuple(result[b] for b in range(cs.base.structure.size))
    problems = hom_violations(cs.base.structure, cs.base.structure, mapped)
    if problems:
        raise HomValidationError("induced map is not an (E,N)-endomorphism: " + problems[0])
    return mapped


def fiber_rotation(cs: CoverSample, vertices: Iterable[int], k: int) -> tuple[int, ...]:
    """Rotate the tag on every fiber over the chosen pair-graph vertices by k."""
    require_ints([k], "rotation")
    vertices = list(vertices)
    require_ints(vertices, "vertex")
    chosen = set(vertices)
    for b in chosen:
        if not 0 <= b < cs.base.structure.size:
            raise InvalidElement(f"vertex {b} outside the pair-graph sample")
    total_index = {p: i for i, p in enumerate(cs.total.points)}
    out = []
    for x, p in enumerate(cs.total.points):
        if cs.projection[x] in chosen:
            out.append(total_index[Point((p.sort + k) % TAGS, p.atoms)])
        else:
            out.append(x)
    return tuple(out)


def atom_action(
    result: SampleResult,
    atoms: AtomSample,
    alpha: Sequence[int],
    step: Callable[[int], int] = lambda sort: sort,
) -> tuple[int, ...]:
    """Permutation of a sample's points induced by a permutation alpha of
    its atoms (by index).

    Each point's atoms move by alpha and are stored in increasing order; a
    point whose moved atoms come out of order (for a pair: decreasing) has
    its sort sent through step.
    """
    pool = atoms.atoms
    if sorted(alpha) != list(range(len(pool))):
        raise InvalidElement(f"{alpha!r} is not a permutation of {len(pool)} atoms")
    atom_index = {a.value: i for i, a in enumerate(pool)}
    index = {p: i for i, p in enumerate(result.points)}
    out = []
    for p in result.points:
        moved = [pool[alpha[atom_index[a.value]]] for a in p.atoms]
        stored = sorted(moved, key=lambda a: a.value)
        out.append(index[Point(p.sort if moved == stored else step(p.sort), tuple(stored))])
    return tuple(out)


def lift_atom_permutation(cs: CoverSample, alpha: Sequence[int]) -> tuple[int, ...]:
    """Automorphism of the tagged cover sample induced by an atom permutation:
    a pair that comes out reversed steps its tag by one."""
    return atom_action(cs.total, cs.atoms, alpha, lambda tag: (tag + 1) % TAGS)


def pair_action(cs: CoverSample, alpha: Sequence[int]) -> tuple[int, ...]:
    """Action of an atom permutation on the pair-graph sample."""
    return atom_action(cs.base, cs.atoms, alpha)


def oriented_atom_action(xs: SampleResult, atoms: AtomSample, alpha: Sequence[int]) -> tuple[int, ...]:
    """Action of an atom permutation on a tagged ordered-pair sample.

    The tag never moves; only the orientation sort flips when the image
    pair comes out reversed.
    """
    return atom_action(xs, atoms, alpha, lambda sort: (sort + TAGS) % (2 * TAGS))


def is_sample_automorphism(structure: FinStructure, perm: Sequence[int]) -> bool:
    """Bijection preserving every relation.  A bijection that maps a finite
    relation into itself maps it onto itself, so its inverse preserves the
    relations too.  An image that is not an int raises InvalidElement."""
    return not hom_violations(structure, structure, perm) and sorted(perm) == list(range(structure.size))


def _two_generators(atom_count: int) -> list[tuple[int, ...]]:
    """A transposition and a k-cycle of the atoms, which generate all
    atom_count! permutations; both are the identity below two atoms."""
    identity = tuple(range(atom_count))
    if atom_count < 2:
        return [identity, identity]
    return [(1, 0) + identity[2:], identity[1:] + (0,)]


@metered
def _involution_scan(gens: list[tuple[int, ...]]):
    """The group generated by the permutations gens, its involutions in
    sorted order, and the first pair of them that does not commute (None
    when all commute).

    Every composition and every group element stored charges n steps to
    the work budget, n being the degree.
    """
    n = len(gens[0]) if gens else 0

    def compose(p, q):
        """Apply q first, then p."""
        charge(n, "involution scan")
        return tuple(p[x] for x in q)

    group = set(gens)
    charge(n * len(group), "involution scan")
    frontier = list(group)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = compose(g, h)
                if c not in group:
                    charge(n, "involution scan")
                    group.add(c)
                    new.append(c)
        frontier = new
    identity = tuple(range(n))
    involutions = sorted(g for g in group if g != identity and compose(g, g) == identity)
    pairs = itertools.combinations(involutions, 2)
    witness = next(((g, h) for g, h in pairs if compose(g, h) != compose(h, g)), None)
    return group, involutions, witness


@metered
def involution_report(atom_count: int) -> dict:
    """Generate the lift-and-rotation group on a tagged cover sample and
    inspect its involutions.

    The group is generated by the lifts of a transposition and a k-cycle
    of the atoms and one exponent-2 rotation per fiber: a product of
    lifts differs from the lift of the product only by exponent-2
    rotations, so these give every lift and every rotation.  Reports
    whether all involutions pairwise commute and whether each is the
    exponent-2 rotation of the fibers it moves (every such rotation is a
    product of the generators, so the involutions are then exactly the
    rotations).  The samples and the scan charge one meter.
    """
    cs = pair_cover().sample(make_sample(DLO, atom_count))
    lifts = [lift_atom_permutation(cs, alpha) for alpha in _two_generators(atom_count)]
    rotations = [fiber_rotation(cs, [b], 2) for b in range(cs.base.structure.size)]
    group, involutions, witness = _involution_scan(lifts + rotations)

    def is_rotation(g: tuple[int, ...]) -> bool:
        moved = {cs.projection[x] for x, y in enumerate(g) if x != y}
        return g == fiber_rotation(cs, moved, 2)

    return {
        "atoms": atom_count,
        "group_order": len(group),
        "involution_count": len(involutions),
        "all_commute": witness is None,
        "involutions_are_fiber_rotations": all(map(is_rotation, involutions)),
    }


@metered
def orientation_control_report(atom_count: int = 3) -> dict:
    """Same involution scan over the oriented-pair structure, with the
    oriented actions of a transposition and a k-cycle as generators,
    charging one work meter.

    Here atom transpositions act with the tag untouched, so they are
    involutions, and overlapping transpositions fail to commute.
    """
    atoms = make_sample(DLO, atom_count)
    xs = sample(tagged_pair_structure(), atoms)
    gens = [oriented_atom_action(xs, atoms, alpha) for alpha in _two_generators(atom_count)]
    group, involutions, witness = _involution_scan(gens)
    return {
        "atoms": atom_count,
        "group_order": len(group),
        "involution_count": len(involutions),
        "noncommuting_involutions_found": witness is not None,
    }


def spider(n: int) -> FinStructure:
    """Three parts of size n; one bijection spine from part 0 to each other
    part, plus a hub in part 0 linked to everything; inequality inside parts
    1 and 2.  Element (k, i) has id 3*k + i.  Its 3n unary tuples, 4n - 2
    spine pairs and 2n(n - 1) inequality pairs are charged to the work
    budget before any is built."""
    require_ints([n], "spider row count", TooSmall)
    if n < 2:
        raise TooSmall(f"spider needs at least 2 rows, got {n}")
    charge(3 * n + 4 * n - 2 + 2 * n * (n - 1), f"a spider with {n} rows")
    sig = Signature((("U0", 1), ("U1", 1), ("U2", 1), ("N", 2), ("R", 2)))

    def elem(k: int, i: int) -> int:
        return 3 * k + i

    parts = {f"U{i}": frozenset((elem(k, i),) for k in range(n)) for i in range(3)}
    neq = set()
    for i in (1, 2):
        for k in range(n):
            for l in range(n):
                if k != l:
                    neq.add((elem(k, i), elem(l, i)))
    spine = set()
    for k in range(n):
        spine.add((elem(k, 0), elem(k, 1)))
        spine.add((elem(k, 0), elem(k, 2)))
        spine.add((elem(0, 0), elem(k, 1)))
        spine.add((elem(0, 0), elem(k, 2)))
    return FinStructure(sig, 3 * n, {**parts, "N": frozenset(neq), "R": frozenset(spine)})


def spider_collapse_hom(n: int) -> Hom:
    """Fix parts 1 and 2, send all of part 0 to the hub."""
    s = spider(n)
    mapping = []
    for k in range(n):
        for i in range(3):
            mapping.append(0 if i == 0 else 3 * k + i)
    return Hom(s, s, tuple(mapping))


def partitioned_dlo() -> DefStructure:
    """The dense order with a generic two-class labelling."""
    base = labeled_dlo(2)
    sorts = (Sort("q", 1),)
    clauses = (
        RelationClause("lt", 2, ("*", "*"), fm.Less(0, 1)),
        RelationClause("S", 1, ("*",), fm.Label(0, 0)),
        RelationClause("T", 1, ("*",), fm.Label(0, 1)),
    )
    return DefStructure(base, sorts, clauses)


def partitioned_dlo_companion() -> DefStructure:
    """Two copies of the dense order, interleaved lexicographically; the
    copy index decides the class."""
    sorts = (Sort("c1", 1), Sort("c2", 1))
    clauses = (
        RelationClause("lt", 2, ("c1", "c1"), fm.Less(0, 1)),
        RelationClause("lt", 2, ("c2", "c2"), fm.Less(0, 1)),
        RelationClause("lt", 2, ("c1", "c2"), fm.Or(fm.Less(0, 1), fm.Eq(0, 1))),
        RelationClause("lt", 2, ("c2", "c1"), fm.Less(0, 1)),
        RelationClause("S", 1, ("c1",), fm.TRUE),
        RelationClause("T", 1, ("c2",), fm.TRUE),
    )
    return DefStructure(DLO, sorts, clauses)


def local_order_formula(i: int, j: int) -> fm.Formula:
    """Tournament on labelled ordered atoms: same class follows the order,
    different classes reverse it."""
    same = fm.Or(
        fm.And(fm.Label(i, 0), fm.Label(j, 0)), fm.And(fm.Label(i, 1), fm.Label(j, 1))
    )
    return fm.Or(fm.And(fm.Less(i, j), same), fm.And(fm.Less(j, i), fm.Not(same)))


def dense_local_order() -> DefStructure:
    """The dense local order presented over the partitioned dense order."""
    return reduct(
        partitioned_dlo(),
        (RelationClause("prec", 2, ("*", "*"), local_order_formula(0, 1)),),
    )


def betweenness_reduct() -> DefStructure:
    """Ternary betweenness of the dense local order."""
    body = fm.Or(
        fm.And(local_order_formula(0, 1), local_order_formula(1, 2)),
        fm.And(local_order_formula(2, 1), local_order_formula(1, 0)),
    )
    return reduct(
        partitioned_dlo(),
        (RelationClause("betw", 3, ("*", "*", "*"), body),),
    )


def s2_cut_roundtrip(sample_struct: FinStructure, c: int) -> bool:
    """Cut a local-order sample at one element and rebuild it.

    Splits the remaining elements by their relation to c, derives a linear
    order from the two classes, checks it is a strict total order, and
    checks that the tournament reconstructed from the order and the classes
    is exactly the original one off c.
    """
    if not 0 <= c < sample_struct.size:
        raise InvalidElement(f"no element {c} in a domain of size {sample_struct.size}")
    prec = sample_struct.rel("prec")
    dom = [x for x in range(sample_struct.size) if x != c]
    cls_s = {a for a in dom if (c, a) in prec}
    cls_t = {a for a in dom if (a, c) in prec}
    if cls_s & cls_t or cls_s | cls_t != set(dom):
        return False

    def across(rel) -> set:
        """Ordered pairs of distinct elements of dom that rel holds within a
        class and reversed across the classes."""
        return {
            (a, b)
            for a in dom
            for b in dom
            if a != b and ((a, b) if (a in cls_s) == (b in cls_s) else (b, a)) in rel
        }

    less = across(prec)
    for a in dom:
        for b in dom:
            if a != b and ((a, b) in less) == ((b, a) in less):
                return False
    for a in dom:
        for b in dom:
            for d in dom:
                if (a, b) in less and (b, d) in less and (a, d) not in less:
                    return False
    original = {(a, b) for (a, b) in prec if a != c and b != c}
    return across(less) == original


def generic_permutation_companion() -> DefStructure:
    """Pairs of atoms carrying two interleaved linear orders.

    The domain is the off-diagonal plane, stored as an increasing pair with
    an orientation sort; each order compares one coordinate first and
    breaks ties with the other.
    """
    sorts = (Sort("pa", 2), Sort("pd", 2))
    clauses = []
    for o1, s1 in enumerate(("pa", "pd")):
        for o2, s2 in enumerate(("pa", "pd")):
            # stored positions of the first and second coordinates of each point
            x, y = (o1, 1 - o1), (2 + o2, 3 - o2)
            for name, (i, j) in (("prec1", (0, 1)), ("prec2", (1, 0))):
                body = fm.Or(fm.Less(x[i], y[i]), fm.And(fm.Eq(x[i], y[i]), fm.Less(x[j], y[j])))
                clauses.append(RelationClause(name, 2, (s1, s2), body))
    return DefStructure(DLO, sorts, tuple(clauses))


def _definable_registry() -> dict:
    return {
        "x": tagged_pair_structure,
        "y": lambda: pair_cover().total,
        "johnson": johnson_graph_def,
        "jord1": lambda: increasing_tuple_structure(1),
        "jord2": lambda: increasing_tuple_structure(2),
        "jord3": lambda: increasing_tuple_structure(3),
        "dlo": lambda: increasing_tuple_structure(1),
        "qst": partitioned_dlo,
        "qst-companion": partitioned_dlo_companion,
        "s2": dense_local_order,
        "betw": betweenness_reduct,
        "perm-companion": generic_permutation_companion,
    }


def lookup_definable(name: str) -> Optional[DefStructure]:
    builder = _definable_registry().get(name.lower())
    return builder() if builder else None


def lookup_finite(name: str) -> Optional[FinStructure]:
    key = name.lower()
    if key.startswith("spider"):
        tail = key[len("spider"):].lstrip(":")
        if tail.isdigit():
            with parsing("spider size"):
                legs = int(tail)
            return spider(legs)
    return None
