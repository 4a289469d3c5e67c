"""Named verification suites with machine-readable reports.

Each suite packages the exact desk-scale checks behind one acceptance
criterion; the CLI `verify` command and the acceptance tests both run these
functions.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .atoms import DLO, PURE_SET, Atom, labeled_dlo, make_sample
from .definable import (
    DefStructure,
    Point,
    RelationClause,
    Sort,
    enumerate_invariant_orders,
    classify_signed_lex,
    increasing_tuple_structure,
    sample,
    unlabelled_growth,
)
from .errors import RelcoreError, Unsupported
from .finstruct import (
    FinStructure,
    Hom,
    Signature,
    canonical_form,
    compute_core,
    enumerate_endos,
    find_hom,
    hom_violations,
    induced_substructure,
    is_core,
)
from . import formulas as fm
from . import gallery


@dataclass
class Check:
    id: str
    status: str
    details: str = ""
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "details": self.details,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "pass" if all(c.status != "fail" for c in self.checks) else "fail"

    def to_json(self) -> dict:
        return {
            "report_version": 1,
            "suite": self.suite,
            "overall": self.overall,
            "checks": [c.to_json() for c in self.checks],
        }


def _run(report: Report, check_id: str, fn: Callable[[], str]) -> None:
    start = time.perf_counter()
    try:
        details = fn() or "ok"
        status = "pass"
    except AssertionError as exc:
        details = f"assertion failed: {exc}"
        status = "fail"
    except RelcoreError as exc:
        details = f"{type(exc).__name__}: {exc}"
        status = "fail"
    report.checks.append(Check(check_id, status, details, time.perf_counter() - start))


def _rechecked(h: Hom | None) -> Hom | None:
    """A map the search returned, rebuilt through the public constructors.

    The search makes its answers without re-checking them; the suites check
    them here.  The source and target are rebuilt with `FinStructure(...)`
    and the map with `Hom(...)`, so a tuple out of range or a map that is not
    a homomorphism raises.
    """
    if h is None:
        return None
    source, target = (FinStructure(s.signature, s.size, s.relations) for s in (h.source, h.target))
    return Hom(source, target, h.mapping)


# ---------------------------------------------------------------- suite 1


def suite_hom_equivalence() -> Report:
    report = Report("hom-equivalence")
    for k in range(2, 7):
        def check(k=k):
            atoms = make_sample(DLO, k)
            h = gallery.fold_orientation_hom(atoms)
            assert not hom_violations(h.source, h.target, h.mapping)
            expected_src = k * (k - 1) * gallery.TAGS
            assert h.source.size == expected_src, f"{h.source.size} oriented points"
            assert h.target.size == expected_src // 2
            assert set(h.mapping) == set(range(h.target.size)), "folding must be onto"
            return f"{h.source.size} points fold onto {h.target.size}"
        _run(report, f"fold-validates-{k}-atoms", check)
    return report


# ---------------------------------------------------------------- suite 2


def _cover_subsets(base_size: int):
    ids = range(base_size)
    if base_size <= 6:
        for r in range(base_size + 1):
            yield from itertools.combinations(ids, r)
    else:
        yield ()
        for r in (1, 2):
            yield from itertools.combinations(ids, r)
        yield tuple(ids)


def suite_covering() -> Report:
    report = Report("covering")
    for k in range(2, 6):
        def check(k=k):
            cs = gallery.pair_cover().sample(make_sample(DLO, k))
            for b, fiber in cs.fibers().items():
                assert len(fiber) == gallery.TAGS, f"fiber over {b} has size {len(fiber)}"
            assert gallery.kernel_check(cs), "kernel formula mismatch"
            identity = tuple(range(cs.base.structure.size))
            lifts = 0
            for alpha in itertools.permutations(range(k)):
                lift = gallery.lift_atom_permutation(cs, alpha)
                assert gallery.is_sample_automorphism(cs.total.structure, lift)
                induced = gallery.induced_base_map(cs, lift)
                assert induced == gallery.pair_action(cs, alpha)
                lifts += 1
            rotations = 0
            for subset in _cover_subsets(cs.base.structure.size):
                for exp in (1, 2, 3):
                    rot = gallery.fiber_rotation(cs, subset, exp)
                    assert gallery.induced_base_map(cs, rot) == identity
                    if exp == 2:
                        assert gallery.is_sample_automorphism(cs.total.structure, rot)
                    rotations += 1
            return f"{lifts} lifts, {rotations} rotations checked"
        _run(report, f"cover-{k}-atoms", check)
    return report


# ---------------------------------------------------------------- suite 3


def suite_johnson_core() -> Report:
    report = Report("johnson-core")

    def check():
        cs = gallery.pair_cover().sample(make_sample(DLO, 5))
        j = cs.base.structure
        assert j.size == 10
        endos = enumerate_endos(j)
        assert len(endos) == 120, f"found {len(endos)} endomorphisms"
        generated = {gallery.pair_action(cs, alpha) for alpha in itertools.permutations(range(5))}
        assert len(generated) == 120
        assert {h.mapping for h in endos} == generated, "endos beyond atom permutations"
        for h in endos:
            assert gallery.is_sample_automorphism(j, _rechecked(h).mapping)
        return "120 endomorphisms, all induced by atom permutations"

    _run(report, "johnson-endos-5-atoms", check)
    _run(report, "johnson-is-core", lambda: _expect(
        is_core(gallery.pair_cover().sample(make_sample(DLO, 5)).base.structure),
        "10-vertex pair-graph sample is a core",
    ))
    return report


def _expect(condition: bool, detail: str) -> str:
    assert condition, detail
    return detail


# ---------------------------------------------------------------- suite 4


def suite_involution() -> Report:
    report = Report("involution")
    for k in (3, 4):
        def check(k=k):
            rep = gallery.involution_report(k)
            pairs = math.comb(k, 2)
            assert rep["all_commute"], "found non-commuting involutions"
            assert rep["involutions_are_fiber_rotations"], "involution outside the rotations"
            assert rep["involution_count"] == 2 ** pairs - 1
            assert rep["group_order"] == math.factorial(k) * 2 ** pairs
            return f"group order {rep['group_order']}, {rep['involution_count']} involutions"
        _run(report, f"cover-involutions-{k}-atoms", check)

    def control():
        rep = gallery.orientation_control_report(3)
        assert rep["noncommuting_involutions_found"], "control group has no witness"
        return f"non-commuting involutions among {rep['involution_count']}"

    _run(report, "oriented-control", control)
    return report


# ---------------------------------------------------------------- suite 5


def suite_spider() -> Report:
    report = Report("spider")
    for n in (2, 3, 4):
        def check(n=n):
            s = gallery.spider(n)
            assert s.size == 3 * n
            collapse = gallery.spider_collapse_hom(n)
            assert not hom_violations(s, s, collapse.mapping)
            res = compute_core(s)
            _rechecked(res.retraction)
            assert res.core.size == 2 * n + 1, f"core has {res.core.size} elements"
            assert is_core(res.core)
            for new, old in enumerate(res.old_ids):
                assert res.retraction.mapping[old] == new, "retraction must fix the core"
            expected_subset = [0] + [x for x in range(3 * n) if x % 3 != 0]
            expected, _ = induced_substructure(s, expected_subset)
            assert canonical_form(res.core) == canonical_form(expected)
            return f"core on {res.core.size} of {s.size} elements"
        _run(report, f"spider-{n}", check)
    return report


# ---------------------------------------------------------------- suite 6


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def local_order_count(n: int) -> int:
    """Closed-form count of n-point local orders up to isomorphism."""
    total = sum(_euler_phi(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)
    return total // (2 * n)


def suite_growth() -> Report:
    report = Report("growth")
    max_n = 8

    def check_dlo():
        dlo = increasing_tuple_structure(1)
        seq = [unlabelled_growth(dlo, n, "base") for n in range(1, max_n + 1)]
        assert seq == [1] * max_n, f"got {seq}"
        return f"sequence {seq}"

    def check_qst():
        qst = gallery.partitioned_dlo()
        seq = [unlabelled_growth(qst, n, "base") for n in range(1, max_n + 1)]
        assert seq == [2 ** n for n in range(1, max_n + 1)], f"got {seq}"
        homog = [unlabelled_growth(qst, n, "homogeneous") for n in range(1, 6)]
        assert homog == [2 ** n for n in range(1, 6)], f"modes disagree: {homog}"
        return f"sequence {seq}"

    def check_s2():
        s2 = gallery.dense_local_order()
        seq = [unlabelled_growth(s2, n, "homogeneous") for n in range(1, max_n + 1)]
        oracle = [local_order_count(n) for n in range(1, max_n + 1)]
        assert seq == oracle, f"sampled {seq} vs closed form {oracle}"
        return f"sequence {seq}"

    def check_betw():
        s2 = gallery.dense_local_order()
        up = [local_order_count(n) for n in range(1, max_n + 1)]
        down = [unlabelled_growth(s2, n, "reversal") for n in range(1, max_n + 1)]
        for a, b in zip(up, down):
            assert b <= a, f"quotient exceeded the unquotiented count: {down} vs {up}"
            assert 2 * b >= a, "quotient merged more than pairs"
        assert down[max_n - 1] < up[max_n - 1], "reversal quotient must be strictly coarser"
        assert 4 * down[max_n - 1] <= 3 * up[max_n - 1], "ratio should approach one half"
        betw = gallery.betweenness_reduct()
        reduct = [unlabelled_growth(betw, n, "homogeneous") for n in range(1, 7)]
        assert reduct == down[:6], f"betweenness reduct {reduct} vs S2 up to reversal {down[:6]}"
        return f"sequence {down} (local-order counts {up}, betweenness reduct {reduct})"

    _run(report, "growth-dense-order", check_dlo)
    _run(report, "growth-partitioned-order", check_qst)
    _run(report, "growth-local-order", check_s2)
    _run(report, "growth-betweenness", check_betw)
    return report


# ---------------------------------------------------------------- suite 7


def suite_order_classification() -> Report:
    report = Report("order-classification")
    for d, expected in ((1, 2), (2, 8), (3, 48)):
        def check(d=d, expected=expected):
            orders = enumerate_invariant_orders(increasing_tuple_structure(d))
            assert len(orders) == expected, f"found {len(orders)} orders"
            described = set()
            for order in orders:
                slex = classify_signed_lex(order, d)
                assert slex is not None, f"order {order} is not signed lexicographic"
                described.add((slex.sigma, slex.directions))
            assert len(described) == expected, "classification must be injective"
            return f"{expected} orders, all signed lexicographic"
        _run(report, f"invariant-orders-d{d}", check)
    return report


# ---------------------------------------------------------------- suite 8


def _two_order_pattern(pi: tuple[int, ...]) -> FinStructure:
    n = len(pi)
    sig = Signature((("prec1", 2), ("prec2", 2)))
    r1 = frozenset((i, j) for i in range(n) for j in range(n) if i < j)
    r2 = frozenset((i, j) for i in range(n) for j in range(n) if pi[i] < pi[j])
    return FinStructure(sig, n, {"prec1": r1, "prec2": r2})


def suite_companions() -> Report:
    report = Report("companions")

    def check_perm_age():
        comp = sample(gallery.generic_permutation_companion(), make_sample(DLO, 8))
        tried = 0
        for size in range(1, 5):
            for pi in itertools.permutations(range(size)):
                pattern = _two_order_pattern(pi)
                h = _rechecked(find_hom(pattern, comp.structure, "embedding"))
                assert h is not None, f"pattern {pi} does not embed"
                assert h.is_embedding(), f"pattern {pi}: the map found does not embed"
                tried += 1
        return f"{tried} two-order patterns embedded into 56 sampled pairs"

    def check_partition_companion():
        qst4 = sample(gallery.partitioned_dlo(), make_sample(labeled_dlo(2), 4))
        comp4 = sample(gallery.partitioned_dlo_companion(), make_sample(DLO, 4))
        explicit = []
        for p in qst4.points:
            atom = p.atoms[0]
            target = Point(atom.label, (Atom(atom.value),))
            explicit.append(comp4.points.index(target))
        h = Hom(qst4.structure, comp4.structure, tuple(explicit))
        assert h.is_embedding(), "class-to-copy map must embed"
        found = _rechecked(find_hom(qst4.structure, comp4.structure, "embedding"))
        assert found is not None and found.is_embedding()
        comp3 = sample(gallery.partitioned_dlo_companion(), make_sample(DLO, 3))
        qst6 = sample(gallery.partitioned_dlo(), make_sample(labeled_dlo(2), 6))
        found = _rechecked(find_hom(comp3.structure, qst6.structure, "embedding"))
        assert found is not None and found.is_embedding()
        return "mutual embeddings found"

    def check_cut():
        for size in (5, 7):
            s = sample(gallery.dense_local_order(), make_sample(labeled_dlo(2), size)).structure
            for c in range(s.size):
                assert gallery.s2_cut_roundtrip(s, c), f"cut at {c} failed on {size} points"
        s = sample(gallery.dense_local_order(), make_sample(labeled_dlo(2), 5)).structure
        prec = set(s.rel("prec"))
        edge = sorted(prec)[0]
        mutated_rel = frozenset((prec - {edge}) | {edge[::-1]})
        mutated = FinStructure(s.signature, s.size, {"prec": mutated_rel})
        assert any(not gallery.s2_cut_roundtrip(mutated, c) for c in range(s.size)), (
            "corrupted sample passed every cut"
        )
        return "cut-and-rebuild holds on 5 and 7 points, fails when corrupted"

    _run(report, "two-order-age", check_perm_age)
    _run(report, "partition-companion-embeddings", check_partition_companion)
    _run(report, "local-order-cut", check_cut)
    return report


# ---------------------------------------------------------------- suite 9


def random_structure(rng: random.Random, max_size: int = 8) -> FinStructure:
    size = rng.randint(1, max_size)
    rel_count = rng.randint(1, 3)
    names = []
    rels = {}
    for i in range(rel_count):
        arity = rng.randint(1, 3)
        name = f"R{i}"
        names.append((name, arity))
        density = rng.choice([0.08, 0.15, 0.3]) if arity == 3 else rng.choice([0.2, 0.35, 0.5])
        tuples = {
            t
            for t in itertools.product(range(size), repeat=arity)
            if rng.random() < density
        }
        rels[name] = frozenset(tuples)
    return FinStructure(Signature(tuple(names)), size, rels)


def _permuted_copy(structure: FinStructure, rng: random.Random) -> FinStructure:
    perm = list(range(structure.size))
    rng.shuffle(perm)
    rels = {
        name: frozenset(tuple(perm[x] for x in t) for t in structure.relations[name])
        for name, _ in structure.signature.relations
    }
    return FinStructure(structure.signature, structure.size, rels)


def _mutated_copy(structure: FinStructure, rng: random.Random) -> FinStructure:
    rels = {name: set(ts) for name, ts in structure.relations.items()}
    name, arity = rng.choice(structure.signature.relations)
    t = tuple(rng.randrange(structure.size) for _ in range(arity))
    if t in rels[name]:
        rels[name].discard(t)
    else:
        rels[name].add(t)
    return FinStructure(structure.signature, structure.size, {k: frozenset(v) for k, v in rels.items()})


def suite_core_engine(seed: int = 0) -> Report:
    report = Report("core-engine")

    def check():
        rng = random.Random(seed)
        iso_agreements = 0
        for i in range(200):
            s = random_structure(rng)
            res = compute_core(s)
            _rechecked(res.retraction)
            assert is_core(res.core), f"round {i}: core still collapses"
            again = compute_core(res.core)
            assert again.was_core and again.core.size == res.core.size
            assert canonical_form(again.core) == canonical_form(res.core)
            for new, old in enumerate(res.old_ids):
                assert res.retraction.mapping[old] == new
            assert not hom_violations(s, res.core, res.retraction.mapping)

            twin = _permuted_copy(s, rng) if rng.random() < 0.5 else _mutated_copy(s, rng)
            same_form = canonical_form(s) == canonical_form(twin)
            has_iso = _rechecked(find_hom(s, twin, "iso")) is not None
            assert same_form == has_iso, f"round {i}: canonical form and search disagree"
            iso_agreements += 1
        return f"200 structures: cores verified, {iso_agreements} iso cross-checks"

    _run(report, f"random-cores-seed{seed}", check)
    return report


# ---------------------------------------------------------------- suite 10


def _random_formula(rng: random.Random, positions: int, base) -> fm.Formula:
    atoms = []
    if positions >= 1:
        for _ in range(3):
            i = rng.randrange(positions)
            j = rng.randrange(positions)
            kind = rng.randrange(3)
            if kind == 0 and base.ordered:
                atoms.append(fm.Less(i, j))
            elif kind == 1:
                atoms.append(fm.Eq(i, j))
            else:
                atoms.append(fm.Label(i, rng.randrange(base.alphabet)))
    if not atoms:
        return fm.TRUE if rng.random() < 0.7 else fm.FALSE
    rng.shuffle(atoms)
    phi = atoms[0]
    for extra in atoms[1:]:
        connective = rng.randrange(3)
        if connective == 0:
            phi = fm.And(phi, extra)
        elif connective == 1:
            phi = fm.Or(phi, extra)
        else:
            phi = fm.And(phi, fm.Not(extra))
    return phi


def random_def_structure(rng: random.Random) -> DefStructure:
    base = rng.choice([PURE_SET, DLO, labeled_dlo(2)])
    sort_count = rng.randint(1, 2)
    sorts = tuple(Sort(f"s{i}", rng.randint(0, 2)) for i in range(sort_count))
    min_dim = min(s.dim for s in sorts)
    clauses = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(1, 2)
        clauses.append(
            RelationClause(
                f"R{i}",
                arity,
                ("*",) * arity,
                _random_formula(rng, arity * min_dim, base),
            )
        )
    return DefStructure(base, sorts, tuple(clauses))


def suite_functoriality(seed: int = 0) -> Report:
    report = Report("functoriality")

    def check():
        rng = random.Random(seed)
        for i in range(50):
            d = random_def_structure(rng)
            big_n = rng.randint(3, 5)
            labels = [rng.randrange(d.base.alphabet) for _ in range(big_n)]
            big_atoms = make_sample(d.base, big_n, labels)
            keep = sorted(rng.sample(range(big_n), rng.randint(1, big_n)))
            small_atoms = big_atoms.restrict(keep)
            big = sample(d, big_atoms)
            small = sample(d, small_atoms)
            kept_values = {a.value for a in small_atoms.atoms}
            ids = [
                pid
                for pid, p in enumerate(big.points)
                if all(a.value in kept_values for a in p.atoms)
            ]
            expected, old_ids = induced_substructure(big.structure, ids)
            assert len(old_ids) == small.structure.size, f"round {i}: point counts differ"
            assert expected == small.structure, f"round {i}: induced substructure differs"
        return "50 random structure/sample pairs agree"

    _run(report, f"sampling-functorial-seed{seed}", check)
    return report


# ---------------------------------------------------------------- registry


SUITES: dict[str, Callable[[], Report]] = {
    "hom-equivalence": suite_hom_equivalence,
    "covering": suite_covering,
    "johnson-core": suite_johnson_core,
    "involution": suite_involution,
    "spider": suite_spider,
    "growth": suite_growth,
    "order-classification": suite_order_classification,
    "companions": suite_companions,
    "core-engine": suite_core_engine,
    "functoriality": suite_functoriality,
}

SEEDED_SUITES = {"core-engine", "functoriality"}


def run_suite(name: str, seed: int = 0) -> Report:
    """The named suite's report.  Every check is an assert statement, so
    under python -O (or PYTHONOPTIMIZE) each would pass unchecked; there
    the call raises instead."""
    if not __debug__:
        raise Unsupported("verify checks are assert statements, which python -O skips")
    if name in SEEDED_SUITES:
        return SUITES[name](seed=seed)  # type: ignore[call-arg]
    return SUITES[name]()
