import itertools
import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from relcore.atoms import DLO, Atom, labeled_dlo, make_sample
from relcore.definable import DefStructure, Point, RelationClause, Sort, sample
from relcore.errors import InvalidElement, KernelViolation, TooLarge, TooSmall
from relcore.finstruct import (
    FinStructure,
    Hom,
    compute_core,
    enumerate_endos,
    find_hom,
    hom_violations,
    is_core,
)
from relcore import errors, gallery
from relcore import formulas as fm
from relcore.verify import random_structure


def x_pid(xs, a, b, m):
    """Id of the oriented pair (a, b) with tag m in a tagged-pair sample."""
    orient = 0 if a < b else 1
    u, v = sorted((a, b))
    return xs.points.index(Point(orient * gallery.TAGS + m, (Atom(Fraction(u)), Atom(Fraction(v)))))


def y_pid(ys, a, b, m):
    return ys.points.index(Point(m, (Atom(Fraction(a)), Atom(Fraction(b)))))


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[x] for x in q)


def test_tagged_pair_sample_relations():
    atoms = make_sample(DLO, 4)
    xs = sample(gallery.tagged_pair_structure(), atoms)
    assert xs.structure.size == 4 * 3 * 4
    r = xs.structure.rel("R")
    e = xs.structure.rel("E")
    n = xs.structure.rel("N")
    assert (x_pid(xs, 0, 1, 0), x_pid(xs, 0, 1, 1)) in r
    assert (x_pid(xs, 0, 1, 3), x_pid(xs, 0, 1, 0)) in r
    assert (x_pid(xs, 0, 1, 0), x_pid(xs, 0, 1, 2)) not in r
    assert (x_pid(xs, 0, 1, 0), x_pid(xs, 2, 3, 0)) in n
    assert (x_pid(xs, 0, 1, 0), x_pid(xs, 0, 2, 0)) not in n
    # tag-selected coordinates must match: (0,1) tag 0 selects 0, (0,2) tag 0 selects 0
    assert (x_pid(xs, 0, 1, 0), x_pid(xs, 0, 2, 0)) in e
    # (0,1) tag 1 selects 1, (0,2) tag 0 selects 0: no shared selection
    assert (x_pid(xs, 0, 1, 1), x_pid(xs, 0, 2, 0)) not in e
    # reversed pair (1,0) with tag 1 selects 0 again
    assert (x_pid(xs, 1, 0, 1), x_pid(xs, 0, 2, 0)) in e


def test_cover_sample_edge_parity():
    cs = gallery.pair_cover().sample(make_sample(DLO, 3))
    ys = cs.total
    e = ys.structure.rel("E")
    over_01 = [y_pid(ys, 0, 1, m) for m in range(4)]
    over_02 = [y_pid(ys, 0, 2, m) for m in range(4)]
    linked = {
        (m, n)
        for m in range(4)
        for n in range(4)
        if (over_01[m], over_02[n]) in e
    }
    # shared atom 0 is selected exactly at even tags on both sides
    assert linked == {(m, n) for m in (0, 2) for n in (0, 2)}
    for m in range(4):
        assert cs.projection[over_01[m]] == cs.projection[over_01[0]]


def test_fold_orientation_pointwise():
    a = Atom(Fraction(0))
    b = Atom(Fraction(1))
    asc = Point(0 * gallery.TAGS + 2, (a, b))
    assert gallery.fold_orientation(asc) == Point(2, (a, b))
    desc = Point(1 * gallery.TAGS + 0, (a, b))
    assert gallery.fold_orientation(desc) == Point(1, (a, b))


def test_fold_hom_validates_and_matches_seeded_search():
    atoms = make_sample(DLO, 3)
    h = gallery.fold_orientation_hom(atoms)
    assert not hom_violations(h.source, h.target, h.mapping)
    xs = sample(gallery.tagged_pair_structure(), atoms)
    seed = {
        pid: h.mapping[pid]
        for pid, p in enumerate(xs.points)
        if p.sort < gallery.TAGS and [a.value for a in p.atoms] == [0, 1]
    }
    witness = find_hom(h.source, h.target, "hom", partial=seed)
    assert witness is not None
    assert witness.mapping == h.mapping


def test_kernel_check():
    for k in (2, 4):
        cs = gallery.pair_cover().sample(make_sample(DLO, k))
        assert gallery.kernel_check(cs)
    # deleting one R-step breaks the two-step reachability inside a fiber
    cs = gallery.pair_cover().sample(make_sample(DLO, 2))
    r = sorted(cs.total.structure.rel("R"))
    broken = FinStructure(
        cs.total.structure.signature,
        cs.total.structure.size,
        {
            "R": frozenset(r[1:]),
            "E": cs.total.structure.rel("E"),
            "N": cs.total.structure.rel("N"),
        },
    )
    mutated = replace(cs, total=replace(cs.total, structure=broken))
    assert not gallery.kernel_check(mutated)


def test_induced_base_map_cases():
    cs = gallery.pair_cover().sample(make_sample(DLO, 3))
    n = cs.total.structure.size
    identity = tuple(range(n))
    base_id = tuple(range(cs.base.structure.size))
    assert gallery.induced_base_map(cs, identity) == base_id
    rot = gallery.fiber_rotation(cs, [0, 2], 2)
    assert gallery.induced_base_map(cs, rot) == base_id
    for alpha in itertools.permutations(range(3)):
        lift = gallery.lift_atom_permutation(cs, alpha)
        assert gallery.induced_base_map(cs, lift) == gallery.pair_action(cs, alpha)
    # a map splitting one fiber must be refused
    split = list(identity)
    fiber = cs.fibers()[0]
    other = cs.fibers()[1]
    split[fiber[0]] = other[0]
    with pytest.raises(KernelViolation):
        gallery.induced_base_map(cs, tuple(split))


def test_induced_base_map_refuses_maps_of_the_wrong_shape():
    # a short map and an image equal to the size raised a bare IndexError,
    # a long map passed, and -1 read the last point
    cs = gallery.pair_cover().sample(make_sample(DLO, 3))
    n = cs.total.structure.size
    identity = list(range(n))
    for endo, message in [
        (identity[:-1], f"map has length {n - 1}, the cover sample has {n} points"),
        (identity + [0], f"map has length {n + 1}, the cover sample has {n} points"),
        ([-1] + identity[1:], f"image -1 outside 0..{n - 1}"),
        ([n] + identity[1:], f"image {n} outside 0..{n - 1}"),
    ]:
        with pytest.raises(InvalidElement, match=f"^{message}$"):
            gallery.induced_base_map(cs, endo)


def test_fiber_rotations_form_elementary_abelian_group():
    cs = gallery.pair_cover().sample(make_sample(DLO, 4))
    n = cs.total.structure.size
    identity = tuple(range(n))
    assert gallery.fiber_rotation(cs, [], 1) == identity
    vertices = range(cs.base.structure.size)
    rotations = [
        gallery.fiber_rotation(cs, s, 2)
        for r in range(len(list(vertices)) + 1)
        for s in itertools.combinations(range(cs.base.structure.size), r)
    ]
    for rot in rotations:
        assert compose(rot, rot) == identity
        assert gallery.is_sample_automorphism(cs.total.structure, rot)
    for r1, r2 in itertools.combinations(rotations[:16], 2):
        assert compose(r1, r2) == compose(r2, r1)


def test_lift_examples():
    cs = gallery.pair_cover().sample(make_sample(DLO, 3))
    n = cs.total.structure.size
    assert gallery.lift_atom_permutation(cs, (0, 1, 2)) == tuple(range(n))
    swap = gallery.lift_atom_permutation(cs, (1, 0, 2))
    assert gallery.is_sample_automorphism(cs.total.structure, swap)


def test_cover_needs_the_order_but_oriented_pairs_do_not():
    # relabelling atoms without touching tags is an automorphism of the
    # oriented-pair sample, but breaks E on the cover sample
    atoms = make_sample(DLO, 3)
    xs = sample(gallery.tagged_pair_structure(), atoms)
    swap = (1, 0, 2)
    action = gallery.oriented_atom_action(xs, atoms, swap)
    assert gallery.is_sample_automorphism(xs.structure, action)

    cs = gallery.pair_cover().sample(atoms)
    pool = atoms.atoms
    naive = []
    for p in cs.total.points:
        u, v = p.atoms
        iu, iv = swap[pool.index(u)], swap[pool.index(v)]
        stored = tuple(sorted((pool[iu], pool[iv]), key=lambda a: a.value))
        naive.append(cs.total.points.index(Point(p.sort, stored)))
    assert not gallery.is_sample_automorphism(cs.total.structure, tuple(naive))


def test_spider_shape():
    for n in (2, 3, 5):
        s = gallery.spider(n)
        assert s.size == 3 * n
        collapse = gallery.spider_collapse_hom(n)
        assert set(collapse.mapping) == {0} | {x for x in range(3 * n) if x % 3 != 0}
    with pytest.raises(TooSmall):
        gallery.spider(1)


def test_spider_work_budget(monkeypatch):
    # spider(3): 9 unary tuples, 4 * 3 - 2 spine pairs and 2 * 3 * 2
    # inequality pairs, charged before any is built
    monkeypatch.setattr(errors, "WORK_BUDGET", 31)
    assert sum(len(ts) for ts in gallery.spider(3).relations.values()) == 31
    monkeypatch.setattr(errors, "WORK_BUDGET", 30)
    with pytest.raises(TooLarge, match="spider"):
        gallery.spider(3)


def test_spider_core_size():
    res = compute_core(gallery.spider(3))
    assert res.core.size == 7
    assert is_core(res.core)


def test_partitioned_dlo_sample():
    qst = gallery.partitioned_dlo()
    s = sample(qst, make_sample(labeled_dlo(2), 4, [0, 1, 0, 1]))
    assert len(s.structure.rel("S")) == 2
    assert len(s.structure.rel("T")) == 2
    assert len(s.structure.rel("lt")) == 6


def test_partition_companion_sample():
    comp = gallery.partitioned_dlo_companion()
    s = sample(comp, make_sample(DLO, 3))
    assert s.structure.size == 6
    lt = s.structure.rel("lt")
    for i in range(6):
        for j in range(6):
            if i != j:
                assert ((i, j) in lt) != ((j, i) in lt)
    assert len(s.structure.rel("S")) == 3 and len(s.structure.rel("T")) == 3


def test_partition_companion_embedding_map():
    qst = sample(gallery.partitioned_dlo(), make_sample(labeled_dlo(2), 4, [0, 1, 1, 0]))
    comp = sample(gallery.partitioned_dlo_companion(), make_sample(DLO, 4))
    mapping = []
    for p in qst.points:
        atom = p.atoms[0]
        mapping.append(comp.points.index(Point(atom.label, (Atom(atom.value),))))
    h = Hom(qst.structure, comp.structure, tuple(mapping))
    assert h.is_embedding()


def test_local_order_two_points():
    s2 = gallery.dense_local_order()
    s = sample(s2, make_sample(labeled_dlo(2), 2, [0, 1]))
    prec = s.structure.rel("prec")
    # split classes reverse the value order
    assert (1, 0) in prec and (0, 1) not in prec


def test_local_order_samples_are_tournaments():
    s2 = gallery.dense_local_order()
    for labels in itertools.product((0, 1), repeat=3):
        s = sample(s2, make_sample(labeled_dlo(2), 3, list(labels)))
        prec = s.structure.rel("prec")
        for i in range(3):
            assert (i, i) not in prec
            for j in range(i + 1, 3):
                assert ((i, j) in prec) != ((j, i) in prec)


def test_betweenness_matches_chain_definition():
    betw = gallery.betweenness_reduct()
    s2 = gallery.dense_local_order()
    atoms = make_sample(labeled_dlo(2), 4)
    b = sample(betw, atoms).structure.rel("betw")
    prec = sample(s2, atoms).structure.rel("prec")
    for t in itertools.product(range(4), repeat=3):
        expected = ((t[0], t[1]) in prec and (t[1], t[2]) in prec) or (
            (t[2], t[1]) in prec and (t[1], t[0]) in prec
        )
        assert (t in b) == expected


def test_cut_roundtrip():
    s2 = gallery.dense_local_order()
    s = sample(s2, make_sample(labeled_dlo(2), 5)).structure
    for c in range(s.size):
        assert gallery.s2_cut_roundtrip(s, c)
    cyclic = sample(s2, make_sample(labeled_dlo(2), 3, [0, 1, 0])).structure
    # labels S,T,S produce a 3-cycle
    prec = cyclic.rel("prec")
    assert (0, 2) in prec and (2, 1) in prec and (1, 0) in prec
    for c in range(3):
        assert gallery.s2_cut_roundtrip(cyclic, c)


def test_cut_roundtrip_rejects_corruption():
    s2 = gallery.dense_local_order()
    s = sample(s2, make_sample(labeled_dlo(2), 5)).structure
    prec = set(s.rel("prec"))
    edge = sorted(prec)[0]
    mutated = FinStructure(
        s.signature, s.size, {"prec": frozenset((prec - {edge}) | {edge[::-1]})}
    )
    assert any(not gallery.s2_cut_roundtrip(mutated, c) for c in range(s.size))


def test_perm_companion_orders_are_total():
    comp = gallery.generic_permutation_companion()
    s = sample(comp, make_sample(DLO, 4))
    for name in ("prec1", "prec2"):
        rel = s.structure.rel(name)
        for i in range(s.structure.size):
            assert (i, i) not in rel
            for j in range(i + 1, s.structure.size):
                assert ((i, j) in rel) != ((j, i) in rel)
        for i, j, k in itertools.product(range(s.structure.size), repeat=3):
            if (i, j) in rel and (j, k) in rel:
                assert (i, k) in rel


def test_perm_companion_age_on_three_points():
    comp = sample(gallery.generic_permutation_companion(), make_sample(DLO, 6))
    from relcore.finstruct import Signature

    sig = Signature((("prec1", 2), ("prec2", 2)))
    for pi in itertools.permutations(range(3)):
        r1 = frozenset((i, j) for i in range(3) for j in range(3) if i < j)
        r2 = frozenset((i, j) for i in range(3) for j in range(3) if pi[i] < pi[j])
        pattern = FinStructure(sig, 3, {"prec1": r1, "prec2": r2})
        assert find_hom(pattern, comp.structure, "embedding") is not None


def test_perm_companion_interprets_partitioned_order():
    # realize the derived order-with-classes on the first-order-ascending
    # element pairs: compare lexicographically in the first order, classify
    # a pair by the second order between its members
    comp = sample(gallery.generic_permutation_companion(), make_sample(DLO, 4))
    st = comp.structure
    prec1 = st.rel("prec1")
    prec2 = st.rel("prec2")
    domain = [(i, j) for (i, j) in prec1]
    cls_s = {(i, j) for (i, j) in domain if (i, j) in prec2}
    cls_t = {(i, j) for (i, j) in domain if (j, i) in prec2}
    assert cls_s | cls_t == set(domain) and not cls_s & cls_t
    assert cls_s and cls_t
    derived = set()
    for a in domain:
        for b in domain:
            if a == b:
                continue
            if (a[0], b[0]) in prec1 or (a[0] == b[0] and (a[1], b[1]) in prec1):
                derived.add((a, b))
    for a in domain:
        for b in domain:
            if a != b:
                assert ((a, b) in derived) != ((b, a) in derived)
    count = 0
    for a in domain:
        for b in domain:
            if (a, b) not in derived:
                continue
            for c in domain:
                if (b, c) in derived:
                    assert (a, c) in derived
                    count += 1
    assert count > 0


def test_johnson_samples_core_measurements():
    # measured: the pair-graph samples are already cores at every size from
    # one vertex up
    for k in (2, 3, 4):
        cs = gallery.pair_cover().sample(make_sample(DLO, k))
        assert is_core(cs.base.structure)


def test_lookup():
    assert gallery.lookup_definable("Jord2") is not None
    assert gallery.lookup_definable("qst") is not None
    assert gallery.lookup_definable("nothing") is None
    assert gallery.lookup_finite("spider3").size == 9
    assert gallery.lookup_finite("spider:4").size == 12


# The former hand-written actions and clause builders, kept as oracles for
# the shared atom action and tagged-pair builder.


def old_lift_atom_permutation(cs, alpha):
    atoms = cs.atoms.atoms
    atom_index = {a.value: i for i, a in enumerate(atoms)}
    total_index = {p: i for i, p in enumerate(cs.total.points)}
    out = []
    for p in cs.total.points:
        u, v = p.atoms
        a1, a2 = atoms[alpha[atom_index[u.value]]], atoms[alpha[atom_index[v.value]]]
        if a1.value < a2.value:
            image = Point(p.sort, (a1, a2))
        else:
            image = Point((p.sort + 1) % gallery.TAGS, (a2, a1))
        out.append(total_index[image])
    return tuple(out)


def old_pair_action(cs, alpha):
    atoms = cs.atoms.atoms
    atom_index = {a.value: i for i, a in enumerate(atoms)}
    base_index = {p: i for i, p in enumerate(cs.base.points)}
    out = []
    for p in cs.base.points:
        u, v = p.atoms
        pair = sorted((atoms[alpha[atom_index[u.value]]], atoms[alpha[atom_index[v.value]]]))
        out.append(base_index[Point(0, tuple(pair))])
    return tuple(out)


def old_oriented_atom_action(xs, atoms, alpha):
    pool = atoms.atoms
    atom_index = {a.value: i for i, a in enumerate(pool)}
    index = {p: i for i, p in enumerate(xs.points)}
    out = []
    for p in xs.points:
        orient, tag = divmod(p.sort, gallery.TAGS)
        u, v = p.atoms
        first, second = (u, v) if orient == 0 else (v, u)
        img1 = pool[alpha[atom_index[first.value]]]
        img2 = pool[alpha[atom_index[second.value]]]
        new_orient = 0 if img1.value < img2.value else 1
        stored = (img1, img2) if new_orient == 0 else (img2, img1)
        out.append(index[Point(new_orient * gallery.TAGS + tag, stored)])
    return tuple(out)


def old_tagged_pair_structure():
    def sel(orient, tag):
        return (tag % 2) ^ orient

    sorts = tuple(Sort(f"{o}{m}", 2) for o in ("a", "d") for m in range(gallery.TAGS))
    clauses = []
    for o in ("a", "d"):
        for m in range(gallery.TAGS):
            guard = (f"{o}{m}", f"{o}{(m + 1) % gallery.TAGS}")
            clauses.append(RelationClause("R", 2, guard, fm.And(fm.Eq(0, 2), fm.Eq(1, 3))))
    for oi, o in enumerate(("a", "d")):
        for m in range(gallery.TAGS):
            for pj, p in enumerate(("a", "d")):
                for n in range(gallery.TAGS):
                    body = fm.And(fm.Eq(sel(oi, m), 2 + sel(pj, n)), gallery._EXACTLY_ONE_COMMON)
                    clauses.append(RelationClause("E", 2, (f"{o}{m}", f"{p}{n}"), body))
    clauses.append(RelationClause("N", 2, ("*", "*"), gallery._NO_COMMON))
    return DefStructure(DLO, sorts, tuple(clauses))


def old_pair_cover_total():
    sorts = tuple(Sort(f"m{m}", 2) for m in range(gallery.TAGS))
    clauses = []
    for m in range(gallery.TAGS):
        guard = (f"m{m}", f"m{(m + 1) % gallery.TAGS}")
        clauses.append(RelationClause("R", 2, guard, fm.And(fm.Eq(0, 2), fm.Eq(1, 3))))
    for m in range(gallery.TAGS):
        for n in range(gallery.TAGS):
            body = fm.And(fm.Eq(m % 2, 2 + (n % 2)), gallery._EXACTLY_ONE_COMMON)
            clauses.append(RelationClause("E", 2, (f"m{m}", f"m{n}"), body))
    clauses.append(RelationClause("N", 2, ("*", "*"), gallery._NO_COMMON))
    return DefStructure(DLO, sorts, tuple(clauses))


def test_tagged_pair_builders_match_old_builders():
    assert gallery.tagged_pair_structure().to_json() == old_tagged_pair_structure().to_json()
    assert gallery.pair_cover().total.to_json() == old_pair_cover_total().to_json()


@pytest.mark.parametrize("k", [3, 4])
def test_atom_actions_match_old_actions(k):
    atoms = make_sample(DLO, k)
    cs = gallery.pair_cover().sample(atoms)
    xs = sample(gallery.tagged_pair_structure(), atoms)
    for alpha in itertools.permutations(range(k)):
        assert gallery.lift_atom_permutation(cs, alpha) == old_lift_atom_permutation(cs, alpha)
        assert gallery.pair_action(cs, alpha) == old_pair_action(cs, alpha)
        assert gallery.oriented_atom_action(xs, atoms, alpha) == old_oriented_atom_action(xs, atoms, alpha)


def test_atom_actions_validate_alpha():
    atoms = make_sample(DLO, 3)
    cs = gallery.pair_cover().sample(atoms)
    xs = sample(gallery.tagged_pair_structure(), atoms)
    for alpha in [(0, 1), (0, 0, 1), (1, 2, 3), (0, 1, 2, 3)]:
        with pytest.raises(InvalidElement):
            gallery.lift_atom_permutation(cs, alpha)
        with pytest.raises(InvalidElement):
            gallery.pair_action(cs, alpha)
        with pytest.raises(InvalidElement):
            gallery.oriented_atom_action(xs, atoms, alpha)


def test_involution_scan_work_budget(monkeypatch):
    # two transpositions generating S3 on three points, n = 3 steps per
    # composition and per element stored: the two generators stored (6),
    # 2 * 6 compositions in the closure (36), the 4 further elements stored
    # (12), one square per non-identity element (15), and two compositions
    # for the first pair of involutions, which already fails to commute (6)
    gens = [(1, 0, 2), (0, 2, 1)]
    monkeypatch.setattr(errors, "WORK_BUDGET", 75)
    group, involutions, witness = gallery._involution_scan(gens)
    assert len(group) == 6
    assert involutions == [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    assert witness == ((0, 2, 1), (1, 0, 2))
    monkeypatch.setattr(errors, "WORK_BUDGET", 74)
    with pytest.raises(TooLarge, match="work budget"):
        gallery._involution_scan(gens)


# The former generator lists, kept as oracles for the generating sets: every
# lift and every subset rotation on the cover, every oriented action on the
# tagged ordered pairs.


def old_cover_generators(cs, k):
    pairs = cs.base.structure.size
    lifts = [gallery.lift_atom_permutation(cs, alpha) for alpha in itertools.permutations(range(k))]
    rotations = [
        gallery.fiber_rotation(cs, subset, 2)
        for r in range(pairs + 1)
        for subset in itertools.combinations(range(pairs), r)
    ]
    return lifts + rotations


def old_control_generators(xs, atoms, k):
    return [gallery.oriented_atom_action(xs, atoms, alpha) for alpha in itertools.permutations(range(k))]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reports_scan_the_groups_of_every_lift_and_rotation(k, monkeypatch):
    # the reports' generating sets give the same group, involutions and
    # non-commuting witness as the former lists; at k = 4 the former 24
    # lifts and 64 rotations of 24 points pass the work budget
    scans = []
    scan = gallery._involution_scan

    def recorded(gens):
        result = scan(gens)
        scans.append((gens, result))
        return result

    monkeypatch.setattr(gallery, "_involution_scan", recorded)
    monkeypatch.setattr(errors, "WORK_BUDGET", 10**7)
    gallery.involution_report(k)
    gallery.orientation_control_report(k)
    (cover_gens, cover), (control_gens, control) = scans
    assert len(cover_gens) <= 2 + math.comb(k, 2)
    assert len(control_gens) <= 2
    atoms = make_sample(DLO, k)
    cs = gallery.pair_cover().sample(atoms)
    xs = sample(gallery.tagged_pair_structure(), atoms)
    assert cover == scan(old_cover_generators(cs, k))
    assert control == scan(old_control_generators(xs, atoms, k))


def two_sided_automorphism(structure, perm):
    """The former check, the oracle for is_sample_automorphism: a bijection
    that preserves every relation and whose inverse does too."""
    if sorted(perm) != list(range(structure.size)):
        return False
    if hom_violations(structure, structure, perm):
        return False
    inverse = [0] * structure.size
    for x, y in enumerate(perm):
        inverse[y] = x
    return not hom_violations(structure, structure, inverse)


def closed_under(structure, perm):
    """The least structure with structure's tuples that perm preserves."""
    rels = {}
    for name, ts in structure.relations.items():
        closed = set()
        for t in ts:
            while t not in closed:
                closed.add(t)
                t = tuple(perm[x] for x in t)
        rels[name] = frozenset(closed)
    return FinStructure(structure.signature, structure.size, rels)


def test_sample_automorphism_matches_two_sided_check():
    # random permutations, of random structures and of the structures they
    # were closed under, and the first endomorphisms of both; over a hundred
    # of the bijections other than the identity are automorphisms, and over
    # a hundred are not
    rng = random.Random(25)
    verdicts = Counter()
    for _ in range(200):
        s = random_structure(rng, max_size=6)
        perm = list(range(s.size))
        rng.shuffle(perm)
        for t in (s, closed_under(s, perm)):
            for m in [tuple(perm)] + [h.mapping for h in enumerate_endos(t, limit=20)]:
                got = gallery.is_sample_automorphism(t, m)
                assert got == two_sided_automorphism(t, m), (t, m)
                if sorted(m) == list(range(t.size)) != list(m):
                    verdicts[got] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


@pytest.mark.parametrize(
    "call",
    [
        # 2 + C(6, 2) = 17 generators of 60 points each and 2 + C(7, 2) = 23
        # of 84: the scan raises while closing groups of 6! * 2^15 and
        # 7! * 2^21 elements
        lambda: gallery.involution_report(6),
        lambda: gallery.involution_report(7),
        lambda: gallery.involution_report(10**6),
        lambda: gallery.orientation_control_report(10**6),
    ],
    ids=["involutions-6", "involutions-7", "involutions-huge", "control-huge"],
)
def test_involution_analysis_over_budget_raises_at_once(call):
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="work budget"):
        call()
    assert time.perf_counter() - start < 1.0
