"""Canonical form by individualization-refinement against a brute-force oracle."""

import functools
import gc
import itertools
import operator
import random
import time

import pytest

from relcore import definable, errors, finstruct, gallery
from relcore.atoms import PURE_SET, make_sample
from relcore.definable import DefStructure, Sort, sample, unlabelled_growth
from relcore.errors import TooLarge
from relcore.finstruct import FinStructure, Signature, canonical_form
from relcore.verify import _mutated_copy, _permuted_copy, local_order_count, random_structure


def _vertex_invariants(structure):
    inv = [[] for _ in range(structure.size)]
    for name, arity in structure.signature.relations:
        counts = [[0] * arity for _ in range(structure.size)]
        for t in structure.relations[name]:
            for pos, x in enumerate(t):
                counts[x][pos] += 1
        for v in range(structure.size):
            inv[v].extend(counts[v])
    return [tuple(x) for x in inv]


def brute_force_form(structure):
    """Least encoding over every domain permutation that respects the
    per-position occurrence counts of each vertex."""
    n = structure.size
    inv = _vertex_invariants(structure)
    blocks = {}
    for v in range(n):
        blocks.setdefault(inv[v], []).append(v)
    ordered_blocks = sorted(blocks.items())
    profile = tuple((key, len(vs)) for key, vs in ordered_blocks)
    offsets = []
    start = 0
    for _, vs in ordered_blocks:
        offsets.append((vs, start))
        start += len(vs)
    names = structure.signature.names()
    best = None
    for arrangement in itertools.product(*[itertools.permutations(vs) for vs, _ in offsets]):
        perm = [0] * n
        for (vs, off), arranged in zip(offsets, arrangement):
            for k, v in enumerate(arranged):
                perm[v] = off + k
        encoded = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in structure.relations[name]))
            for name in names
        )
        if best is None or encoded < best:
            best = encoded
    return (tuple(structure.signature.relations), n, profile, best)


def partition(forms):
    """Class index of each item, numbered in order of first appearance."""
    index = {}
    return [index.setdefault(f, len(index)) for f in forms]


def test_random_structures_against_oracle():
    rng = random.Random(2014)
    groups_with_isomorphic_mutants = 0
    for _ in range(150):
        s = random_structure(rng, max_size=7)
        assert canonical_form(_permuted_copy(s, rng)) == canonical_form(s)
        # one tuple flipped, then relabelled: two mutants can be isomorphic
        # to each other, never to the original
        group = [s] + [_permuted_copy(_mutated_copy(s, rng), rng) for _ in range(4)]
        classes = partition(map(canonical_form, group))
        assert classes == partition(map(brute_force_form, group))
        groups_with_isomorphic_mutants += len(set(classes)) < len(classes)
    assert groups_with_isomorphic_mutants > 0


def induced_structures(D, n):
    """The structure induced on each n-point support class of a gallery
    object whose single sort sits on labelled atoms of dimension one."""
    return [
        sample(D, make_sample(D.base, n, list(word))).structure
        for word in itertools.product(range(D.base.alphabet), repeat=n)
    ]


@pytest.mark.parametrize("build", [gallery.dense_local_order, gallery.betweenness_reduct])
def test_gallery_class_partitions_against_oracle(build):
    D = build()
    for n in range(1, 7):
        structures = induced_structures(D, n)
        assert partition(map(canonical_form, structures)) == partition(map(brute_force_form, structures))


def _full(arity, n):
    return FinStructure(
        Signature((("E", arity),)), n, {"E": frozenset(itertools.product(range(n), repeat=arity))}
    )


@pytest.mark.parametrize(
    "structure",
    [
        FinStructure(Signature((("E", 2),)), 10, {"E": frozenset()}),
        FinStructure(
            Signature((("E", 2),)),
            10,
            {"E": frozenset((i, j) for i in range(10) for j in range(10) if i != j)},
        ),
        _full(3, 10),
    ],
    ids=["empty-digraph", "complete-digraph", "full-ternary"],
)
def test_highly_symmetric_structures_are_fast(structure):
    start = time.perf_counter()
    form = canonical_form(structure)
    assert time.perf_counter() - start < 1.0
    assert canonical_form(_permuted_copy(structure, random.Random(3))) == form


def _graph(n, edges):
    return FinStructure(Signature((("E", 2),)), n, {"E": frozenset(e for a, b in edges for e in ((a, b), (b, a)))})


def _cycles(*lengths, directed=False):
    edges = []
    for offset, length in zip(itertools.accumulate((0,) + lengths), lengths):
        edges += [(offset + i, offset + (i + 1) % length) for i in range(length)]
    if directed:
        return FinStructure(Signature((("E", 2),)), sum(lengths), {"E": frozenset(edges)})
    return _graph(sum(lengths), edges)


_PAIRS = [frozenset(c) for c in itertools.combinations(range(5), 2)]
# Refinement cannot split any of these, and several of them mix vertices that
# refinement cannot tell apart with vertices in other orbits, so the result
# depends on searching every leaf class that automorphisms do not cover.
SYMMETRIC = {
    "C3+C3+C4": _cycles(3, 3, 4),
    "C4+C6": _cycles(4, 6),
    "C3+C7": _cycles(3, 7),
    "C5+C5": _cycles(5, 5),
    "C10": _cycles(10),
    "directed C3+C3+C4": _cycles(3, 3, 4, directed=True),
    "directed C4+C6": _cycles(4, 6, directed=True),
    "petersen": _graph(10, [(a, b) for a in range(10) for b in range(a) if not _PAIRS[a] & _PAIRS[b]]),
    "prism": _graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i + 5, (i + 1) % 5 + 5) for i in range(5)]
                    + [(i, i + 5) for i in range(5)]),
    "moebius-ladder": _graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(i, i + 5) for i in range(5)]),
    "loops": FinStructure(Signature((("E", 2),)), 10, {"E": frozenset((i, i) for i in range(10))}),
    "full": _full(2, 10),
}


def test_symmetric_structures_relabel_and_separate():
    rng = random.Random(5)
    forms = {}
    for name, structure in SYMMETRIC.items():
        forms[name] = canonical_form(structure)
        for _ in range(10):
            assert canonical_form(_permuted_copy(structure, rng)) == forms[name], name
    assert len(set(forms.values())) == len(forms)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_local_order_growth_beyond_default_cap(n):
    s2 = gallery.dense_local_order()
    assert unlabelled_growth(s2, n, "homogeneous") == local_order_count(n)


def old_refine(incidences, tuples, colours, rounds=None):
    """The former colour refinement, the oracle for finstruct._refine:
    tuples lists (relation index, tuple) and incidences[v] lists (position,
    tuple index) for every position at which v occurs.  Each round gives v
    the key (old colour, sorted multiset of (position, relation, colours of
    the tuple)) and renumbers the keys 0..k-1 in sorted order.  It stops at
    a stable colouring, or after `rounds` rounds when that is given."""
    cells = len(set(colours))
    while cells < len(colours) and rounds != 0:
        coloured = [(r, tuple([colours[x] for x in t])) for r, t in tuples]
        keys = [
            (colours[v], tuple(sorted([(p, coloured[i]) for p, i in occ])))
            for v, occ in enumerate(incidences)
        ]
        ranked = sorted(set(keys))
        if len(ranked) == cells:
            break
        rank = {k: i for i, k in enumerate(ranked)}
        colours = [rank[k] for k in keys]
        cells = len(ranked)
        rounds = None if rounds is None else rounds - 1
    return colours


def old_refiner(n, rels):
    """A function from a colouring to its refinement, on old_refine."""
    tuples = [(r, t) for r, ts in enumerate(rels) for t in ts]
    incidences = [[] for _ in range(n)]
    for i, (_, t) in enumerate(tuples):
        for p, x in enumerate(t):
            incidences[x].append((p, i))
    return functools.partial(old_refine, incidences, tuples)


def refined(n, rels, colours):
    """finstruct._refine on the columns of rels."""
    return finstruct._refine(n, [list(zip(*ts)) for ts in rels], colours)


def rows(columns):
    """The tuples of each relation back from its columns, in their order."""
    return [list(zip(*cols)) for cols in columns]


def wide_structure(rng):
    """A structure on at most 8 elements with up to three relations, about
    half of them with one relation of arity 9 or 10, so that a refinement
    code packing (position, tuple) into an int that leaves room for fewer
    positions collides."""
    size = rng.randint(1, 8)
    names = []
    rels = {}
    for i in range(rng.randint(1, 3)):
        arity = rng.choice((9, 10)) if i == 0 and rng.random() < 0.5 else rng.randint(1, 3)
        if arity > 3:
            tuples = {tuple(rng.randrange(size) for _ in range(arity)) for _ in range(rng.randint(0, 4))}
        else:
            density = rng.choice((0.1, 0.3, 0.5))
            tuples = {t for t in itertools.product(range(size), repeat=arity) if rng.random() < density}
        names.append((f"R{i}", arity))
        rels[f"R{i}"] = frozenset(tuples)
    return FinStructure(Signature(tuple(names)), size, rels)


def test_refinement_matches_old_refine():
    # the codes sort as the old keys, so every round splits and orders the
    # cells as before: equal colourings, from the unit colouring, random
    # colourings and one vertex individualized
    rng = random.Random(17)
    wide = 0
    for _ in range(300):
        s = wide_structure(rng)
        n = s.size
        rels = [s.relations[name] for name in s.signature.names()]
        wide += max(a for _, a in s.signature.relations) >= 9
        starts = [[0] * n, [rng.randrange(3) for _ in range(n)]]
        starts.append(finstruct._individualize(old_refiner(n, rels)([0] * n), rng.randrange(n)))
        for colours in starts:
            assert refined(n, rels, colours) == old_refiner(n, rels)(colours), (s, colours)
    assert wide > 100


def test_forms_match_old_refinement_forms(monkeypatch):
    # on seeded random structures and random relabellings, forms from the
    # new refinement and from the old one tell the same structures apart,
    # and each is the same on a structure and on its relabelled copies
    rng = random.Random(23)
    for _ in range(120):
        s = wide_structure(rng)
        group = [s, _permuted_copy(s, rng)] + [_permuted_copy(_mutated_copy(s, rng), rng) for _ in range(3)]
        new = [canonical_form(g) for g in group]
        with monkeypatch.context() as m:
            m.setattr(finstruct, "_refine", lambda n, columns, colours: old_refiner(n, rows(columns))(colours))
            old = [canonical_form(g) for g in group]
        assert partition(new) == partition(old)
        assert new[0] == new[1]


def ranked_profiles(n, rels):
    profiles = finstruct._occurrence_profiles(n, [list(zip(*ts)) for ts in rels])
    rank = {p: c for c, p in enumerate(sorted(set(profiles)))}
    return [rank[p] for p in profiles]


def with_empty_relations():
    """Structures where empty relations sit before, between and after
    nonempty ones, so that two relations start at the same tuple number."""
    sig = Signature((("A", 2), ("B", 3), ("C", 1), ("D", 2)))
    yield FinStructure(sig, 0, {})
    yield FinStructure(sig, 1, {})
    yield FinStructure(sig, 4, {"B": {(0, 1, 2), (2, 2, 3)}, "D": {(3, 0)}})
    yield FinStructure(sig, 5, {"A": {(0, 1), (1, 0)}, "C": {(4,)}})
    yield FinStructure(sig, 3, {"D": {(0, 1), (1, 2), (2, 0)}})


def test_occurrence_profiles_are_the_first_refinement_round():
    # ranking the occurrence profiles gives, colour for colour, the first
    # round of the old refinement from the uniform colouring, and refining
    # from there reaches the colouring refinement reaches from the uniform one
    rng = random.Random(31)
    structures = [wide_structure(rng) for _ in range(300)] + list(with_empty_relations())
    for s in structures:
        n = s.size
        rels = [s.relations[name] for name in s.signature.names()]
        start = ranked_profiles(n, rels)
        assert start == old_refiner(n, rels)([0] * n, rounds=1), s
        assert refined(n, rels, start) == refined(n, rels, [0] * n), s


def test_search_from_profiles_matches_the_uniform_start(monkeypatch):
    # starting the canonical search from the ranked profiles instead of the
    # uniform colouring changes no form and no growth encoding, byte for
    # byte; profiles that are all () rank to the uniform colouring
    rng = random.Random(37)
    structures = [random_structure(rng, max_size=9) for _ in range(700)]
    structures += [wide_structure(rng) for _ in range(300)] + list(with_empty_relations())
    encodings = []
    search = definable._canonical_encoding

    def recorded(n, rels):
        encodings.append(search(n, rels))
        return encodings[-1]

    monkeypatch.setattr(definable, "_canonical_encoding", recorded)
    growth = [("s2", 7, "homogeneous"), ("s2", 7, "reversal"), ("betw", 6, "homogeneous"), ("y", 3, "homogeneous")]
    runs = []
    for uniform in (False, True):
        if uniform:
            monkeypatch.setattr(finstruct, "_occurrence_profiles", lambda n, columns: [()] * n)
        encodings.clear()
        forms = [canonical_form(s) for s in structures]
        counts = [unlabelled_growth(gallery.lookup_definable(name), n, mode) for name, n, mode in growth]
        runs.append((forms, counts, list(encodings)))
    assert runs[0] == runs[1]
    assert runs[0][1] == [local_order_count(7), 9, 5, 14]


def test_x4_canonical_form_charges(monkeypatch):
    # the 48-element X@4 sample: n plus the number of tuples for each of the
    # refinement tree's nodes, 106,272 steps in all
    x = gallery.tagged_pair_structure()
    x4 = sample(x, make_sample(x.base, 4)).structure
    monkeypatch.setattr(errors, "WORK_BUDGET", 106272)
    canonical_form(x4)
    monkeypatch.setattr(errors, "WORK_BUDGET", 106271)
    with pytest.raises(TooLarge, match="work budget"):
        canonical_form(x4)


def layout_refiner(n, rels):
    """The former refinement on a per-structure layout, the oracle for
    finstruct._refine on columns: one itemgetter per tuple, and per vertex
    the (shift p * K, tuple index) of each of its occurrences."""
    getters = [[operator.itemgetter(*t) for t in ts] for ts in rels]
    tuples = [t for ts in rels for t in ts]
    occurs = [[] for _ in range(n)]
    for i, t in enumerate(tuples):
        for p, x in enumerate(t):
            occurs[x].append((p * len(tuples), i))
    shift = [s for occ in occurs for s, _ in occ]
    incident = [i for occ in occurs for _, i in occ]
    ends = list(itertools.accumulate(map(len, occurs)))
    starts = [0] + ends[:-1]

    def refine(colours):
        cells = len(set(colours))
        while cells < n:
            codes = []
            for gs in getters:
                coloured = [g(colours) for g in gs]
                ids = {c: k for k, c in enumerate(sorted(set(coloured)), len(codes))}
                codes += map(ids.__getitem__, coloured)
            flat = list(map(operator.add, shift, map(codes.__getitem__, incident)))
            keys = [(c, tuple(sorted(flat[a:b]))) for c, a, b in zip(colours, starts, ends)]
            ranked = sorted(set(keys))
            if len(ranked) == cells:
                break
            rank = {key: k for k, key in enumerate(ranked)}
            colours = [rank[key] for key in keys]
            cells = len(ranked)
        return colours

    return refine


def layout_encoding(n, rels):
    """The former canonical search, the oracle for finstruct._canonical_encoding:
    the layout refinement above, profiles read from each relation's lazy
    columns, and each leaf relabelling every tuple on its own."""
    steps = n + sum(map(len, rels))
    refine = layout_refiner(n, rels)
    first = best = None
    automorphisms = []

    def leaf(labels, path):
        nonlocal first, best
        encoding = tuple(tuple(sorted([tuple([labels[x] for x in t]) for t in ts])) for ts in rels)
        if first is None:
            first = best = (encoding, labels, path)
            return None
        for seen in (first, best):
            if encoding == seen[0]:
                vertex_at = [0] * n
                for v, c in enumerate(labels):
                    vertex_at[c] = v
                automorphisms.append([vertex_at[c] for c in seen[1]])
                return next(k for k, (a, b) in enumerate(zip(seen[2], path)) if a != b)
        if encoding < best[0]:
            best = (encoding, labels, path)
        return None

    def visit(colours, path):
        errors.charge(steps, "canonical form")
        colours = refine(colours)
        if len(set(colours)) == n:
            return leaf(colours, path)
        cells = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        _, target = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)
        depth = len(path)
        tried = []
        for w in cells[target]:
            if tried:
                fixing = [g for g in automorphisms if all(g[u] == u for u in path)]
                if not finstruct._closure({w: ()}, fixing).keys().isdisjoint(tried):
                    continue
            tried.append(w)
            resume = visit(finstruct._individualize(colours, w), path + [w])
            if resume is not None and resume < depth:
                return resume
        return None

    profiles = finstruct._occurrence_profiles(n, [zip(*ts) for ts in rels])
    rank = {profile: c for c, profile in enumerate(sorted(set(profiles)))}
    visit([rank[profile] for profile in profiles], [])
    visit = None
    return best[0]


def layout_form(structure):
    """canonical_form's bytes from layout_encoding."""
    n = structure.size
    rels = [structure.relations[name] for name in structure.signature.names()]
    return repr((tuple(structure.signature.relations), n, layout_encoding(n, rels))).encode("utf-8")


def gallery_samples():
    """The J@6, X@4, Y@4, betweenness@7 and S2@8 samples."""
    for name, atoms in [("johnson", 6), ("x", 4), ("y", 4), ("betw", 7), ("s2", 8)]:
        D = gallery.lookup_definable(name)
        yield sample(D, make_sample(D.base, atoms)).structure


def test_column_search_matches_the_layout_search():
    # reading each relation once as its columns changes no form, byte for
    # byte: seeded random structures, wide ones (arity 9 and 10), empty
    # relations before, between and after nonempty ones, and gallery samples
    rng = random.Random(41)
    structures = [random_structure(rng, max_size=9) for _ in range(1500)]
    structures += [wide_structure(rng) for _ in range(1500)] + list(with_empty_relations())
    structures += list(gallery_samples())
    assert len(structures) >= 3000
    for s in structures:
        assert canonical_form(s) == layout_form(s), s


def test_column_growth_encodings_match_the_layout_search(monkeypatch):
    # every encoding growth asks for is the layout search's: S2 in
    # homogeneous and reversal mode, betweenness, Y and pure-set pairs
    calls = []
    search = definable._canonical_encoding

    def recorded(n, rels):
        calls.append((n, [list(ts) for ts in rels], search(n, rels)))
        return calls[-1][2]

    monkeypatch.setattr(definable, "_canonical_encoding", recorded)
    growth = [("s2", 8, "homogeneous"), ("s2", 8, "reversal"), ("betw", 7, "homogeneous"), ("y", 3, "homogeneous")]
    counts = [unlabelled_growth(gallery.lookup_definable(name), n, mode) for name, n, mode in growth]
    # the set keys of the orbit walk on atom pairs of (N; =)
    pairs = DefStructure(PURE_SET, (Sort("e", 2),), ())
    counts.append(unlabelled_growth(pairs, 4))
    assert counts == [local_order_count(8), 12, 9, 14, 11]
    assert len(calls) > 300
    for n, rels, encoding in calls:
        assert encoding == layout_encoding(n, rels), (n, rels)


def test_deep_canonical_search_is_bounded_by_the_budget():
    # the search individualizes one element per level and keeps its path in
    # a list: with no tuples, 1,100 elements run out of the work budget (n
    # steps a node) within seconds, and the refusal leaves no reference
    # cycle behind
    empty = FinStructure(Signature((("E", 2),)), 1100, {})
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="work budget .* canonical form"):
            canonical_form(empty)
        assert time.perf_counter() - start < 15
        assert gc.collect() == 0
    finally:
        gc.enable()
