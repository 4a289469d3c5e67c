import functools
import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from relcore.atoms import DLO, PURE_SET, Atom, AtomBase, labeled_dlo, make_sample
from relcore.definable import (
    DefStructure,
    Point,
    RelationClause,
    SignedLex,
    Sort,
    classify_signed_lex,
    disjoint_union_def,
    enumerate_invariant_orders,
    full_power_def,
    growth_up_to_reversal,
    increasing_tuple_structure,
    induce_on_points,
    point_orbits,
    reduct,
    sample,
    unlabelled_growth,
)
from relcore.errors import (
    ArityMismatch,
    BaseMismatch,
    InvalidDimension,
    InvalidElement,
    InvalidLabel,
    OrderNotAvailable,
    RelcoreError,
    SignatureMismatch,
    TooLarge,
    TooSmall,
    Unsupported,
)
from relcore.finstruct import FinStructure, Signature, canonical_form, disjoint_union, full_power
from relcore import definable, errors
from relcore import formulas as fm
from relcore import gallery
from relcore.verify import local_order_count, random_def_structure
from test_atoms import order_type
from test_formulas import positions


def test_sample_sizes():
    jord2 = increasing_tuple_structure(2)
    assert sample(jord2, make_sample(DLO, 3)).structure.size == 3
    y = gallery.pair_cover().total
    assert sample(y, make_sample(DLO, 2)).structure.size == 4
    x = gallery.tagged_pair_structure()
    assert sample(x, make_sample(DLO, 3)).structure.size == 24


def test_sample_base_mismatch():
    with pytest.raises(BaseMismatch):
        sample(increasing_tuple_structure(1), make_sample(PURE_SET, 3))


def test_reduct_empty_and_complement():
    jord1 = increasing_tuple_structure(1)
    bare = reduct(jord1, ())
    s = sample(bare, make_sample(DLO, 4))
    assert s.structure.size == 4 and not s.structure.signature.relations

    ge = reduct(jord1, (RelationClause("ge", 2, ("*", "*"), fm.Not(fm.Less(0, 1))),))
    gs = sample(ge, make_sample(DLO, 3))
    lt = sample(jord1, make_sample(DLO, 3)).structure.rel("lt11")
    pairs = {(i, j) for i in range(3) for j in range(3)}
    assert gs.structure.rel("ge") == frozenset(pairs - lt)


def test_reduct_rejects_ill_typed():
    with pytest.raises(ArityMismatch):
        reduct(
            increasing_tuple_structure(1),
            (RelationClause("bad", 1, ("*",), fm.Less(0, 1)),),
        )


def test_disjoint_union_def():
    jord1 = increasing_tuple_structure(1)
    both = disjoint_union_def(jord1, jord1)
    assert len(both.sorts) == 2 and all(s.dim == 1 for s in both.sorts)
    atoms = make_sample(DLO, 3)
    merged = sample(both, atoms).structure
    single = sample(jord1, atoms).structure
    assert merged == disjoint_union(single, single)
    # each guard entry becomes the set of its sorts' names in the union
    assert both.to_json()["relations"][-1]["guard"] == [["t'"], ["t'"]]


def test_disjoint_union_def_constant_sort():
    point = DefStructure(DLO, (Sort("c", 0),), ())
    jord1 = increasing_tuple_structure(1)
    combined = disjoint_union_def(point, jord1)
    s = sample(combined, make_sample(DLO, 3))
    assert s.structure.size == 1 + 3
    # the constant keeps its own sort, pinned by every sample
    assert s.points[0].sort == 0 and s.points[0].atoms == ()


def test_full_power_def_dimension_one():
    jord1 = increasing_tuple_structure(1)
    p1 = full_power_def(jord1, 1)
    atoms = make_sample(DLO, 3)
    ps = sample(p1, atoms).structure
    base = sample(jord1, atoms).structure
    assert ps.size == base.size
    assert ps.rel("=@1,1") == frozenset({(i, i) for i in range(3)})
    assert ps.rel("lt11@1,1") == base.rel("lt11")


def _power_bijection(d_struct, power, atoms, d):
    """Map each power point to the tuple of component ids in the base sample."""
    base = sample(d_struct, atoms)
    ps = sample(power, atoms)
    patterns = {s.name: rows for s, rows in zip(power.sorts, _pattern_rows(power))}
    n = base.structure.size
    mapping = []
    for p in ps.points:
        rows = patterns[power.sorts[p.sort].name]
        ids = [base.points.index(Point(0, tuple(p.atoms[k] for k in row))) for row in rows]
        flat = 0
        for c in ids:
            flat = flat * n + c
        mapping.append(flat)
    return ps, base, mapping


def _pattern_rows(power):
    # sort names encode their slot rows as "p[r1|r2|...]"
    out = []
    for s in power.sorts:
        body = s.name[2:-1]
        rows = tuple(
            tuple(int(x) for x in part.split(",")) if part else ()
            for part in body.split("|")
        )
        out.append(rows)
    return out


def test_full_power_def_matches_finite_power():
    jord1 = increasing_tuple_structure(1)
    power = full_power_def(jord1, 2)
    atoms = make_sample(DLO, 3)
    ps, base, mapping = _power_bijection(jord1, power, atoms, 2)
    fin = full_power(base.structure, 2)
    assert sorted(mapping) == list(range(fin.size))
    assert ps.structure.signature == fin.signature
    for name, _ in fin.signature.relations:
        transported = {tuple(mapping[x] for x in t) for t in ps.structure.rel(name)}
        assert transported == set(fin.rel(name)), name


@pytest.mark.parametrize("m,d", [(0, 2), (1, 2), (2, 2), (3, 1)])
def test_power_equality_clauses_match_old_construction(m, d):
    # the former special case for "=": component-wise equality of the two
    # selected rows, or TRUE on a dimension-0 sort
    power = full_power_def(DefStructure(DLO, (Sort("t", m),), ()), d)
    rows = dict(zip((s.name for s in power.sorts), _pattern_rows(power)))
    dims = {s.name: s.dim for s in power.sorts}
    equalities = [c for c in power.clauses if c.name.startswith("=@")]
    assert len(equalities) == d * d * len(power.sorts) ** 2
    for clause in equalities:
        j1, j2 = (int(j) - 1 for j in clause.name[2:].split(","))
        s1, s2 = clause.guard
        old = fm.And(tuple(fm.Eq(rows[s1][j1][c], dims[s1] + rows[s2][j2][c]) for c in range(m)))
        assert clause.formula == (old if m else fm.TRUE)


def old_power_patterns(m, d):
    """The former enumeration of power sorts, kept as the oracle for the
    sort order of full_power_def: every way d increasing m-tuples can share
    a support, covering it, ordered by support size, then rows."""
    if m == 0:
        return [((),) * d]
    out = []
    for s in range(m, d * m + 1):
        for rows in itertools.product(itertools.combinations(range(s), m), repeat=d):
            if set().union(*[set(r) for r in rows]) == set(range(s)):
                out.append(rows)
    return sorted(out, key=lambda rows: (len(set().union(*[set(r) for r in rows])), rows))


@pytest.mark.parametrize("m,d", [(0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)])
def test_full_power_def_sorts_match_pattern_oracle(m, d):
    power = full_power_def(DefStructure(DLO, (Sort("t", m),), ()), d)
    patterns = old_power_patterns(m, d)
    assert _pattern_rows(power) == patterns
    assert [s.dim for s in power.sorts] == [len(set().union(*rows)) for rows in patterns]


def test_full_power_def_sorts_ignore_labels():
    labelled = DefStructure(labeled_dlo(3), (Sort("q", 1),), ())
    assert full_power_def(labelled, 3).sorts == full_power_def(increasing_tuple_structure(1), 3).sorts


def test_full_power_def_rejects_multi_sort():
    with pytest.raises(Unsupported):
        full_power_def(gallery.partitioned_dlo_companion(), 2)


def brute_same_orbit(points_a, points_b, base):
    """Independent oracle: some base automorphism maps one point tuple to
    the other (monotone when ordered, any bijection otherwise, always
    label-preserving)."""
    sup_a = sorted({a for p in points_a for a in p.atoms}, key=lambda a: a.value)
    sup_b = sorted({a for p in points_b for a in p.atoms}, key=lambda a: a.value)
    if len(sup_a) != len(sup_b):
        return False
    candidates = []
    if base.ordered:
        candidates.append({a.value: b for a, b in zip(sup_a, sup_b)})
    else:
        for perm in itertools.permutations(sup_b):
            candidates.append({a.value: b for a, b in zip(sup_a, perm)})
    for cand in candidates:
        if any(cand[a.value].label != a.label for a in sup_a):
            continue
        ok = True
        for pa, pb in zip(points_a, points_b):
            if pa.sort != pb.sort:
                ok = False
                break
            image = sorted((cand[a.value] for a in pa.atoms), key=lambda a: a.value)
            if tuple(image) != pb.atoms:
                ok = False
                break
        if ok:
            return True
    return False


def min_under_slot_perms(s, word, shape, resort=False):
    """Least relabelling of a support pattern over every permutation of the
    support, each atom carrying its label to its new slot; the former
    unordered-base canonicaliser, the oracle for definable._type."""
    best = None
    for perm in itertools.permutations(range(s)):
        moved = tuple(label for _, label in sorted(zip(perm, word)))
        relabeled = [(sort, tuple(sorted(perm[k] for k in slots))) for sort, slots in shape]
        if resort:
            relabeled.sort()
        cand = (s, moved, tuple(relabeled))
        if best is None or cand < best:
            best = cand
    return best


def old_type(word, shape, base, as_set):
    """The former definable._type: the pattern on an ordered base, the least
    of its s! relabellings on an unordered one."""
    shape = tuple(sorted(shape) if as_set else shape)
    if base.ordered:
        return repr((len(word), word, shape))
    return repr(min_under_slot_perms(len(word), word, shape, resort=as_set))


def random_pattern(rng, as_set):
    """A label word of s <= 6 atoms over up to three labels, and n <= 4
    points (sort, slots) of up to two sorts that cover its slots; tuples may
    repeat a point, sets may not."""
    s = rng.randint(0, 6)
    word = tuple(rng.randrange(rng.randint(1, 3)) for _ in range(s))
    while True:
        shape = [
            (rng.randrange(2), tuple(sorted(rng.sample(range(s), rng.randint(0, min(s, 3))))))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            shape.append(rng.choice(shape))
        if {k for _, slots in shape for k in slots} == set(range(s)) and not (as_set and len(set(shape)) < len(shape)):
            return word, tuple(shape)


def relabelled(rng, word, shape):
    """The same pattern with its support permuted at random and its points
    listed in a random order."""
    perm = list(range(len(word)))
    rng.shuffle(perm)
    moved = [0] * len(word)
    for k, label in enumerate(word):
        moved[perm[k]] = label
    points = [(si, tuple(sorted(perm[k] for k in slots))) for si, slots in shape]
    rng.shuffle(points)
    return tuple(moved), tuple(points)


def test_tuple_descriptors_match_slot_permutation_oracle():
    # byte-identical descriptors on unordered bases, repeated points included
    rng = random.Random(18)
    base = AtomBase(ordered=False, alphabet=3)
    for _ in range(3000):
        word, shape = random_pattern(rng, as_set=False)
        assert definable._type(word, shape, base, False) == old_type(word, shape, base, False), (word, shape)


def test_set_keys_match_slot_permutation_oracle():
    # the same equality relation as the least relabelling of the sorted
    # points, on random set patterns, relabelled copies and near misses
    rng = random.Random(19)
    base = AtomBase(ordered=False, alphabet=3)
    key = lambda pattern: definable._type(*pattern, base, True)
    patterns = []
    for _ in range(300):
        word, shape = random_pattern(rng, as_set=True)
        copy = relabelled(rng, word, shape)
        assert key((word, shape)) == key(copy)
        patterns += [(word, shape), copy]
        if word:
            k = rng.randrange(len(word))
            patterns.append(relabelled(rng, word[:k] + ((word[k] + 1) % 3,) + word[k + 1 :], shape))
    keys = [key(pattern) for pattern in patterns]
    olds = [old_type(word, shape, base, True) for word, shape in patterns]
    assert len(set(keys)) == len(set(olds)) == len(set(zip(keys, olds)))


def _pattern(encoded):
    """Support pattern of encoded points: the labels of their support in
    rank order, and each point as (sort, slots into that support)."""
    labels = dict(a for _, word in encoded for a in word)
    ranks = sorted(labels)
    slot = {r: i for i, r in enumerate(ranks)}
    shape = [(si, tuple(slot[r] for r, _ in word)) for si, word in encoded]
    return tuple(labels[r] for r in ranks), shape


def tuple_type(points, base, as_set=False):
    """Canonical descriptor of a tuple of concrete points under base
    automorphisms (as_set forgets their order), through the encoding the
    orbit walk uses; the oracle that ties `_orbits` to Fraction atoms."""
    return definable._type(*_pattern(definable._encode(list(points))), base, as_set)


def test_tuple_type_matches_brute_force_orbits():
    # every pair of 2-tuples from the pool, over (Q; <) and (N; =) with two labels
    for base in (labeled_dlo(2), AtomBase(ordered=False, alphabet=2)):
        atoms = make_sample(base, 4, [0, 1, 0, 1])
        pool = [Point(0, (a,)) for a in atoms.atoms]
        pool += [Point(1, c) for c in itertools.combinations(atoms.atoms, 2)]
        tuples = list(itertools.product(pool, repeat=2))
        types = {t: tuple_type(t, base) for t in tuples}
        for ta, tb in itertools.product(tuples, repeat=2):
            assert (types[ta] == types[tb]) == brute_same_orbit(ta, tb, base), (base, ta, tb)


def test_subset_type_pure_set_quotient():
    base = PURE_SET
    atoms = [Atom(Fraction(i)) for i in range(3)]
    p01 = frozenset({Point(0, (atoms[0],)), Point(0, (atoms[1],))})
    p12 = frozenset({Point(0, (atoms[1],)), Point(0, (atoms[2],))})
    assert tuple_type(p01, base, as_set=True) == tuple_type(p12, base, as_set=True)


def test_subset_type_ignores_point_order():
    base = labeled_dlo(2)
    atoms = make_sample(base, 4, [0, 1, 1, 0]).atoms
    pool = [Point(0, (a,)) for a in atoms] + [Point(1, c) for c in itertools.combinations(atoms, 2)]
    for pts in itertools.combinations(pool, 3):
        types = {tuple_type(order, base, as_set=True) for order in itertools.permutations(pts)}
        assert len(types) == 1
        assert tuple_type(pts, base) != tuple_type(pts[::-1], base)


def subset_orbits_by_generators(D, n, k):
    """Orbits of the n-element point sets of D's sample on k atoms under all
    permutations of those atoms: each set is closed under the images by a
    transposition and a k-cycle, which generate the symmetric group."""
    sampled = make_sample(D.base, k)
    points = sample(D, sampled).points
    atoms = sampled.atoms
    generators = [
        dict(zip(atoms, atoms[1:2] + atoms[:1] + atoms[2:])),
        dict(zip(atoms, atoms[1:] + atoms[:1])),
    ]

    def image(subset, g):
        return frozenset(
            Point(p.sort, tuple(sorted((g[a] for a in p.atoms), key=lambda a: a.value)))
            for p in subset
        )

    orbit_of = {}
    for start in itertools.combinations(points, n):
        start = frozenset(start)
        if start in orbit_of:
            continue
        orbit_of[start] = start
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = image(x, g)
                if y not in orbit_of:
                    orbit_of[y] = start
                    frontier.append(y)
    return orbit_of


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_set_subset_classes_against_atom_permutations(n):
    d = DefStructure(PURE_SET, (Sort("a", 1), Sort("b", 2)), ())
    orbit_of = subset_orbits_by_generators(d, n, 2 * n)
    orbits = set(orbit_of.values())
    types = {tuple_type(subset, PURE_SET, as_set=True) for subset in orbit_of}
    pairs = {(orbit, tuple_type(subset, PURE_SET, as_set=True)) for subset, orbit in orbit_of.items()}
    assert len(orbits) == len(types) == len(pairs)
    assert unlabelled_growth(d, n, "base") == len(orbits)


def pair_orbit_reps(d):
    """Representative concrete point pairs over Fraction atoms, one per
    orbit of ordered pairs of Jord_d points: slot k of an orbit's shape is
    the atom of value k."""
    orbits = definable._orbits(DefStructure(DLO, (Sort("t", d),), ()), 2, False)
    return {
        definable._type(word, shape, DLO, False): tuple(
            Point(si, tuple(Atom(Fraction(k), word[k]) for k in slots)) for si, slots in shape
        )
        for word, shape in orbits
    }


def atom_values(point):
    return [a.value for a in point.atoms]


def test_pair_orbit_reps_are_point_orbits():
    for d in (1, 2, 3):
        assert sorted(pair_orbit_reps(d)) == point_orbits(increasing_tuple_structure(d), 2)


def test_point_orbits_examples():
    jord1 = increasing_tuple_structure(1)
    assert len(point_orbits(jord1, 1)) == 1
    assert len(point_orbits(jord1, 2)) == 3
    one_dim_labeled = DefStructure(
        labeled_dlo(2), (Sort("q", 1),), (RelationClause("R", 1, ("*",), fm.TRUE),)
    )
    assert len(point_orbits(one_dim_labeled, 1)) == 2


def test_point_orbits_against_concrete_sample():
    # oracle: distinct (sorts, order pattern) descriptors among all n-tuples
    # of points of concrete samples realizing every label word
    for base in (labeled_dlo(2), AtomBase(ordered=False, alphabet=2)):
        d = DefStructure(base, (Sort("q", 1),), (RelationClause("R", 1, ("*",), fm.TRUE),))
        for n in (1, 2, 3):
            seen = set()
            for word in itertools.product(range(2), repeat=n * 1):
                atoms = make_sample(base, n, list(word))
                pts = sample(d, atoms).points
                for combo in itertools.product(pts, repeat=n):
                    concat = [a for p in combo for a in p.atoms]
                    seen.add((tuple(p.sort for p in combo), order_type(concat, base)))
            assert len(point_orbits(d, n)) == len(seen), (base, n)


def test_point_orbits_budget():
    with pytest.raises(TooLarge):
        point_orbits(increasing_tuple_structure(3), 8)


def filter_orbits(D, n, as_set):
    """The former orbit walk, uncharged: every choice of n abstract points,
    kept when it covers the support, and every descriptor (the former one,
    old_type) looked up in a seen set; the oracle for definable._orbits."""
    seen = set()
    for s in range(n * D.max_dim() + 1):
        abstract = [
            (si, slots)
            for si, sort in enumerate(D.sorts)
            for slots in itertools.combinations(range(s), sort.dim)
        ]
        choices = itertools.combinations(abstract, n) if as_set else itertools.product(abstract, repeat=n)
        covering = [c for c in choices if len({k for _, slots in c for k in slots}) == s]
        for word in itertools.product(range(D.base.alphabet), repeat=s):
            for shape in covering:
                desc = old_type(word, shape, D.base, as_set)
                if desc not in seen:
                    seen.add(desc)
                    yield word, shape


@errors.metered
def incidence_form_steps(word, shape, alphabet):
    """The steps canonical_form charges for the atom/point incidence
    structure of a set pattern, its relations in the order the set keys
    use: one unary per label, one per sort present, then membership."""
    s, sorts = len(word), sorted({si for si, _ in shape})
    shape = sorted(shape)
    rels = {f"label{c}": {(k,) for k in range(s) if word[k] == c} for c in range(alphabet)}
    rels.update({f"sort{si}": {(s + i,) for i, (sj, _) in enumerate(shape) if sj == si} for si in sorts})
    rels["in"] = {(k, s + i) for i, (_, slots) in enumerate(shape) for k in slots}
    sig = Signature(tuple((name, 2 if name == "in" else 1) for name in rels))
    canonical_form(FinStructure(sig, s + len(shape), {name: frozenset(ts) for name, ts in rels.items()}))
    return errors._spent.get()


def orbit_work(D, n, as_set):
    """The work orbit enumeration charges, counted on every choice of n
    abstract points: for each support size s its abstract points; n + s
    steps for each label word and covering choice; except for sets on an
    ordered base, which are counted in closed form without a walk, one
    step for each depth-first node, that is for each prefix of 1..n-1
    points of a choice whose shorter prefixes all leave no more slots
    uncovered than the points after them can cover; and, for sets on an
    unordered base, the canonical form of every covering choice's
    incidence structure."""
    work = 0
    for s in range(n * D.max_dim() + 1):
        abstract = [
            (si, slots)
            for si, sort in enumerate(D.sorts)
            for slots in itertools.combinations(range(s), sort.dim)
        ]
        work += len(abstract)
        choices = list(
            itertools.combinations(abstract, n) if as_set else itertools.product(abstract, repeat=n)
        )
        uncovered = lambda prefix: s - len({k for _, slots in prefix for k in slots})
        cover = sum(1 for c in choices if not uncovered(c))
        if not cover:
            continue
        if not (as_set and D.base.ordered):
            reach = max(len(slots) for _, slots in abstract)
            cut = lambda prefix: uncovered(prefix) > (n - len(prefix)) * reach
            prefixes = {c[:i] for c in choices for i in range(1, n)}
            work += sum(1 for p in prefixes if not any(cut(p[:i]) for i in range(1, len(p))))
        work += D.base.alphabet**s * cover * (n + s)
        if as_set and not D.base.ordered:
            covering = [c for c in choices if not uncovered(c)]
            for word in itertools.product(range(D.base.alphabet), repeat=s):
                work += sum(incidence_form_steps(word, c, D.base.alphabet) for c in covering)
    return work


def test_work_budget_counts_every_choice(monkeypatch):
    # supports of size 0, 1, 2 list 0 + 1 + 2 abstract points; the
    # 0 + 1 + 2 covering ordered pairs (0 + 0 + 1 sets) write descriptors
    # of n + s = 3 and 4 steps; the walk tries 1 + 2 first points, and
    # none for the one set, which on an ordered base is counted, not walked
    jord1 = increasing_tuple_structure(1)
    pure = DefStructure(PURE_SET, (Sort("q", 1),), ())
    # the unordered base charges the same: its tuple descriptors are
    # written in closed form, with no relabelling search
    cases = [
        (lambda: len(point_orbits(jord1, 2)), 3, 17),
        (lambda: unlabelled_growth(jord1, 2), 1, 7),
        (lambda: len(point_orbits(pure, 2)), 2, 17),
    ]
    for count, answer, needed in cases:
        monkeypatch.setattr(errors, "WORK_BUDGET", needed)
        assert count() == answer
        monkeypatch.setattr(errors, "WORK_BUDGET", needed - 1)
        with pytest.raises(TooLarge, match="work budget"):
            count()


def random_orbit_cases(seed, count):
    """(D, n, as_set) over DLO, a labelled DLO, the pure set and a labelled
    unordered base, with one or two sorts of dim 0..2 and n <= 3 (n <= 2
    for dim 2 on the labelled unordered base, whose triples pass the
    budget)."""
    rng = random.Random(seed)
    bases = [DLO, labeled_dlo(2), PURE_SET, AtomBase(ordered=False, alphabet=2)]
    for _ in range(count):
        base = rng.choice(bases)
        dims = [rng.randint(0, 2) for _ in range(rng.randint(1, 2))]
        top = 2 if max(dims) == 2 and base == bases[3] else 3
        D = DefStructure(base, tuple(Sort(f"s{i}", d) for i, d in enumerate(dims)), ())
        yield D, rng.randint(1, top), rng.random() < 0.5


def test_orbit_work_counts_covering_choices_exactly(monkeypatch):
    # the charge against the count made on every choice, at the threshold
    cases = [(D, n, as_set, orbit_work(D, n, as_set)) for D, n, as_set in random_orbit_cases(23, 40)]
    for D, n, as_set, needed in cases:
        count = lambda: unlabelled_growth(D, n) if as_set else len(point_orbits(D, n))
        monkeypatch.setattr(errors, "WORK_BUDGET", needed)
        count()
        monkeypatch.setattr(errors, "WORK_BUDGET", needed - 1)
        with pytest.raises(TooLarge, match="work budget"):
            count()


def test_ordered_base_growth_counts_the_walk_in_closed_form():
    # on an ordered base every covering choice with its word is its own
    # orbit, so the closed-form sum equals the walk's count; both charge
    # the same pre-count first, so both raise where it passes the budget
    walk = errors.metered(lambda D, n: sum(1 for _ in definable._orbits(D, n, True)))
    cases = [(D, n) for D, n, _ in random_orbit_cases(16, 80) if D.base.ordered]
    for name in sorted(gallery._definable_registry()):
        D = gallery.lookup_definable(name)
        if D.base.ordered:
            cases += [(D, n) for n in range(1, 5)]
    assert len(cases) > 80
    for D, n in cases:
        assert outcome(lambda: unlabelled_growth(D, n, "base")) == outcome(lambda: walk(D, n)), (D, n)


def test_orbit_walk_matches_filter_walk(monkeypatch):
    # the same (word, shape) sequence, in the same order
    for D, n, as_set in random_orbit_cases(16, 60):
        assert list(definable._orbits(D, n, as_set)) == list(filter_orbits(D, n, as_set)), (D, n, as_set)
    for name in sorted(gallery._definable_registry()):
        D = gallery.lookup_definable(name)
        for n in (1, 2, 3) if D.max_dim() == 1 else (1, 2):
            for as_set in (False, True):
                assert list(definable._orbits(D, n, as_set)) == list(filter_orbits(D, n, as_set)), (name, n)
    # the sorts of a power come from the walk; Jord1^4 is left out (it
    # passes the budget), its walk is the dim-1 DLO one at n = 4
    for m, d in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)):
        power = full_power_def(increasing_tuple_structure(m), d).to_json()
        with monkeypatch.context() as patch:
            patch.setattr(definable, "_orbits", filter_orbits)
            assert full_power_def(increasing_tuple_structure(m), d).to_json() == power, (m, d)
    D = DefStructure(DLO, (Sort("t", 1),), ())
    assert list(definable._orbits(D, 4, False)) == list(filter_orbits(D, 4, False))


def test_pure_set_point_orbits_are_bell_numbers():
    pure = DefStructure(PURE_SET, (Sort("q", 1),), ())
    assert [len(point_orbits(pure, n)) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]


def test_pure_set_pair_growth_counts_graphs_without_isolated_vertices():
    # n-sets of atom pairs over (N; =) are the graphs with n edges and no
    # isolated vertex, up to isomorphism (OEIS A000664)
    pairs = DefStructure(PURE_SET, (Sort("e", 2),), ())
    assert [unlabelled_growth(pairs, n) for n in range(1, 5)] == [1, 2, 5, 11]


@pytest.mark.parametrize(
    "call",
    [
        # labelled dim-1 growth at n = 40: 2^40 label words on 40 atoms
        lambda: unlabelled_growth(DefStructure(AtomBase(False, 2), (Sort("q", 1),), ()), 40),
        # pure-set dim-1 point orbits at n = 8: 545,835 covering 8-tuples,
        # 8 + s steps each
        lambda: point_orbits(DefStructure(PURE_SET, (Sort("q", 1),), ()), 8),
        # S2 growth at n = 16: the orbit pre-count alone passes the budget
        lambda: unlabelled_growth(gallery.dense_local_order(), 16, "homogeneous"),
        # QST base growth at n = 40: 40 * 2^40 label words
        lambda: unlabelled_growth(gallery.partitioned_dlo(), 40),
        # Jord2 on 300 atoms: 44,850 points, so 44,850^2 pairs per clause
        lambda: sample(increasing_tuple_structure(2), make_sample(DLO, 300)),
        # Jord3 on 160 atoms: 669,920 points, counted before any is built
        lambda: sample(increasing_tuple_structure(3), make_sample(DLO, 160)),
        # a clause-free dim-3 sort on 160 atoms: no guard combination at
        # all, but 669,920 points of 4 steps each
        lambda: sample(DefStructure(DLO, (Sort("t", 3),), ()), make_sample(DLO, 160)),
        # 10^8 atoms would fill memory; 10^6 took seconds before sample raised
        lambda: make_sample(DLO, 10**8),
        lambda: sample(increasing_tuple_structure(1), make_sample(DLO, 10**6)),
        # 18,014,998 tuples, 18 million of them inequality pairs
        lambda: gallery.spider(3000),
        # a clause-free dim-20,000 sort: the pre-count sums only the terms
        # of its inclusion-exclusion that can be nonzero
        lambda: point_orbits(DefStructure(DLO, (Sort("q", 20_000),), ()), 2),
        lambda: point_orbits(DefStructure(PURE_SET, (Sort("q", 20_000),), ()), 2),
        lambda: enumerate_invariant_orders(DefStructure(DLO, (Sort("q", 20_000),), ())),
    ],
    ids=[
        "labelled-growth-40",
        "pure-set-orbits-8",
        "s2-growth-16",
        "qst-growth-40",
        "jord2-sample-300",
        "jord3-sample-160",
        "clause-free-dim3-sample-160",
        "make-sample-1e8",
        "jord1-sample-1e6",
        "spider-3000",
        "dim-20000-orbits",
        "pure-set-dim-20000-orbits",
        "dim-20000-invariant-orders",
    ],
)
def test_over_budget_raises_at_once(call):
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="work budget"):
        call()
    assert time.perf_counter() - start < 1.0


def test_sample_work_budget(monkeypatch):
    # Jord1 on three atoms: two binary clauses over 3 * 3 point pairs each,
    # plus 1 + 1 steps for each of the 3 points built
    jord1 = increasing_tuple_structure(1)
    monkeypatch.setattr(errors, "WORK_BUDGET", 24)
    assert sample(jord1, make_sample(DLO, 3)).structure.size == 3
    monkeypatch.setattr(errors, "WORK_BUDGET", 23)
    with pytest.raises(TooLarge, match="sampling"):
        sample(jord1, make_sample(DLO, 3))


def test_sample_charges_once_under_a_meter(monkeypatch):
    # the 24 steps of Jord1 on three atoms are charged once, not once
    # before the points are built and again before the clauses are scanned
    jord1 = increasing_tuple_structure(1)
    atoms = make_sample(DLO, 3)
    monkeypatch.setattr(errors, "WORK_BUDGET", 24)
    assert errors.metered(sample)(jord1, atoms).structure.size == 3
    monkeypatch.setattr(errors, "WORK_BUDGET", 23)
    with pytest.raises(TooLarge, match="sampling"):
        errors.metered(sample)(jord1, atoms)


def test_work_budget_bounds_pair_orbits_and_power_sorts():
    # d = 7: the ordered pairs (A, B) of 7-subsets of a support [s] with
    # A | B = [s], C(s, 7) * C(7, 14 - s) for each s; the filter walk, run
    # with a raised budget, yields the same 48,639 (in about 15 s)
    pairs = lambda d: definable._orbits(DefStructure(DLO, (Sort("t", d),), ()), 2, False)
    assert sum(1 for _ in pairs(7)) == 48_639
    assert sum(math.comb(s, 7) * math.comb(7, 14 - s) for s in range(7, 15)) == 48_639
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        next(pairs(8))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(TooLarge):
        full_power_def(increasing_tuple_structure(3), 4)


def test_full_power_def_clause_budget(monkeypatch):
    # Jord1^3: 13 sorts and three binary relations, (3 * 13)^2 clauses each,
    # charged to one meter after the 96 steps of the walk that finds the
    # sorts; checked first, so a wrong count fails here before the large
    # cases.  A clause costs two steps per formula node, one per position
    # mapped (2 * 1), two per guard entry (2 * 2) and one: 9 for lt11 and
    # eq11 (one node each), 11 for "=" (And of one Eq)
    jord1 = increasing_tuple_structure(1)
    assert orbit_work(DefStructure(DLO, (Sort("t", 1),), ()), 3, False) == 96
    needed = 96 + 39**2 * (9 + 9 + 11)
    monkeypatch.setattr(errors, "WORK_BUDGET", needed)
    assert len(full_power_def(jord1, 3).clauses) == 4563
    monkeypatch.setattr(errors, "WORK_BUDGET", needed - 1)
    with pytest.raises(TooLarge, match="4563 clauses"):
        full_power_def(jord1, 3)
    monkeypatch.undo()
    # Jord1^4: 75 sorts, (4 * 75)^2 clauses per relation, 2,610,000 steps
    # in all, so it raises before building any of its 270,000 clauses
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="270000 clauses"):
        full_power_def(jord1, 4)
    assert time.perf_counter() - start < 1.0
    # 21,951,075 and 13,549,761 clauses
    with pytest.raises(TooLarge, match="clauses"):
        full_power_def(increasing_tuple_structure(1), 5)
    with pytest.raises(TooLarge, match="clauses"):
        full_power_def(increasing_tuple_structure(2), 3)


def test_unlabelled_growth_examples():
    dlo = increasing_tuple_structure(1)
    assert [unlabelled_growth(dlo, n, "base") for n in range(1, 9)] == [1] * 8
    qst = gallery.partitioned_dlo()
    assert unlabelled_growth(qst, 3, "base") == 8
    s2 = gallery.dense_local_order()
    assert unlabelled_growth(s2, 5, "homogeneous") == 4
    assert unlabelled_growth(s2, 5, "homogeneous") == local_order_count(5)
    # (N; =) with a unary predicate: an n-set is fixed by how many atoms it labels 1
    labelled_set = DefStructure(AtomBase(ordered=False, alphabet=2), (Sort("q", 1),), ())
    assert [unlabelled_growth(labelled_set, n) for n in range(1, 9)] == [2, 3, 4, 5, 6, 7, 8, 9]


def test_growth_modes_agree_on_homogeneous_cases():
    qst = gallery.partitioned_dlo()
    dlo = increasing_tuple_structure(1)
    for n in range(1, 6):
        assert unlabelled_growth(qst, n, "base") == unlabelled_growth(qst, n, "homogeneous")
        assert unlabelled_growth(dlo, n, "base") == unlabelled_growth(dlo, n, "homogeneous")


def test_growth_charges_one_meter(monkeypatch):
    # S2 at n = 5: the orbit enumeration, then each orbit's induced
    # structure and each distinct induced structure's canonical form, 1,729
    # steps in all
    s2 = gallery.dense_local_order()
    monkeypatch.setattr(errors, "WORK_BUDGET", 1729)
    assert unlabelled_growth(s2, 5, "homogeneous") == 4
    monkeypatch.setattr(errors, "WORK_BUDGET", 1728)
    with pytest.raises(TooLarge, match="work budget"):
        unlabelled_growth(s2, 5, "homogeneous")
    # every part fits the smaller budget alone
    for word, shape in definable._orbits(s2, 5, True):
        induced = definable._structure_on(s2, [(si, tuple((k, word[k]) for k in slots)) for si, slots in shape])
        canonical_form(induced)


def test_reversal_growth_charges_one_reversed_form_per_class(monkeypatch):
    # S2 at n = 7: the homogeneous charges, then one reversed canonical
    # encoding for each of the 9 classes, 12,074 steps in all
    s2 = gallery.dense_local_order()
    monkeypatch.setattr(errors, "WORK_BUDGET", 12074)
    assert unlabelled_growth(s2, 7, "reversal") == 9
    monkeypatch.setattr(errors, "WORK_BUDGET", 12073)
    with pytest.raises(TooLarge, match="work budget"):
        unlabelled_growth(s2, 7, "reversal")


def test_growth_searches_each_induced_structure_once(monkeypatch):
    # orbits of one call that induce the same relations share one canonical
    # search: S2 at n = 8 walks 256 orbits, and a label word and its
    # complement induce the same tournament; betweenness at n = 6 walks 64
    searches = []
    search = definable._canonical_encoding

    def counted(n, rels):
        searches.append(n)
        return search(n, rels)

    monkeypatch.setattr(definable, "_canonical_encoding", counted)
    for name, n, answer, count in (("s2", 8, 16, 128), ("betw", 6, 5, 32)):
        searches.clear()
        assert unlabelled_growth(gallery.lookup_definable(name), n, "homogeneous") == answer
        assert len(searches) == count, name


def test_growth_charges_only_the_searches_it_runs(monkeypatch):
    # S2 at n = 8 runs 128 searches for 256 orbits and charges 29,227
    # steps; a repeated induced structure charges no search (33,835 if
    # every orbit were charged a search)
    s2 = gallery.dense_local_order()
    monkeypatch.setattr(errors, "WORK_BUDGET", 29227)
    assert unlabelled_growth(s2, 8, "homogeneous") == 16
    monkeypatch.setattr(errors, "WORK_BUDGET", 29226)
    with pytest.raises(TooLarge, match="work budget"):
        unlabelled_growth(s2, 8, "homogeneous")


def test_growth_keys_structures_past_256_points():
    # point ids from 256 on no longer fit in a byte of the structure's key
    dlo = gallery.lookup_definable("dlo")
    assert [unlabelled_growth(dlo, n, "homogeneous") for n in (256, 257)] == [1, 1]


@errors.metered
def per_orbit_growth(D, n, mode):
    """The former growth path, the oracle for unlabelled_growth: for every
    orbit, its sampling charge, its induced FinStructure and that
    structure's canonical form, in reversal mode the lesser of it and the
    reversed structure's form.  Returns the count and the steps charged."""
    forms = set()
    for word, shape in definable._orbits(D, n, True):
        counts = [sum(si == sj for sj, _ in shape) for si in range(len(D.sorts))]
        errors.charge(definable._sampling_cost(D, counts), "sampling")
        encoded = [(si, tuple((k, word[k]) for k in slots)) for si, slots in shape]
        induced = definable._structure_on(D, encoded)
        form = canonical_form(induced)
        if mode == "reversal":
            reversed_rels = {name: frozenset(t[::-1] for t in ts) for name, ts in induced.relations.items()}
            form = min(form, canonical_form(FinStructure(induced.signature, induced.size, reversed_rels)))
        forms.add(form)
    return len(forms), errors._spent.get()


@errors.metered
def growth_and_steps(D, n, mode):
    return unlabelled_growth(D, n, mode), errors._spent.get()


# The oracle's count and steps where it passes the budget but the call
# does not, taken under a budget of 10^7 steps: X at n = 3 (about 13 s) and
# Johnson at n = 5 (about 6 s).  The 24 are the line graphs of the 26
# graphs with five edges and no isolated vertex, of which K3 and K1,3 with
# the same P3 or two disjoint edges beside them have isomorphic line graphs
# (Whitney's theorem).
ORACLE_PAST_THE_BUDGET = {("x", 3): (14, 2_161_807), ("johnson", 5): (24, 4_475_343)}


@pytest.mark.parametrize("name", sorted(gallery._definable_registry()))
def test_growth_matches_per_orbit_oracle(name, monkeypatch):
    # the same count on every definable gallery object for n <= 5, for no
    # more steps: a repeated induced structure charges no search, and
    # reversal mode (one binary relation only) one reversed form per
    # class.  Where the call passes the budget (Jord2 at n = 5, in
    # sampling after ~1.6 s; X, Y and Jord3 at n = 4 at once) both run
    # again under a budget of 100,000 steps and must both raise.
    D = gallery.lookup_definable(name)
    rels = D.signature().relations
    modes = ["homogeneous"] + ["reversal"] * (len(rels) == 1 and rels[0][1] == 2)
    for mode in modes:
        for n in range(1, 6):
            got = outcome(lambda: growth_and_steps(D, n, mode))
            if got[0] is TooLarge:
                with monkeypatch.context() as m:
                    m.setattr(errors, "WORK_BUDGET", 100_000)
                    got = outcome(lambda: growth_and_steps(D, n, mode))
                    want = outcome(lambda: per_orbit_growth(D, n, mode))
                assert got[0] is TooLarge and want[0] is TooLarge, (name, mode, n)
                continue
            if (name, n) in ORACLE_PAST_THE_BUDGET:
                want = ORACLE_PAST_THE_BUDGET[name, n]
            else:
                want = outcome(lambda: per_orbit_growth(D, n, mode))
            assert got[0] == want[0] and got[1] <= want[1], (name, mode, n)


def test_growth_past_the_budget_raises_soon():
    # S2 answers through n = 12 (947,513 steps); n = 13 is the slowest
    # level to raise, in sampling after a few seconds instead of running for
    # minutes (n = 16 raises in the orbit pre-count, at once)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="work budget"):
        unlabelled_growth(gallery.dense_local_order(), 13, "homogeneous")
    assert time.perf_counter() - start < 15.0


def test_growth_bound():
    jord1 = increasing_tuple_structure(1)
    assert unlabelled_growth(jord1, 9, "base") == 1
    # the supports of size up to ~2,000 alone list more abstract points
    # than the work budget allows, so this raises before any walk
    with pytest.raises(TooLarge, match="work budget"):
        unlabelled_growth(jord1, 10**5, "base")
    for n in (0, -1):
        with pytest.raises(InvalidDimension):
            unlabelled_growth(jord1, n, "base")
        # the mode and the signature are checked before n
        with pytest.raises(Unsupported):
            unlabelled_growth(jord1, n, "bogus")
        with pytest.raises(Unsupported):
            unlabelled_growth(jord1, n, "reversal")


def all_tournaments(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = set()
        for (i, j), b in zip(pairs, bits):
            edges.add((i, j) if b else (j, i))
        yield FinStructure(Signature((("prec", 2),)), n, {"prec": frozenset(edges)})


def locally_transitive(t):
    prec = t.rel("prec")
    for v in range(t.size):
        for side in (
            [u for u in range(t.size) if (v, u) in prec],
            [u for u in range(t.size) if (u, v) in prec],
        ):
            for a, b, c in itertools.permutations(side, 3) if len(side) >= 3 else ():
                if (a, b) in prec and (b, c) in prec and (a, c) not in prec:
                    return False
    return True


def test_local_order_growth_against_direct_enumeration():
    # independent route: enumerate all tournaments, keep the locally
    # transitive ones, count up to isomorphism (and up to reversal)
    s2 = gallery.dense_local_order()
    for n in range(1, 6):
        forms = set()
        paired = set()
        for t in all_tournaments(n):
            if not locally_transitive(t):
                continue
            cf = canonical_form(t)
            forms.add(cf)
            rev = FinStructure(
                t.signature, t.size, {"prec": frozenset(e[::-1] for e in t.rel("prec"))}
            )
            paired.add(min(cf, canonical_form(rev)))
        assert unlabelled_growth(s2, n, "homogeneous") == len(forms)
        assert growth_up_to_reversal(s2, n) == len(paired)
        assert len(forms) == local_order_count(n)


def test_growth_up_to_reversal_examples():
    s2 = gallery.dense_local_order()
    assert growth_up_to_reversal(s2, 1) == 1
    # on 3 points both classes are self-paired under reversal
    assert growth_up_to_reversal(s2, 3) == 2
    assert growth_up_to_reversal(s2, 4) <= unlabelled_growth(s2, 4, "homogeneous")


def test_growth_up_to_reversal_requires_single_binary():
    with pytest.raises(Unsupported):
        growth_up_to_reversal(gallery.partitioned_dlo(), 2)
    for D in (gallery.partitioned_dlo(), gallery.betweenness_reduct(), increasing_tuple_structure(1)):
        with pytest.raises(Unsupported):
            unlabelled_growth(D, 2, "reversal")


def test_reversal_mode_is_growth_up_to_reversal():
    s2 = gallery.dense_local_order()
    seq = [unlabelled_growth(s2, n, "reversal") for n in range(1, 7)]
    assert seq == [growth_up_to_reversal(s2, n) for n in range(1, 7)]
    assert seq == [1, 1, 2, 2, 4, 5]


def test_enumerate_invariant_orders_d1():
    orders = enumerate_invariant_orders(increasing_tuple_structure(1))
    assert len(orders) == 2
    described = {classify_signed_lex(o, 1) for o in orders}
    assert described == {
        SignedLex((0,), ("asc",)),
        SignedLex((0,), ("desc",)),
    }


def test_enumerate_invariant_orders_d2_all_signed_lex():
    orders = enumerate_invariant_orders(increasing_tuple_structure(2))
    assert len(orders) == 8
    seen = set()
    for o in orders:
        slex = classify_signed_lex(o, 2)
        assert slex is not None
        seen.add((slex.sigma, slex.directions))
    assert len(seen) == 8


def test_invariant_orders_are_strict_total_orders_on_samples():
    rng = random.Random(14)
    d = 2
    orders = enumerate_invariant_orders(increasing_tuple_structure(d))
    atoms = make_sample(DLO, 9)
    points = [Point(0, c) for c in itertools.combinations(atoms.atoms, d)]
    for order in orders:
        chosen = set(order)
        for p in points:
            assert tuple_type((p, p), DLO) not in chosen
            for q in points:
                if p != q:
                    forward = tuple_type((p, q), DLO) in chosen
                    backward = tuple_type((q, p), DLO) in chosen
                    assert forward != backward
        for _ in range(300):
            p, q, r = (rng.choice(points) for _ in range(3))
            pq = tuple_type((p, q), DLO) in chosen
            qr = tuple_type((q, r), DLO) in chosen
            pr = tuple_type((p, r), DLO) in chosen
            if pq and qr:
                assert pr


@pytest.mark.parametrize("d", [1, 2])
def test_invariant_orders_match_brute_force(d):
    # every orientation of every pair orbit, kept when it is transitive on
    # all point triples of a 3d-atom sample
    reps = pair_orbit_reps(d)
    pairs = sorted({tuple(sorted((desc, tuple_type((q, p), DLO)))) for desc, (p, q) in reps.items() if p != q})
    points = [Point(0, c) for c in itertools.combinations(make_sample(DLO, 3 * d).atoms, d)]
    classes = {(p, q): tuple_type((p, q), DLO) for p in points for q in points}
    expected = []
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        chosen = {pair[pick] for pair, pick in zip(pairs, picks)}
        if all(
            classes[p, r] in chosen
            for p, q, r in itertools.product(points, repeat=3)
            if classes[p, q] in chosen and classes[q, r] in chosen
        ):
            expected.append(tuple(sorted(chosen)))
    assert enumerate_invariant_orders(increasing_tuple_structure(d)) == sorted(expected)


@functools.lru_cache(maxsize=3)
def list_composition_table(d):
    """The former definable._composition_by_first, the oracle for
    definable._composition_table: the composition table as lists of
    (c_jk, c_ik) pairs per first class, the diagonal class, the (class,
    swapped class) pairs and the descriptor of every class."""
    points = list(itertools.combinations(range(3 * d), d))
    masks = [sum(1 << k for k in p) for p in points]
    codes = [sum(1 << 8 * k for k in p) for p in points]
    ids = {}
    names = []
    classes = []
    for p, code in zip(points, codes):
        row = []
        for q, other in zip(points, codes):
            key = (code + 2 * other).to_bytes(3 * d, "little").replace(b"\0", b"")
            c = ids.get(key)
            if c is None:
                c = ids[key] = len(names)
                pattern = _pattern([(0, tuple((k, 0) for k in x)) for x in (p, q)])
                names.append(definable._type(*pattern, DLO, False))
            row.append(c)
        classes.append(row)
    unions = {a | b for a in masks for b in masks}
    completing = {m: [k for k, m_k in enumerate(masks) if (x := m | m_k) & (x + 1) == 0] for m in unions}
    by_first = [[] for _ in names]
    swapped = {}
    for i, (row, m_i) in enumerate(zip(classes, masks)):
        for j, (c_ij, m_j) in enumerate(zip(row, masks)):
            if i != j:
                by_first[c_ij] += [(classes[j][k], row[k]) for k in completing[m_i | m_j] if k != j]
                swapped[c_ij] = classes[j][i]

    def named(pair):
        return names[pair[0]], names[pair[1]]

    pairs = sorted({min(pair, pair[::-1], key=named) for pair in swapped.items()}, key=named)
    return tuple(map(tuple, by_first)), classes[0][0], tuple(pairs), tuple(names)


def expand(row):
    """A table row's (c_jk, bitmask of the c_ik) entries as (c_jk, c_ik)
    pairs."""
    return [(c_jk, c_ik) for c_jk, ik in row for c_ik in range(ik.bit_length()) if ik >> c_ik & 1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_composition_table_matches_list_table(d):
    # compared by descriptor, so free of the oracle's class numbering: the
    # same classes, diagonal and pairs, and per first class the same
    # (c_jk, c_ik) pairs, each c_jk once per row.  Class 0 is the diagonal
    # and the others are the pair walk's, in its order.  Each triple orbit
    # gives its own (c_jk, c_ik), so the rows' bit counts are the triples
    rows, pairs, names = definable._composition_table(d)
    by_first, want_diag, want_pairs, want_names = list_composition_table(d)
    assert sorted(names) == sorted(want_names) and len(set(names)) == len(names)
    assert names[0] == want_names[want_diag]
    assert names[1:] == tuple(desc for desc, _ in definable._pair_reps(d))
    assert [(names[a], names[b]) for a, b in pairs] == [(want_names[a], want_names[b]) for a, b in want_pairs]
    assert len(rows) == len(names)
    # so every decision, which scans the row of a class in a pair, charges
    assert all(rows[c] for pair in pairs for c in pair)
    want = {want_names[c]: sorted((want_names[a], want_names[b]) for a, b in rest) for c, rest in enumerate(by_first)}
    for c, row in enumerate(rows):
        assert sorted((names[a], names[b]) for a, b in expand(row)) == want[names[c]]
        assert len({c_jk for c_jk, _ in row}) == len(row)
    assert sum(ik.bit_count() for row in rows for _, ik in row) == {1: 8, 2: 384, 3: 15956}[d]


@errors.metered
def status_list_orders(d):
    """The former invariant-order search on one status list (None, True or
    False per class), the oracle for the bitmask one: the orders found and
    the steps charged, one per distinct c_jk among the triples a decision
    examines (the entries of its table row)."""
    by_first, diag, pairs, names = list_composition_table(d)
    results = []
    status = [None] * len(names)

    def violated(chosen):
        rests = by_first[chosen]
        errors.charge(len({c_jk for c_jk, _ in rests}), "invariant order search")
        return any(status[c_jk] and status[c_ik] is False for c_jk, c_ik in rests)

    def descend(idx):
        if idx == len(pairs):
            results.append(tuple(sorted(names[c] for c, v in enumerate(status) if v)))
            return
        a, b = pairs[idx]
        for chosen, dropped in ((a, b), (b, a)):
            status[chosen] = True
            status[dropped] = False
            if not violated(chosen):
                descend(idx + 1)
            status[chosen] = status[dropped] = None

    status[diag] = False
    descend(0)
    return sorted(results), errors._spent.get()


@errors.metered
def orders_and_steps(D):
    return enumerate_invariant_orders(D), errors._spent.get()


# the steps of the orbit walks that build the composition table (the
# triple walk, then the pair walk it reads the classes from), and the
# table-row entries the search scans, per d
TABLE_WALK_STEPS = {1: 96 + 17, 2: 3638 + 90, 3: 177060 + 517}
ORDER_SEARCH_STEPS = {1: 4, 2: 600, 3: 120156}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bitmask_order_search_matches_status_list_search(d):
    # the same orders in the same order, and the same steps charged once the
    # table is built; the call that builds it also charges the orbit walks
    jord = increasing_tuple_structure(d)
    definable._composition_table.cache_clear()
    definable._pair_reps.cache_clear()
    want, steps = status_list_orders(d)
    assert steps == ORDER_SEARCH_STEPS[d]
    assert orders_and_steps(jord) == (want, steps + TABLE_WALK_STEPS[d])
    assert orders_and_steps(jord) == (want, steps)


def row_scan_breaks(row, now_true, now_false):
    """The former decision test of enumerate_invariant_orders, the oracle for
    the packed one: a scan of the chosen class's (c_jk, c_ik mask) entries
    for a true c_jk with a false c_ik."""
    return any(now_true >> c_jk & 1 and ik & now_false for c_jk, ik in row)


@pytest.mark.parametrize("d,decisions", [(1, 2), (2, 50), (3, 1938)])
def test_packed_decisions_match_the_row_scan(d, decisions):
    # the search's walk, every decision made both ways: the packed row, the
    # true classes' blocks (rebuilt here from the true mask) and the false
    # mask copied into every block share a bit exactly when the row scan
    # finds a broken triple; then random masks on every class's row
    rows, pairs, names = definable._composition_table(d)
    packed, ones = definable._packed_rows(d)
    C = len(names)

    def packed_breaks(chosen, now_true, now_false):
        blocks = sum(((1 << C) - 1) << c * C for c in range(C) if now_true >> c & 1)
        return bool(packed[chosen] & blocks & now_false * ones)

    made, stack = 0, [(0, 0, 1)]
    while stack:
        idx, true, false = stack.pop()
        if idx == len(pairs):
            continue
        a, b = pairs[idx]
        for chosen, dropped in ((a, b), (b, a)):
            now_true, now_false = true | 1 << chosen, false | 1 << dropped
            made += 1
            breaks = row_scan_breaks(rows[chosen], now_true, now_false)
            assert packed_breaks(chosen, now_true, now_false) == breaks, (chosen, now_true, now_false)
            if not breaks:
                stack.append((idx + 1, now_true, now_false))
    assert made == decisions
    rng = random.Random(37)
    for chosen in range(C):
        for _ in range(20):
            now_true, now_false = rng.getrandbits(C) | 1 << chosen, rng.getrandbits(C)
            assert packed_breaks(chosen, now_true, now_false) == row_scan_breaks(rows[chosen], now_true, now_false)


def test_ordered_descriptors_are_the_repr_of_their_pattern():
    # point_orbits writes each word and point text once per call and joins
    # them: every descriptor is the repr of its pattern, for every gallery
    # object and bare sorts on plain and labelled orders, up to n = 3
    bare = [DefStructure(DLO, (Sort("t", dim),), ()) for dim in (1, 2, 3)]
    bare += [DefStructure(labeled_dlo(2), sorts, ()) for sorts in ((Sort("a", 1),), (Sort("a", 2),), (Sort("a", 1), Sort("b", 2)))]
    for D in [gallery.lookup_definable(name) for name in sorted(gallery._definable_registry())] + bare:
        for n in (1, 2, 3):
            want = [repr((len(word), word, tuple(shape))) for word, shape in definable._orbits(D, n, False)]
            assert point_orbits(D, n) == sorted(want), (D.base, D.sorts, n)


def test_invariant_order_search_budget(monkeypatch):
    # the search scans 600 table-row entries at d = 2; the call that builds
    # the table first walks the triple and pair orbits, 3,728 steps
    jord2 = increasing_tuple_structure(2)

    def orders(budget, cold):
        if cold:
            definable._composition_table.cache_clear()
            definable._pair_reps.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(errors, "WORK_BUDGET", budget)
            return enumerate_invariant_orders(jord2)

    for total, cold in ((600 + 3728, True), (600, False)):
        with pytest.raises(TooLarge, match="work budget"):
            orders(total - 1, cold)
        assert len(orders(total, cold)) == 8


def test_invariant_orders_past_d3_are_refused_by_the_precount():
    # no dimension cap: the pre-count of the triple orbits raises before the
    # pair orbits the table reads its classes from are walked
    definable._pair_reps.cache_clear()
    for d in range(4, 9):
        with pytest.raises(TooLarge, match="orbit enumeration"):
            enumerate_invariant_orders(increasing_tuple_structure(d))
    assert definable._pair_reps.cache_info().currsize == 0


def test_increasing_tuple_structure_charges_its_clauses_first(monkeypatch):
    # 2d^2 clauses at seven steps each, charged before any is built: d =
    # 10,000 raises at once, and Jord1..3 build within 14, 56 and 126 steps
    with pytest.raises(TooLarge, match="200000000 clauses"):
        increasing_tuple_structure(10_000)
    for d in (1, 2, 3):
        monkeypatch.setattr(errors, "WORK_BUDGET", 14 * d * d)
        assert len(increasing_tuple_structure(d).clauses) == 2 * d * d
        monkeypatch.setattr(errors, "WORK_BUDGET", 14 * d * d - 1)
        with pytest.raises(TooLarge, match=f"{2 * d * d} clauses"):
            increasing_tuple_structure(d)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr(point_orbits(G, n)) for every definable gallery object G
GALLERY_ORBIT_DIGESTS = {
    ("betw", 1): "39fe6a3ece43bbae937dee052b78e6a75aac4406029b19ff85d7d2eb998ad3b3",
    ("betw", 2): "5e5df4badc1a4cf4eab2ada617d3e3499aaabfdec0d888a1e00416a004c2260e",
    ("dlo", 1): "989ea802282ec5bba7911d486f73174abab99adb55fbf3df55ad1d1cceb0affb",
    ("dlo", 2): "bee5a9569318c8168a37f97c74816b02e601ffb0009b0bd7c5d0188b423e64c5",
    ("johnson", 1): "cc5f8af323294a2804ef28af6884c2194545b98c9e46677466ca1b68eea35fb6",
    ("johnson", 2): "d223e69e7c74ff688a40cf7e9f8503b02238370b39ba341b29ebdb8146a1fac9",
    ("jord1", 1): "989ea802282ec5bba7911d486f73174abab99adb55fbf3df55ad1d1cceb0affb",
    ("jord1", 2): "bee5a9569318c8168a37f97c74816b02e601ffb0009b0bd7c5d0188b423e64c5",
    ("jord2", 1): "cc5f8af323294a2804ef28af6884c2194545b98c9e46677466ca1b68eea35fb6",
    ("jord2", 2): "d223e69e7c74ff688a40cf7e9f8503b02238370b39ba341b29ebdb8146a1fac9",
    ("jord3", 1): "104916162b6a6df7faf66b9a5a50d4844a9090e1c5be287face56146d188fdbc",
    ("jord3", 2): "1fffd0620b62b8e79adab3734ffd91106f23aa7f4ce9a8ec19aec26ea804c58d",
    ("perm-companion", 1): "e89f6875738f25441bcb20eef3e4cee11dd6070596a9d064cdde154f447d565e",
    ("perm-companion", 2): "7a682b39e23b632c9b35ed144f540698f48d0b1a4fb2cb5b526bdc758b7aa4b6",
    ("qst", 1): "39fe6a3ece43bbae937dee052b78e6a75aac4406029b19ff85d7d2eb998ad3b3",
    ("qst", 2): "5e5df4badc1a4cf4eab2ada617d3e3499aaabfdec0d888a1e00416a004c2260e",
    ("qst-companion", 1): "6d1a9bb3c3b5a7596561bf11839796504cd717438b7339ee60f116a2489ee0b5",
    ("qst-companion", 2): "c746fba7a78ed08097fc15aecce0515aa0b701c9521dbdf710f08204c6ea3255",
    ("s2", 1): "39fe6a3ece43bbae937dee052b78e6a75aac4406029b19ff85d7d2eb998ad3b3",
    ("s2", 2): "5e5df4badc1a4cf4eab2ada617d3e3499aaabfdec0d888a1e00416a004c2260e",
    ("x", 1): "4eb8cf7d26cb861c3f445f3cbf7b4acc1fa466132f8cf532557d9cba82aab361",
    ("x", 2): "1c22701b2d24bd327edda65734bb40524bb51a86189dc9ac56c0e2b91762e545",
    ("y", 1): "4359c1609a2bb86ae7b0e770b0601cc79a46c10c875f715855c7cd7a52d6a5d2",
    ("y", 2): "b6282042ff13d33845da30703593f9316eb0767af51891a14bb3c4d165d63c93",
}

# sha256 of repr(point_orbits(...)) of one sort of dimension dim over the
# pure set and over (N; =) with two labels
BARE_SORT_ORBIT_DIGESTS = {
    ("pure", 1, 1): "989ea802282ec5bba7911d486f73174abab99adb55fbf3df55ad1d1cceb0affb",
    ("pure", 1, 2): "4b0ba0b89b89cc0695233324fd6502bc0a055efd7fe1483aacbcd309c20cc471",
    ("pure", 1, 3): "c5bf12cb00ef194e6f345220478692ac0b2ea124ff0fafa7e5943b663c926041",
    ("pure", 2, 1): "cc5f8af323294a2804ef28af6884c2194545b98c9e46677466ca1b68eea35fb6",
    ("pure", 2, 2): "d2b2b32c08ce7a7609db02c23db79fa2d2c66d6e4b1b0bd36e461300021d110c",
    ("pure", 2, 3): "7ae6b777c885b83f2abd42ff0d0760b907ad893934ededb9db399ac4eb5d45ea",
    ("labelled", 1, 1): "39fe6a3ece43bbae937dee052b78e6a75aac4406029b19ff85d7d2eb998ad3b3",
    ("labelled", 1, 2): "71df6f333425b105444433e16840c908a00e46397973cb043fc9bb4dcff35c1e",
    ("labelled", 1, 3): "ebe238694d70e91195b8be0ffd7bb497d175cb18130154b0253ad6f668e78a67",
    ("labelled", 2, 1): "d206a929057aef3fd05799f467442fa221c09e9d0c6cf21a5a1e46efd85ea71b",
    ("labelled", 2, 2): "b6a800af0b4d344066abda6a150a44147ed52d1962336ea66aaa8eeb7ec87a54",
}

# sha256 of repr(enumerate_invariant_orders(Jord_d))
ORDER_DIGESTS = {
    1: "443ceae05bd561b72f4595c2d886a240777e4e67b6873a52c09fd1c5f8480045",
    2: "f25d006925f822326483612a27ccb4ea3cb7027eb443a2ab4e33a24d77c128fc",
    3: "c181b644c222a74d9d1fb961c50ced015158c48c46ab1a6d9bbd83d6cf767345",
}


def test_orbit_and_order_descriptors_are_pinned():
    # the descriptor bytes, not only their counts, stay those of the
    # atom-level enumeration these digests were taken from
    assert {name for name, _ in GALLERY_ORBIT_DIGESTS} == set(gallery._definable_registry())
    for (name, n), want in GALLERY_ORBIT_DIGESTS.items():
        assert digest(point_orbits(gallery.lookup_definable(name), n)) == want, (name, n)
    bases = {"pure": PURE_SET, "labelled": AtomBase(ordered=False, alphabet=2)}
    for (base, dim, n), want in BARE_SORT_ORBIT_DIGESTS.items():
        D = DefStructure(bases[base], (Sort("q", dim),), ())
        assert digest(point_orbits(D, n)) == want, (base, dim, n)
    # labelled dim-2 triples answer without the s! relabelling search
    assert len(point_orbits(DefStructure(bases["labelled"], (Sort("q", 2),), ()), 3)) == 225
    for d, want in ORDER_DIGESTS.items():
        assert digest(enumerate_invariant_orders(increasing_tuple_structure(d))) == want, d


def old_composition_by_first(classes):
    """The former string-keyed composition table, from the descriptors of
    all ordered pairs of the 3d-atom sample's points, given as rows; the
    oracle for definable._composition_table."""
    diag = classes[0][0]
    comp = set()
    swaps = set()
    for i, row in enumerate(classes):
        for j, c_ij in enumerate(row):
            if i != j:
                comp.update(zip(itertools.repeat(c_ij), classes[j], row))
                swaps.add(tuple(sorted((c_ij, classes[j][i]))))
    by_first = {}
    for triple in comp:
        if triple[1] != diag:
            by_first.setdefault(triple[0], []).append(triple)
    return by_first, diag, sorted(swaps)


def named_table(table):
    """The table of definable._composition_table, on class ids, in the
    former string-keyed form: the descriptor triples per first descriptor,
    the diagonal's descriptor and the pairs as descriptor pairs."""
    rows, pairs, names = table
    by_first = [expand(row) for row in rows]
    triples = {names[c]: [(names[c], names[a], names[b]) for a, b in rest] for c, rest in enumerate(by_first) if rest}
    return triples, names[0], [(names[a], names[b]) for a, b in pairs]


def composition_as_sets(table):
    by_first, diag, pairs = table
    assert all(len(set(triples)) == len(triples) for triples in by_first.values())
    return {first: set(triples) for first, triples in by_first.items()}, diag, pairs


@pytest.mark.parametrize("d", [1, 2, 3])
def test_composition_table_matches_fraction_oracle(d):
    # the descriptors of concrete point pairs over Fraction atoms
    points = [Point(0, c) for c in itertools.combinations(make_sample(DLO, 3 * d).atoms, d)]
    classes = [[tuple_type((p, q), DLO) for q in points] for p in points]
    table = named_table(definable._composition_table(d))
    assert composition_as_sets(table) == composition_as_sets(old_composition_by_first(classes))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_composition_table_matches_string_keyed_table(d):
    # the table keyed by the descriptors of encoded pairs, as the
    # composition table was built before its classes became integer ids
    points = [(0, tuple((k, 0) for k in c)) for c in itertools.combinations(range(3 * d), d)]
    classes = [[definable._type(*_pattern((p, q)), DLO, False) for q in points] for p in points]
    table = named_table(definable._composition_table(d))
    assert composition_as_sets(table) == composition_as_sets(old_composition_by_first(classes))


def old_classify_signed_lex(order, reps):
    """The former classification, comparing the atom values of concrete
    representative pairs; the oracle for classify_signed_lex."""
    chosen = set(order)
    d = len(next(iter(reps.values()))[0].atoms)
    for sigma in itertools.permutations(range(d)):
        for dirs in itertools.product(("asc", "desc"), repeat=d):
            candidate = SignedLex(sigma, dirs)
            if all(
                candidate.less([a.value for a in p.atoms], [a.value for a in q.atoms]) == (desc in chosen)
                for desc, (p, q) in reps.items()
                if p != q
            ):
                return candidate
    return None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_classify_signed_lex_matches_fraction_oracle(d):
    # every invariant order, each with one pair class turned round, and
    # unions of pair classes that are not orders at all
    rng = random.Random(40 + d)
    reps = pair_orbit_reps(d)
    swapped = {desc: tuple_type((q, p), DLO) for desc, (p, q) in reps.items()}
    off_diagonal = sorted(desc for desc, (p, q) in reps.items() if p != q)
    orders = [set(o) for o in enumerate_invariant_orders(increasing_tuple_structure(d))]
    unions = [set(off_diagonal), set()]
    unions += [set(rng.sample(off_diagonal, rng.randint(1, len(off_diagonal)))) for _ in range(20)]
    for order in orders:
        turned = rng.choice(sorted(order))
        unions.append(order - {turned} | {swapped[turned]})
    got = [classify_signed_lex(union, d) for union in orders + unions]
    assert got == [old_classify_signed_lex(union, reps) for union in orders + unions]
    assert None not in got[: len(orders)] and None in got[len(orders):]


def test_classify_signed_lex_known_orders():
    # ascending order on single atoms
    asc = tuple(
        desc for desc, (p, q) in pair_orbit_reps(1).items() if p != q and p.atoms[0].value < q.atoms[0].value
    )
    assert classify_signed_lex(asc, 1) == SignedLex((0,), ("asc",))
    # plain coordinatewise lexicographic order on increasing pairs
    lex = []
    for desc, (p, q) in pair_orbit_reps(2).items():
        if p == q:
            continue
        pv = [a.value for a in p.atoms]
        qv = [a.value for a in q.atoms]
        if pv < qv:
            lex.append(desc)
    slex = classify_signed_lex(tuple(lex), 2)
    assert slex == SignedLex((0, 1), ("asc", "asc"))


def test_classify_rejects_non_lex():
    reps = pair_orbit_reps(2)
    non_diag = [desc for desc, (p, q) in reps.items() if p != q]
    assert classify_signed_lex(tuple(non_diag), 2) is None


def walk_classify_signed_lex(order, d):
    """The former classify_signed_lex, which walked the pair orbits of
    Jord_d on every call; the oracle for the cached pair representatives."""
    chosen = set(order)
    pairs = definable._orbits(DefStructure(DLO, (Sort("t", d),), ()), 2, False)
    reps = [(definable._type(word, shape, DLO, False), shape) for word, shape in pairs if shape[0] != shape[1]]
    for sigma in itertools.permutations(range(d)):
        for dirs in itertools.product(("asc", "desc"), repeat=d):
            candidate = SignedLex(sigma, dirs)
            if all(candidate.less(p, q) == (desc in chosen) for desc, ((_, p), (_, q)) in reps):
                return candidate
    return None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_classify_signed_lex_matches_per_call_walk(d):
    # the class set of every signed lexicographic candidate (at d <= 3 these
    # are the invariant orders), 48 of them with one class turned round, and
    # random unions of pair classes
    rng = random.Random(70 + d)
    reps = pair_orbit_reps(d)
    swapped = {desc: tuple_type((q, p), DLO) for desc, (p, q) in reps.items()}
    off_diagonal = sorted(desc for desc, (p, q) in reps.items() if p != q)
    values = {desc: ([a.value for a in p.atoms], [a.value for a in q.atoms]) for desc, (p, q) in reps.items()}
    own = [
        {desc for desc in off_diagonal if SignedLex(sigma, dirs).less(*values[desc])}
        for sigma in itertools.permutations(range(d))
        for dirs in itertools.product(("asc", "desc"), repeat=d)
    ]
    unions = [set(off_diagonal), set()]
    unions += [set(rng.sample(off_diagonal, rng.randint(1, len(off_diagonal)))) for _ in range(20)]
    for order in rng.sample(own, min(len(own), 48)):
        turned = rng.choice(sorted(order))
        unions.append(order - {turned} | {swapped[turned]})
    got = [classify_signed_lex(union, d) for union in own + unions]
    assert got == [walk_classify_signed_lex(union, d) for union in own + unions]
    assert len(set(got[: len(own)])) == len(own) == math.factorial(d) * 2**d
    assert None not in got[: len(own)] and None in got[len(own):]


@pytest.mark.parametrize("d", [5, 6])
def test_classify_signed_lex_round_trip(d):
    # past the oracles' reach: a seeded sample of signed lexicographic
    # orders, each read back from its union, and refused with one of its
    # pair orbits turned round
    rng = random.Random(90 + d)
    reps = pair_orbit_reps(d)
    values = {desc: (atom_values(p), atom_values(q)) for desc, (p, q) in reps.items() if p != q}
    for _ in range(6):
        directions = tuple(rng.choice(("asc", "desc")) for _ in range(d))
        order = SignedLex(tuple(rng.sample(range(d), d)), directions)
        union = {desc for desc, pq in values.items() if order.less(*pq)}
        assert classify_signed_lex(union, d) == order
        turned = rng.choice(sorted(union))
        p, q = reps[turned]
        assert classify_signed_lex(union - {turned} | {tuple_type((q, p), DLO)}, d) is None


def test_order_tables_are_immutable_and_repeat():
    for d in (1, 2, 3):
        table = definable._composition_table(d)
        rows, pairs, names = table
        assert all(isinstance(part, tuple) for part in (table, rows, pairs, names))
        assert all(isinstance(row, tuple) for row in rows)
        assert all(isinstance(entry, tuple) for row in rows for entry in row)
        assert definable._composition_table(d) == table
        reps = definable._pair_reps(d)
        assert isinstance(reps, tuple) and all(isinstance(rep, tuple) for rep in reps)
        assert definable._pair_reps(d) == reps
        orders = enumerate_invariant_orders(increasing_tuple_structure(d))
        assert enumerate_invariant_orders(increasing_tuple_structure(d)) == orders
        assert [classify_signed_lex(o, d) for o in orders] == [classify_signed_lex(o, d) for o in orders]


def test_over_budget_first_calls_leave_the_caches_sound(monkeypatch):
    # the first call of a process raises under a tiny budget; the next, under
    # the normal one, answers in full
    jord3 = increasing_tuple_structure(3)
    definable._composition_table.cache_clear()
    definable._pair_reps.cache_clear()
    monkeypatch.setattr(errors, "WORK_BUDGET", 10)
    with pytest.raises(TooLarge, match="work budget"):
        enumerate_invariant_orders(jord3)
    with pytest.raises(TooLarge, match="work budget"):
        classify_signed_lex((), 3)
    monkeypatch.undo()
    orders = enumerate_invariant_orders(jord3)
    assert digest(orders) == ORDER_DIGESTS[3]
    assert [classify_signed_lex(o, 3) for o in orders] == [walk_classify_signed_lex(o, 3) for o in orders]
    assert None not in [classify_signed_lex(o, 3) for o in orders]


def test_classify_signed_lex_charges_tied_orbits_per_step(monkeypatch):
    # d = 3 has 62 pair orbits of distinct points.  No order: the first step
    # reads all 62 at 3 free coordinates and none qualifies, 186 steps; with
    # the 517 steps of walking the pair orbits, 703.  The lexicographic order
    # then reads the 12 orbits tied on coordinate 0 at 2 coordinates and the
    # 2 tied on coordinates 0 and 1 at one: 212 steps.
    lex = {desc for desc, (p, q) in pair_orbit_reps(3).items() if atom_values(p) < atom_values(q)}
    lex3 = SignedLex((0, 1, 2), ("asc",) * 3)

    def classify(order, budget, cold):
        if cold:
            definable._pair_reps.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(errors, "WORK_BUDGET", budget)
            return classify_signed_lex(order, 3)

    for order, total, cold, answer in (((), 186, False, None), ((), 703, True, None), (lex, 212, False, lex3)):
        assert classify(order, total, cold) == answer
        with pytest.raises(TooLarge, match="signed lexicographic"):
            classify(order, total - 1, cold)


def test_classify_signed_lex_past_the_budget_raises():
    # d = 7: 48,638 pair orbits, walked and then read at 7 coordinates within
    # the budget; d = 8 raises in the pre-count of its 265,728, before any
    # is walked or read
    assert classify_signed_lex((), 7) is None
    with pytest.raises(TooLarge, match="orbit enumeration"):
        classify_signed_lex((), 8)


def test_order_calls_reject_dimension_below_one():
    before = definable._pair_reps.cache_info(), definable._composition_table.cache_info()
    for d in (0, -1):
        with pytest.raises(InvalidDimension):
            classify_signed_lex((), d)
    with pytest.raises(InvalidDimension):
        enumerate_invariant_orders(DefStructure(DLO, (Sort("t", 0),), ()))
    # rejected before any cache lookup
    assert (definable._pair_reps.cache_info(), definable._composition_table.cache_info()) == before


def _cover3():
    return gallery.pair_cover().sample(make_sample(DLO, 3))


def _rotate_fibers_over(vertex):
    return gallery.fiber_rotation(_cover3(), [0, vertex], 2)


def _base_map_of(image):
    """induced_base_map of the identity with point 0 sent to image."""
    cs = _cover3()
    return gallery.induced_base_map(cs, (image,) + tuple(range(1, cs.total.structure.size)))


JORD1 = increasing_tuple_structure(1)
# per parameter: the call with x in its place, the error it raises, and the
# name its message gives x
INT_PARAMETERS = {
    "Sort.dim": (lambda x: Sort("t", x), InvalidDimension, "sort 't' dimension"),
    "AtomBase.alphabet": (lambda x: AtomBase(True, x), InvalidLabel, "alphabet size"),
    "SignedLex.sigma": (lambda x: SignedLex((x, 0), ("asc", "asc")), InvalidDimension, "coordinate"),
    "make_sample": (lambda x: make_sample(DLO, x), InvalidLabel, "sample size"),
    "point_orbits": (lambda x: point_orbits(JORD1, x), InvalidDimension, "tuple length"),
    "unlabelled_growth": (lambda x: unlabelled_growth(JORD1, x), InvalidDimension, "subset size"),
    "full_power_def": (lambda x: full_power_def(JORD1, x), InvalidDimension, "power dimension"),
    "full_power": (lambda x: full_power(FinStructure(Signature(()), 2), x), InvalidDimension, "power dimension"),
    "increasing_tuple_structure": (increasing_tuple_structure, InvalidDimension, "dimension"),
    "classify_signed_lex": (lambda x: classify_signed_lex((), x), InvalidDimension, "dimension"),
    "spider": (gallery.spider, TooSmall, "spider row count"),
    "involution_report": (gallery.involution_report, InvalidLabel, "sample size"),
    "fiber_rotation": (_rotate_fibers_over, InvalidElement, "vertex"),
    "fiber_rotation.k": (lambda x: gallery.fiber_rotation(_cover3(), [0], x), InvalidElement, "rotation"),
    "induced_base_map": (_base_map_of, InvalidElement, "image"),
    "Atom.label": (lambda x: Atom(Fraction(0), x), InvalidLabel, "label"),
    "make_sample.labels": (lambda x: make_sample(labeled_dlo(2), 2, [0, x]), InvalidLabel, "label"),
}


@pytest.mark.parametrize("bad", [2.5, 1.0, "1", True], ids=["float", "integral-float", "str", "bool"])
@pytest.mark.parametrize("name", list(INT_PARAMETERS))
def test_sizes_dimensions_and_alphabets_must_be_ints(name, bad):
    # a float or a bool once passed as the int it equals (AtomBase(True, 2.0)
    # made growth counts floats), and a string raised a bare TypeError
    call, error, what = INT_PARAMETERS[name]
    with pytest.raises(error, match=f"^{re.escape(what)} {re.escape(repr(bad))} is not an int$"):
        call(bad)


def test_sampling_functorial_small():
    rng = random.Random(15)
    for _ in range(20):
        d = random_def_structure(rng)
        big = make_sample(d.base, 4, [rng.randrange(d.base.alphabet) for _ in range(4)])
        small = big.restrict([0, 2])
        full = sample(d, big)
        part = sample(d, small)
        kept = {a.value for a in small.atoms}
        ids = [i for i, p in enumerate(full.points) if all(a.value in kept for a in p.atoms)]
        from relcore.finstruct import induced_substructure

        expected, _ = induced_substructure(full.structure, ids)
        assert expected == part.structure


def test_induce_on_points_matches_sample():
    d = gallery.dense_local_order()
    atoms = make_sample(labeled_dlo(2), 4)
    full = sample(d, atoms)
    assert induce_on_points(d, full.points) == full.structure


def _guard_matches(entry, sort_name):
    """Whether a raw guard entry admits a sort: the reading of guard entries
    that DefStructure.guards resolves once, kept as the oracle for it."""
    if entry == "*":
        return True
    if isinstance(entry, frozenset):
        return sort_name in entry
    return entry == sort_name


def old_relations_on(D, points):
    """The former per-tuple interpreter loop, kept as the oracle for
    sampling: every guard combination evaluated on its concrete atoms."""
    by_sort = {}
    for pid, p in enumerate(points):
        by_sort.setdefault(p.sort, []).append(pid)
    rels = {c.name: set() for c in D.clauses}
    for clause in D.clauses:
        groups = []
        for entry in clause.guard:
            ids = []
            for si, sort in enumerate(D.sorts):
                if _guard_matches(entry, sort.name):
                    ids.extend(by_sort.get(si, ()))
            groups.append(sorted(ids))
        for combo in itertools.product(*groups):
            env = tuple(a for pid in combo for a in points[pid].atoms)
            if fm.evaluate(clause.formula, env, D.base):
                rels[clause.name].add(combo)
    return FinStructure(D.signature(), len(points), {k: frozenset(v) for k, v in rels.items()})


def outcome(run):
    try:
        return run()
    except RelcoreError as exc:
        return type(exc), str(exc)


def hand_built_points(rng, points):
    """A shuffled selection of points plus copies with other labels on the
    same values."""
    twins = [
        Point(p.sort, tuple(Atom(a.value, rng.randrange(2)) for a in p.atoms)) for p in points
    ]
    chosen = rng.sample(list(points) + twins, min(len(points), 6))
    rng.shuffle(chosen)
    return chosen


def test_sampling_matches_per_tuple_evaluation():
    rng = random.Random(23)
    cases = [(name, build(), 4) for name, build in sorted(gallery._definable_registry().items())]
    cases += [(f"random {i}", random_def_structure(rng), rng.randint(0, 4)) for i in range(60)]
    for name, D, k in cases:
        labels = [rng.randrange(D.base.alphabet) for _ in range(k)]
        got = sample(D, make_sample(D.base, k, labels))
        assert got.structure == old_relations_on(D, got.points), name
        points = hand_built_points(rng, got.points)
        assert induce_on_points(D, points) == old_relations_on(D, points), name
        # a point shorter than its sort is not a point of D
        if any(p.atoms for p in points):
            p = rng.choice([p for p in points if p.atoms])
            with pytest.raises(InvalidDimension):
                induce_on_points(D, points + [Point(p.sort, p.atoms[:-1])])


def per_tuple_run(plan, words, count):
    """The former definable._run, the oracle for the per-type one: every
    plan entry's scan run on its whole groups, tuple by tuple."""
    rels = [set() for _ in range(count)]
    for r, scan, groups, _ in plan:
        scan(groups, words, rels[r])
    return rels


def subset_formula(rng, k, base):
    """A formula on positions 0..k-1 that reads few of them: a constant,
    one Less, Eq or Label atomic, or a small And, Or or Not of those."""

    def atomic():
        kind = rng.randrange(4 if k else 1)
        if kind == 0:
            return fm.Const(rng.random() < 0.6)
        if kind == 1 and base.ordered:
            return fm.Less(rng.randrange(k), rng.randrange(k))
        if kind == 3:
            return fm.Label(rng.randrange(k), rng.randrange(base.alphabet))
        return fm.Eq(rng.randrange(k), rng.randrange(k))

    r = rng.random()
    if r < 0.5:
        return atomic()
    if r < 0.6:
        return fm.Not(atomic())
    return (fm.And if r < 0.8 else fm.Or)(tuple(atomic() for _ in range(rng.randint(1, 3))))


def subset_reading_structure(rng):
    """One to three sorts of dims 0..3 on one of four bases, and one to four
    clauses of arity 1..3 whose formulas read few coordinates (see
    subset_formula); a guard entry names one sort, a set of sorts (of mixed
    dims, now and then) or every sort."""
    base = rng.choice([DLO, labeled_dlo(2), PURE_SET, AtomBase(ordered=False, alphabet=2)])
    sorts = tuple(Sort(f"s{i}", rng.randint(0, 3)) for i in range(rng.randint(1, 3)))
    clauses = []
    for _ in range(rng.randint(1, 4)):
        arity = rng.randint(1, 3)
        entries = [rng.sample(sorts, rng.randint(1, len(sorts))) for _ in range(arity)]
        guard = tuple(
            "*" if len(entry) == len(sorts) else entry[0].name if len(entry) == 1 else {s.name for s in entry}
            for entry in entries
        )
        least = sum(min(s.dim for s in entry) for entry in entries)
        # two clauses of one arity share a name half the time
        name = f"R{arity}{rng.randrange(2)}"
        clauses.append(RelationClause(name, arity, guard, subset_formula(rng, least, base)))
    return DefStructure(base, sorts, tuple(clauses))


def test_per_type_run_matches_per_tuple_run():
    # every definable gallery object at 0..6 atoms and random structures
    # whose formulas read a strict subset of the coordinates, on sampled
    # points and on shuffled hand-built points with label twins
    rng = random.Random(31)
    registry = sorted(gallery._definable_registry().items())
    cases = [(name, build(), k) for name, build in registry for k in range(7)]
    cases += [(f"random {i}", subset_reading_structure(rng), rng.randint(0, 5)) for i in range(200)]
    per_type = 0
    for name, D, k in cases:
        labels = [rng.randrange(D.base.alphabet) for _ in range(k)]
        points = sample(D, make_sample(D.base, k, labels)).points
        count = len(D.signature().relations)
        for pts in (points, hand_built_points(rng, points)):
            encoded = definable._encode(pts)
            plan = definable._plan(D, [si for si, _ in encoded])
            words = [word for _, word in encoded]
            assert definable._run(plan, words, count) == per_tuple_run(plan, words, count), (name, k)
            per_type += sum(reads is not None for *_, reads in plan)
    # the per-type path ran, and not only on empty or one-point groups
    assert per_type > 1000


def test_plan_reads_only_the_coordinates_a_formula_names():
    # Jord3's lt13 reads coordinate 0 of its left point and 2 of its right;
    # S2 and betweenness read every coordinate, so they scan tuple by tuple
    jord3 = increasing_tuple_structure(3)
    plan = definable._plan(jord3, [0] * 4)
    lt13 = [c.name for c in jord3.clauses].index("lt13")
    assert plan[lt13][3] == [((0,), (0,)), ((0,), (2,))]
    for D in (gallery.dense_local_order(), gallery.betweenness_reduct()):
        assert all(reads is None for *_, reads in definable._plan(D, [0] * 3))
    assert fm.check(fm.Or(fm.Less(0, 4), fm.Not(fm.Label(2, 1)), fm.TRUE), labeled_dlo(2)) == {0, 2, 4}
    assert fm.check(fm.FALSE, DLO) == frozenset()


def reads_cases():
    """Every definable gallery object, Jord1 squared, 50 seeded random
    structures and 50 whose formulas read few coordinates."""
    rng = random.Random(47)
    cases = [(name, build()) for name, build in sorted(gallery._definable_registry().items())]
    cases.append(("jord1^2", full_power_def(increasing_tuple_structure(1), 2)))
    cases += [(f"random {i}", random_def_structure(rng)) for i in range(50)]
    return cases + [(f"subset {i}", subset_reading_structure(rng)) for i in range(50)]


def test_reads_are_the_positions_of_each_clause():
    for name, D in reads_cases():
        assert D.reads == tuple(frozenset(positions(clause.formula)) for clause in D.clauses), name


def old_compiled(phi, widths):
    """The former definable._compiled, without its cache: the scan of phi
    on groups of these widths and, per group, the coordinates phi reads, or
    None in their place when it reads every coordinate of every group."""
    read, coords, start = set(positions(phi)), [], 0
    for width in widths:
        coords.append(tuple(c for c in range(width) if start + c in read))
        start += width
    every = all(len(cs) == width for cs, width in zip(coords, widths))
    return fm.compile_scan(phi, widths), None if every else tuple(coords)


def compiled_plan(D, sorts):
    """The former definable._plan, which read each clause's coordinates
    through _compiled; the oracle for the plan built from D.reads."""
    groups = {}
    for ids in {ids for guard in D.guards for entry in guard for _, ids in entry}:
        chosen = set(ids)
        groups[ids] = [pid for pid, si in enumerate(sorts) if si in chosen]
    index = {name: r for r, name in enumerate(D.signature().names())}
    plan = []
    for clause, guard in zip(D.clauses, D.guards):
        for parts in itertools.product(*guard):
            if all(groups[ids] for _, ids in parts):
                scan, coords = old_compiled(clause.formula, tuple(dim for dim, _ in parts))
                reads = None if coords is None else [(ids, cs) for (_, ids), cs in zip(parts, coords)]
                plan.append((index[clause.name], scan, [groups[ids] for _, ids in parts], reads))
    return plan


def test_plan_matches_compiled_plan():
    # the same entries, scans included (compile_scan caches them), on the
    # sorts of points sampled at 0..3 atoms and shuffled
    rng = random.Random(53)
    for name, D in reads_cases():
        for k in range(4):
            sorts = [p.sort for p in sample(D, make_sample(D.base, k)).points]
            for order in (sorts, rng.sample(sorts, len(sorts))):
                assert definable._plan(D, order) == compiled_plan(D, order), (name, k)


def test_induce_on_points_rejects_points_of_no_sort():
    D = increasing_tuple_structure(2)
    pts = list(sample(D, make_sample(DLO, 3)).points)
    a = pts[0].atoms
    for bad in (Point(7, a), Point(-1, a), Point(0, a[:1]), Point(0, a + (Atom(Fraction(9)),))):
        with pytest.raises(InvalidDimension, match="not a point of D"):
            induce_on_points(D, pts + [bad])
    assert induce_on_points(D, pts).size == 3


def random_scan_formula(rng, positions, base):
    """A formula on the given positions that is now and then ill-typed:
    Less under an unordered base, a label outside the alphabet."""

    def build(depth):
        r = rng.random()
        if depth and r < 0.5:
            parts = tuple(build(depth - 1) for _ in range(rng.randint(0, 3)))
            return fm.And(parts) if r < 0.25 else fm.Or(parts)
        if depth and r < 0.6:
            return fm.Not(build(depth - 1))
        if not positions or r < 0.65:
            return fm.TRUE if rng.random() < 0.5 else fm.FALSE
        i, j = rng.randrange(positions), rng.randrange(positions)
        kind, ill = rng.randrange(3), rng.random() < 0.1
        if kind == 2:
            return fm.Label(i, rng.randrange(base.alphabet) + ill)
        return fm.Less(i, j) if kind == 0 and (base.ordered or ill) else fm.Eq(i, j)

    return build(3)


def random_scan_structure(rng):
    """Sorts of dims 0-3 and clauses of arity 0-3 whose guard entries are
    sort names, frozensets of them or "*" (which mixes all four dims)."""
    base = rng.choice([PURE_SET, DLO, labeled_dlo(2)])
    sorts = tuple(Sort(f"s{dim}", dim) for dim in range(4))
    names = [s.name for s in sorts]
    clauses = []
    for c in range(rng.randint(1, 3)):
        arity = rng.randint(0, 3)
        guard = tuple(
            rng.choice(["*", rng.choice(names), frozenset(rng.sample(names, rng.randint(1, 3)))])
            for _ in range(arity)
        )
        # positions every guarded sort combination has
        least = sum(min(s.dim for s in sorts if _guard_matches(g, s.name)) for g in guard)
        clauses.append(RelationClause(f"R{c}", arity, guard, random_scan_formula(rng, least, base)))
    return DefStructure(base, sorts, tuple(clauses))


def old_validation(sorts, clauses):
    """The former per-combination walk of DefStructure's validation, kept as
    the oracle for the guard table: the error class it raised, or None."""
    names = [s.name for s in sorts]
    if len(set(names)) != len(names):
        return SignatureMismatch
    arities = {}
    for clause in clauses:
        if arities.setdefault(clause.name, clause.arity) != clause.arity:
            return SignatureMismatch
        for entry in clause.guard:
            mentioned = set() if entry == "*" else set(entry) if isinstance(entry, frozenset) else {entry}
            if mentioned - set(names):
                return SignatureMismatch
        groups = [[s for s in sorts if _guard_matches(entry, s.name)] for entry in clause.guard]
        for combo in itertools.product(*groups):
            if max(positions(clause.formula), default=-1) >= sum(s.dim for s in combo):
                return ArityMismatch
    return None


def random_guarded_structure(rng):
    """Sorts of dims 0-3 (now and then a repeated name) and clauses guarded
    by "*", names, frozensets of names (the empty one included) and unknown
    names, each formula reaching a position at or around the least total
    dimension of its guarded sort combinations."""
    sorts = [Sort(f"s{i}", rng.randint(0, 3)) for i in range(rng.randint(0, 4))]
    if sorts and rng.random() < 0.05:
        sorts.append(Sort(sorts[0].name, 1))
    names = [s.name for s in sorts] + ["unknown"] * (rng.random() < 0.1)
    clauses = []
    for c in range(rng.randint(0, 3)):
        arity = rng.randint(0, 3)
        guard = tuple(
            rng.choice(["*", rng.choice(names or ["*"]), frozenset(rng.sample(names, rng.randint(0, len(names))))])
            for _ in range(arity)
        )
        least = sum(min((s.dim for s in sorts if _guard_matches(g, s.name)), default=0) for g in guard)
        top = least + rng.randint(-2, 1)
        formula = fm.TRUE if top < 0 else fm.Eq(top, rng.randint(0, top))
        name = "R0" if rng.random() < 0.1 else f"R{c}"
        clauses.append(RelationClause(name, arity, guard, formula))
    return sorts, clauses


def test_guard_table_matches_per_combination_walk():
    # the least-total-dimension rule raises exactly when the walk over every
    # guarded sort combination did, and the table lists the sorts each
    # entry admits, grouped by dim, both ascending
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        sorts, clauses = random_guarded_structure(rng)
        expected = old_validation(sorts, clauses)
        got = outcome(lambda: DefStructure(DLO, sorts, clauses))
        if isinstance(got, DefStructure):
            assert expected is None, (sorts, clauses)
            by_dim = lambda ids: tuple(
                (dim, tuple(i for _, i in group))
                for dim, group in itertools.groupby(sorted((sorts[i].dim, i) for i in ids), lambda p: p[0])
            )
            assert got.guards == tuple(
                tuple(by_dim(i for i, s in enumerate(sorts) if _guard_matches(e, s.name)) for e in c.guard)
                for c in clauses
            )
        else:
            assert got[0] is expected, (sorts, clauses, got)
        seen.add(expected)
    assert seen == {None, SignatureMismatch, ArityMismatch}


def test_guard_validation_does_not_walk_sort_combinations():
    # a 6-ary "*" clause over 30 sorts has 729 M sort combinations; the
    # check reads only the least total dimension, which the error names
    sorts = tuple(Sort(f"s{i}", 1 + i % 3) for i in range(30))
    start = time.perf_counter()
    D = DefStructure(DLO, sorts, (RelationClause("R", 6, ("*",) * 6, fm.Less(0, 5)),))
    assert time.perf_counter() - start < 1.0
    assert D.guards == ((tuple((dim, tuple(range(dim - 1, 30, 3))) for dim in (1, 2, 3)),) * 6,)
    with pytest.raises(ArityMismatch, match="position 6 on sorts totalling 6 coordinates"):
        DefStructure(DLO, sorts, (RelationClause("R", 6, ("*",) * 6, fm.Less(0, 6)),))


def test_structure_on_matches_per_tuple_oracle():
    # generated scans, one per dim combination of guard entries that mix
    # dims, against the interpreter loop: the same tuples on samples and on
    # shuffled, relabelled hand-built points.  An ill-typed clause fails
    # when D is built.
    rng = random.Random(29)
    outcomes = set()
    for _ in range(150):
        D = outcome(lambda: random_scan_structure(rng))
        k = rng.randint(0, 4)
        if not isinstance(D, DefStructure):
            outcomes.add(D[0])
            continue
        atoms = make_sample(D.base, k, [rng.randrange(D.base.alphabet) for _ in range(k)])
        points = [
            Point(si, c) for si, s in enumerate(D.sorts) for c in itertools.combinations(atoms.atoms, s.dim)
        ]
        # (an arity-0 clause makes both raise SignatureMismatch)
        assert outcome(lambda: sample(D, atoms).structure) == outcome(lambda: old_relations_on(D, points))
        for chosen in (points, hand_built_points(rng, points)):
            got = outcome(lambda: definable._structure_on(D, definable._encode(chosen)))
            assert got == outcome(lambda: old_relations_on(D, chosen)), (D, chosen)
            outcomes.add(got[0] if isinstance(got, tuple) else FinStructure)
    assert {FinStructure, InvalidLabel, OrderNotAvailable} <= outcomes


def test_scan_of_arity_past_python_block_nesting():
    # Python nests at most 20 loops in one function; the scan binds the
    # leading guard positions with one product loop instead
    D = DefStructure(
        labeled_dlo(2),
        (Sort("a", 0), Sort("b", 1)),
        (RelationClause("R", 22, ("a",) * 20 + ("b", "b"), fm.Or(fm.Less(0, 1), fm.Label(1, 1))),),
    )
    got = sample(D, make_sample(D.base, 3, [0, 1, 0]))
    assert got.structure == old_relations_on(D, got.points)
    assert got.structure.rel("R") == {(0,) * 20 + (i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i < j or j == 2}


@pytest.mark.parametrize(
    "base,guard,formula,error",
    [
        (PURE_SET, ("*", "*"), fm.Or(fm.Eq(0, 1), fm.Less(0, 1)), OrderNotAvailable),
        (PURE_SET, ("*", "*"), fm.Or(fm.TRUE, fm.Less(0, 1)), OrderNotAvailable),
        (DLO, ("*", "*"), fm.And(fm.FALSE, fm.Label(0, 5)), InvalidLabel),
        (DLO, ("*", "*"), fm.Or(fm.TRUE, fm.Eq(-1, 0)), ArityMismatch),
        # a guard that admits no sort still carries a formula of the base
        (PURE_SET, (frozenset(), "*"), fm.Less(0, 1), OrderNotAvailable),
    ],
    ids=["eq-or-lt-unordered", "true-or-lt-unordered", "label-under-false", "negative-position", "empty-guard"],
)
def test_ill_typed_clauses_fail_at_construction(base, guard, formula, error):
    # a clause is checked whole when D is built, so no sample size, orbit
    # count or growth query ever meets the bad node
    with pytest.raises(error):
        DefStructure(base, (Sort("a", 1),), (RelationClause("R", 2, guard, formula),))


def test_json_roundtrip():
    for d in (
        gallery.tagged_pair_structure(),
        gallery.partitioned_dlo(),
        gallery.generic_permutation_companion(),
        disjoint_union_def(increasing_tuple_structure(1), increasing_tuple_structure(1)),
    ):
        assert DefStructure.from_json(d.to_json()).to_json() == d.to_json()
