import gc
import itertools
import math
import random
import re
import time
import weakref
from typing import Optional

import pytest

from relcore import errors, finstruct, gallery
from relcore.atoms import DLO, make_sample
from relcore.definable import sample
from relcore.errors import (
    HomValidationError,
    InvalidDimension,
    InvalidInput,
    InvalidElement,
    RelcoreError,
    SignatureMismatch,
    TooLarge,
)
from relcore.finstruct import (
    FinStructure,
    Hom,
    Signature,
    canonical_form,
    compute_core,
    disjoint_union,
    enumerate_endos,
    find_hom,
    find_noninjective_endo,
    full_power,
    hom_violations,
    induced_substructure,
    is_core,
)
from relcore.finstruct import _HomSearch
from relcore.verify import _permuted_copy, random_structure


def _search(source, target, mode, partial, lexicographic, limit, avoid=None):
    """The maps of one run of a fresh `_HomSearch` set-up, up to limit."""
    return list(itertools.islice(_HomSearch(source, target, mode).run(partial, lexicographic, avoid), limit))


def digraph(n, edges):
    return FinStructure(Signature((("E", 2),)), n, {"E": frozenset(edges)})


def clique(n):
    return digraph(n, {(i, j) for i in range(n) for j in range(n) if i != j})


K3 = clique(3)
K2 = clique(2)


def johnson(atoms):
    return sample(gallery.johnson_graph_def(), make_sample(DLO, atoms)).structure


def linear_order(n):
    return FinStructure(
        Signature((("<", 2),)), n, {"<": frozenset((i, j) for i in range(n) for j in range(n) if i < j)}
    )


def test_induced_substructure_full_and_empty():
    s = K3
    full, ids = induced_substructure(s, range(3))
    assert full == s and ids == (0, 1, 2)
    empty, ids = induced_substructure(s, [])
    assert empty.size == 0 and empty.rel("E") == frozenset()


def test_induced_substructure_triangle_edge():
    part, ids = induced_substructure(K3, [0, 2])
    assert part.size == 2
    assert part.rel("E") == frozenset({(0, 1), (1, 0)})
    assert ids == (0, 2)


def test_induced_substructure_bad_element():
    with pytest.raises(InvalidElement):
        induced_substructure(K3, [0, 5])


@pytest.mark.parametrize("kind", [frozenset, list], ids=["frozenset", "list"])
def test_relation_checks_name_the_offender(kind):
    sig = Signature((("E", 2),))
    with pytest.raises(SignatureMismatch, match=r"expects arity 2, got \(0, 1, 2\)"):
        FinStructure(sig, 3, {"E": kind([(0, 1), (0, 1, 2)])})
    for bad in (-1, 3):
        with pytest.raises(InvalidElement, match=f"element {bad} outside domain of size 3"):
            FinStructure(sig, 3, {"E": kind([(0, 1), (bad, 2)])})
    given = kind([(0, 1), [2, 2]] if kind is list else [(0, 1), (2, 2)])
    rel = FinStructure(sig, 3, {"E": given}).rel("E")
    assert rel == frozenset({(0, 1), (2, 2)})
    # a frozenset is kept as it is, anything else is copied into one
    assert (rel is given) == (kind is frozenset)


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ({(0, 1.0)}, InvalidElement, "element 1.0 is not an int"),
        ({(0, True)}, InvalidElement, "element True is not an int"),
        # True equals 1, so a set of the distinct elements would not hold it
        ({(1, True)}, InvalidElement, "element True is not an int"),
        ({(0, "1")}, InvalidElement, "element '1' is not an int"),
        (frozenset({0}), SignatureMismatch, "'E' is not a set of tuples"),
        (frozenset({(0, 1), None}), SignatureMismatch, "'E' is not a set of tuples"),
        (None, SignatureMismatch, "'E' is not a set of tuples"),
        ([0], SignatureMismatch, "'E' is not a set of tuples"),
    ],
    ids=["float", "bool", "bool-beside-1", "str", "int-entry", "none-entry", "none", "list-of-ints"],
)
def test_relation_entries_must_be_tuples_of_ints(entries, error, message):
    # each once passed the constructor (and broke the search and the
    # canonical form later) or raised a bare TypeError
    sig = Signature((("E", 2),))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        FinStructure(sig, 2, {"E": entries})
    for given in ({(0, 1)}, [[0, 1]], frozenset({(0, 1)})):
        assert FinStructure(sig, 2, {"E": given}).rel("E") == frozenset({(0, 1)})


@pytest.mark.parametrize("arity", [1.9, "2", True, 0], ids=["float", "str", "bool", "zero"])
def test_signature_accepts_only_positive_int_arities(arity):
    with pytest.raises(SignatureMismatch, match=f"relation 'E' has arity {re.escape(repr(arity))}$"):
        Signature((("E", arity),))
    # checked before sorting, which would compare the two arities of "E"
    with pytest.raises(SignatureMismatch, match=re.escape(repr(arity))):
        Signature((("E", 2), ("E", arity)))
    assert Signature((("E", 2), ("D", 1))).relations == (("D", 1), ("E", 2))


NOT_INTS = pytest.mark.parametrize("bad", [2.5, 1.0, "1", True], ids=["float", "integral-float", "str", "bool"])


@NOT_INTS
def test_structure_size_must_be_an_int(bad):
    with pytest.raises(InvalidElement, match=f"domain size {re.escape(repr(bad))} is not an int"):
        FinStructure(Signature((("E", 2),)), bad, {})


@NOT_INTS
def test_hom_images_must_be_ints(bad):
    # every check of a map refuses the image, where (0, 1.0) and (0, True)
    # once passed as the identity and (0, "1") raised a bare TypeError
    s = digraph(2, {(0, 1)})
    checks = (Hom, hom_violations, lambda s, t, m: gallery.is_sample_automorphism(s, m))
    for check, mapping in itertools.product(checks, ((0, bad), (bad, 1))):
        with pytest.raises(InvalidElement, match=f"image {re.escape(repr(bad))} is not an int"):
            check(s, s, mapping)
    assert Hom(s, s, (0, 1)).mapping == (0, 1)
    assert hom_violations(s, s, (0, 1)) == [] and gallery.is_sample_automorphism(s, (0, 1))


@NOT_INTS
def test_find_hom_partial_entries_must_be_ints(bad):
    s = digraph(2, {(0, 1)})
    for partial in ({0: bad}, {bad: 1}):
        with pytest.raises(InvalidElement, match=f"partial entry {re.escape(repr(bad))} is not an int"):
            find_hom(s, s, partial=partial)
    # ints outside either domain still leave nothing to find
    assert find_hom(s, s, partial={0: 2}) is None and find_hom(s, s, partial={2: 0}) is None


@NOT_INTS
def test_induced_substructure_elements_must_be_ints(bad):
    with pytest.raises(InvalidElement, match=f"element {re.escape(repr(bad))} is not an int"):
        induced_substructure(digraph(2, {(0, 1)}), [1, bad])


@NOT_INTS
def test_endo_limit_must_be_an_int(bad):
    s = digraph(2, {(0, 1)})
    with pytest.raises(InvalidInput, match=f"endomorphism limit {re.escape(repr(bad))} is not an int"):
        enumerate_endos(s, limit=bad)
    assert len(enumerate_endos(s, limit=None)) == len(enumerate_endos(s)) == 1


def test_disjoint_union():
    empty = digraph(0, set())
    assert disjoint_union(K3, empty) == K3
    two = disjoint_union(digraph(1, set()), digraph(1, set()))
    assert two.size == 2 and two.rel("E") == frozenset()
    s = disjoint_union(digraph(3, {(0, 1)}), digraph(4, {(2, 3)}))
    assert s.size == 7
    assert s.rel("E") == frozenset({(0, 1), (5, 6)})


def test_disjoint_union_signature_mismatch():
    other = FinStructure(Signature((("F", 2),)), 1, {})
    with pytest.raises(SignatureMismatch):
        disjoint_union(K3, other)


def test_full_power_pure_set():
    s = FinStructure(Signature(()), 2, {})
    p = full_power(s, 2)
    assert p.size == 4
    # only the equality-derived relations are present
    assert all(name.startswith("=@") for name in p.signature.names())


def test_full_power_dimension_one():
    s = linear_order(3)
    p = full_power(s, 1)
    assert p.size == 3
    assert p.rel("=@1,1") == frozenset({(0, 0), (1, 1), (2, 2)})
    assert p.rel("<@1,1") == s.rel("<")


def test_full_power_projection_counts():
    # oracle: count by direct nested loops over pairs of pairs
    s = linear_order(3)
    p = full_power(s, 2)
    assert p.size == 9
    domain = list(itertools.product(range(3), repeat=2))
    expected = sum(
        1 for t1 in domain for t2 in domain if t1[0] < t2[0]
    )
    assert expected == 27
    assert len(p.rel("<@1,1")) == expected
    assert len(p.rel("<@1,2")) == sum(1 for t1 in domain for t2 in domain if t1[0] < t2[1])


def test_full_power_rejects_zero():
    with pytest.raises(InvalidDimension):
        full_power(K3, 0)


def test_full_power_work_budget(monkeypatch):
    # K2 at d = 2: E and = are binary, so 2 * 2^2 * (2^2)^2 = 128 tuples tested
    monkeypatch.setattr(errors, "WORK_BUDGET", 128)
    assert full_power(K2, 2).size == 4
    monkeypatch.setattr(errors, "WORK_BUDGET", 127)
    with pytest.raises(TooLarge, match="128 tuples"):
        full_power(K2, 2)


def test_find_hom_identity_exists():
    rng = random.Random(8)
    for _ in range(20):
        s = random_structure(rng, max_size=6)
        h = find_hom(s, s, "hom")
        assert h is not None


def test_find_hom_triangle_to_edge_none():
    sym_edge = digraph(2, {(0, 1), (1, 0)})
    assert find_hom(K3, sym_edge, "hom") is None
    assert find_hom(sym_edge, K3, "hom") is not None


def test_find_hom_partial_seed():
    s = linear_order(3)
    h = find_hom(s, s, "hom", partial={0: 0, 2: 2})
    assert h is not None and h.mapping[0] == 0 and h.mapping[2] == 2
    assert find_hom(s, s, "hom", partial={0: 2}) is None
    # a variable or an image outside the domains
    for partial in ({3: 0}, {-1: 0}, {0: 3}, {0: -1}):
        assert find_hom(s, s, "hom", partial=partial) is None


def test_find_hom_partial_conflicts():
    marked = FinStructure(Signature((("U", 1), ("E", 2))), 2, {"U": frozenset({(0,)})})
    assert find_hom(marked, marked, "hom", partial={0: 1}) is None
    assert find_hom(marked, marked, "hom", partial={1: 0}) is not None
    # strong modes also need U to hold exactly where it holds in the source
    assert find_hom(marked, marked, "embedding", partial={1: 0}) is None
    assert find_hom(marked, marked, "iso", partial={1: 0}) is None
    # two variables sent to one element
    free = digraph(3, set())
    merge = {0: 1, 2: 1}
    assert find_hom(free, free, "hom", partial=merge).mapping == (1, 0, 1)
    assert find_hom(free, free, "embedding", partial=merge) is None
    assert find_hom(free, free, "iso", partial=merge) is None


def test_find_hom_modes():
    path = digraph(3, {(0, 1), (1, 2)})
    bigger = disjoint_union(path, digraph(1, set()))
    emb = find_hom(path, bigger, "embedding")
    assert emb is not None and emb.is_embedding()
    assert emb.mapping == (0, 1, 2)
    # homomorphic image may flatten, embedding may not
    loopy = digraph(1, {(0, 0)})
    assert find_hom(path, loopy, "hom").mapping == (0, 0, 0)
    assert find_hom(path, loopy, "embedding") is None
    iso = find_hom(path, path, "iso")
    assert iso is not None and sorted(iso.mapping) == list(range(path.size)) and iso.is_embedding()
    assert find_hom(path, bigger, "iso") is None


def test_enumerate_endos_examples():
    one = FinStructure(Signature((("E", 2),)), 1, {})
    assert len(enumerate_endos(one)) == 1
    neq = digraph(2, {(0, 1), (1, 0)})
    endos = enumerate_endos(neq)
    assert [h.mapping for h in endos] == [(0, 1), (1, 0)]
    # lexicographic order and limit
    free = digraph(2, set())
    maps = [h.mapping for h in enumerate_endos(free)]
    assert maps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [h.mapping for h in enumerate_endos(free, limit=2)] == [(0, 0), (0, 1)]
    assert enumerate_endos(free, limit=0) == []
    with pytest.raises(RelcoreError):
        enumerate_endos(free, limit=-1)


def _lexicographic_endos(structure):
    """The maps of the lexicographic search `enumerate_endos` runs on a
    structure that is not a core, charged to one meter: its oracle."""
    return errors.metered(_search)(structure, structure, "hom", None, True, None)


def test_search_work_budget(monkeypatch):
    # the edgeless 2-element digraph: 6 values tried and 4 maps of 2 elements
    free = digraph(2, set())
    monkeypatch.setattr(errors, "WORK_BUDGET", 14)
    assert len(_lexicographic_endos(free)) == 4
    monkeypatch.setattr(errors, "WORK_BUDGET", 13)
    with pytest.raises(TooLarge, match="work budget"):
        _lexicographic_endos(free)
    # enumerate_endos searches for its first n + 1 = 3 maps, then, since
    # there are more, runs the core test: with 0 left out, 1 is the one
    # value for each of 0 and 1, and the map (1, 1) makes 4 steps; then it
    # goes on with the same search, 18 in all
    monkeypatch.setattr(errors, "WORK_BUDGET", 18)
    assert [h.mapping for h in enumerate_endos(free)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    monkeypatch.setattr(errors, "WORK_BUDGET", 17)
    with pytest.raises(TooLarge, match="work budget .* hom search"):
        enumerate_endos(free)
    # find_hom and the core test run the same search
    monkeypatch.setattr(errors, "WORK_BUDGET", 0)
    with pytest.raises(TooLarge):
        find_hom(K2, K3)
    with pytest.raises(TooLarge):
        is_core(K2)


def test_search_work_budget_counts_forward_checks(monkeypatch):
    # T = {(0, 1, 2)} on 3 elements, endomorphisms in lexicographic order:
    # 3 values for 0, then 3 for 1 under each; each of those 9 leaves 2 the
    # one unassigned variable of the tuple, so the forward check tests its 3
    # candidates.  Only 0 -> 0, 1 -> 1 keeps one (2), which is tried and
    # stored: 3 + 9 + 27 + 1 + 3 = 43 steps
    chain = FinStructure(Signature((("T", 3),)), 3, {"T": frozenset({(0, 1, 2)})})
    monkeypatch.setattr(errors, "WORK_BUDGET", 43)
    assert _lexicographic_endos(chain) == [(0, 1, 2)]
    monkeypatch.setattr(errors, "WORK_BUDGET", 42)
    with pytest.raises(TooLarge, match="work budget"):
        _lexicographic_endos(chain)
    # the refutations: with v left out, 2 values for 0 and 2 for 1 under
    # each, and 2 candidates tested for 2 under each of those; 14 steps for
    # each v
    monkeypatch.setattr(errors, "WORK_BUDGET", 42)
    assert find_noninjective_endo(chain) is None
    monkeypatch.setattr(errors, "WORK_BUDGET", 41)
    with pytest.raises(TooLarge, match="work budget"):
        find_noninjective_endo(chain)
    # the core test: the one tuple's 3 position pairs force every pair apart
    monkeypatch.setattr(errors, "WORK_BUDGET", 3)
    assert is_core(chain)
    monkeypatch.setattr(errors, "WORK_BUDGET", 2)
    with pytest.raises(TooLarge, match="work budget .* forced-apart pairs"):
        is_core(chain)
    # enumerate_endos: the search finds the one map, fewer than n + 1, so
    # no core test runs and the charge is the search's
    monkeypatch.setattr(errors, "WORK_BUDGET", 43)
    assert [h.mapping for h in enumerate_endos(chain)] == [(0, 1, 2)]
    monkeypatch.setattr(errors, "WORK_BUDGET", 42)
    with pytest.raises(TooLarge, match="work budget .* hom search"):
        enumerate_endos(chain)
    # its chain: one refinement, 3 elements and 1 tuple, runs no search
    # since the colouring is already discrete, and lists the identity for
    # 3 steps: 7
    search = _HomSearch(chain, chain, "hom")
    automorphisms = errors.metered(lambda: list(finstruct._automorphisms(chain, search)))
    monkeypatch.setattr(errors, "WORK_BUDGET", 7)
    assert automorphisms() == [(0, 1, 2)]
    monkeypatch.setattr(errors, "WORK_BUDGET", 6)
    with pytest.raises(TooLarge, match="work budget .* endomorphism listing"):
        automorphisms()
    monkeypatch.setattr(errors, "WORK_BUDGET", 3)
    with pytest.raises(TooLarge, match="work budget .* stabilizer chain"):
        automorphisms()


def test_strong_modes_drop_a_value_that_does_not_reflect(monkeypatch):
    # no source tuple, one target tuple: 0 -> 0, 1 -> 1 leaves 2 -> 2 a hom
    # value whose image would hold (0, 1, 2), so no embedding; 2 -> 3 is the
    # first one found.  3 * 2 = 6 for the set-up's links, 4 values tried, the
    # one target tuple through each of 0, 1 and 2 read as that value is
    # tried, and 3 for the map: 16
    source = ternary(3, set())
    target = ternary(4, {(0, 1, 2)})
    monkeypatch.setattr(errors, "WORK_BUDGET", 16)
    assert find_hom(source, target, "embedding").mapping == (0, 1, 3)
    monkeypatch.setattr(errors, "WORK_BUDGET", 15)
    with pytest.raises(TooLarge, match="work budget"):
        find_hom(source, target, "embedding")
    monkeypatch.undo()
    # the 24 injective maps less the 6 onto {0, 1, 2}
    embeddings = _search(source, target, "embedding", None, True, None)
    assert len(embeddings) == 18 and all(not {0, 1, 2} <= set(f) for f in embeddings)
    assert find_hom(source, target, "hom").mapping == (0, 0, 0)
    # only tuples of arity >= 3 with two or more distinct elements are
    # checked; the masks reflect the others
    sig = Signature((("P", 1), ("E", 2), ("T", 3)))
    marked = FinStructure(sig, 3, {"P": {(0,)}, "E": {(0, 1)}, "T": {(0, 1, 2), (2, 2, 2)}})
    through = [[(marked.rel("T"), (0, 1, 2))]] * 3
    assert _HomSearch(marked, marked, "embedding").through == through
    assert _HomSearch(marked, marked, "iso").through == through
    assert _HomSearch(marked, marked, "hom").through is None


def test_sparse_source_into_dense_target_is_refuted_early(monkeypatch):
    # no tuple on 6 elements into every triple of distinct elements on 8:
    # any 3 images hold a target tuple, so each third value is dropped as it
    # is tried.  8, 56 and 336 values at depths 1-3, each also reading the
    # 3 * 7 * 6 = 126 target tuples through it: 400 * 127 = 50,800 steps,
    # after 6 * 5 = 30 for the set-up's links.  A check on complete maps only
    # would read 336 tuples at each of the 8! / 2! = 20,160 injective maps,
    # past the default budget
    source = ternary(6, set())
    target = ternary(8, itertools.permutations(range(8), 3))
    assert find_hom(source, target, "embedding") is None
    monkeypatch.setattr(errors, "WORK_BUDGET", 50_830)
    assert find_hom(source, target, "embedding") is None
    monkeypatch.setattr(errors, "WORK_BUDGET", 50_829)
    with pytest.raises(TooLarge, match="work budget"):
        find_hom(source, target, "embedding")
    assert find_hom(source, target, "hom").mapping == (0,) * 6


def betweenness(atoms):
    D = gallery.betweenness_reduct()
    return sample(D, make_sample(D.base, atoms)).structure


def relabelled(structure, perm):
    rels = {name: frozenset(tuple(perm[x] for x in t) for t in ts) for name, ts in structure.relations.items()}
    return FinStructure(structure.signature, structure.size, rels)


def test_first_maps_on_ternary_relations():
    # betweenness samples of the dense local order and relabelled copies;
    # the first maps and counts were taken from the earlier search, which
    # checked reflection as each value was tried
    b4, b5, b6 = betweenness(4), betweenness(5), betweenness(6)
    p5, p6 = relabelled(b5, [4, 2, 0, 3, 1]), relabelled(b6, [2, 5, 0, 3, 1, 4])
    # b5 without the tuples on the atoms 0, 1, 2 has fewer tuples on every
    # 5 elements of b6, so no map reflects
    thin = FinStructure(b5.signature, 5, {"betw": frozenset(t for t in b5.rel("betw") if set(t) != {0, 1, 2})})
    cases = [
        (b4, p6, "embedding", (0, 3, 1, 2), 24),
        (b5, p6, "embedding", (0, 3, 1, 2, 5), 20),
        (p5, b5, "iso", (0, 2, 4, 1, 3), 10),
        (b6, p6, "iso", (2, 5, 0, 3, 1, 4), 2),
        (thin, b6, "embedding", None, 0),
    ]
    for i, (s, t, mode, first, count) in enumerate(cases):
        h = find_hom(s, t, mode)
        assert (h and h.mapping) == first, i
        maps = _search(s, t, mode, None, True, None)
        assert len(maps) == count and all(Hom(s, t, f).is_embedding() for f in maps), i


def test_unknown_search_mode_is_invalid_input():
    for mode in ("bogus", "Hom", ""):
        with pytest.raises(InvalidInput, match="unknown search mode"):
            find_hom(K2, K2, mode)


def test_compute_core_charges_one_meter(monkeypatch):
    # the undirected 6-cycle folds onto an edge: 12 steps find the folding.
    # On the edge, 1 step refutes a map without 0, and 4 find the swap
    # 0 -> 1, 1 -> 0 (2 values tried, 2 for the map) in place of the 1 step
    # that refuted a map without 1; 17 in all
    hexagon = digraph(6, {(i, (i + 1) % 6) for i in range(6)} | {((i + 1) % 6, i) for i in range(6)})
    monkeypatch.setattr(errors, "WORK_BUDGET", 17)
    assert compute_core(hexagon).core == K2
    monkeypatch.setattr(errors, "WORK_BUDGET", 16)
    with pytest.raises(TooLarge, match="work budget"):
        compute_core(hexagon)
    # each search fits the smaller budget alone
    assert find_noninjective_endo(hexagon) is not None
    assert is_core(K2)


def test_hom_validation_and_composition():
    rng = random.Random(9)
    for _ in range(20):
        s = random_structure(rng, max_size=5)
        h = find_hom(s, s, "hom")
        assert not hom_violations(s, s, h.mapping)
        composed = tuple(h(h(x)) for x in range(s.size))
        assert not hom_violations(s, s, composed)
        Hom(s, s, composed)
    with pytest.raises(HomValidationError):
        Hom(K3, K3, (0, 0, 1))


def test_compute_core_clique():
    res = compute_core(K3)
    assert res.was_core and res.core == K3


def test_compute_core_two_edges_collapse():
    two_k2 = disjoint_union(K2, K2)
    assert not is_core(two_k2)
    res = compute_core(two_k2)
    assert res.core.size == 2
    assert res.old_ids == (2, 3) and res.retraction.mapping == (0, 1, 0, 1)
    assert canonical_form(res.core) == canonical_form(K2)


def test_is_core_examples():
    assert is_core(FinStructure(Signature((("E", 2),)), 1, {}))
    assert not is_core(disjoint_union(K2, K2))


def test_pair_cover_samples_are_cores():
    # refutations over every element: Y@4 (24 elements) and the 40-element
    # pair-cover sample on 5 atoms, which the list-based search took ~66 s on
    y4 = sample(gallery.pair_cover().total, make_sample(DLO, 4)).structure
    assert is_core(y4)
    y5 = sample(gallery.pair_cover().total, make_sample(DLO, 5)).structure
    start = time.perf_counter()
    res = compute_core(y5)
    elapsed = time.perf_counter() - start
    assert (res.core.size, res.was_core) == (40, True)
    assert elapsed < 20.0, f"compute_core took {elapsed:.1f}s"


def test_core_idempotent_on_random_structures():
    rng = random.Random(10)
    for _ in range(40):
        s = random_structure(rng, max_size=6)
        res = compute_core(s)
        assert is_core(res.core)
        again = compute_core(res.core)
        assert again.was_core
        assert canonical_form(again.core) == canonical_form(res.core)
        # retract property
        for new, old in enumerate(res.old_ids):
            assert res.retraction.mapping[old] == new


def quotient_scan_is_core(structure):
    """The earlier core test: for every pair u < v, look for a hom into the
    structure from its quotient that identifies v with u."""
    n = structure.size
    for u in range(n):
        for v in range(u + 1, n):
            proj = [x - (x > v) for x in range(n)]
            proj[v] = u
            rels = {
                name: frozenset(tuple(proj[x] for x in t) for t in ts)
                for name, ts in structure.relations.items()
            }
            if find_hom(FinStructure(structure.signature, n - 1, rels), structure) is not None:
                return False
    return True


def test_is_core_against_quotient_scan():
    rng = random.Random(19)
    structures = [random_structure(rng, max_size=6) for _ in range(200)]
    structures += [disjoint_union(K2, K2), johnson(4), johnson(5)]
    structures += [gallery.spider(n) for n in range(2, 5)]
    for i, s in enumerate(structures):
        e = find_noninjective_endo(s)
        assert (e is None) == is_core(s) == quotient_scan_is_core(s), f"structure {i}"
        if e is not None:
            assert not hom_violations(s, s, e.mapping), f"structure {i}"
            assert len(set(e.mapping)) < s.size, f"structure {i}"


@pytest.mark.parametrize(
    "call",
    [is_core, enumerate_endos, lambda s: find_hom(s, s, "iso")],
    ids=["is_core", "enumerate_endos", "find_hom_iso"],
)
def test_search_state_freed_on_return(call):
    # 15 elements; with gc off, a reference cycle in the search state would
    # survive the call and be found by the collection afterwards
    s = johnson(6)
    gc.collect()
    gc.disable()
    try:
        call(s)
        assert gc.collect() == 0
    finally:
        gc.enable()


def directed_path(n):
    return FinStructure(Signature((("E", 2),)), n, {"E": frozenset((i, i + 1) for i in range(n - 1))})


def test_deep_flat_inputs_answer_or_raise_within_the_budget():
    # the search is a loop over a stack of the assigned variables, so only
    # the budget bounds its depth: the iso search on a flat path of 1,100
    # elements answers, and the core test, whose values each copy 1,100 sets,
    # runs out of budget within seconds; neither leaves a reference cycle
    path = directed_path(700)
    assert find_hom(path, path, "iso").mapping == tuple(range(700))
    path = directed_path(1100)
    gc.collect()
    gc.disable()
    try:
        assert find_hom(path, path, "iso").mapping == tuple(range(1100))
        assert gc.collect() == 0
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="work budget .* hom search"):
            is_core(path)
        assert time.perf_counter() - start < 15
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [300, 700])
def test_core_test_on_a_long_path_is_refused_within_seconds(n):
    # each value tried charges 1 + n // 16 steps, so the budget tracks the
    # time spent copying and scanning the n candidate sets per value
    path = directed_path(n)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="work budget .* hom search"):
        is_core(path)
    assert time.perf_counter() - start < 15


def test_strong_set_up_is_charged_before_it_is_built():
    # embedding and iso set-ups link every ordered pair of source elements:
    # on 2,000 elements the 3,998,000 links are refused before any is built
    path = directed_path(2000)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="hom search set-up"):
        find_hom(path, path, "iso")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,per_value", [(15, 1), (16, 2)])
def test_each_value_tried_charges_one_step_per_16_variables(monkeypatch, n, per_value):
    # n isolated elements into one: n values tried at 1 + n // 16 steps each,
    # then n for the map
    source, target = digraph(n, set()), digraph(1, set())
    needed = n * per_value + n
    monkeypatch.setattr(errors, "WORK_BUDGET", needed)
    assert find_hom(source, target).mapping == (0,) * n
    monkeypatch.setattr(errors, "WORK_BUDGET", needed - 1)
    with pytest.raises(TooLarge, match="hom search"):
        find_hom(source, target)


def test_abandoned_run_frees_its_state():
    # a run is a generator; dropping it after its first map frees its stack
    # at once, with no reference cycle left for the collector
    s = johnson(6)
    search = _HomSearch(s, s, "hom")
    gc.collect()
    gc.disable()
    try:
        maps = search.run(None, lexicographic=True)
        assert next(maps) == min(h.mapping for h in enumerate_endos(s))
        gone = weakref.ref(maps)
        del maps
        assert gone() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_noninjective_endo_sets_up_one_search(monkeypatch):
    built = []

    class Counted(_HomSearch):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(finstruct, "_HomSearch", Counted)
    # a core: all 15 runs refute, on one set-up
    assert find_noninjective_endo(johnson(6)) is None
    assert built == ["hom"]
    # compute_core sets up once per structure it tests: 2K2, then K2
    built.clear()
    assert compute_core(disjoint_union(K2, K2)).core.size == 2
    assert len(built) == 2
    rng = random.Random(31)
    for i in range(100):
        s = random_structure(rng, max_size=6)
        built.clear()
        e = find_noninjective_endo(s)
        assert len(built) == 1, f"structure {i}"
        # the same map as separate searches, one per left-out element
        separate = next((f for v in range(s.size) for f in _search(s, s, "hom", None, False, 1, v)), None)
        assert (e and e.mapping) == separate, f"structure {i}"


def test_noninjective_endo_is_deterministic():
    two_k2 = disjoint_union(K2, K2)
    e1 = find_noninjective_endo(two_k2)
    e2 = find_noninjective_endo(two_k2)
    assert e1.mapping == e2.mapping
    assert len(set(e1.mapping)) < two_k2.size


def per_element_noninjective_endo(structure):
    """The core test with one refutation run per element, v = 0, 1, ...:
    the oracle for `find_noninjective_endo`, which skips elements in the
    orbit of a refuted one."""
    search = _HomSearch(structure, structure, "hom")
    for v in range(structure.size):
        found = next(search.run(None, lexicographic=False, avoid=v), None)
        if found is not None:
            return Hom(structure, structure, found)
    return None


def pair_cover_sample(atoms):
    return sample(gallery.pair_cover().total, make_sample(DLO, atoms)).structure


def tagged_pair_sample(atoms):
    return sample(gallery.tagged_pair_structure(), make_sample(DLO, atoms)).structure


def cycle(n):
    return digraph(n, {(i, (i + 1) % n) for i in range(n)} | {((i + 1) % n, i) for i in range(n)})


# A regular tournament on 11 elements, each beating the five listed; every
# element has the same occurrence profile and the only automorphism is the
# identity (3-cycles of the circulant tournament reversed at random)
RIGID_TOURNAMENT = digraph(11, {(a, b) for a, bs in enumerate([
    (3, 6, 8, 9, 10), (0, 2, 4, 5, 6), (0, 3, 4, 7, 10), (1, 7, 8, 9, 10),
    (0, 3, 5, 7, 8), (0, 2, 3, 6, 10), (2, 3, 4, 7, 9), (0, 1, 5, 8, 9),
    (1, 2, 5, 6, 9), (1, 2, 4, 5, 10), (1, 4, 6, 7, 8),
]) for b in bs})


def core_test_inputs():
    rng = random.Random(31)  # the 100 structures of the set-up test above
    structures = [random_structure(rng, max_size=6) for _ in range(100)]
    structures += [johnson(a) for a in (5, 6, 7)] + [gallery.spider(n) for n in (3, 4, 5)]
    structures += [pair_cover_sample(4), tagged_pair_sample(4), pair_cover_sample(3), RIGID_TOURNAMENT]
    # twins: structures beside a relabelled copy of themselves.  In
    # C5 + C7 + C7 no endomorphism misses an element of the 5-cycle, and the
    # runs r -> v within it find folds of the 7-cycles, not automorphisms
    twins = [K3, johnson(4), pair_cover_sample(2)] + [random_structure(rng, max_size=5) for _ in range(20)]
    structures += [disjoint_union(s, relabelled(s, rng.sample(range(s.size), s.size))) for s in twins]
    structures.append(disjoint_union(cycle(5), disjoint_union(cycle(7), cycle(7))))
    return structures


def test_core_test_matches_per_element_refutations(monkeypatch):
    structures = core_test_inputs()
    cores = []
    for i, s in enumerate(structures):
        e, oracle = find_noninjective_endo(s), per_element_noninjective_endo(s)
        assert (e and e.mapping) == (oracle and oracle.mapping), f"structure {i}"
        cores.append(compute_core(s))
    assert len(enumerate_endos(RIGID_TOURNAMENT)) == 1
    # compute_core over the oracle: the same parts, hence the same core,
    # kept elements and retraction
    monkeypatch.setattr(finstruct, "find_noninjective_endo", per_element_noninjective_endo)
    for i, (s, res) in enumerate(zip(structures, cores)):
        old = compute_core(s)
        assert (res.core, res.old_ids, res.retraction.mapping, res.was_core) == (
            old.core, old.old_ids, old.retraction.mapping, old.was_core), f"structure {i}"


def test_core_test_refutes_once_per_orbit(monkeypatch):
    runs = []

    class Counted(_HomSearch):
        def run(self, partial, lexicographic, avoid=None):
            runs.append("refute" if avoid is not None else "map r -> v")
            return super().run(partial, lexicographic, avoid)

    monkeypatch.setattr(finstruct, "_HomSearch", Counted)
    # each automorphism group is transitive: 0 is refuted, and the elements
    # outside the orbit of 0 under the automorphisms found so far are each
    # reached by one run that finds another automorphism
    for s, automorphisms in ((johnson(6), 5), (pair_cover_sample(4), 3)):
        runs.clear()
        assert find_noninjective_endo(s) is None
        assert runs == ["refute"] + ["map r -> v"] * automorphisms


def all_pairs_forced_apart(structure):
    """Whether every two distinct elements x, y sit at positions i != j of a
    tuple of a relation with no tuple equal at i and j, read tuple by tuple:
    the oracle of the core test's forced-apart check."""
    pairs = set()
    for ts in structure.relations.values():
        arity = len(next(iter(ts), ()))
        apart = [(i, j) for i, j in itertools.combinations(range(arity), 2) if all(u[i] != u[j] for u in ts)]
        pairs.update(frozenset((t[i], t[j])) for t in ts for i, j in apart)
    return len(pairs) == math.comb(structure.size, 2)


def test_forced_apart_pairs_answer_the_core_test(monkeypatch):
    # 600 seeded random structures of up to 6 elements, relations of arity
    # 1 to 3 with and without repeated entries, and the gallery samples on
    # 3 to 5 atoms: the core test agrees with the refutations, and it runs
    # them exactly when some pair is not forced apart
    rng = random.Random(37)
    structures = []
    for _ in range(600):
        n, sig, rels = rng.randint(1, 6), [], {}
        for r in range(rng.randint(1, 3)):
            k, density, repeats = rng.randint(1, 3), rng.choice([0.1, 0.3, 0.6, 0.9]), rng.random() < 0.5
            sig.append((f"R{r}", k))
            rels[f"R{r}"] = {
                t for t in itertools.product(range(n), repeat=k) if (repeats or len(set(t)) == k) and rng.random() < density
            }
        structures.append(FinStructure(Signature(tuple(sig)), n, rels))
    for name in sorted(gallery._definable_registry()):
        D = gallery.lookup_definable(name)
        structures += [sample(D, make_sample(D.base, k)).structure for k in (3, 4, 5)]
    refutations = []
    search = finstruct.find_noninjective_endo

    def counted(structure):
        refutations.append(structure)
        return search(structure)

    forced = collapsing = 0
    for i, s in enumerate(structures):
        core = search(s) is None
        lemma = all_pairs_forced_apart(s)
        assert core or not lemma, f"structure {i}"
        refutations.clear()
        with monkeypatch.context() as m:
            m.setattr(finstruct, "find_noninjective_endo", counted)
            assert is_core(s) == core, f"structure {i}"
        assert refutations == ([] if lemma else [s]), f"structure {i}"
        forced += lemma
        collapsing += not core
    assert forced > 150 and collapsing > 150 and len(structures) - forced - collapsing > 50


def test_johnson_samples_are_cores_without_a_search(monkeypatch):
    # every pair of J@k is an edge or a non-edge, so the core test charges
    # one check per tuple and runs no refutation: J@20 (190 elements,
    # 35,910 tuples) fits the budget and a second
    def no_refutation(structure):
        raise AssertionError("refutation run")

    monkeypatch.setattr(finstruct, "find_noninjective_endo", no_refutation)
    for s, tuples in zip([johnson(k) for k in (6, 10, 20)], (210, 1980, 35_910)):
        start = time.perf_counter()
        monkeypatch.setattr(errors, "WORK_BUDGET", tuples)
        assert is_core(s)
        assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(errors, "WORK_BUDGET", 35_909)
    with pytest.raises(TooLarge, match="work budget .* forced-apart pairs"):
        is_core(s)


def test_johnson_sample_on_8_atoms_is_a_core_within_a_second():
    # the refutations, which the core test skips on this sample (every pair
    # is forced apart)
    s = johnson(8)
    start = time.perf_counter()
    assert find_noninjective_endo(s) is None
    elapsed = time.perf_counter() - start
    assert s.size == 28 and elapsed < 1.0, f"the refutations took {elapsed:.2f}s"


def test_endos_of_a_core_from_its_chain_match_the_search():
    # past its first n + 1 maps, a core's come from the stabilizer chain;
    # the lexicographic search, which lists every endomorphism, is the
    # oracle of the chain, read whole, and of enumerate_endos
    cores = [s for s in core_test_inputs() if is_core(s)]
    cores += [johnson(5), johnson(6), johnson(7), pair_cover_sample(4)]
    assert len(cores) == 76
    for i, s in enumerate(cores):
        oracle = list(_HomSearch(s, s, "hom").run(None, lexicographic=True))
        maps = list(finstruct._automorphisms(s, _HomSearch(s, s, "hom")))
        assert maps == oracle == [h.mapping for h in enumerate_endos(s)], f"core {i}"
        for f in maps:
            assert len(set(f)) == s.size and not hom_violations(s, s, f), f"core {i}"


def test_endos_of_a_core_honour_the_limit():
    # J@6 has 15 elements: up to 16 maps are searched for, the rest read
    # off the chain
    s = johnson(6)
    maps = [h.mapping for h in enumerate_endos(s)]
    for limit in (0, 1, 15, 16, 17, 50, 720, 721):
        assert [h.mapping for h in enumerate_endos(s, limit)] == maps[:limit]


def test_endos_of_a_long_path_are_listed_without_the_core_test(monkeypatch):
    # the directed path's one map, the identity, is fewer than n + 1, so
    # the listing is the search's alone; the path's core test is past the
    # budget from about 95 elements (see the core test's FOUND in CHANGES)
    def no_core_test(structure):
        raise AssertionError("core test run")

    monkeypatch.setattr(finstruct, "is_core", no_core_test)
    path = directed_path(100)
    for limit in (None, 0, 1, 2):
        assert [h.mapping for h in enumerate_endos(path, limit)] == [tuple(range(100))][:limit]


def test_endos_past_n_plus_1_of_a_core_with_a_costly_core_test_are_lost():
    # the directed path on 0..99 in E and the loopless clique on 100..104 in
    # F: a core whose 5! = 120 automorphisms are all the identity on the
    # path.  The first 106 are searched for; past them the core test runs,
    # and on the path it is past the budget, where the search alone listed
    # all 120.  Pinned so that a cheaper core test or another switch shows.
    clique = {(a, b) for a in range(100, 105) for b in range(100, 105) if a != b}
    s = FinStructure(
        Signature((("E", 2), ("F", 2))), 105, {"E": directed_path(100).rel("E"), "F": frozenset(clique)}
    )
    assert len(enumerate_endos(s, 106)) == 106
    with pytest.raises(TooLarge, match="work budget .* hom search"):
        enumerate_endos(s)


@pytest.mark.parametrize("k,order", [(1, 1), (2, 1), (3, 6), (4, 48), (5, 120), (6, 720), (7, 5040)])
def test_automorphism_group_orders_of_johnson_samples(k, order):
    # from 5 atoms on, and on 3, every automorphism of the Johnson sample is
    # induced by one of the k! permutations of the atoms (Whitney); on 4 it
    # is the octahedron K(2, 2, 2), with 48, and on 2 a single point
    assert len(enumerate_endos(johnson(k))) == order


def test_automorphism_group_order_of_y4():
    # k! * 2^C(k, 2) at k = 4: the atom permutations and a flip per pair
    assert len(enumerate_endos(pair_cover_sample(4))) == 1536


def test_chain_runs_one_search_per_new_generator(monkeypatch):
    found = []

    class Counted(_HomSearch):
        def run(self, partial, lexicographic, avoid=None):
            for f in super().run(partial, lexicographic, avoid):
                found.append(f)
                yield f
            found.append(None)  # a search run to its end found no map

    monkeypatch.setattr(finstruct, "_HomSearch", Counted)
    # each orbit closes under the maps found for the levels below it, so
    # the chain of J@6 needs 5 searches and that of J@8 7, and none fails
    for k, searches in ((6, 5), (8, 7)):
        s = johnson(k)
        assert is_core(s)
        found.clear()
        assert len(list(finstruct._automorphisms(s, Counted(s, s, "hom")))) == math.factorial(k)
        assert len(found) == searches and None not in found


def test_endos_of_johnson_8_within_the_budget(monkeypatch):
    # the search for the first 29 maps, the core test (every pair is forced
    # apart: one check per tuple, 756), the chain's 7 refinements (28
    # elements and 756 tuples each) and 7 searches, and 28 steps for each of
    # the 8! maps read off it
    s = johnson(8)
    monkeypatch.setattr(errors, "WORK_BUDGET", 1_137_988)
    assert len(enumerate_endos(s)) == 40_320
    monkeypatch.setattr(errors, "WORK_BUDGET", 1_137_987)
    with pytest.raises(TooLarge, match="work budget .* endomorphism listing"):
        enumerate_endos(s)


def test_endos_of_y5_are_past_the_budget():
    # 5! * 2^10 = 122,880 automorphisms of 40 elements: 4.9 million steps
    # to list
    with pytest.raises(TooLarge, match="work budget .* endomorphism listing"):
        enumerate_endos(pair_cover_sample(5))


def test_canonical_form_relabelings():
    cycle = digraph(3, {(0, 1), (1, 2), (2, 0)})
    relabeled = digraph(3, {(1, 2), (2, 0), (0, 1)})
    shuffled = digraph(3, {(2, 1), (1, 0), (0, 2)})
    assert canonical_form(cycle) == canonical_form(relabeled)
    assert canonical_form(cycle) == canonical_form(shuffled)
    transitive = digraph(3, {(0, 1), (0, 2), (1, 2)})
    assert canonical_form(cycle) != canonical_form(transitive)


def test_canonical_form_path_orientations():
    in_star = digraph(3, {(0, 1), (2, 1)})
    out_star = digraph(3, {(1, 0), (1, 2)})
    assert canonical_form(in_star) != canonical_form(out_star)
    directed_path = digraph(3, {(0, 1), (1, 2)})
    reversed_path = digraph(3, {(2, 1), (1, 0)})
    assert canonical_form(directed_path) == canonical_form(reversed_path)


def test_canonical_form_bound(monkeypatch):
    # the edgeless 11-vertex digraph: automorphism pruning leaves
    # 11 + 10 + ... + 1 = 66 nodes, each counting 11 elements and no tuples
    big = digraph(11, set())
    monkeypatch.setattr(errors, "WORK_BUDGET", 726)
    assert canonical_form(big) == repr(((("E", 2),), 11, ((),))).encode()
    monkeypatch.setattr(errors, "WORK_BUDGET", 725)
    with pytest.raises(TooLarge, match="work budget"):
        canonical_form(big)
    # the directed 5-cycle: the root and two leaves, the second of which
    # finds the rotation that prunes the rest; 5 elements + 5 tuples each
    cycle = digraph(5, {(i, (i + 1) % 5) for i in range(5)})
    monkeypatch.setattr(errors, "WORK_BUDGET", 30)
    canonical_form(cycle)
    monkeypatch.setattr(errors, "WORK_BUDGET", 29)
    with pytest.raises(TooLarge, match="work budget"):
        canonical_form(cycle)


def test_canonical_form_matches_iso_search():
    rng = random.Random(11)
    for _ in range(60):
        s = random_structure(rng, max_size=5)
        perm = list(range(s.size))
        rng.shuffle(perm)
        twin = FinStructure(
            s.signature,
            s.size,
            {
                name: frozenset(tuple(perm[x] for x in t) for t in s.relations[name])
                for name, _ in s.signature.relations
            },
        )
        assert canonical_form(s) == canonical_form(twin)
        assert find_hom(s, twin, "iso") is not None


def brute_force_maps(source, target):
    """Every map source -> target by mode, found by trying all maps.

    An embedding is an injective hom under which every target tuple inside
    the image comes from a source tuple; an iso is a surjective embedding.
    """
    found = {"hom": [], "embedding": [], "iso": []}
    rels = source.signature.relations
    for mapping in itertools.product(range(target.size), repeat=source.size):
        if not all(
            tuple(mapping[x] for x in t) in target.relations[name]
            for name, _ in rels
            for t in source.relations[name]
        ):
            continue
        found["hom"].append(mapping)
        image = set(mapping)
        if len(image) < source.size:
            continue
        if all(
            sum(all(y in image for y in t) for t in target.relations[name])
            == len(source.relations[name])
            for name, _ in rels
        ):
            found["embedding"].append(mapping)
            if len(image) == target.size:
                found["iso"].append(mapping)
    return found


def random_target(rng, source):
    """A structure over the source's signature: a relabelled copy, a copy
    with one tuple toggled, or random tuples on a random size up to 5."""
    kind = rng.randrange(3)
    size = source.size if kind < 2 else rng.randint(1, 5)
    perm = list(range(size))
    rng.shuffle(perm)
    rels = {}
    for name, arity in source.signature.relations:
        if kind < 2:
            tuples = {tuple(perm[x] for x in t) for t in source.relations[name]}
        else:
            tuples = {t for t in itertools.product(range(size), repeat=arity) if rng.random() < 0.4}
        rels[name] = frozenset(tuples)
    if kind == 1:
        name, arity = rng.choice(source.signature.relations)
        t = tuple(rng.randrange(size) for _ in range(arity))
        rels[name] = rels[name] ^ {t}
    return FinStructure(source.signature, size, rels)


def test_hom_search_against_brute_force():
    rng = random.Random(17)
    # partial maps come from their own stream, so the structures stay those of seed 17
    partial_rng = random.Random(18)
    for i in range(100):
        s = random_structure(rng, max_size=5)
        t = random_target(rng, s)
        valid = brute_force_maps(s, t)
        for mode, maps in valid.items():
            h = find_hom(s, t, mode)
            assert (h is None) == (not maps), f"round {i}, mode {mode}"
            if h is not None:
                assert h.mapping in maps, f"round {i}, mode {mode}"
            # half the partial maps are cut from a valid map, half are random
            if maps and partial_rng.random() < 0.5:
                seed = partial_rng.choice(maps)
            else:
                seed = [partial_rng.randrange(t.size) for _ in range(s.size)]
            keys = partial_rng.sample(range(s.size), partial_rng.randint(1, s.size))
            partial = {v: seed[v] for v in keys}
            extending = [m for m in maps if all(m[v] == w for v, w in partial.items())]
            h = find_hom(s, t, mode, partial=partial)
            assert (h is None) == (not extending), f"round {i}, mode {mode}, partial {partial}"
            if h is not None:
                assert h.mapping in extending, f"round {i}, mode {mode}, partial {partial}"
        endos = brute_force_maps(s, s)["hom"]
        assert [h.mapping for h in enumerate_endos(s)] == sorted(endos), f"round {i}"


def _tuples_by_var(structure: FinStructure) -> dict[int, list[tuple[str, tuple[int, ...]]]]:
    out: dict[int, list] = {v: [] for v in range(structure.size)}
    for name, _ in structure.signature.relations:
        for t in structure.relations[name]:
            for v in set(t):
                out[v].append((name, t))
    return out


def old_search(
    source: FinStructure,
    target: FinStructure,
    mode: str,
    partial: Optional[dict[int, int]],
    lexicographic: bool,
    limit: Optional[int],
    avoid: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """The list-based search that `_search` replaced, kept as its oracle.

    Candidate sets are lists; every assignment filters the list of every
    unassigned variable against every binary relation, and checks every
    tuple through the assigned variable.

    mode is one of "hom", "embedding", "iso".  With lexicographic=True the
    variable order is 0,1,2,... and solutions come out sorted as tuples;
    otherwise the smallest-candidate-set variable is assigned first (ties by
    lowest id).  Candidate values are always tried in ascending order.
    partial fixes the images of some variables and avoid is a target
    element no variable may take; both only narrow the initial candidate
    lists.
    """
    if source.signature != target.signature:
        raise SignatureMismatch("hom search requires equal signatures")
    if mode not in ("hom", "embedding", "iso"):
        raise ValueError(f"unknown mode {mode!r}")
    strong = mode in ("embedding", "iso")
    if limit == 0 or (mode == "iso" and source.size != target.size):
        return []
    if strong and source.size > target.size:
        return []

    n = source.size
    binaries = [name for name, a in source.signature.relations if a == 2]
    src_by_var = _tuples_by_var(source)
    tgt_by_elem = _tuples_by_var(target)
    tgt_pairs = {name: target.relations[name] for name in binaries}
    src_pairs = {name: source.relations[name] for name in binaries}

    # Unary constraints, avoid and partial fix the initial candidate sets.
    unaries = [n0 for n0, a in source.signature.relations if a == 1]
    values = [w for w in range(target.size) if w != avoid]
    cands: list[list[int]] = []
    for v in range(n):
        opts = []
        for w in values:
            ok = True
            for name in unaries:
                in_s = (v,) in source.relations[name]
                in_t = (w,) in target.relations[name]
                if (in_s and not in_t) or (strong and in_s != in_t):
                    ok = False
                    break
            if ok:
                opts.append(w)
        cands.append(opts)
    for v, w in (partial or {}).items():
        if not 0 <= v < n or not 0 <= w < target.size:
            return []
        cands[v] = [w] if w in cands[v] else []

    assignment: list[Optional[int]] = [None] * n
    inverse: dict[int, int] = {}
    solutions: list[tuple[int, ...]] = []

    def consistent_assign(v: int, w: int) -> bool:
        for name, t in src_by_var[v]:
            image = []
            for x in t:
                y = w if x == v else assignment[x]
                if y is None:
                    break
                image.append(y)
            else:
                if tuple(image) not in target.relations[name]:
                    return False
        if strong:
            for name, t in tgt_by_elem.get(w, ()):
                pre = []
                for y in t:
                    x = v if y == w else inverse.get(y)
                    if x is None:
                        break
                    pre.append(x)
                else:
                    if tuple(pre) not in source.relations[name]:
                        return False
        return True

    def prune(v: int, w: int, current: list[list[int]]) -> Optional[list[list[int]]]:
        updated = current
        for u in range(n):
            if assignment[u] is not None or u == v:
                continue
            opts = updated[u]
            filtered = []
            for x in opts:
                if strong and x == w:
                    continue
                ok = True
                for name in binaries:
                    fwd_s = (v, u) in src_pairs[name]
                    bwd_s = (u, v) in src_pairs[name]
                    fwd_t = (w, x) in tgt_pairs[name]
                    bwd_t = (x, w) in tgt_pairs[name]
                    if strong:
                        if fwd_s != fwd_t or bwd_s != bwd_t:
                            ok = False
                            break
                    else:
                        if (fwd_s and not fwd_t) or (bwd_s and not bwd_t):
                            ok = False
                            break
                if ok:
                    filtered.append(x)
            if len(filtered) < len(opts):
                if not filtered:
                    return None
                if updated is current:
                    updated = list(current)
                updated[u] = filtered
        return updated

    def pick(current: list[list[int]]) -> int:
        if lexicographic:
            for v in range(n):
                if assignment[v] is None:
                    return v
            raise AssertionError("pick on full assignment")
        best, best_len = -1, None
        for v in range(n):
            if assignment[v] is None:
                l = len(current[v])
                if best_len is None or l < best_len:
                    best, best_len = v, l
        return best

    def backtrack(current: list[list[int]]) -> bool:
        """Returns True when the solution limit has been reached."""
        if all(a is not None for a in assignment):
            solutions.append(tuple(assignment))  # type: ignore[arg-type]
            return limit is not None and len(solutions) >= limit
        v = pick(current)
        # In strong modes prune has already removed every assigned image
        # from the candidate lists, so w is never taken twice.
        for w in current[v]:
            if not consistent_assign(v, w):
                continue
            pruned = prune(v, w, current)
            if pruned is None:
                continue
            assignment[v] = w
            if strong:
                inverse[w] = v
            done = backtrack(pruned)
            assignment[v] = None
            if strong:
                del inverse[w]
            if done:
                return True
        return False

    backtrack(cands)
    # backtrack reaches itself through its closure; breaking that cycle frees
    # the search state now instead of at the next cyclic garbage collection.
    backtrack = None
    return solutions



def search_args(rng, s, t, limits=(None, 1, 3)):
    """Every mode, order and limit, each with a random avoid and partial map."""
    for mode in ("hom", "embedding", "iso"):
        for lexicographic in (True, False):
            for limit in limits:
                avoid = rng.choice([None, rng.randrange(t.size)]) if t.size else None
                partial = None
                if s.size and rng.random() < 0.4:
                    # values up to t.size, so some partial maps leave the target
                    partial = {rng.randrange(s.size): rng.randrange(t.size + 1) for _ in range(rng.randint(1, 2))}
                yield mode, partial, lexicographic, limit, avoid


def assert_matches_list_search(s, t, args, where):
    """`_search` against the list-based oracle under one set of arguments.

    Forward checking on tuples of arity >= 3 shrinks candidate sets earlier
    than the oracle does, so the smallest-set variable order, and with it
    the first maps found, may differ.  Lexicographic runs still list the
    same maps in the same order; complete runs find the same set of maps;
    a run cut by a limit finds as many distinct maps as the oracle, each
    one a map the oracle accepts under the same mode, partial map and
    avoided element.
    """
    mode, partial, lexicographic, limit, avoid = args
    found = _search(s, t, *args)
    expected = old_search(s, t, *args)
    if lexicographic:
        assert found == expected, where
    elif limit is None:
        assert sorted(found) == sorted(expected), where
    else:
        assert len(set(found)) == len(found) == len(expected), where
        for f in found:
            assert all(f[v] == w for v, w in (partial or {}).items()), where
            pinned = dict(enumerate(f))
            assert old_search(s, t, mode, pinned, False, 1, avoid) == [f], where


def test_search_matches_list_search():
    rng = random.Random(23)
    pairs = []
    for _ in range(120):
        s = random_structure(rng, max_size=6)
        pairs += [(s, random_target(rng, s)), (s, s)]
    empty = FinStructure(K3.signature, 0, {})
    pairs += [(empty, empty), (empty, K3), (K3, empty)]
    for i, (s, t) in enumerate(pairs):
        for args in search_args(rng, s, t):
            assert_matches_list_search(s, t, args, f"pair {i}, {args}")


def test_search_matches_list_search_beyond_64_elements():
    # candidate masks wider than a machine word; unary, binary with loops
    # and ternary relations, sources cut from the target and a relabelled twin
    rng = random.Random(29)
    n = 70
    sig = Signature((("P", 1), ("E", 2), ("F", 2), ("T", 3)))
    pairs = itertools.product(range(n), repeat=2)
    rels = {
        "P": frozenset((x,) for x in range(n) if rng.random() < 0.5),
        "E": frozenset(t for t in pairs if rng.random() < 0.3),
        "F": frozenset((x, x) for x in range(n) if rng.random() < 0.5),
        "T": frozenset(tuple(rng.sample(range(n), 3)) for _ in range(40)),
    }
    big = FinStructure(sig, n, rels)
    perm = list(range(n))
    rng.shuffle(perm)
    twin = FinStructure(sig, n, {name: frozenset(tuple(perm[x] for x in t) for t in ts) for name, ts in rels.items()})
    cases = [(induced_substructure(big, rng.sample(range(n), k))[0], big) for k in (3, 5)]
    for i, (s, t) in enumerate(cases + [(big, twin)]):
        for args in search_args(rng, s, t, limits=(1, 3)):
            if t is twin and args[0] == "hom":
                continue  # lexicographic homs of big into twin take the oracle minutes
            assert_matches_list_search(s, t, args, f"case {i}, {args}")


ET = Signature((("E", 2), ("T", 3)))


def equal_count_pairs(rng, count):
    """Pairs on 4 to 8 elements with as many E (binary) and T (ternary)
    tuples in the source as in the target, few of them isomorphic.  Half
    take a relabelled copy of the source and move one tuple of one
    relation (drop it, add one the relation lacks); half draw the target's
    tuples at random."""
    for i in range(count):
        n = rng.randint(4, 8)
        every = {name: list(itertools.product(range(n), repeat=a)) for name, a in ET.relations}
        counts = {"E": rng.randint(n // 2, n), "T": rng.randint(1, n)}
        s = FinStructure(ET, n, {r: frozenset(rng.sample(every[r], counts[r])) for r in counts})
        if i % 2:
            t = FinStructure(ET, n, {r: frozenset(rng.sample(every[r], counts[r])) for r in counts})
        else:
            rels = {name: set(ts) for name, ts in _permuted_copy(s, rng).relations.items()}
            name = rng.choice(("E", "T"))
            rels[name].remove(rng.choice(sorted(rels[name])))
            rels[name].add(rng.choice([x for x in every[name] if x not in rels[name]]))
            t = FinStructure(ET, n, rels)
        yield s, t


def test_iso_search_on_equal_tuple_counts_matches_list_search():
    # equal tuple counts pass the set-up's count check, so the search alone
    # tells the isomorphic pairs from the others
    rng = random.Random(37)
    for i, (s, t) in enumerate(equal_count_pairs(rng, 400)):
        for args in search_args(rng, s, t):
            if args[0] == "iso":
                assert_matches_list_search(s, t, args, f"pair {i}, {args}")


def test_iso_search_needs_equal_tuple_counts():
    rng = random.Random(41)
    for i, (s, _) in enumerate(equal_count_pairs(rng, 50)):
        assert _HomSearch(s, s, "iso").domains is not None, f"pair {i}"
        for name in ("E", "T"):
            one_fewer = dict(s.relations)
            one_fewer[name] = one_fewer[name] - {min(one_fewer[name])}
            t = FinStructure(ET, s.size, one_fewer)
            assert _HomSearch(s, t, "iso").domains is None, f"pair {i}, {name}"


def test_target_tables_reused_across_sources_and_modes():
    # one target serves hom, embedding, iso and hom again, from a relabelled
    # copy, an induced part on two fewer elements and that part without the
    # F tuples that run beside an E tuple (into which the inclusion is an
    # injective hom but no embedding); every run returns what a run into a
    # fresh equal copy of the target returns, and only the smaller sources
    # keep tables on the target, one set shared by both
    rng = random.Random(43)
    sig = Signature((("P", 1), ("E", 2), ("F", 2), ("T", 3)))
    density = {1: 0.5, 2: 0.35, 3: 0.1}
    for i in range(20):
        n = rng.randint(4, 7)
        rels = {
            name: frozenset(x for x in itertools.product(range(n), repeat=a) if rng.random() < density[a])
            for name, a in sig.relations
        }
        target = FinStructure(sig, n, rels)
        shown = (repr(target), target.to_json())
        part = induced_substructure(target, rng.sample(range(n), n - 2))[0]
        thin = dict(part.relations)
        thin["F"] = frozenset(x for x in thin["F"] if x[0] == x[1] or x not in thin["E"])
        sources = [_permuted_copy(target, rng), part, FinStructure(sig, n - 2, thin)]
        kept = []
        for j, source in enumerate(sources):
            for mode in ("hom", "embedding", "iso", "hom"):
                for partial, avoid in ((None, None), ({0: rng.randrange(n)}, None), (None, rng.randrange(n))):
                    for lexicographic, limit in ((True, None), (False, 1)):
                        args = (mode, partial, lexicographic, limit, avoid)
                        fresh = FinStructure(sig, n, dict(rels))
                        assert _search(source, target, *args) == _search(source, fresh, *args), f"{i}, {j}, {args}"
            kept.append(vars(target).get("_search_tables"))
        assert kept[0] is None and kept[1] is not None and kept[2] is kept[1], i
        assert (repr(target), target.to_json()) == shown
        assert target == FinStructure(sig, n, dict(rels)) == target


def assert_agrees_with_brute_force(s, t):
    """Every mode, both orders, complete runs and first maps."""
    valid = brute_force_maps(s, t)
    for mode, maps in valid.items():
        assert _search(s, t, mode, None, True, None) == maps, mode
        assert sorted(_search(s, t, mode, None, False, None)) == maps, mode
        h = find_hom(s, t, mode)
        assert (h and h.mapping in maps) or (h is None and not maps), mode


def ternary(n, tuples):
    return FinStructure(Signature((("T", 3),)), n, {"T": frozenset(tuples)})


@pytest.mark.parametrize(
    "tuples",
    [
        {(0, 0, 1)},
        {(0, 1, 0)},
        {(1, 0, 0), (0, 1, 2)},
        {(0, 0, 1), (1, 2, 1), (2, 0, 2)},
        {(0, 1, 1), (1, 1, 2), (2, 2, 0), (0, 1, 2)},
    ],
)
def test_ternary_tuples_with_repeated_variables(tuples):
    # once one variable of (a, a, b) or (a, b, a) is assigned, the other is
    # the tuple's one unassigned variable, found at one or two positions
    source = ternary(3, tuples)
    rng = random.Random(repr(sorted(tuples)))
    assert_agrees_with_brute_force(source, source)
    for _ in range(25):
        size = rng.randint(2, 4)
        triples = itertools.product(range(size), repeat=3)
        target = ternary(size, {t for t in triples if rng.random() < 0.4})
        assert_agrees_with_brute_force(source, target)


def test_tuple_with_one_distinct_variable_cuts_the_initial_sets():
    # (0, 0, 0) sends 0 to the elements w with (w, w, w); strong modes also
    # keep 1, which has no such tuple, off them
    source = ternary(2, {(0, 0, 0), (0, 0, 1)})
    target = ternary(3, {(1, 1, 1), (2, 2, 2), (1, 1, 0), (2, 2, 0)})
    assert _HomSearch(source, target, "hom").domains == [0b110, 0b111]
    assert _HomSearch(source, target, "embedding").domains == [0b110, 0b001]
    assert _HomSearch(source, target, "iso").domains is None  # sizes differ
    assert_agrees_with_brute_force(source, target)
    assert_agrees_with_brute_force(target, target)
    assert_agrees_with_brute_force(source, ternary(2, {(0, 0, 0), (0, 0, 1), (1, 1, 0)}))


def test_loops_cut_the_initial_sets():
    # a loop at 0 sends it to the elements with a loop, and in strong modes
    # every element without a loop to the elements without one
    source = digraph(3, {(0, 0), (0, 1), (1, 2)})
    target = digraph(4, {(1, 1), (3, 3), (1, 2), (2, 3), (3, 0)})
    assert _HomSearch(source, target, "hom").domains == [0b1010, 0b1111, 0b1111]
    assert _HomSearch(source, target, "embedding").domains == [0b1010, 0b0101, 0b0101]
    twin = digraph(3, {(2, 2), (2, 0), (0, 1)})
    assert _HomSearch(source, twin, "iso").domains == [0b100, 0b011, 0b011]
    for s, t in [(source, target), (source, twin), (twin, source), (target, target)]:
        assert_agrees_with_brute_force(s, t)
    assert find_hom(source, twin, "iso").mapping == (2, 0, 1)


def test_json_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        s = random_structure(rng, max_size=5)
        assert FinStructure.from_json(s.to_json()) == s


def test_signature_from_json_rejects_missing_arity():
    with pytest.raises(InvalidInput):
        Signature.from_json([{"name": "E"}])
