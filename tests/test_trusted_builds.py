"""The private construction paths against the public constructors.

`FinStructure._built` and `Hom._found` make the structures and maps relcore
builds from its own valid results without re-checking them.  Elsewhere in
the tests conftest.py routes both through the public constructors; the
tests marked `trusted_builds` run them unchecked and require every
structure and map to equal the public construction of the same result:
`==`, `repr` and `to_json()` identical, and every map a homomorphism.
"""

import random

import pytest

from relcore.atoms import make_sample
from relcore.definable import induce_on_points, sample
from relcore.errors import HomValidationError, InvalidElement
from relcore.finstruct import (
    CoreResult,
    FinStructure,
    Hom,
    Signature,
    compute_core,
    disjoint_union,
    enumerate_endos,
    find_hom,
    full_power,
    hom_violations,
    induced_substructure,
)
from relcore.gallery import _definable_registry, lookup_definable
from relcore import verify
from relcore.verify import _permuted_copy, random_structure

MODES = ("hom", "embedding", "iso")


def test_tests_check_the_private_paths():
    """The conftest fixture is active: both private paths check everything."""
    sig = Signature((("E", 2),))
    with pytest.raises(InvalidElement, match="element 5 outside domain of size 2"):
        FinStructure._built(sig, 2, {"E": frozenset({(0, 5)})})
    s = FinStructure(sig, 2, {"E": {(0, 1)}})
    with pytest.raises(HomValidationError, match=r"E\(0, 1\) maps to E\(1, 0\)"):
        Hom._found(s, s, (1, 0))


def _trusted_and_checked(monkeypatch, build):
    """build() run once on the private paths and once on the public
    constructors."""
    trusted = build()
    with monkeypatch.context() as m:
        m.setattr(FinStructure, "_built", staticmethod(FinStructure))
        m.setattr(Hom, "_found", staticmethod(Hom))
        checked = build()
    return trusted, checked


def _parts(result):
    """The structures and maps in a result, in order."""
    if isinstance(result, (list, tuple)):
        return [part for item in result for part in _parts(item)]
    if isinstance(result, CoreResult):
        return [result.core, result.retraction]
    if isinstance(result, Hom):
        return [result.source, result.target, result]
    return [] if result is None else [result]


def _assert_same(trusted, checked):
    assert trusted == checked
    assert repr(trusted) == repr(checked)
    for a, b in zip(_parts(trusted), _parts(checked), strict=True):
        assert type(a) is type(b)
        if isinstance(a, Hom):
            assert type(a.mapping) is tuple
            assert hom_violations(a.source, a.target, a.mapping) == []
        elif isinstance(a, FinStructure):
            assert a.to_json() == b.to_json()
            assert list(a.relations) == list(a.signature.names())
            assert all(type(ts) is frozenset for ts in a.relations.values())


@pytest.mark.trusted_builds
@pytest.mark.parametrize("name", sorted(_definable_registry()))
def test_samples_equal_the_public_construction(monkeypatch, name):
    D = lookup_definable(name)
    for k in (3, 4, 5):
        atoms = make_sample(D.base, k)
        trusted, checked = _trusted_and_checked(monkeypatch, lambda: sample(D, atoms))
        assert trusted.points == checked.points
        _assert_same(trusted.structure, checked.structure)
        assert FinStructure.from_json(trusted.structure.to_json()) == trusted.structure
        points = trusted.points[::2]
        _assert_same(*_trusted_and_checked(monkeypatch, lambda: induce_on_points(D, points)))


@pytest.mark.trusted_builds
def test_built_structures_and_found_maps_equal_the_public_construction(monkeypatch):
    rng = random.Random(28)
    for _ in range(100):
        s = random_structure(rng, max_size=6)
        t = _permuted_copy(s, rng)
        subset = [x for x in range(s.size) if rng.random() < 0.6]
        builds = [
            lambda: induced_substructure(s, subset),
            lambda: disjoint_union(s, t),
            lambda: compute_core(s),
            lambda: enumerate_endos(s, limit=20),
            lambda: [find_hom(s, t, mode) for mode in MODES],
            lambda: find_hom(induced_substructure(s, subset)[0], s, "embedding"),
        ]
        if s.size <= 3:
            builds.append(lambda: full_power(s, 2))
        for build in builds:
            _assert_same(*_trusted_and_checked(monkeypatch, build))


@pytest.mark.trusted_builds
def test_verify_suites_check_the_maps_the_search_returns(monkeypatch):
    """A search answer that is not a homomorphism fails every suite check
    that uses it, with the error of the public constructor."""
    def bad_find_hom(source, target, mode):
        return None if find_hom(source, target, mode) is None else Hom._found(source, target, (0,) * source.size)

    def bad_compute_core(structure):
        res = compute_core(structure)
        return CoreResult(res.core, Hom._found(structure, res.core, (res.core.size,) * structure.size), res.old_ids, res.was_core)

    monkeypatch.setattr(verify, "find_hom", bad_find_hom)
    monkeypatch.setattr(verify, "compute_core", bad_compute_core)
    reports = [verify.suite_spider(), verify.suite_companions(), verify.suite_core_engine()]
    details = {c.id: c.details for r in reports for c in r.checks if c.status == "fail"}
    assert set(details) == {
        "spider-2", "spider-3", "spider-4",
        "two-order-age", "partition-companion-embeddings", "random-cores-seed0",
    }
    assert all(d.startswith(("HomValidationError", "InvalidElement")) for d in details.values()), details
