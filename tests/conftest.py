"""Every test validates every structure and map relcore builds.

relcore makes the structures and maps it builds from its own valid
results through two private paths that skip the public checks:
`FinStructure._built` and `Hom._found`.  The autouse fixture below routes
both through the public constructors, which check everything, and also
asserts the form `_built` callers promise.  A test marked `trusted_builds`
runs the private paths as they are, to compare them with the public ones.
"""

import pytest

from relcore.finstruct import FinStructure, Hom


def pytest_configure(config):
    config.addinivalue_line("markers", "trusted_builds: run FinStructure._built and Hom._found unchecked")


def _checked_built(signature, size, relations):
    assert list(relations) == list(signature.names()), "relations not in signature order"
    assert all(type(ts) is frozenset for ts in relations.values()), "a relation is not a frozenset"
    return FinStructure(signature, size, relations)


def _checked_found(source, target, mapping):
    assert type(mapping) is tuple, "mapping is not a tuple"
    return Hom(source, target, mapping)


@pytest.fixture(autouse=True)
def checked_private_paths(request, monkeypatch):
    if request.node.get_closest_marker("trusted_builds") is None:
        monkeypatch.setattr(FinStructure, "_built", staticmethod(_checked_built))
        monkeypatch.setattr(Hom, "_found", staticmethod(_checked_found))
