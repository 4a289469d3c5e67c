import random
import re
from fractions import Fraction
from typing import Sequence

import pytest

from relcore import errors
from relcore.atoms import DLO, PURE_SET, Atom, AtomBase, AtomSample, labeled_dlo, make_sample
from relcore.errors import BaseMismatch, InvalidElement, InvalidInput, InvalidLabel, TooLarge


def order_type(atoms: Sequence[Atom], base: AtomBase) -> str:
    """Canonical descriptor of a tuple of atoms, the oracle for point orbits.

    Two tuples receive the same descriptor exactly when some automorphism of
    the base (a monotone label-preserving bijection for ordered bases, any
    label-preserving bijection otherwise) maps one to the other.
    """
    values = [a.value for a in atoms]
    if base.ordered:
        ranking = {v: r for r, v in enumerate(sorted(set(values)))}
        ranks = [ranking[v] for v in values]
        tag = "ord"
    else:
        seen: dict[Fraction, int] = {}
        ranks = []
        for v in values:
            if v not in seen:
                seen[v] = len(seen)
            ranks.append(seen[v])
        tag = "set"
    labels = [a.label for a in atoms]
    return f"{tag}[{','.join(map(str, ranks))}|{','.join(map(str, labels))}]"


def test_make_sample_plain():
    s = make_sample(DLO, 3)
    assert [a.value for a in s.atoms] == [0, 1, 2]
    assert all(a.label == 0 for a in s.atoms)


def test_make_sample_prescribed_labels():
    s = make_sample(labeled_dlo(2), 4, [0, 1, 0, 1])
    assert [(a.value, a.label) for a in s.atoms] == [(0, 0), (1, 1), (2, 0), (3, 1)]


def test_make_sample_pure_set():
    s = make_sample(PURE_SET, 2)
    assert {a.value for a in s.atoms} == {0, 1}


def test_make_sample_default_labels_cover_alphabet():
    for k in (1, 2, 3):
        for n in range(k, k + 4):
            s = make_sample(labeled_dlo(k), n)
            assert {a.label for a in s.atoms} == set(range(k))


def test_make_sample_work_budget(monkeypatch):
    # five steps for each of three atoms
    monkeypatch.setattr(errors, "WORK_BUDGET", 15)
    assert len(make_sample(DLO, 3)) == 3
    monkeypatch.setattr(errors, "WORK_BUDGET", 14)
    with pytest.raises(TooLarge, match="work budget"):
        make_sample(DLO, 3)


def test_make_sample_label_out_of_range():
    with pytest.raises(InvalidLabel):
        make_sample(labeled_dlo(2), 2, [0, 2])


def test_sample_rejects_duplicate_values():
    with pytest.raises(BaseMismatch):
        AtomSample(DLO, (Atom(Fraction(1)), Atom(Fraction(1))))


@pytest.mark.parametrize("indices, bad", [([-1], -1), ([7], 7), ([-1, 3], -1), ([0, 4], 4)])
def test_restrict_rejects_indices_outside_the_sample(indices, bad):
    A = make_sample(labeled_dlo(2), 4)
    with pytest.raises(InvalidElement, match=f"atom index {bad} outside 0..3"):
        A.restrict(indices)


@pytest.mark.parametrize("index", [1.5, "1", True], ids=["float", "str", "bool"])
def test_restrict_rejects_indices_that_are_not_ints(index):
    A = make_sample(labeled_dlo(2), 4)
    with pytest.raises(InvalidElement, match=f"atom index {re.escape(repr(index))} is not an int"):
        A.restrict([index])
    # checked before the range, whatever the other indices
    with pytest.raises(InvalidElement, match="is not an int"):
        A.restrict([7, index])


def test_restrict_keeps_the_atoms_at_valid_indices():
    A = make_sample(labeled_dlo(2), 4)
    assert A.restrict([2, 0, 2]) == A.restrict([0, 2]) == AtomSample(A.base, (A.atoms[0], A.atoms[2]))
    assert A.restrict([]) == AtomSample(A.base, ())


def test_order_type_examples():
    t = [Atom(Fraction(0)), Atom(Fraction(5)), Atom(Fraction(5))]
    u = [Atom(Fraction(-3)), Atom(Fraction(7)), Atom(Fraction(7))]
    assert order_type(t, DLO) == order_type(u, DLO)
    # the pattern x1 < x2 = x3 differs from x1 = x2 < x3
    v = [Atom(Fraction(0)), Atom(Fraction(0)), Atom(Fraction(5))]
    assert order_type(t, DLO) != order_type(v, DLO)


def test_order_type_pure_set_forgets_order():
    t = [Atom(Fraction(7)), Atom(Fraction(2))]
    u = [Atom(Fraction(1)), Atom(Fraction(9))]
    assert order_type(t, PURE_SET) == order_type(u, PURE_SET)
    assert order_type(t, DLO) != order_type(u, DLO)


def test_order_type_labels():
    base = labeled_dlo(2)
    t = [Atom(Fraction(0), 0), Atom(Fraction(1), 1)]
    u = [Atom(Fraction(3), 0), Atom(Fraction(9), 1)]
    w = [Atom(Fraction(3), 1), Atom(Fraction(9), 0)]
    assert order_type(t, base) == order_type(u, base)
    assert order_type(t, base) != order_type(w, base)


def test_order_type_monotone_invariance():
    rng = random.Random(1)
    base = labeled_dlo(3)
    for _ in range(50):
        tup = [Atom(Fraction(rng.randint(-20, 20)), rng.randrange(3)) for _ in range(4)]
        values = sorted({a.value for a in tup})
        # random strictly monotone image of the support
        image = {}
        prev = Fraction(rng.randint(-100, -50))
        for v in values:
            prev = prev + Fraction(rng.randint(1, 9), rng.randint(1, 4))
            image[v] = prev
        mapped = [Atom(image[a.value], a.label) for a in tup]
        assert order_type(tup, base) == order_type(mapped, base)


def test_atom_string_roundtrip():
    for text in ("3", "-2", "3/4", "-7/2:1", "0:2"):
        a = Atom.parse(text)
        assert Atom.parse(str(a)) == a
    assert str(Atom(Fraction(3, 4), 1)) == "3/4:1"
    assert str(Atom(Fraction(5))) == "5"


@pytest.mark.parametrize("text", ["1/0", "abc", "1:x", "", "1:2:3"])
def test_atom_parse_rejects_malformed(text):
    with pytest.raises(InvalidInput):
        Atom.parse(text)
