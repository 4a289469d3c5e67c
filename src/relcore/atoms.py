"""Exact atoms: rationals with optional finite labels under a declared base.

An atom base declares whether atoms are ordered and how many labels exist.
The three bases used throughout are the pure set (unordered, one label),
the dense linear order, and the dense linear order with a finite label
alphabet.  Atom values are exact rationals so that samples can be refined
indefinitely without loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BaseMismatch, InvalidElement, InvalidLabel, charge, json_int, parsing, require_ints


@dataclass(frozen=True)
class AtomBase:
    """Declares the symmetry of the atoms: ordered or not, and a label alphabet."""

    ordered: bool
    alphabet: int = 1

    def __post_init__(self):
        require_ints([self.alphabet], "alphabet size", InvalidLabel)
        if self.alphabet < 1:
            raise InvalidLabel(f"alphabet size must be >= 1, got {self.alphabet}")

    def to_json(self) -> dict:
        return {"ordered": self.ordered, "alphabet": self.alphabet}

    @staticmethod
    def from_json(data: dict) -> "AtomBase":
        with parsing("atom base"):
            if not isinstance(data["ordered"], bool):
                raise TypeError(f"ordered must be true or false, got {data['ordered']!r}")
            return AtomBase(data["ordered"], json_int(data.get("alphabet", 1)))


PURE_SET = AtomBase(ordered=False, alphabet=1)
DLO = AtomBase(ordered=True, alphabet=1)


def labeled_dlo(alphabet: int) -> AtomBase:
    return AtomBase(ordered=True, alphabet=alphabet)


@dataclass(frozen=True)
class Atom:
    """A single atom: an exact rational value plus a label index.

    Value comparison and label comparison are independent; `<` compares
    values only, while equality requires both components to agree.
    """

    value: Fraction
    label: int = 0

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        require_ints([self.label], "label", InvalidLabel)
        if self.label < 0:
            raise InvalidLabel(f"negative label {self.label}")

    def __lt__(self, other: "Atom") -> bool:
        return self.value < other.value

    def __le__(self, other: "Atom") -> bool:
        return self.value <= other.value

    def __str__(self) -> str:
        if self.value.denominator == 1:
            body = str(self.value.numerator)
        else:
            body = f"{self.value.numerator}/{self.value.denominator}"
        if self.label:
            return f"{body}:{self.label}"
        return body

    @staticmethod
    def parse(text: str) -> "Atom":
        text = text.strip()
        label = 0
        with parsing(f"atom {text!r}"):
            if ":" in text:
                body, lab = text.rsplit(":", 1)
                label = int(lab)
            else:
                body = text
            return Atom(Fraction(body), label)


@dataclass(frozen=True)
class AtomSample:
    """A finite set of atoms drawn from a base, stored in increasing value order."""

    base: AtomBase
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=lambda a: a.value))
        object.__setattr__(self, "atoms", atoms)
        for i in range(1, len(atoms)):
            if atoms[i - 1].value == atoms[i].value:
                raise BaseMismatch(f"duplicate atom value {atoms[i].value}")
        for a in atoms:
            if a.label >= self.base.alphabet:
                raise InvalidLabel(
                    f"label {a.label} out of range for alphabet {self.base.alphabet}"
                )

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def restrict(self, indices: Iterable[int]) -> "AtomSample":
        """The sample of the atoms at these indices; an index that is not an
        int (a bool included) or lies outside 0..len-1 raises InvalidElement
        before any atom is read."""
        indices = list(indices)
        require_ints(indices, "atom index")
        kept = sorted(set(indices))
        bad = [i for i in kept if not 0 <= i < len(self.atoms)]
        if bad:
            raise InvalidElement(f"atom index {bad[0]} outside 0..{len(self.atoms) - 1}")
        return AtomSample(self.base, tuple(self.atoms[i] for i in kept))


def make_sample(base: AtomBase, n: int, labels: Optional[Sequence[int]] = None) -> AtomSample:
    """Sample of n atoms with values 0..n-1.

    Labels default to the cyclic assignment 0,1,...,k-1,0,... so every label
    class is nonempty and spread out once n reaches the alphabet size.

    Each atom charges five steps to the work budget (its value, its Atom,
    its label check, and the sample's order and duplicate checks), before
    any is built.
    """
    require_ints([n], "sample size", InvalidLabel)
    if n < 0:
        raise InvalidLabel(f"sample size must be >= 0, got {n}")
    charge(5 * n, f"a sample of {n} atoms")
    if labels is None:
        labels = [i % base.alphabet for i in range(n)]
    else:
        labels = list(labels)
        if len(labels) != n:
            raise InvalidLabel(f"expected {n} labels, got {len(labels)}")
    return AtomSample(base, tuple(Atom(Fraction(i), labels[i]) for i in range(n)))
