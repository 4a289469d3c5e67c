"""Quantifier-free formulas over coordinate positions.

Atomic formulas compare positions of a concatenated argument tuple
(Less, Eq) or test the label carried by a position (Label).  Connectives
are And, Or, Not plus the constants TRUE and FALSE.  Position indices are
flat: a binary relation between d-dimensional points uses positions
0..2d-1.

`evaluate` interprets a formula on concrete atoms and is the reference
semantics.  `compile_formula` turns a formula into a predicate on encoded
environments, each atom given as its value rank and its label, which is
how sampling evaluates clauses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .atoms import Atom, AtomBase
from .errors import ArityMismatch, InvalidLabel, OrderNotAvailable, parsing


class Formula:
    """Base class for quantifier-free formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Less(Formula):
    i: int
    j: int


@dataclass(frozen=True)
class Eq(Formula):
    i: int
    j: int


@dataclass(frozen=True)
class Label(Formula):
    i: int
    label: int


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]

    def __init__(self, *args):
        if len(args) == 1 and isinstance(args[0], (tuple, list)):
            args = tuple(args[0])
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]

    def __init__(self, *args):
        if len(args) == 1 and isinstance(args[0], (tuple, list)):
            args = tuple(args[0])
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


def evaluate(phi: Formula, env: Sequence[Atom], base: Optional[AtomBase] = None) -> bool:
    """Truth value of phi on a concrete tuple of atoms.

    Less compares atom values and is rejected when the base is unordered;
    Label tests the label index and is rejected when it names a label the
    base cannot carry.
    """
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, Less):
        if base is not None and not base.ordered:
            raise OrderNotAvailable("Less atomic under an unordered base")
        _check(phi.i, env)
        _check(phi.j, env)
        return env[phi.i].value < env[phi.j].value
    if isinstance(phi, Eq):
        _check(phi.i, env)
        _check(phi.j, env)
        return env[phi.i].value == env[phi.j].value
    if isinstance(phi, Label):
        _check(phi.i, env)
        if base is not None and phi.label >= base.alphabet:
            raise InvalidLabel(f"label {phi.label} outside alphabet {base.alphabet}")
        return env[phi.i].label == phi.label
    if isinstance(phi, And):
        return all(evaluate(f, env, base) for f in phi.args)
    if isinstance(phi, Or):
        return any(evaluate(f, env, base) for f in phi.args)
    if isinstance(phi, Not):
        return not evaluate(phi.arg, env, base)
    raise TypeError(f"not a formula: {phi!r}")


def _check(i: int, env: Sequence[Atom]):
    if not 0 <= i < len(env):
        raise ArityMismatch(_outside(i, len(env)))


Predicate = Callable[[Sequence[tuple[int, int]]], bool]


@functools.lru_cache(maxsize=256)
def compile_formula(phi: Formula, base: Optional[AtomBase], width: int) -> Predicate:
    """Predicate equal to `evaluate(phi, env, base)` on environments of
    `width` atoms, each encoded as a pair (rank, label).

    Ranks stand in for atom values: any integers ordered and equal exactly
    as the values are.  Less and Eq compare ranks only, so atoms of equal
    value and different labels are Eq.  Connectives short-circuit as in
    `evaluate`, and every error `evaluate` raises (order under an unordered
    base, a label outside the alphabet, a position outside the environment)
    is raised only when its node is reached.
    """
    return _compile(phi, base, width)


def _compile(phi: Formula, base: Optional[AtomBase], width: int) -> Predicate:
    if isinstance(phi, Const):
        value = phi.value
        return lambda env: value
    if isinstance(phi, (Less, Eq)):
        i, j = phi.i, phi.j
        if isinstance(phi, Less) and base is not None and not base.ordered:
            return _raiser(OrderNotAvailable, "Less atomic under an unordered base")
        for k in (i, j):
            if not 0 <= k < width:
                return _raiser(ArityMismatch, _outside(k, width))
        if isinstance(phi, Less):
            return lambda env: env[i][0] < env[j][0]
        return lambda env: env[i][0] == env[j][0]
    if isinstance(phi, Label):
        i, label = phi.i, phi.label
        if not 0 <= i < width:
            return _raiser(ArityMismatch, _outside(i, width))
        if base is not None and label >= base.alphabet:
            return _raiser(InvalidLabel, f"label {label} outside alphabet {base.alphabet}")
        return lambda env: env[i][1] == label
    if isinstance(phi, (And, Or)):
        parts = tuple(_compile(f, base, width) for f in phi.args)
        return _connective(parts, isinstance(phi, And))
    if isinstance(phi, Not):
        arg = _compile(phi.arg, base, width)
        return lambda env: not arg(env)
    return _raiser(TypeError, f"not a formula: {phi!r}")


def _connective(parts: tuple[Predicate, ...], conjunctive: bool) -> Predicate:
    """And (conjunctive) or Or of parts, evaluated left to right up to the
    first part that decides it; with no parts, And is true and Or false."""

    def every(env):
        for f in parts:
            if not f(env):
                return False
        return True

    def some(env):
        for f in parts:
            if f(env):
                return True
        return False

    return every if conjunctive else some


def _raiser(error: type, message: str) -> Predicate:
    def fail(env):
        raise error(message)

    return fail


def _outside(i: int, width: int) -> str:
    return f"position {i} outside environment of length {width}"


def max_position(phi: Formula) -> int:
    """Largest position index occurring in phi, or -1 if none."""
    if isinstance(phi, (Less, Eq)):
        return max(phi.i, phi.j)
    if isinstance(phi, Label):
        return phi.i
    if isinstance(phi, (And, Or)):
        return max((max_position(f) for f in phi.args), default=-1)
    if isinstance(phi, Not):
        return max_position(phi.arg)
    return -1


def shift_positions(phi: Formula, mapping: dict[int, int]) -> Formula:
    """Structural copy of phi with every position index sent through mapping."""
    if isinstance(phi, Less):
        return Less(mapping[phi.i], mapping[phi.j])
    if isinstance(phi, Eq):
        return Eq(mapping[phi.i], mapping[phi.j])
    if isinstance(phi, Label):
        return Label(mapping[phi.i], phi.label)
    if isinstance(phi, And):
        return And(tuple(shift_positions(f, mapping) for f in phi.args))
    if isinstance(phi, Or):
        return Or(tuple(shift_positions(f, mapping) for f in phi.args))
    if isinstance(phi, Not):
        return Not(shift_positions(phi.arg, mapping))
    return phi


def to_json(phi: Formula) -> dict:
    if isinstance(phi, Const):
        return {"op": "true" if phi.value else "false"}
    if isinstance(phi, Less):
        return {"op": "lt", "i": phi.i, "j": phi.j}
    if isinstance(phi, Eq):
        return {"op": "eq", "i": phi.i, "j": phi.j}
    if isinstance(phi, Label):
        return {"op": "label", "i": phi.i, "l": phi.label}
    if isinstance(phi, And):
        return {"op": "and", "args": [to_json(f) for f in phi.args]}
    if isinstance(phi, Or):
        return {"op": "or", "args": [to_json(f) for f in phi.args]}
    if isinstance(phi, Not):
        return {"op": "not", "args": [to_json(phi.arg)]}
    raise TypeError(f"not a formula: {phi!r}")


def from_json(data: dict) -> Formula:
    with parsing("formula"):
        op = data["op"]
        if op == "true":
            return TRUE
        if op == "false":
            return FALSE
        if op == "lt":
            return Less(int(data["i"]), int(data["j"]))
        if op == "eq":
            return Eq(int(data["i"]), int(data["j"]))
        if op == "label":
            return Label(int(data["i"]), int(data["l"]))
        if op == "and":
            return And(tuple(from_json(d) for d in data["args"]))
        if op == "or":
            return Or(tuple(from_json(d) for d in data["args"]))
        if op == "not":
            return Not(from_json(data["args"][0]))
        raise ArityMismatch(f"unknown formula op {op!r}")
