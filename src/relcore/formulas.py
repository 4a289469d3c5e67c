"""Quantifier-free formulas over coordinate positions.

Atomic formulas compare positions of a concatenated argument tuple
(Less, Eq) or test the label carried by a position (Label).  Connectives
are And, Or, Not plus the constants TRUE and FALSE.  Position indices are
flat: a binary relation between d-dimensional points uses positions
0..2d-1.

`evaluate` interprets a formula on concrete atoms and is the reference
semantics.  `compile_formula` and `compile_scan` generate Python source
for a formula on encoded environments, each atom given as its value rank
and its label: a predicate, and a loop over guard combinations, which is
how sampling evaluates clauses.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .atoms import Atom, AtomBase
from .errors import ArityMismatch, InvalidLabel, OrderNotAvailable, json_int, parsing


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

_NEST = 50  # connectives per generated function; Python's parser allows ~200 nested brackets


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
    code = ([], [], "env")
    expr = _source(phi, base, width, "env[{}]".format, code)
    return _define(code, f"def holds(env):\n    return {expr}\n", "holds")


@functools.lru_cache(maxsize=256)
def compile_scan(phi: Formula, base: Optional[AtomBase], widths: tuple) -> Callable:
    """`scan(groups, words, out)` adds to the set out every combo of
    `itertools.product(*groups)`, visited in that order, on whose
    environment (the concatenated `words[id]` of its ids) phi holds, with
    the semantics and lazy errors of `compile_formula`.

    widths[g] is the common length of the words in groups[g], or None when
    they differ; the formula is then compiled per environment width.
    """
    n, ws = len(widths), [f"w{g}" for g in range(len(widths))]
    code = ([], [], ", ".join(ws))
    if None in widths:
        test = f"_compiled(len(env := {' + '.join(ws)}))(env)"
    else:
        at = [f"w{g}[{c}]" for g, width in enumerate(widths) for c in range(width)]
        test = _source(phi, base, len(at), at.__getitem__, code)
    ids, p = [f"a{g}, " for g in range(n)], max(0, n - 19)  # Python nests at most 20 blocks
    lines, pad = [f"for ({''.join(ids[:p])}) in _product(*groups[:{p}]):"], "    "
    for g in range(n):
        if g >= p:
            lines.append(f"{pad}for a{g} in groups[{g}]:")
            pad += "    "
        lines.append(f"{pad}w{g} = words[a{g}]")
    lines += [f"{pad}if {test}:", f"{pad}    add(({''.join(ids)}))"]
    lines = ["def scan(groups, words, out):", "add = out.add"] + lines
    source = "\n    ".join(lines) + "\n"
    compiled = functools.cache(lambda width: compile_formula(phi, base, width))
    return _define(code, source, "scan", _product=itertools.product, _compiled=compiled)


def _source(phi: Formula, base: Optional[AtomBase], width: int, at, code, depth: int = 0) -> str:
    """Python expression, always a bool, for phi on an environment of width
    (rank, label) pairs, the pair at position k being the expression at(k).

    Positions and labels pass operator.index before they reach the source,
    and nothing else of phi is written into it.  A node that would raise
    becomes `_fail(n)`, n indexing the (error, message) pair it appends to
    code[1]; a subtree _NEST connectives deep becomes a call of a helper
    function over the parameters code[2], whose source it appends to
    code[0].
    """
    defs, fails, params = code

    def fail(error: type, message: str) -> str:
        fails.append((error, message))
        return f"_fail({len(fails) - 1})"

    if isinstance(phi, (And, Or, Not)) and depth == _NEST:
        expr = _source(phi, base, width, at, code)
        defs.append(f"def _h{len(defs)}({params}):\n    return {expr}\n")
        return f"_h{len(defs) - 1}({params})"
    if isinstance(phi, Const):
        return repr(bool(phi.value))
    if isinstance(phi, (Less, Eq)):
        i, j = operator.index(phi.i), operator.index(phi.j)
        if isinstance(phi, Less) and base is not None and not base.ordered:
            return fail(OrderNotAvailable, "Less atomic under an unordered base")
        for k in (i, j):
            if not 0 <= k < width:
                return fail(ArityMismatch, _outside(k, width))
        return f"{at(i)}[0] {'<' if isinstance(phi, Less) else '=='} {at(j)}[0]"
    if isinstance(phi, Label):
        i, label = operator.index(phi.i), operator.index(phi.label)
        if not 0 <= i < width:
            return fail(ArityMismatch, _outside(i, width))
        if base is not None and label >= base.alphabet:
            return fail(InvalidLabel, f"label {label} outside alphabet {base.alphabet}")
        return f"{at(i)}[1] == {label}"
    if isinstance(phi, (And, Or)):
        parts = [_source(f, base, width, at, code, depth + 1) for f in phi.args]
        joined = (" and " if isinstance(phi, And) else " or ").join(parts)
        return f"({joined})" if parts else repr(isinstance(phi, And))
    if isinstance(phi, Not):
        return "not " + _source(phi.arg, base, width, at, code, depth + 1)
    return fail(TypeError, f"not a formula: {phi!r}")


def _define(code, source: str, name: str, **names):
    """The function `name` that source defines after the helper functions
    in code[0], with `_fail(n)` raising the n-th error of code[1]."""
    namespace = {"_fail": functools.partial(_raise, code[1]), **names}
    exec("".join(code[0]) + source, namespace)
    return namespace[name]


def _raise(fails, n: int):
    raise fails[n][0](fails[n][1])


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
            return Less(json_int(data["i"]), json_int(data["j"]))
        if op == "eq":
            return Eq(json_int(data["i"]), json_int(data["j"]))
        if op == "label":
            return Label(json_int(data["i"]), json_int(data["l"]))
        if op == "and":
            return And(tuple(from_json(d) for d in data["args"]))
        if op == "or":
            return Or(tuple(from_json(d) for d in data["args"]))
        if op == "not":
            return Not(from_json(data["args"][0]))
        raise ArityMismatch(f"unknown formula op {op!r}")
