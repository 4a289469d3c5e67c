"""Quantifier-free formulas over coordinate positions.

Atomic formulas compare positions of a concatenated argument tuple
(Less, Eq) or test the label carried by a position (Label).  Connectives
are And, Or, Not plus the constants TRUE and FALSE.  Position indices are
flat: a binary relation between d-dimensional points uses positions
0..2d-1.

`evaluate` interprets a formula on concrete atoms and is the reference
semantics.  `check` rejects a formula that is not one over a given
base, once, before it is used.  `compile_scan` generates Python source for
a checked formula on encoded environments, each atom given as its value
rank and its label: a loop over guard combinations of fixed-width words,
which is how sampling evaluates clauses.  `positions` names the positions
a formula reads, so that sampling can run that loop once per point type.
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


def check(phi: Formula, base: AtomBase) -> int:
    """Largest position index in phi, or -1 if none, after checking that
    every node is a formula over base.  The first bad node, left to right,
    raises: Less under an unordered base OrderNotAvailable, a label outside
    the alphabet InvalidLabel, a negative position ArityMismatch, anything
    else TypeError.  A formula that passes never makes `evaluate` raise on
    an environment longer than its largest position."""
    if isinstance(phi, (And, Or)):
        return max((check(f, base) for f in phi.args), default=-1)
    if isinstance(phi, Not):
        return check(phi.arg, base)
    if isinstance(phi, Const):
        return -1
    if isinstance(phi, Less) and not base.ordered:
        raise OrderNotAvailable("Less atomic under an unordered base")
    if isinstance(phi, Label) and operator.index(phi.label) >= base.alphabet:
        raise InvalidLabel(f"label {phi.label} outside alphabet {base.alphabet}")
    if not isinstance(phi, (Less, Eq, Label)):
        raise TypeError(f"not a formula: {phi!r}")
    ks = [operator.index(k) for k in ([phi.i] if isinstance(phi, Label) else [phi.i, phi.j])]
    if min(ks) < 0:
        raise ArityMismatch(f"negative position {min(ks)}")
    return max(ks)


def positions(phi: Formula) -> frozenset:
    """The positions phi reads: those of its Less, Eq and Label nodes.  On
    a formula `check` passes, its truth on an environment depends only on
    the value and label of the atoms at these positions."""
    if isinstance(phi, (And, Or)):
        return frozenset().union(*map(positions, phi.args))
    if isinstance(phi, Not):
        return positions(phi.arg)
    if isinstance(phi, Label):
        return frozenset((operator.index(phi.i),))
    if isinstance(phi, (Less, Eq)):
        return frozenset((operator.index(phi.i), operator.index(phi.j)))
    return frozenset()


_NEST = 50  # connectives per generated function; Python's parser allows ~200 nested brackets


@functools.lru_cache(maxsize=256)
def compile_scan(phi: Formula, widths: tuple) -> Callable:
    """`scan(groups, words, out)` adds to the set out every combo of
    `itertools.product(*groups)` on whose environment (the concatenated
    `words[id]` of its ids) phi holds, each word of groups[g] being widths[g]
    (rank, label) pairs.

    Ranks stand in for atom values: any integers ordered and equal exactly
    as the values are.  Less and Eq compare ranks only, so atoms of equal
    value and different labels are Eq.  On a formula `check` passes, with
    positions below sum(widths), this is `evaluate` on every combo.
    """
    n, ws = len(widths), [f"w{g}" for g in range(len(widths))]
    code = ([], ", ".join(ws))
    at = [f"w{g}[{c}]" for g, width in enumerate(widths) for c in range(width)]
    test = _source(phi, at, code)
    ids, p = [f"a{g}, " for g in range(n)], max(0, n - 19)  # Python nests at most 20 blocks
    lines, pad = [f"for ({''.join(ids[:p])}) in _product(*groups[:{p}]):"], "    "
    for g in range(n):
        if g >= p:
            lines.append(f"{pad}for a{g} in groups[{g}]:")
            pad += "    "
        lines.append(f"{pad}w{g} = words[a{g}]")
    lines += [f"{pad}if {test}:", f"{pad}    add(({''.join(ids)}))"]
    lines = ["def scan(groups, words, out):", "add = out.add"] + lines
    namespace = {"_product": itertools.product}
    exec("".join(code[0]) + "\n    ".join(lines) + "\n", namespace)
    return namespace["scan"]


def _source(phi: Formula, at: list, code, depth: int = 0) -> str:
    """Python expression, always a bool, for phi on the (rank, label) pairs
    at[0], at[1], ...

    Positions and labels pass operator.index before they reach the source,
    and nothing else of phi is written into it; a position outside at
    raises ArityMismatch.  A subtree _NEST connectives deep becomes a call
    of a helper function over the parameters code[1], whose source it
    appends to code[0].
    """
    defs, params = code
    if isinstance(phi, (And, Or, Not)) and depth == _NEST:
        expr = _source(phi, at, code)
        defs.append(f"def _h{len(defs)}({params}):\n    return {expr}\n")
        return f"_h{len(defs) - 1}({params})"
    if isinstance(phi, Const):
        return repr(bool(phi.value))
    if isinstance(phi, (Less, Eq)):
        i, j = _at(at, phi.i), _at(at, phi.j)
        return f"{i}[0] {'<' if isinstance(phi, Less) else '=='} {j}[0]"
    if isinstance(phi, Label):
        return f"{_at(at, phi.i)}[1] == {operator.index(phi.label)}"
    if isinstance(phi, (And, Or)):
        parts = [_source(f, at, code, depth + 1) for f in phi.args]
        joined = (" and " if isinstance(phi, And) else " or ").join(parts)
        return f"({joined})" if parts else repr(isinstance(phi, And))
    if isinstance(phi, Not):
        return "not " + _source(phi.arg, at, code, depth + 1)
    raise TypeError(f"not a formula: {phi!r}")


def _at(at: list, k) -> str:
    k = operator.index(k)
    if not 0 <= k < len(at):
        raise ArityMismatch(_outside(k, len(at)))
    return at[k]


def _outside(i: int, width: int) -> str:
    return f"position {i} outside environment of length {width}"


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


def size(phi: Formula) -> int:
    """The number of nodes of phi."""
    kids = phi.args if isinstance(phi, (And, Or)) else (phi.arg,) if isinstance(phi, Not) else ()
    return 1 + sum(map(size, kids))


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
