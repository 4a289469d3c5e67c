"""Explicit finite relational structures.

Provides homomorphism / embedding / isomorphism search by backtracking with
forward checking on tuples of every arity, endomorphism enumeration, core
computation by iterated image shrinking, and a canonical form by
individualization-refinement for isomorphism testing.

One backtracker, `_HomSearch`, assigns every value.  It is set up once per
(source, target, mode) and run as often as needed.  Its callers steer a run
only by restricting the initial candidate sets: `find_hom(partial=...)`
fixes the images of some elements, and the core test runs one set-up once
per element, with that element left out of every set.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    HomValidationError,
    InvalidDimension,
    InvalidElement,
    InvalidInput,
    SignatureMismatch,
    charge,
    headroom,
    json_int,
    metered,
    parsing,
    require_ints,
)


@dataclass(frozen=True)
class Signature:
    """Relation names with arities; stored sorted by name, names unique."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        rels = [(str(n), a) for n, a in self.relations]
        for name, arity in rels:
            if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
                raise SignatureMismatch(f"relation {name!r} has arity {arity!r}")
        rels = tuple(sorted(rels))
        names = [n for n, _ in rels]
        if len(set(names)) != len(names):
            raise SignatureMismatch(f"duplicate relation names in {names}")
        object.__setattr__(self, "relations", rels)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.relations)

    def to_json(self) -> list:
        return [{"name": n, "arity": a} for n, a in self.relations]

    @staticmethod
    def from_json(data: list) -> "Signature":
        with parsing("signature"):
            return Signature(tuple((d["name"], json_int(d["arity"])) for d in data))


@dataclass(frozen=True, eq=True)
class FinStructure:
    """A finite relational structure on domain 0..size-1."""

    signature: Signature
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)

    def __post_init__(self):
        require_ints([self.size], "domain size")
        if self.size < 0:
            raise InvalidElement(f"domain size must be >= 0, got {self.size}")
        rels = {}
        for name, arity in self.signature.relations:
            tuples = self.relations.get(name, frozenset())
            if not isinstance(tuples, frozenset):
                tuples = frozenset(map(tuple, tuples))
            if {len(t) for t in tuples} - {arity}:
                bad = next(t for t in tuples if len(t) != arity)
                raise SignatureMismatch(f"{name!r} expects arity {arity}, got {bad}")
            elements = set(itertools.chain.from_iterable(tuples))
            for x in (min(elements), max(elements)) if elements else ():
                if not 0 <= x < self.size:
                    raise InvalidElement(f"element {x} outside domain of size {self.size}")
            rels[name] = tuples
        extra = set(self.relations) - set(rels)
        if extra:
            raise SignatureMismatch(f"relations {sorted(extra)} not in signature")
        object.__setattr__(self, "relations", rels)

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[name]

    @cached_property
    def _search_tables(self) -> "_TargetTables":
        """The hom search's tables for this structure as the target of a
        smaller source; built on first use and kept in the instance dict,
        outside the fields that equality, repr and JSON read."""
        return _TargetTables(self)

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "size": self.size,
            "relations": {
                name: sorted(list(t) for t in self.relations[name])
                for name in self.signature.names()
            },
        }

    @staticmethod
    def from_json(data: dict) -> "FinStructure":
        with parsing("finite structure"):
            sig = Signature.from_json(data["signature"])
            raw = data["relations"]
            rels = {name: frozenset(tuple(map(json_int, t)) for t in ts) for name, ts in raw.items()}
            return FinStructure(sig, json_int(data["size"]), rels)


def hom_violations(source: FinStructure, target: FinStructure, mapping: Sequence[int]) -> list[str]:
    """All ways a map fails to be a homomorphism (empty list means valid)."""
    out = []
    if len(mapping) != source.size:
        return [f"map has length {len(mapping)}, domain has size {source.size}"]
    for x in mapping:
        if not 0 <= x < target.size:
            return [f"image {x} outside target domain of size {target.size}"]
    for name, arity in source.signature.relations:
        rel = target.relations[name]
        if arity == 2 and all((mapping[a], mapping[b]) in rel for a, b in source.relations[name]):
            continue
        for t in source.relations[name]:
            image = tuple(mapping[x] for x in t)
            if image not in rel:
                out.append(f"{name}{t} maps to {name}{image} which is absent")
    return out


@dataclass(frozen=True)
class Hom:
    """A validated homomorphism between two structures with equal signature."""

    source: FinStructure
    target: FinStructure
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        require_ints(self.mapping, "image")
        if self.source.signature != self.target.signature:
            raise SignatureMismatch("source and target signatures differ")
        problems = hom_violations(self.source, self.target, self.mapping)
        if problems:
            raise HomValidationError("; ".join(problems[:3]))

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_embedding(self) -> bool:
        if not self.is_injective():
            return False
        image = set(self.mapping)
        inv = {w: v for v, w in enumerate(self.mapping)}
        for name, _ in self.source.signature.relations:
            src = self.source.relations[name]
            for t in self.target.relations[name]:
                if all(x in image for x in t):
                    if tuple(inv[x] for x in t) not in src:
                        return False
        return True

    def to_json(self) -> dict:
        return {"map": list(self.mapping)}


def induced_substructure(
    structure: FinStructure, subset: Iterable[int]
) -> tuple[FinStructure, tuple[int, ...]]:
    """Substructure on a subset of the domain, re-indexed.

    Returns the new structure together with the translation table old_ids,
    where old_ids[new_id] is the original element.
    """
    subset = list(subset)
    require_ints(subset, "element")
    old_ids = tuple(sorted(set(subset)))
    for x in old_ids:
        if not 0 <= x < structure.size:
            raise InvalidElement(f"element {x} outside domain of size {structure.size}")
    new_of = {old: new for new, old in enumerate(old_ids)}
    keep = set(old_ids)
    rels = {}
    for name, _ in structure.signature.relations:
        rels[name] = frozenset(
            tuple(new_of[x] for x in t)
            for t in structure.relations[name]
            if all(x in keep for x in t)
        )
    return FinStructure(structure.signature, len(old_ids), rels), old_ids


def disjoint_union(left: FinStructure, right: FinStructure) -> FinStructure:
    if left.signature != right.signature:
        raise SignatureMismatch("disjoint union requires equal signatures")
    shift = left.size
    rels = {}
    for name, _ in left.signature.relations:
        rels[name] = left.relations[name] | frozenset(
            tuple(x + shift for x in t) for t in right.relations[name]
        )
    return FinStructure(left.signature, left.size + right.size, rels)


def full_power(structure: FinStructure, d: int) -> FinStructure:
    """Structure on d-tuples carrying every projection-instantiated atomic relation.

    For each relation R of arity k (and for equality) and each projection
    pattern (j_1,...,j_k) in [d]^k there is a relation named "R@j_1,...,j_k"
    holding on (t_1,...,t_k) iff R(t_1[j_1],...,t_k[j_k]).  Every tuple it
    would test is charged to the work budget before any is built.
    """
    if d < 1:
        raise InvalidDimension(f"power dimension must be >= 1, got {d}")
    atoms = list(structure.signature.relations) + [("=", 2)]
    work = sum(d**k * structure.size ** (d * k) for _, k in atoms)
    charge(work, f"a power testing {work} tuples")
    domain = list(itertools.product(range(structure.size), repeat=d))
    index = {t: i for i, t in enumerate(domain)}
    diagonal = frozenset((x, x) for x in range(structure.size))
    names = []
    rels = {}
    for name, arity in atoms:
        base = diagonal if name == "=" else structure.relations[name]
        for js in itertools.product(range(d), repeat=arity):
            rel_name = f"{name}@{','.join(str(j + 1) for j in js)}"
            names.append((rel_name, arity))
            tuples = set()
            for combo in itertools.product(domain, repeat=arity):
                if tuple(combo[l][js[l]] for l in range(arity)) in base:
                    tuples.add(tuple(index[t] for t in combo))
            rels[rel_name] = frozenset(tuples)
    return FinStructure(Signature(tuple(names)), len(domain), rels)


class _TargetTables:
    """The target side of `_HomSearch`.

    For a source smaller than the target, `FinStructure._search_tables`
    keeps one on the target from the first such search for as long as the
    structure lives, and every later one, in any mode, reuses it.  held[r]
    masks the elements w with (w, ..., w) in the r-th relation;
    adjacent[2r][w] and adjacent[2r + 1][w] mask the out- and in-neighbours
    of w in the r-th binary relation.  The link rows of each (kind, strong)
    and the converse tuples, which only strong modes read, are built when a
    search first asks for them.
    """

    __slots__ = ("m", "signature", "relations", "held", "adjacent", "tables", "_back")

    def __init__(self, target: FinStructure):
        m = target.size
        self.m = m
        self.signature, self.relations = target.signature, target.relations
        self.held: list[int] = []
        self.adjacent: list[list[int]] = []
        for name, arity in target.signature.relations:
            rel, held = target.relations[name], 0
            if arity == 2:
                out, inn = [0] * m, [0] * m
                for a, b in rel:
                    out[a] |= 1 << b
                    inn[b] |= 1 << a
                    if a == b:
                        held |= 1 << a
                self.adjacent += [out, inn]
            else:
                for w in range(m):
                    if (w,) * arity in rel:
                        held |= 1 << w
            self.held.append(held)
        # keyed by kind << 1 | strong
        self.tables: dict[int, tuple[int, ...]] = {}
        self._back: Optional[list[list[tuple[str, tuple[int, ...]]]]] = None

    def rows(self, strong: bool, k: int) -> tuple[int, ...]:
        """The mask cut into u's set when v -> w, for each w, where k = kind[v, u]."""
        rows = self.tables.get(k << 1 | strong)
        if rows is None:
            everything = (1 << self.m) - 1
            masks = []
            for w in range(self.m):
                mask = everything & ~(1 << w) if strong else everything
                for i, table in enumerate(self.adjacent):
                    if k >> i & 1:
                        mask &= table[w]
                    elif strong:
                        mask &= ~table[w]
                masks.append(mask)
            rows = self.tables[k << 1 | strong] = tuple(masks)
        return rows

    def back(self) -> list[list[tuple[str, tuple[int, ...]]]]:
        """back[w]: (relation name, tuple) for the tuples of arity >= 3 through
        w with two or more distinct elements."""
        if self._back is None:
            self._back = [[] for _ in range(self.m)]
            for name, arity in self.signature.relations:
                for t in self.relations[name] if arity >= 3 else ():
                    elements = set(t)
                    if len(elements) > 1:
                        for w in elements:
                            self._back[w].append((name, t))
        return self._back


class _HomSearch:
    """Backtracking search for the maps of one mode from source to target.

    The set-up is built once per (source, target, mode) and `run` may be
    called any number of times; each run only narrows a copy of the
    initial candidate sets.  mode is one of "hom", "embedding", "iso".
    The set-up reads the target only through `_TargetTables`; the source
    side (candidate sets, links and tuple lists) is built per search.

    Each candidate set is an int bitmask over target elements.  Tuples
    with one distinct element, those of unary relations and loops among
    them, cut the initial sets: a source element x with (x, ..., x) in a
    relation may only go to target elements w with (w, ..., w) in it, and
    in strong modes (embedding, iso) an element without such a tuple only
    to elements without one.  Assigning v -> w then ANDs a precomputed mask into the set of every
    source neighbour of v through a binary relation; strong modes also
    need non-neighbours of v to map to non-neighbours of w, so there every
    other set is cut.  Next, every source tuple of arity >= 3 through v
    that has one unassigned variable u left keeps in u's set only the
    values that complete an image tuple in the target relation: forward
    checking for non-binary constraints (nFC in Bessiere, Meseguer, Freuder
    and Larrosa, "On forward checking for non-binary constraint
    satisfaction", AI 141, 2002).  In strong modes a value w is tried only
    if every target tuple of arity >= 3 through w whose other elements are
    all images has its preimage in the source.  An isomorphism maps each
    relation onto the target's, so iso mode runs only when every relation
    has as many tuples in the source as in the target.
    """

    def __init__(self, source: FinStructure, target: FinStructure, mode: str):
        if source.signature != target.signature:
            raise SignatureMismatch("hom search requires equal signatures")
        if mode not in ("hom", "embedding", "iso"):
            raise InvalidInput(f"unknown search mode {mode!r}; expected hom, embedding or iso")
        strong = mode in ("embedding", "iso")
        n, m = source.size, target.size
        self.n, self.m = n, m
        # checks[v] holds (target relation, source tuple) for the tuples of
        # arity >= 3 through v with two or more distinct elements
        self.links: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
        self.checks: list[list] = [[] for _ in range(n)]
        self.back = None
        self.source_relations = source.relations
        self.domains: Optional[list[int]] = None
        if (mode == "iso" and n != m) or (strong and n > m):
            return
        # kept on the target only for a smaller source, where they are most
        # of the set-up; for n >= m (isomorphisms, endomorphisms) they cost
        # about what the source side does, so they are built for this
        # search alone rather than held on every structure compared
        tables = target._search_tables if n < m else _TargetTables(target)
        domains = [(1 << m) - 1] * n
        # kind[v, u] has bit 2r set when (v, u) is in the r-th binary
        # relation and bit 2r + 1 when (u, v) is.
        kind: dict[tuple[int, int], int] = {}
        i = 0
        for (name, arity), held in zip(source.signature.relations, tables.held):
            s_rel, t_rel = source.relations[name], target.relations[name]
            if mode == "iso" and len(s_rel) != len(t_rel):
                return
            # on: the source elements x with (x, ..., x) in the relation
            on = set()
            if arity == 2:
                for a, b in s_rel:
                    if a != b:
                        kind[a, b] = kind.get((a, b), 0) | 1 << i
                        kind[b, a] = kind.get((b, a), 0) | 2 << i
                    else:
                        on.add(a)
                i += 2
            else:
                for t in s_rel:
                    elements = set(t)
                    if len(elements) == 1:
                        on.add(t[0])
                    else:
                        for v in elements:
                            self.checks[v].append((t_rel, t))
            if on or (strong and held):
                for v in range(n):
                    if v in on:
                        domains[v] &= held
                    elif strong:
                        domains[v] &= ~held
        if not all(domains):
            return

        pairs = [(v, u) for v in range(n) for u in range(n) if u != v] if strong else kind
        for v, u in pairs:
            self.links[v].append((u, tables.rows(strong, kind.get((v, u), 0))))
        if strong:
            self.back = tables.back()
        self.domains = domains

    def run(
        self,
        partial: Optional[dict[int, int]],
        lexicographic: bool,
        limit: Optional[int],
        avoid: Optional[int] = None,
    ) -> list[tuple[int, ...]]:
        """The maps found, in the order found, up to limit.

        With lexicographic=True the variable order is 0,1,2,... and
        solutions come out sorted as tuples; otherwise the variable with the
        smallest candidate set is assigned first (ties by lowest id).
        Candidate values are always tried in ascending order.  partial fixes
        the images of some variables and avoid is a target element no
        variable may take; both only narrow the initial candidate sets.

        Every value tried counts one step, every value the forward check on
        tuples of arity >= 3 tests one more, and every stored map n steps.
        The count is kept inline and charged to the work budget once, when
        the run ends or when it exceeds the headroom it started with.
        """
        n, m = self.n, self.m
        if limit == 0 or self.domains is None:
            return []
        domains = list(self.domains)
        if avoid is not None:
            domains = [d & ~(1 << avoid) for d in domains]
        for v, w in (partial or {}).items():
            if not 0 <= v < n or not 0 <= w < m:
                return []
            domains[v] &= 1 << w
        if not all(domains):
            return []
        links, checks, back, source_relations = self.links, self.checks, self.back, self.source_relations

        assignment: list[Optional[int]] = [None] * n
        # read only in strong modes, where no two variables share an image
        inverse: list[Optional[int]] = [None] * m
        solutions: list[tuple[int, ...]] = []
        work, allowed = 0, headroom()

        def converse(v: int, w: int) -> bool:
            for name, t in back[w]:
                pre = tuple([v if y == w else inverse[y] for y in t])
                if None not in pre and pre not in source_relations[name]:
                    return False
            return True

        def forward(v: int, current: list[int]) -> bool:
            """Cut the set of the one unassigned variable of each tuple through v."""
            nonlocal work
            for rel, t in checks[v]:
                image = [assignment[x] for x in t]
                free = image.count(None)
                if not free:
                    continue
                where = [image.index(None)]
                u = t[where[0]]
                if free > 1:
                    where = [i for i, x in enumerate(t) if x == u]
                    if len(where) != free:
                        continue  # another variable is unassigned too
                rest = current[u]
                work += rest.bit_count()
                keep = 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    x = low.bit_length() - 1
                    for i in where:
                        image[i] = x
                    if tuple(image) in rel:
                        keep |= low
                if not keep:
                    return False
                current[u] = keep
            return True

        def backtrack(current: list[int], left: int) -> bool:
            """Returns True when the solution limit has been reached."""
            nonlocal work
            if not left:
                work += n
                if work > allowed:
                    charge(work, "hom search")
                solutions.append(tuple(assignment))  # type: ignore[arg-type]
                return limit is not None and len(solutions) >= limit
            if lexicographic:
                v = assignment.index(None)
            else:
                v, fewest = -1, m + 1
                for u in range(n):
                    if assignment[u] is None:
                        count = current[u].bit_count()
                        if count < fewest:
                            v, fewest = u, count
            rest = current[v]
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                work += 1
                if work > allowed:
                    charge(work, "hom search")
                if back and back[w] and not converse(v, w):
                    continue
                pruned = list(current)
                for u, rows in links[v]:
                    if assignment[u] is None:
                        cut = pruned[u] & rows[w]
                        if not cut:
                            break
                        pruned[u] = cut
                else:
                    assignment[v], inverse[w] = w, v
                    done = (not checks[v] or forward(v, pruned)) and backtrack(pruned, left - 1)
                    assignment[v] = inverse[w] = None
                    if done:
                        return True
            return False

        backtrack(domains, n)
        # backtrack reaches itself through its closure; breaking that cycle frees
        # the run's state now instead of at the next cyclic garbage collection.
        backtrack = None
        charge(work, "hom search")
        return solutions


def find_hom(
    source: FinStructure,
    target: FinStructure,
    mode: str = "hom",
    partial: Optional[dict[int, int]] = None,
) -> Optional[Hom]:
    """First map found by the deterministic search, or None if exhausted."""
    if partial:
        require_ints(itertools.chain.from_iterable(partial.items()), "partial entry")
    found = _HomSearch(source, target, mode).run(partial, lexicographic=False, limit=1)
    if not found:
        return None
    return Hom(source, target, found[0])


def enumerate_endos(structure: FinStructure, limit: Optional[int] = None) -> list[Hom]:
    """All endomorphisms in lexicographic order of the map, up to limit."""
    if limit is not None:
        require_ints([limit], "endomorphism limit", InvalidInput)
        if limit < 0:
            raise InvalidInput(f"endomorphism limit must be >= 0, got {limit}")
    found = _HomSearch(structure, structure, "hom").run(None, lexicographic=True, limit=limit)
    return [Hom(structure, structure, m) for m in found]


@metered
def find_noninjective_endo(structure: FinStructure) -> Optional[Hom]:
    """An endomorphism that is not injective, or None if the structure is a core.

    A non-injective endomorphism of a finite structure misses some element,
    so the structure is a core iff no search S -> S without v succeeds, for
    v = 0, 1, ... (Hell and Nesetril, "The core of a graph", 1992).  The
    first map found is returned, so the result is deterministic.  The
    searches share one set-up and charge one work meter.
    """
    search = _HomSearch(structure, structure, "hom")
    for v in range(structure.size):
        found = search.run(None, lexicographic=False, limit=1, avoid=v)
        if found:
            return Hom(structure, structure, found[0])
    return None


def is_core(structure: FinStructure) -> bool:
    """True iff every endomorphism is injective (hence an automorphism)."""
    return find_noninjective_endo(structure) is None


@dataclass(frozen=True)
class CoreResult:
    core: FinStructure
    retraction: Hom
    old_ids: tuple[int, ...]
    was_core: bool


@metered
def compute_core(structure: FinStructure) -> CoreResult:
    """Core by iterated image shrinking.

    Repeatedly finds a non-injective endomorphism and restricts to its
    image.  The returned retraction restricts to the identity on the core
    (as a subset of the original domain) and the core admits only injective
    endomorphisms.  All the searches charge one work meter.
    """
    n = structure.size
    # f[x] is the element of the current part that x maps to; old_ids[i] is
    # the original element that is the part's element i
    core, old_ids = structure, tuple(range(n))
    f = list(range(n))
    was_core = True
    while True:
        e = find_noninjective_endo(core)
        if e is None:
            break
        was_core = False
        core, image = induced_substructure(core, e.mapping)
        new_of = {old: new for new, old in enumerate(image)}
        f = [new_of[e.mapping[x]] for x in f]
        old_ids = tuple(old_ids[i] for i in image)
    # f restricted to the core is an injective endo of a core, so a
    # permutation whose inverse is again an endomorphism; composing with the
    # inverse makes the retraction fix the core pointwise.
    inverse = {f[c]: i for i, c in enumerate(old_ids)}
    retraction = Hom(structure, core, tuple(inverse[w] for w in f))
    return CoreResult(core, retraction, old_ids, was_core)


def _refiner(n: int, rels: Sequence) -> Callable[[list[int]], list[int]]:
    """Colour refinement on the structure on 0..n-1 with the relations rels:
    a function from a colouring to the coarsest equitable colouring that
    refines it.

    Each round numbers the distinct coloured tuples (relation index,
    colours of the tuple) below K, the number of tuples, in sorted order;
    gives v the key (old colour, sorted codes p * K + number, one for every
    tuple and position p at which v occurs); and renumbers the keys 0..k-1
    in sorted order.  The codes sort as the (position, coloured tuple)
    pairs they stand for, so cells keep their relative order and the
    result does not depend on how the domain is labelled.
    """
    # the tuples numbered relation by relation; getters[r] reads the colours
    # of relation r's tuples, and vertex v occurs in tuple incident[k] at
    # position p, with shift[k] = p * K, for k in range(starts[v], ends[v])
    getters = [[operator.itemgetter(*t) for t in ts] for ts in rels]
    tuples = [t for ts in rels for t in ts]
    occurs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, t in enumerate(tuples):
        for p, x in enumerate(t):
            occurs[x].append((p * len(tuples), i))
    shift = [s for occ in occurs for s, _ in occ]
    incident = [i for occ in occurs for _, i in occ]
    ends = list(itertools.accumulate(map(len, occurs)))
    starts = [0] + ends[:-1]

    def refine(colours: list[int]) -> list[int]:
        cells = len(set(colours))
        while cells < n:
            codes: list[int] = []
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


def _individualize(colours: list[int], w: int) -> list[int]:
    """Split w off as a singleton placed first within its cell."""
    c = colours[w]
    return [x + 1 if x > c or (x == c and v != w) else x for v, x in enumerate(colours)]


def _orbit_meets(w: int, tried: list[int], generators: list[list[int]]) -> bool:
    """Whether the orbit of w under the group generated by `generators` meets `tried`."""
    orbit = {w}
    frontier = [w]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return not orbit.isdisjoint(tried)


@metered
def canonical_form(structure: FinStructure) -> bytes:
    """Canonical byte encoding: equal exactly for isomorphic structures.

    The signature, the size and the least leaf encoding that
    _canonical_encoding finds for the relations in signature order.
    Every node of its search tree charges n plus the number of tuples to
    the work budget.
    """
    n = structure.size
    rels = [structure.relations[name] for name in structure.signature.names()]
    payload = (tuple(structure.signature.relations), n, _canonical_encoding(n, rels))
    return repr(payload).encode("utf-8")


def _canonical_encoding(n: int, rels: Sequence) -> tuple:
    """The least leaf encoding of the structure on 0..n-1 whose relations,
    in a fixed order, hold the tuples of rels: for each relation, its
    tuples relabelled by one leaf's order of the domain, sorted.  Two
    structures with relations in the same order and of the same arities
    get equal encodings exactly when they are isomorphic.

    Individualization-refinement in the style of McKay and Piperno,
    "Practical graph isomorphism II" (2014), for relations of any arity.
    The search tree starts at the coarsest equitable colouring; each node
    individualizes, in turn, every vertex of its first smallest non-singleton
    cell and refines again.  Every discrete leaf orders the domain.  The
    tree is built from labelling-invariant choices only, so isomorphic
    structures get the same set of leaf encodings.

    Two leaves with equal encodings give an automorphism mapping one leaf's
    path onto the other's.  The subtree where the later path left the
    earlier one is then an image of a searched subtree, so the search
    returns to that level; and a node skips every child in the orbit of an
    already searched child under the automorphisms found so far that fix
    the node's path.  Every node visited charges n plus the number of
    tuples to the work budget.
    """
    steps = n + sum(map(len, rels))
    refine = _refiner(n, rels)

    # Leaves are (encoding, labels, path); best holds the least encoding.
    first: Optional[tuple] = None
    best: Optional[tuple] = None
    automorphisms: list[list[int]] = []

    def leaf(labels: list[int], path: list[int]) -> Optional[int]:
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

    def visit(colours: list[int], path: list[int]) -> Optional[int]:
        """Search below a node; returns the depth to resume at, if shallower."""
        charge(steps, "canonical form")
        colours = refine(colours)
        if len(set(colours)) == n:
            return leaf(colours, path)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        _, target = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)
        depth = len(path)
        tried: list[int] = []
        for w in cells[target]:
            if tried:
                fixing = [g for g in automorphisms if all(g[u] == u for u in path)]
                if _orbit_meets(w, tried, fixing):
                    continue
            tried.append(w)
            resume = visit(_individualize(colours, w), path + [w])
            if resume is not None and resume < depth:
                return resume
        return None

    visit([0] * n, [])
    # visit reaches itself through its closure; breaking that cycle frees the
    # search state now instead of at the next cyclic garbage collection.
    visit = None
    return best[0]
