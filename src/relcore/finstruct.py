"""Explicit finite relational structures.

Provides homomorphism / embedding / isomorphism search by backtracking with
forward checking on tuples of every arity, endomorphism enumeration, core
computation by iterated image shrinking, and a canonical form by
individualization-refinement, both starting from `_occurrence_profiles`.
The canonical search reads each relation once as its columns, zip(*tuples);
its occurrence profiles, refinement rounds and leaf encodings read those.

One backtracker, `_HomSearch`, assigns every value.  It is set up once per
(source, target, mode) and run as often as needed.  Its callers steer a run
only by restricting the initial candidate sets: `find_hom(partial=...)`
fixes the images of some elements, and the core test runs one set-up with each
element in turn left out of every set, skipping the orbits of refuted ones.
Embeddings and isomorphisms reflect relations of arity >= 3 per value tried.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

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
    """A finite relational structure on domain 0..size-1.

    The constructor checks everything: the size is an int >= 0, every entry
    of a relation is a tuple of its relation's arity whose elements are ints
    (not bools) inside the domain, and every relation is in the signature.
    Structures relcore builds from its own valid structures (samples,
    induced parts, unions, powers) are made by `_built`, which trusts its
    caller instead.
    """

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
            try:  # tuple.__len__ refuses an entry that is not a tuple
                if not isinstance(tuples, frozenset):
                    tuples = frozenset(map(tuple, tuples))
                lengths = set(map(tuple.__len__, tuples))
            except TypeError:
                raise SignatureMismatch(f"{name!r} is not a set of tuples") from None
            # element types are read in a C loop; require_ints names a bad one
            if not {int}.issuperset(map(type, itertools.chain.from_iterable(tuples))):
                require_ints(itertools.chain.from_iterable(tuples), "element")
            if lengths - {arity}:
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

    @classmethod
    def _built(cls, signature: Signature, size: int, relations: dict) -> "FinStructure":
        """A structure relcore built itself, made with no check.  The caller
        guarantees what the constructor would check and normalise: relations
        holds every relation of the signature, in signature order, as a
        frozenset of tuples of its arity over 0..size-1."""
        self = object.__new__(cls)
        self.__dict__.update(signature=signature, size=size, relations=relations)
        return self

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
    """All ways a map fails to be a homomorphism (empty list means valid);
    an image that is not an int (a bool included) raises InvalidElement."""
    require_ints(mapping, "image")
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
    """A homomorphism between two structures with equal signature.

    The constructor checks the signatures and runs `hom_violations` on the
    map.  Maps relcore's own search finds are made by `_found`, which
    trusts the search instead.
    """

    source: FinStructure
    target: FinStructure
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if self.source.signature != self.target.signature:
            raise SignatureMismatch("source and target signatures differ")
        problems = hom_violations(self.source, self.target, self.mapping)
        if problems:
            raise HomValidationError("; ".join(problems[:3]))

    @classmethod
    def _found(cls, source: FinStructure, target: FinStructure, mapping: tuple[int, ...]) -> "Hom":
        """A map relcore's search found or composed, made with no check.  The
        caller guarantees a tuple that is a homomorphism between structures
        of one signature."""
        self = object.__new__(cls)
        self.__dict__.update(source=source, target=target, mapping=mapping)
        return self

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
    return FinStructure._built(structure.signature, len(old_ids), rels), old_ids


def disjoint_union(left: FinStructure, right: FinStructure) -> FinStructure:
    if left.signature != right.signature:
        raise SignatureMismatch("disjoint union requires equal signatures")
    shift = left.size
    rels = {}
    for name, _ in left.signature.relations:
        rels[name] = left.relations[name] | frozenset(
            tuple(x + shift for x in t) for t in right.relations[name]
        )
    return FinStructure._built(left.signature, left.size + right.size, rels)


def full_power(structure: FinStructure, d: int) -> FinStructure:
    """Structure on d-tuples carrying every projection-instantiated atomic relation.

    For each relation R of arity k (and for equality) and each projection
    pattern (j_1,...,j_k) in [d]^k there is a relation named "R@j_1,...,j_k"
    holding on (t_1,...,t_k) iff R(t_1[j_1],...,t_k[j_k]).  Every tuple it
    would test is charged to the work budget before any is built.
    """
    require_ints([d], "power dimension", InvalidDimension)
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
    sig = Signature(tuple(names))
    return FinStructure._built(sig, len(domain), {name: rels[name] for name in sig.names()})


class _TargetTables:
    """The target side of `_HomSearch`.

    For a source smaller than the target, `FinStructure._search_tables`
    keeps one on the target from the first such search for as long as the
    structure lives, and every later one, in any mode, reuses it.  held[r]
    masks the elements w with (w, ..., w) in the r-th relation;
    adjacent[2r][w] and adjacent[2r + 1][w] mask the out- and in-neighbours
    of w in the r-th binary relation.  The link rows of each (kind, strong)
    are built when a search first asks for them.
    """

    __slots__ = ("m", "held", "adjacent", "tables")

    def __init__(self, target: FinStructure):
        m = target.size
        self.m = m
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


class _HomSearch:
    """Backtracking search for the maps of one mode from source to target.

    The set-up is built once per (source, target, mode) and `run` may be
    called any number of times; each run only narrows a copy of the
    initial candidate sets.  mode is one of "hom", "embedding", "iso".
    The set-up takes the target's masks from `_TargetTables` and builds
    the rest (candidate sets, links and tuple lists) per search.

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
        # arity >= 3 through v with two or more distinct elements; through[w],
        # in strong modes, (source relation, target tuple) for those through w
        self.links: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
        self.checks: list[list] = [[] for _ in range(n)]
        through = self.through = [[] for _ in range(m)] if strong else None
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
                for t in t_rel if strong else ():
                    if len(elements := set(t)) > 1:
                        for w in elements:
                            through[w].append((s_rel, t))
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

        if strong:
            charge(n * (n - 1), "hom search set-up")
        pairs = [(v, u) for v in range(n) for u in range(n) if u != v] if strong else kind
        for v, u in pairs:
            self.links[v].append((u, tables.rows(strong, kind.get((v, u), 0))))
        self.domains = domains

    def run(
        self, partial: Optional[dict[int, int]], lexicographic: bool, avoid: Optional[int] = None
    ) -> Iterator[tuple[int, ...]]:
        """Yield the maps, in the order found.

        With lexicographic=True the variable order is 0,1,2,... and
        solutions come out sorted as tuples; otherwise the variable with the
        smallest candidate set is assigned first (ties by lowest id).
        Candidate values are always tried in ascending order.  partial fixes
        the images of some variables and avoid is a target element no
        variable may take; both only narrow the initial candidate sets.

        The search is a loop over a stack of the assigned variables, each
        with its untried values and the candidate sets it was assigned
        from.  Every value tried counts 1 + n // 16 steps, since it copies
        and scans all n candidate sets; every value the forward check tests
        and every target tuple through a value the reflection check tries
        counts one, and every map n.  The count is kept inline and charged
        to the work budget before each map is yielded, when the search
        ends, and when it exceeds the headroom left at the last charge.
        """
        n, m = self.n, self.m
        if self.domains is None:
            return
        domains = list(self.domains)
        if avoid is not None:
            domains = [d & ~(1 << avoid) for d in domains]
        for v, w in (partial or {}).items():
            if not 0 <= v < n or not 0 <= w < m:
                return
            domains[v] &= 1 << w
        if not all(domains):
            return
        links, checks, through = self.links, self.checks, self.through
        cost = 1 + n // 16

        assignment: list[Optional[int]] = [None] * n
        # read only in strong modes, where no two variables share an image
        inverse: list[Optional[int]] = [None] * m
        work, allowed = 0, headroom()

        def reflects(v: int, w: int) -> bool:
            """With v -> w, whether each target tuple through w inside the image has a source preimage."""
            nonlocal work
            work += len(through[w])
            for s_rel, t in through[w]:
                pre = tuple([v if y == w else inverse[y] for y in t])
                if None not in pre and pre not in s_rel:
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

        # per assigned variable, in order: (the variable, its untried values,
        # the candidate sets its value was cut from)
        stack: list[tuple[int, int, list[int]]] = []
        current = domains
        while True:
            if len(stack) < n:
                if lexicographic:
                    v = len(stack)
                else:
                    v, fewest = -1, m + 1
                    for u in range(n):
                        if assignment[u] is None:
                            count = current[u].bit_count()
                            if count < fewest:
                                v, fewest = u, count
                rest = current[v]
            else:
                charge(work + n, "hom search")
                yield tuple(assignment)  # type: ignore[misc]
                work, allowed = 0, headroom()
                rest = 0
            # v's next value that survives the checks; once v has none left,
            # the last assigned variable takes its next value instead
            while True:
                if not rest:
                    if not stack:
                        charge(work, "hom search")
                        return
                    v, rest, current = stack.pop()
                    inverse[assignment[v]] = assignment[v] = None
                    continue
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                work += cost
                if work > allowed:
                    charge(work, "hom search")
                if through and through[w] and not reflects(v, w):
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
                    if not checks[v] or forward(v, pruned):
                        break
                    assignment[v] = inverse[w] = None
            stack.append((v, rest, current))
            current = pruned


@metered
def find_hom(
    source: FinStructure,
    target: FinStructure,
    mode: str = "hom",
    partial: Optional[dict[int, int]] = None,
) -> Optional[Hom]:
    """First map found by the deterministic search, or None if exhausted."""
    if partial:
        require_ints(itertools.chain.from_iterable(partial.items()), "partial entry")
    found = next(_HomSearch(source, target, mode).run(partial, lexicographic=False), None)
    return None if found is None else Hom._found(source, target, found)


@metered
def enumerate_endos(structure: FinStructure, limit: Optional[int] = None) -> list[Hom]:
    """All endomorphisms in lexicographic order of the map, up to limit."""
    if limit is not None:
        require_ints([limit], "endomorphism limit", InvalidInput)
        if limit < 0:
            raise InvalidInput(f"endomorphism limit must be >= 0, got {limit}")
    found = _HomSearch(structure, structure, "hom").run(None, lexicographic=True)
    return [Hom._found(structure, structure, m) for m in itertools.islice(found, limit)]


def _occurrence_profiles(n: int, columns: Iterable) -> list[tuple[int, ...]]:
    """Per element v of 0..n-1, the column (position p, relation r) of each
    occurrence of v, where columns[r] holds relation r's columns (zip(*tuples)),
    numbered in order of p, then of r, as refinement's codes sort (see
    _refine): v's cell in the first round from the uniform colouring."""
    occurs: list[list[int]] = [[] for _ in range(n)]
    by_position = itertools.zip_longest(*columns)
    for j, column in enumerate(c for position in by_position for c in position if c):
        for x in column:
            occurs[x].append(j)
    return list(map(tuple, occurs))


@metered
def find_noninjective_endo(structure: FinStructure) -> Optional[Hom]:
    """An endomorphism that is not injective, or None if the structure is a core.

    A non-injective endomorphism of a finite structure misses some element,
    so the structure is a core iff no search S -> S without v succeeds, for
    v = 0, 1, ... (Hell and Nesetril, "The core of a graph", 1992).  A map h
    avoiding g(u), g an automorphism, gives g^-1 h avoiding u, so v is skipped
    if its orbit under the automorphisms found so far meets a refuted element.
    Before refuting v, one run maps r -> v for the first refuted r with v's
    occurrence profile; an injective map is an automorphism.  The map returned
    is the one that a search per element, in order, returns.  All runs share
    one set-up and charge one work meter the steps `_HomSearch.run` counts.
    """
    search = _HomSearch(structure, structure, "hom")
    refuted: list[int] = []
    automorphisms: list[tuple[int, ...]] = []
    for v in range(structure.size):
        if automorphisms and _orbit_meets(v, refuted, automorphisms):
            continue
        if v == 1:  # 0 is refuted, and a second element is about to be
            profiles = _occurrence_profiles(structure.size, [zip(*ts) for ts in structure.relations.values()])
            first = {profiles[0]: 0}  # profile -> the first element refuted with it
        r = first.get(profiles[v]) if v else None
        found = None if r is None else next(search.run({r: v}, lexicographic=False), None)
        if found and len(set(found)) == len(found):
            automorphisms.append(found)
            continue
        found = next(search.run(None, lexicographic=False, avoid=v), None)
        if found:
            return Hom._found(structure, structure, found)
        refuted.append(v)
        if v:
            first.setdefault(profiles[v], v)
    return None


def is_core(structure: FinStructure) -> bool:
    """True iff every endomorphism is injective (hence an automorphism); one
    refutation per element outside the orbits of those already refuted."""
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
    retraction = Hom._found(structure, core, tuple(inverse[w] for w in f))
    return CoreResult(core, retraction, old_ids, was_core)


def _refine(n: int, columns: Sequence, colours: list[int]) -> list[int]:
    """Colour refinement on the structure on 0..n-1 whose r-th relation has
    the columns columns[r] (zip(*tuples)): the coarsest equitable colouring
    that refines colours (round one from the uniform colouring:
    _occurrence_profiles).

    Each round numbers the distinct coloured tuples (relation index,
    colours of the tuple) below K, the number of tuples, in sorted order;
    gives v the key (old colour, sorted codes p * K + number, one for every
    tuple and position p at which v occurs); and renumbers the keys 0..k-1
    in sorted order.  The codes sort as the (position, coloured tuple)
    pairs they stand for, so cells keep their relative order and the
    result does not depend on how the domain is labelled.
    """
    size = sum(len(cols[0]) for cols in columns if cols)  # K, the number of tuples
    cells = len(set(colours))
    while cells < n:
        codes: list[list[int]] = [[] for _ in range(n)]
        below = 0
        for cols in columns:
            coloured = list(zip(*[[colours[x] for x in col] for col in cols]))
            ids = {c: k for k, c in enumerate(sorted(set(coloured)), below)}
            numbers = list(map(ids.__getitem__, coloured))
            below += len(numbers)
            for p, col in enumerate(cols):
                shift = p * size
                for x, k in zip(col, numbers):
                    codes[x].append(shift + k)
        keys = [(c, tuple(sorted(cs))) for c, cs in zip(colours, codes)]
        ranked = sorted(set(keys))
        if len(ranked) == cells:
            break
        rank = {key: k for k, key in enumerate(ranked)}
        colours = [rank[key] for key in keys]
        cells = len(ranked)
    return colours


def _individualize(colours: list[int], w: int) -> list[int]:
    """Split w off as a singleton placed first within its cell."""
    c = colours[w]
    return [x + 1 if x > c or (x == c and v != w) else x for v, x in enumerate(colours)]


def _orbit_meets(w: int, tried: list[int], generators: Sequence[Sequence[int]]) -> bool:
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
    Each relation is read once as its columns, zip(*tuples); the occurrence
    profiles, every refinement round and every leaf read those columns.
    The search tree starts at the ranked occurrence profiles, refined; each node
    individualizes, in turn, every vertex of its first smallest non-singleton
    cell and refines again.  Every discrete leaf orders the domain.  The
    tree is built from labelling-invariant choices only, so isomorphic
    structures get the same set of leaf encodings.

    Two leaves with equal encodings give an automorphism mapping one leaf's
    path onto the other's.  The subtree where the later path left the
    earlier one is then an image of a searched subtree, so the search
    returns to that level; and a node skips every child in the orbit of an
    already searched child under the automorphisms found so far that fix
    the node's path.  The search is a loop over a list of the nodes on the
    current path, so returning to a level drops the nodes below it.  Every
    node visited charges n plus the number of tuples to the work budget.
    """
    steps = n + sum(map(len, rels))
    columns = [list(zip(*ts)) for ts in rels]

    # Leaves are (encoding, labels, path); best holds the least encoding.
    first: Optional[tuple] = None
    best: Optional[tuple] = None
    automorphisms: list[list[int]] = []
    # per node on the current path: its colouring, an iterator over its
    # target cell, and the vertices of that cell individualized so far
    nodes: list[tuple[list[int], Iterator[int], list[int]]] = []

    profiles = _occurrence_profiles(n, columns)
    rank = {profile: c for c, profile in enumerate(sorted(set(profiles)))}
    colours = [rank[profile] for profile in profiles]
    while True:
        charge(steps, "canonical form")
        colours = _refine(n, columns, colours)
        if len(set(colours)) < n:
            cells: dict[int, list[int]] = {}
            for v, c in enumerate(colours):
                cells.setdefault(c, []).append(v)
            _, target = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)
            nodes.append((colours, iter(cells[target]), []))
        else:
            path = [tried[-1] for _, _, tried in nodes]
            encoding = tuple(tuple(sorted(zip(*[[colours[x] for x in col] for col in cols]))) for cols in columns)
            if first is None:
                first = best = (encoding, colours, path)
            else:
                for seen in (first, best):
                    if encoding == seen[0]:
                        vertex_at = [0] * n
                        for v, c in enumerate(colours):
                            vertex_at[c] = v
                        automorphisms.append([vertex_at[c] for c in seen[1]])
                        # the subtree below the level where the paths part is an image
                        k = next(k for k, (a, b) in enumerate(zip(seen[2], path)) if a != b)
                        del nodes[k + 1:]
                        break
                else:
                    if encoding < best[0]:
                        best = (encoding, colours, path)
        # the next child: of the deepest node with a vertex left outside the
        # orbits of those tried under the automorphisms fixing its path
        while nodes:
            node_colours, cell, tried = nodes[-1]
            if tried:
                path = [t[-1] for _, _, t in nodes[:-1]]
                fixing = [g for g in automorphisms if all(g[u] == u for u in path)]
                cell = (w for w in cell if not _orbit_meets(w, tried, fixing))
            w = next(cell, None)
            if w is not None:
                tried.append(w)
                colours = _individualize(node_colours, w)
                break
            nodes.pop()
        else:
            return best[0]
