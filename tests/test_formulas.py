import random
from fractions import Fraction

import pytest

from relcore.atoms import DLO, PURE_SET, Atom, labeled_dlo
from relcore import formulas as fm
from relcore import gallery
from relcore.errors import ArityMismatch, InvalidLabel, OrderNotAvailable, RelcoreError
from relcore.verify import _random_formula


def atoms(*values, labels=None):
    labels = labels or [0] * len(values)
    return [Atom(Fraction(v), l) for v, l in zip(values, labels)]


def test_eval_atomics():
    assert fm.evaluate(fm.Less(0, 1), atoms(0, 1), DLO)
    assert not fm.evaluate(fm.Less(1, 0), atoms(0, 1), DLO)
    assert fm.evaluate(fm.Eq(0, 1), atoms(2, 2))
    assert fm.evaluate(fm.Label(0, 1), atoms(0, labels=[1]), labeled_dlo(2))


def test_eval_tagged_pair_edge_formula():
    # Two oriented pairs (0,1) and (0,2), both ascending with even tags,
    # share exactly their first coordinate: E holds, N does not.
    x = gallery.tagged_pair_structure()
    e_clause = next(
        c for c in x.clauses if c.name == "E" and c.guard == ("a0", "a0")
    )
    n_clause = next(c for c in x.clauses if c.name == "N")
    env = atoms(0, 1, 0, 2)
    assert fm.evaluate(e_clause.formula, env, DLO)
    assert not fm.evaluate(n_clause.formula, env, DLO)
    # disjoint supports: N holds, E does not
    env2 = atoms(0, 1, 2, 3)
    assert fm.evaluate(n_clause.formula, env2, DLO)
    assert not fm.evaluate(e_clause.formula, env2, DLO)


def test_eval_errors():
    with pytest.raises(ArityMismatch):
        fm.evaluate(fm.Less(0, 2), atoms(0, 1), DLO)
    with pytest.raises(OrderNotAvailable):
        fm.evaluate(fm.Less(0, 1), atoms(0, 1), PURE_SET)


def uses_order(phi):
    """True iff some Less atomic occurs in phi.  A False answer certifies
    that phi sees only the equality-and-label pattern of its arguments."""
    if isinstance(phi, fm.Less):
        return True
    if isinstance(phi, (fm.And, fm.Or)):
        return any(uses_order(f) for f in phi.args)
    if isinstance(phi, fm.Not):
        return uses_order(phi.arg)
    return False


def test_uses_order():
    assert not uses_order(fm.Eq(0, 1))
    assert uses_order(fm.And(fm.Less(0, 1), fm.Eq(1, 2)))
    assert not uses_order(fm.Not(fm.Label(0, 1)))


def test_tagged_pair_formulas_are_order_free():
    x = gallery.tagged_pair_structure()
    assert not uses_order(fm.And(tuple(c.formula for c in x.clauses)))


def random_formula(rng, k, alphabet=2):
    pool = [fm.Less, fm.Eq]
    def build(depth):
        r = rng.random()
        if depth == 0 or r < 0.4:
            kind = rng.randrange(3)
            if kind == 0:
                return fm.Less(rng.randrange(k), rng.randrange(k))
            if kind == 1:
                return fm.Eq(rng.randrange(k), rng.randrange(k))
            return fm.Label(rng.randrange(k), rng.randrange(alphabet))
        if r < 0.6:
            return fm.Not(build(depth - 1))
        parts = tuple(build(depth - 1) for _ in range(rng.randint(2, 3)))
        return fm.And(parts) if r < 0.8 else fm.Or(parts)
    return build(2)


def test_eval_invariant_under_monotone_maps():
    rng = random.Random(5)
    base = labeled_dlo(2)
    for _ in range(30):
        phi = random_formula(rng, 3)
        env = [Atom(Fraction(rng.randint(0, 5)), rng.randrange(2)) for _ in range(3)]
        shift = {}
        prev = Fraction(-100)
        for v in sorted({a.value for a in env}):
            prev = prev + Fraction(rng.randint(1, 7), rng.randint(1, 3))
            shift[v] = prev
        mapped = [Atom(shift[a.value], a.label) for a in env]
        assert fm.evaluate(phi, env, base) == fm.evaluate(phi, mapped, base)


def test_order_free_formulas_see_only_equality_pattern():
    rng = random.Random(6)
    base = labeled_dlo(2)
    for _ in range(60):
        phi = random_formula(rng, 3)
        if uses_order(phi):
            continue
        env = [Atom(Fraction(v), l) for v, l in zip([0, 1, 1], [0, 1, 0])]
        # same equality-and-label pattern, different value order
        flipped = [Atom(Fraction(v), a.label) for v, a in zip([5, 2, 2], env)]
        assert fm.evaluate(phi, env, base) == fm.evaluate(phi, flipped, base)


def test_json_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        phi = random_formula(rng, 4)
        assert fm.from_json(fm.to_json(phi)) == phi
    assert fm.from_json({"op": "true"}) == fm.TRUE


# ------------------------------------------------------------ compiled formulas


def encode(env):
    """The environment a compiled predicate reads: (value rank, label) pairs."""
    rank = {v: r for r, v in enumerate(sorted({a.value for a in env}))}
    return tuple((rank[a.value], a.label) for a in env)


def outcome(run):
    try:
        return run()
    except (RelcoreError, TypeError) as exc:
        return type(exc), str(exc)


def random_tree(rng, k, base):
    """Formulas on k positions: verify's random clause formulas, empty And
    and Or, nested Not, and atomics that may name position k, a label
    outside the alphabet, or Less under an unordered base."""

    def leaf():
        kind = rng.randrange(6)
        if kind == 0:
            return _random_formula(rng, k, base)
        if kind == 1:
            return fm.And() if rng.random() < 0.5 else fm.Or()
        if kind == 2:
            return fm.Less(rng.randrange(k + 1), rng.randrange(k + 1))
        if kind == 3:
            return fm.Eq(rng.randrange(k + 1), rng.randrange(k + 1))
        if kind == 4:
            return fm.Label(rng.randrange(k + 1), rng.randrange(base.alphabet + 1))
        return fm.Not(fm.Not(leaf()))

    def build(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return leaf()
        if r < 0.45:
            return fm.Not(build(depth - 1))
        parts = tuple(build(depth - 1) for _ in range(rng.randint(0, 4)))
        return fm.And(parts) if r < 0.75 else fm.Or(parts)

    return build(3)


def first_bad_node(phi, base):
    """The error class of the first node, in left-to-right preorder, that
    is not a formula over base, or None: the node walk fm.check must agree
    with."""
    if isinstance(phi, (fm.And, fm.Or)):
        return next(filter(None, (first_bad_node(f, base) for f in phi.args)), None)
    if isinstance(phi, fm.Not):
        return first_bad_node(phi.arg, base)
    if isinstance(phi, fm.Less) and not base.ordered:
        return OrderNotAvailable
    if isinstance(phi, fm.Label) and phi.label >= base.alphabet:
        return InvalidLabel
    if isinstance(phi, (fm.Less, fm.Eq, fm.Label)):
        return ArityMismatch if min(positions(phi)) < 0 else None
    return None if isinstance(phi, fm.Const) else TypeError


def positions(phi):
    """Every position index in phi, left to right."""
    if isinstance(phi, fm.Label):
        return [phi.i]
    if isinstance(phi, (fm.Less, fm.Eq)):
        return [phi.i, phi.j]
    if isinstance(phi, (fm.And, fm.Or)):
        return [k for f in phi.args for k in positions(f)]
    return positions(phi.arg) if isinstance(phi, fm.Not) else []


def holds(phi, env):
    """phi on one encoded environment, through a one-group scan."""
    out = set()
    fm.compile_scan(phi, (len(env),))([[0]], [env], out)
    return bool(out)


def ill_typed_tree(rng, k, base):
    """random_tree with now and then a negative position or a node that is
    not a formula in place of a subtree."""
    phi = random_tree(rng, k, base)
    for _ in range(rng.randint(0, 2)):
        bad = rng.choice([fm.Eq(-1, 0), fm.Label(-2, 0), fm.Less(0, -1), "x", None, 3])
        phi = rng.choice([fm.And, fm.Or])(phi, bad) if rng.random() < 0.5 else fm.Or(bad, phi)
    return phi


@pytest.mark.parametrize("base", [PURE_SET, DLO, labeled_dlo(2)], ids=["pure", "dlo", "labelled"])
def test_compiled_formula_matches_evaluate(base):
    # fm.check raises exactly when the node walk finds a bad node, with the
    # class of the first; when it passes, it returns the positions read,
    # evaluate never raises, and a one-group scan agrees with evaluate on
    # environments of every sufficient width
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        k = rng.randint(0, 4)
        phi = random_tree(rng, k, base) if rng.random() < 0.5 else ill_typed_tree(rng, k, base)
        expected = first_bad_node(phi, base)
        got = outcome(lambda: fm.check(phi, base))
        if expected is not None:
            assert isinstance(got, tuple) and got[0] is expected, (phi, got)
            seen.add(expected)
            continue
        assert got == set(positions(phi)), phi
        top = max(got, default=-1)
        for width in (top + 1, top + 2):
            for _ in range(4):
                # few values, two labels: repeated atoms and equal values
                # with different labels both occur
                env = [Atom(Fraction(rng.randint(0, 3)), rng.randrange(2)) for _ in range(width)]
                truth = fm.evaluate(phi, env, base)
                assert holds(phi, encode(env)) == truth, (phi, env)
                seen.add(truth)
    errors = {ArityMismatch, InvalidLabel, TypeError} | ({OrderNotAvailable} if not base.ordered else set())
    assert {True, False} | errors <= seen


def test_check_rejects_nodes_evaluation_would_skip():
    # every node is checked, reached by evaluation or not
    with pytest.raises(OrderNotAvailable):
        fm.check(fm.Or(fm.TRUE, fm.Less(0, 1)), PURE_SET)
    with pytest.raises(InvalidLabel):
        fm.check(fm.And(fm.FALSE, fm.Label(3, 5)), DLO)
    with pytest.raises(InvalidLabel):
        fm.check(fm.Label(0, 2), labeled_dlo(2))
    with pytest.raises(ArityMismatch, match="negative position -1"):
        fm.check(fm.Or(fm.TRUE, fm.Eq(0, -1)), DLO)
    with pytest.raises(TypeError):
        fm.check(fm.And(fm.TRUE, "x"), DLO)
    assert fm.check(fm.And(fm.Eq(0, 3), fm.Not(fm.Label(5, 0))), PURE_SET) == {0, 3, 5}
    assert fm.check(fm.Or(), PURE_SET) == set()


def test_compiled_eq_and_less_compare_values_only():
    env = encode(atoms(1, 1, 0, labels=[0, 1, 1]))
    assert holds(fm.Eq(0, 1), env)
    assert not holds(fm.Less(0, 1), env)
    assert not holds(fm.Less(1, 0), env)
    assert holds(fm.Less(2, 1), env)
    assert holds(fm.Label(0, 0), env)
    assert not holds(fm.Label(1, 0), env)


def test_compile_cache_is_keyed_on_width_and_bounded():
    phi = fm.Less(0, 1)
    assert fm.compile_scan(phi, (2,)) is fm.compile_scan(fm.Less(0, 1), (2,))
    assert fm.compile_scan(phi, (1, 1)) is not fm.compile_scan(phi, (2,))
    assert holds(phi, encode(atoms(0, 1)))
    # a position outside the words is refused when the scan is compiled
    with pytest.raises(ArityMismatch, match="length 1"):
        fm.compile_scan(phi, (1,))
    assert fm.compile_scan.cache_info().maxsize is not None


@pytest.mark.parametrize(
    "phi",
    [fm.Less("0] or (1", 1), fm.Eq(0, 1.0), fm.Label("0", 0), fm.Label(0, "0) or (1"), fm.Label(0, None)],
)
def test_only_integers_reach_generated_source(monkeypatch, phi):
    executed = []
    monkeypatch.setattr(fm, "exec", lambda *args: executed.append(args), raising=False)
    with pytest.raises(TypeError):
        fm.check(phi, DLO)
    with pytest.raises(TypeError):
        fm.compile_scan(phi, (1, 1))
    assert executed == []


def alternating_chain(depth):
    """Or(Eq(0, 1), And(TRUE, Or(Eq(0, 1), ...))) around Less(0, 1), which
    is Eq(0, 1) or Less(0, 1) at any depth."""
    phi = fm.Less(0, 1)
    for k in range(depth):
        phi = fm.And(fm.TRUE, phi) if k % 2 else fm.Or(fm.Eq(0, 1), phi)
    return phi


def not_chain(depth):
    phi = fm.Less(0, 1)
    for _ in range(depth):
        phi = fm.Not(phi)
    return phi


@pytest.mark.parametrize(
    "deep,shallow",
    [
        (not_chain(450), fm.Less(0, 1)),
        (not_chain(451), fm.Not(fm.Less(0, 1))),
        (alternating_chain(300), fm.Or(fm.Eq(0, 1), fm.Less(0, 1))),
    ],
    ids=["not450", "not451", "alternating300"],
)
def test_formulas_deeper_than_the_parser_allows_compile(deep, shallow):
    envs = [encode(atoms(a, b)) for a in range(2) for b in range(2)]
    assert [holds(deep, env) for env in envs] == [holds(shallow, env) for env in envs]
    words = [((0, 0),), ((1, 0),)]
    got, expected = set(), set()
    fm.compile_scan(deep, (1, 1))([[0, 1], [0, 1]], words, got)
    fm.compile_scan(shallow, (1, 1))([[0, 1], [0, 1]], words, expected)
    assert got == expected
