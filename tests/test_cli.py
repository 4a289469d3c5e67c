import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relcore
from relcore import errors
from relcore.cli import main
from relcore.definable import increasing_tuple_structure, sample
from relcore.atoms import DLO, make_sample
from relcore.finstruct import FinStructure, Signature


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_gallery_jord2(capsys):
    code, out, _ = run(capsys, "sample", "gallery:Jord2", "--atoms", "3")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 3
    assert len(data["points"]) == 3


def test_sample_gallery_x(capsys):
    code, out, _ = run(capsys, "sample", "gallery:X", "--atoms", "3")
    assert code == 0
    assert json.loads(out)["size"] == 24


def test_sample_atom_list(capsys):
    code, out, _ = run(capsys, "sample", "gallery:QST", "--atoms", "0:0,1:1,2:0")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 3


def test_sample_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "sample", str(bad), "--atoms", "3")
    assert code == 2
    assert "error" in err


def test_sample_base_mismatch_exit(tmp_path, capsys):
    code, _, err = run(capsys, "sample", "gallery:QST", "--atoms", "0:0,1:7")
    assert code == 2


def test_hom_identity_iso(tmp_path, capsys):
    s = sample(increasing_tuple_structure(1), make_sample(DLO, 3)).structure
    f = tmp_path / "s.json"
    f.write_text(json.dumps(s.to_json()))
    code, out, _ = run(capsys, "hom", str(f), str(f), "--mode", "iso")
    assert code == 0
    assert json.loads(out)["map"] == [0, 1, 2]


def _write_clique(tmp_path, name, n):
    s = FinStructure(
        Signature((("E", 2),)),
        n,
        {"E": frozenset((i, j) for i in range(n) for j in range(n) if i != j)},
    )
    f = tmp_path / name
    f.write_text(json.dumps(s.to_json()))
    return f


def test_hom_clique_negative(tmp_path, capsys):
    k3 = _write_clique(tmp_path, "k3.json", 3)
    k2 = _write_clique(tmp_path, "k2.json", 2)
    code, out, _ = run(capsys, "hom", str(k3), str(k2))
    assert code == 1
    assert out.strip() == "none"


def test_hom_gallery_samples(capsys):
    code, out, _ = run(capsys, "hom", "gallery:X@3", "gallery:Y@3")
    assert code == 0
    assert "map" in json.loads(out)


def test_core_spider(capsys):
    code, out, _ = run(capsys, "core", "gallery:spider3")
    assert code == 0
    data = json.loads(out)
    assert data["core"]["size"] == 7
    assert data["was_core"] is False


def test_core_already_core(tmp_path, capsys):
    k3 = _write_clique(tmp_path, "k3.json", 3)
    code, out, _ = run(capsys, "core", str(k3))
    assert code == 0
    data = json.loads(out)
    assert data["was_core"] is True and data["core"]["size"] == 3


def test_is_core_exit_codes(tmp_path, capsys):
    k3 = _write_clique(tmp_path, "k3.json", 3)
    assert run(capsys, "is-core", str(k3))[0] == 0
    code, out, _ = run(capsys, "is-core", "gallery:spider2")
    assert code == 1
    assert json.loads(out) == {"is_core": False}


def test_endos_limit(tmp_path, capsys):
    k3 = _write_clique(tmp_path, "k3.json", 3)
    code, out, _ = run(capsys, "endos", str(k3))
    assert code == 0
    assert json.loads(out)["count"] == 6
    code, out, _ = run(capsys, "endos", "gallery:spider2", "--limit", "0")
    assert code == 0
    assert json.loads(out) == {"count": 0, "endomorphisms": []}


def test_power_and_union(tmp_path, capsys):
    k2 = _write_clique(tmp_path, "k2.json", 2)
    code, out, _ = run(capsys, "power", str(k2), "--d", "2")
    assert code == 0
    assert json.loads(out)["size"] == 4
    code, out, _ = run(capsys, "union", str(k2), str(k2))
    assert code == 0
    assert json.loads(out)["size"] == 4


def test_endos_over_budget_exits_2(capsys, monkeypatch):
    # 16 steps build spider2 exactly, so its load passes and the
    # endomorphism search on its 6 elements is what exceeds the budget
    monkeypatch.setattr(errors, "WORK_BUDGET", 16)
    code, out, err = run(capsys, "endos", "gallery:spider2")
    assert_input_error(code, out, err)
    assert "hom search" in err


def test_power_over_budget_exits_2(capsys):
    # spider5 has 15 elements: 307,577,250 tuples to test at d = 3
    code, out, err = run(capsys, "power", "gallery:spider5", "--d", "3")
    assert (code, out) == (2, "")
    assert "budget" in err


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "gallery:Jord1", "--n", "2")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_growth_sequences(capsys):
    code, out, _ = run(capsys, "growth", "gallery:QST", "--n", "5")
    assert code == 0
    assert out.strip() == "2,4,8,16,32"
    code, out, _ = run(capsys, "growth", "gallery:DLO", "--n", "5")
    assert out.strip() == "1,1,1,1,1"
    code, out, _ = run(capsys, "growth", "gallery:S2", "--n", "6", "--mode", "homogeneous")
    assert out.strip() == "1,1,2,2,4,6"


def test_growth_keeps_the_levels_below_one_that_raises(capsys, monkeypatch):
    # QST base growth is counted in closed form and charges its orbit
    # pre-count: 5, 19, 54, 138 and 335 steps at n = 1..5
    monkeypatch.setattr(errors, "WORK_BUDGET", 138)
    code, out, err = run(capsys, "growth", "gallery:QST", "--n", "5")
    assert (code, out) == (2, "2,4,8,16\n")
    assert err.startswith("error: growth at n = 5: work budget 138 exceeded")
    monkeypatch.setattr(errors, "WORK_BUDGET", 137)
    code, out, err = run(capsys, "growth", "gallery:QST", "--n", "5")
    assert (code, out) == (2, "2,4,8\n")
    assert err.startswith("error: growth at n = 4: work budget 137 exceeded")
    monkeypatch.setattr(errors, "WORK_BUDGET", 4)
    assert_input_error(*run(capsys, "growth", "gallery:QST", "--n", "5"))


def test_growth_reversal_sequence(capsys):
    code, out, _ = run(capsys, "growth", "gallery:S2", "--n", "7", "--mode", "reversal")
    assert code == 0
    assert out.strip() == "1,1,2,2,4,5,9"


def test_classify_orders(capsys):
    code, out, _ = run(capsys, "classify-orders", "--d", "1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    code, out, _ = run(capsys, "classify-orders", "--d", "2", "--emit-orbits")
    data = json.loads(out)
    assert data["count"] == 8
    assert all(entry["signed_lex"] is not None for entry in data["orders"])
    assert all("orbits" in entry for entry in data["orders"])


# sha256 of the stdout of `relcore classify-orders --d 3 --emit-orbits`
CLASSIFY_ORDERS_D3_DIGEST = "1b4f690f5d586bcd39bb325c265999b103c09666faa3d64bda5038e741145487"


# sha256 of the stdout of `relcore sample gallery:NAME --atoms K` as the
# per-tuple scan printed it; scanning once per point type prints the same
SAMPLE_DIGESTS = {
    ("jord3", "9"): "906671e0a13fddf4d1f7daba16ec16d5e84e4e1f4cf1e8d4fbe10679ffca4d0f",
    ("perm-companion", "8"): "6b0db9fbf3a5edd67e295c56aa6f32fa0346d57228da4252da82e4997aa63706",
}


@pytest.mark.parametrize("name, atoms", sorted(SAMPLE_DIGESTS))
def test_sample_output_is_pinned(capsys, name, atoms):
    code, out, _ = run(capsys, "sample", f"gallery:{name}", "--atoms", atoms)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[name, atoms]


def test_classify_orders_d3_output_is_pinned(capsys):
    code, out, _ = run(capsys, "classify-orders", "--d", "3", "--emit-orbits")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_ORDERS_D3_DIGEST
    data = json.loads(out)
    assert data["count"] == len(data["orders"]) == 48
    assert all(entry["signed_lex"] is not None for entry in data["orders"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonexistent")
    assert code == 2
    assert "unknown suite" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spider")
    assert code == 0
    assert "[spider]" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["overall"] == "pass"
    assert payload["report_version"] == 1


def test_verify_takes_the_seed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core-engine", "--seed", "1")
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert [c["id"] for c in payload["suites"][0]["checks"]] == ["random-cores-seed1"]
    # no other command reads a seed, so none accepts one
    for argv in (
        ["--seed", "1", "verify", "--suite", "spider"],
        ["sample", "gallery:Jord1", "--atoms", "2", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "sample", "gallery:Y", "--atoms", "4")
    _, out2, _ = run(capsys, "sample", "gallery:Y", "--atoms", "4")
    assert out1 == out2


GOOD_FINITE = {"signature": [{"name": "E", "arity": 2}], "size": 2, "relations": {"E": [[0, 1]]}}
MALFORMED_FINITE = {
    "no-arity": {"signature": [{"name": "E"}], "size": 2, "relations": {"E": [[0, 1]]}},
    "no-size": {"signature": [{"name": "E", "arity": 2}], "relations": {"E": [[0, 1]]}},
    "size-not-a-number": dict(GOOD_FINITE, size="two"),
    "relations-not-an-object": dict(GOOD_FINITE, relations=[[0, 1]]),
    "tuple-not-a-list": dict(GOOD_FINITE, relations={"E": [5]}),
    "element-not-a-number": dict(GOOD_FINITE, relations={"E": [["a", 1]]}),
    "not-an-object": [GOOD_FINITE],
    # integer fields take JSON integers only, and a domain is never negative
    "element-not-an-integer": dict(GOOD_FINITE, relations={"E": [[0, 1.0]]}),
    "size-not-an-integer": dict(GOOD_FINITE, size=2.5),
    "size-a-boolean": dict(GOOD_FINITE, size=True, relations={"E": []}),
    "arity-a-string": dict(GOOD_FINITE, signature=[{"name": "E", "arity": "2"}]),
    "negative-size": dict(GOOD_FINITE, size=-1, relations={"E": []}),
}
GOOD_DEFINABLE = {
    "base": {"ordered": True, "alphabet": 1},
    "sorts": [{"name": "q", "dim": 1}],
    "relations": [{"name": "lt", "arity": 2, "guard": ["*", "*"], "formula": {"op": "lt", "i": 0, "j": 1}}],
}


def one_clause(formula, ordered=True):
    return dict(
        GOOD_DEFINABLE,
        base={"ordered": ordered, "alphabet": 1},
        relations=[{"name": "R", "arity": 2, "guard": ["*", "*"], "formula": formula}],
    )


# well-formed JSON whose formula is not one over the base; evaluation of
# the first two never reaches the bad node on one atom
ILL_TYPED_DEFINABLE = {
    "lt-over-unordered-base": one_clause(
        {"op": "or", "args": [{"op": "eq", "i": 0, "j": 1}, {"op": "lt", "i": 0, "j": 1}]}, ordered=False
    ),
    "label-outside-alphabet": one_clause({"op": "and", "args": [{"op": "false"}, {"op": "label", "i": 0, "l": 5}]}),
    "negative-position": one_clause({"op": "eq", "i": -1, "j": 0}),
}
MALFORMED_DEFINABLE = {
    **ILL_TYPED_DEFINABLE,
    "no-base": {k: v for k, v in GOOD_DEFINABLE.items() if k != "base"},
    "sort-without-dim": dict(GOOD_DEFINABLE, sorts=[{"name": "q"}]),
    "formula-without-op": dict(
        GOOD_DEFINABLE,
        relations=[{"name": "lt", "arity": 2, "guard": ["*", "*"], "formula": {"i": 0, "j": 1}}],
    ),
    "formula-index-not-a-number": dict(
        GOOD_DEFINABLE,
        relations=[{"name": "lt", "arity": 2, "guard": ["*", "*"], "formula": {"op": "lt", "i": "x", "j": 1}}],
    ),
    # integer fields take JSON integers only, ordered a JSON boolean only
    "ordered-not-a-boolean": dict(GOOD_DEFINABLE, base={"ordered": "no", "alphabet": 1}),
    "alphabet-not-an-integer": dict(GOOD_DEFINABLE, base={"ordered": True, "alphabet": 1.5}),
    "dim-not-an-integer": dict(GOOD_DEFINABLE, sorts=[{"name": "q", "dim": 1.5}]),
    "arity-not-an-integer": dict(
        GOOD_DEFINABLE,
        relations=[{"name": "lt", "arity": 2.5, "guard": ["*", "*"], "formula": {"op": "lt", "i": 0, "j": 1}}],
    ),
    "position-not-an-integer": dict(
        GOOD_DEFINABLE,
        relations=[{"name": "lt", "arity": 2, "guard": ["*", "*"], "formula": {"op": "lt", "i": 0, "j": 1.5}}],
    ),
}
FINITE_COMMANDS = [
    ["hom", "{bad}", "{good}"],
    ["hom", "{good}", "{bad}"],
    ["core", "{bad}"],
    ["is-core", "{bad}"],
    ["endos", "{bad}"],
    ["power", "{bad}", "--d", "2"],
    ["union", "{good}", "{bad}"],
]
DEFINABLE_COMMANDS = [
    ["sample", "{bad}", "--atoms", "3"],
    ["orbits", "{bad}", "--n", "2"],
    ["growth", "{bad}", "--n", "2"],
    ["power", "{bad}", "--d", "2"],
]
MALFORMED_INPUTS = [
    pytest.param(good, bad, cmd, id=f"{case}:{cmd[0]}")
    for good, table, commands in (
        (GOOD_FINITE, MALFORMED_FINITE, FINITE_COMMANDS),
        (GOOD_DEFINABLE, MALFORMED_DEFINABLE, DEFINABLE_COMMANDS),
    )
    for case, bad in table.items()
    for cmd in commands
]


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("good,bad,command", MALFORMED_INPUTS)
def test_malformed_file_exits_2(tmp_path, capsys, good, bad, command):
    files = {}
    for role, data in (("good", good), ("bad", bad)):
        files[role] = tmp_path / f"{role}.json"
        files[role].write_text(json.dumps(data))
    argv = [arg.format(**files) for arg in command]
    assert_input_error(*run(capsys, *argv))


@pytest.mark.parametrize("case", ILL_TYPED_DEFINABLE)
@pytest.mark.parametrize("atoms", ["1", "2"])
def test_ill_typed_definable_exits_2_at_any_sample_size(tmp_path, capsys, case, atoms):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ILL_TYPED_DEFINABLE[case]))
    assert_input_error(*run(capsys, "sample", str(path), "--atoms", atoms))


@pytest.mark.parametrize("spec", ["1/0", "abc", "0:x", "1:2:3", "0,,1"])
def test_malformed_atom_spec_exits_2(capsys, spec):
    assert_input_error(*run(capsys, "sample", "gallery:QST", "--atoms", spec))


def run_entry_point(*argv, hash_seed="0", stdout=subprocess.PIPE):
    """Run `python -m relcore.cli` in a child that imports the same relcore as
    this process, installed or not."""
    src = str(Path(relcore.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PYTHONHASHSEED": hash_seed,
    }
    return subprocess.run(
        [sys.executable, "-m", "relcore.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=60,
        env=env,
    )


def test_malformed_atom_spec_from_entry_point():
    proc = run_entry_point("sample", "gallery:DLO", "--atoms", "1/0")
    assert_input_error(proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def test_closed_stdout_exits_without_traceback():
    # as in `relcore core ... | head -c 300`, the reader has closed its end of
    # the pipe, here before the command writes, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_entry_point("core", "gallery:betw@6", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("command,code", [("core", 0), ("is-core", 1)])
def test_core_commands_are_deterministic(command, code):
    # two processes with different string hashing print the same bytes
    first, second = (run_entry_point(command, "gallery:spider:3", hash_seed=h) for h in ("1", "2"))
    assert first.returncode == second.returncode == code
    assert first.stdout == second.stdout
    if command == "core":
        # the hub plus parts 1 and 2
        assert json.loads(first.stdout)["kept_elements"] == [0, 1, 2, 4, 5, 7, 8]


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "gallery:Jord1", "--n", "0"],
        ["growth", "gallery:QST", "--n", "0"],
        ["growth", "gallery:QST", "--n", "-1"],
        ["endos", "gallery:spider2", "--limit", "-1"],
        # an atom sample this large raises before any atom is built
        ["sample", "gallery:Jord1", "--atoms", "100000000"],
        ["is-core", "gallery:Jord1@100000000"],
        # a spider this large raises before any tuple is built
        ["is-core", "gallery:spider3000"],
        # digits that int() refuses: a superscript, and more than Python converts
        ["sample", "gallery:jord1", "--atoms", "\u00b2"],
        ["is-core", "gallery:spider\u00b2"],
        ["is-core", "gallery:jord1@" + "9" * 5000],
    ],
)
def test_out_of_range_counts_exit_2(capsys, argv):
    assert_input_error(*run(capsys, *argv))


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--json"], ["--atom-budget", "0"]])
def test_removed_global_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([*flag, "orbits", "gallery:Jord1", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "token,definable",
    [
        ("gallery:Jord1", True),
        ("gallery:spider2", False),
        ("gallery:Jord1@3", False),
        ("{definable}", True),
        ("{finite}", False),
    ],
)
def test_one_loader_serves_every_command(tmp_path, capsys, token, definable):
    files = {"definable": tmp_path / "definable.json", "finite": tmp_path / "finite.json"}
    files["definable"].write_text(json.dumps(GOOD_DEFINABLE))
    files["finite"].write_text(json.dumps(GOOD_FINITE))
    token = token.format(**files)
    # power takes either kind and prints a power of the same kind
    code, out, _ = run(capsys, "power", token, "--d", "1")
    assert code == 0
    assert ("sorts" in json.loads(out)) == definable
    # the other commands refuse the wrong kind with an input error
    on_definable = run(capsys, "orbits", token, "--n", "1")
    on_finite = run(capsys, "is-core", token)
    if definable:
        assert on_definable[0] == 0
        assert_input_error(*on_finite)
    else:
        assert_input_error(*on_definable)
        assert on_finite[0] in (0, 1)


def chain_file(path, depth, kind, base_formula='{"op": "lt", "i": 0, "j": 1}'):
    """A definable file whose one clause nests depth connectives around
    base_formula: a chain of `not`, or an alternating chain of
    or(eq(0, 1), ...) and and(true, ...), equal to eq(0, 1) or the base
    formula at any depth.  Written as text: json.dumps recurses too."""
    phi = base_formula
    for k in range(depth):
        if kind == "not":
            phi = f'{{"op": "not", "args": [{phi}]}}'
        elif k % 2:
            phi = f'{{"op": "and", "args": [{{"op": "true"}}, {phi}]}}'
        else:
            phi = f'{{"op": "or", "args": [{{"op": "eq", "i": 0, "j": 1}}, {phi}]}}'
    path.write_text(
        '{"base": {"ordered": true, "alphabet": 1}, "sorts": [{"name": "q", "dim": 1}], '
        f'"relations": [{{"name": "R", "arity": 2, "guard": ["*", "*"], "formula": {phi}}}]}}'
    )
    return str(path)


@pytest.mark.parametrize("depth,kind", [(1000, "not"), (1000, "alternating")])
def test_input_nested_too_deeply_exits_2(tmp_path, depth, kind):
    proc = run_entry_point("sample", chain_file(tmp_path / "deep.json", depth, kind), "--atoms", "3")
    err = proc.stderr.decode()
    assert_input_error(proc.returncode, proc.stdout.decode(), err)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "depth,kind,shallow",
    [
        (450, "not", '{"op": "lt", "i": 0, "j": 1}'),
        (300, "alternating", '{"op": "or", "args": [{"op": "eq", "i": 0, "j": 1}, {"op": "lt", "i": 0, "j": 1}]}'),
        (450, "alternating", '{"op": "or", "args": [{"op": "eq", "i": 0, "j": 1}, {"op": "lt", "i": 0, "j": 1}]}'),
    ],
    ids=["not450", "alternating300", "alternating450"],
)
def test_deep_formulas_sample_as_shallow_ones(tmp_path, depth, kind, shallow):
    deep = run_entry_point("sample", chain_file(tmp_path / "deep.json", depth, kind), "--atoms", "3")
    flat = run_entry_point("sample", chain_file(tmp_path / "flat.json", 0, kind, shallow), "--atoms", "3")
    assert deep.returncode == flat.returncode == 0
    assert deep.stdout == flat.stdout
    assert len(json.loads(deep.stdout)["relations"]["R"]) == (3 if kind == "not" else 6)
