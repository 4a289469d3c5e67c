"""Per-layer tracing of relcore from outside the program.

`Tracer.install` replaces each public entry point listed in `WRAPPED` with a
wrapper that records a span around the call, and `Tracer.uninstall` puts the
originals back.  The replacement is made on every loaded `relcore` module
that binds the original object, so names brought in with `from ... import`
(for example `definable.canonical_form`, `gallery.sample`,
`gallery.hom_violations` and the names in `verify`) are traced too.

A span's self time is its duration minus the durations of the spans it
encloses.  `formulas.evaluate` recurses through its module-level name; the
wrapper times only the outermost call and lets the recursion run on the
original function.  Node counts (every call, recursion included) need a
wrapper on each recursive call, so they are taken in a separate counting
pass whose times are discarded.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) pairs named after the layers they belong to.
WRAPPED = (
    ("formulas", "evaluate"),
    ("definable", "sample"),
    ("definable", "induce_on_points"),
    ("definable", "point_orbits"),
    ("definable", "unlabelled_growth"),
    ("definable", "growth_up_to_reversal"),
    ("definable", "enumerate_invariant_orders"),
    ("definable", "classify_signed_lex"),
    ("finstruct", "find_hom"),
    ("finstruct", "find_noninjective_endo"),
    ("finstruct", "is_core"),
    ("finstruct", "compute_core"),
    ("finstruct", "enumerate_endos"),
    ("finstruct", "hom_violations"),
    ("finstruct", "canonical_form"),
)

EVALUATE = "formulas.evaluate"
SAMPLE = "definable.sample"
FIND_HOM = "finstruct.find_hom"
CANONICAL_FORM = "finstruct.canonical_form"


def _calls(key: str) -> str:
    # Only outermost evaluate calls are spans; each is one environment.
    return f"{key}.envs" if key == EVALUATE else f"{key}.calls"


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a traced run reports: name -> (unit, better)."""
    out = {}
    for module, name in WRAPPED:
        key = f"{module}.{name}"
        out[_calls(key)] = ("count", "lower")
        out[f"{key}.self_s"] = ("s", "lower")
        out[f"{key}.too_large"] = ("count", "lower")
    out[f"{EVALUATE}.nodes"] = ("count", "lower")
    out[f"{SAMPLE}.envs"] = ("count", "lower")
    out[f"{SAMPLE}.tuples"] = ("count", "higher")
    out[f"{SAMPLE}.tuples_per_env"] = ("ratio", "higher")
    out[f"{FIND_HOM}.found"] = ("count", "higher")
    out[f"{FIND_HOM}.found_ratio"] = ("ratio", "higher")
    out[f"{CANONICAL_FORM}.elements"] = ("count", "lower")
    out["trace.untraced_wall_s"] = ("s", "lower")
    out["trace.traced_wall_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


class Stat:
    __slots__ = ("calls", "self_s", "too_large", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.too_large = 0
        self.extra = 0


class Tracer:
    """Spans and counts for one pass; install before it, uninstall after."""

    def __init__(self, count_nodes: bool):
        self.count_nodes = count_nodes
        self.stats = {f"{m}.{n}": Stat() for m, n in WRAPPED}
        self.nodes = 0
        self.sample_envs = 0
        # Each frame is [start, child seconds, key]; the root frame is never popped.
        self.stack: list[list] = [[0.0, 0.0, ""]]
        self._patched: list[tuple[object, str, object]] = []

    def reset_stack(self) -> None:
        """Drop frames left open by a query interrupted mid-call."""
        del self.stack[1:]

    def install(self) -> None:
        from relcore import errors

        too_large = errors.TooLarge
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "relcore" or n.startswith("relcore.")]
        for module, name in WRAPPED:
            defining = sys.modules[f"relcore.{module}"]
            orig = getattr(defining, name)
            key = f"{module}.{name}"
            if key == EVALUATE:
                wrapper = self._evaluate_wrapper(defining, orig)
            else:
                wrapper = self._span_wrapper(key, orig, too_large)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _span_wrapper(self, key, orig, too_large):
        stat = self.stats[key]
        stack = self.stack
        extra = _EXTRA.get(key)

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, key]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            except too_large:
                stat.too_large += 1
                raise
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                stat.calls += 1
                stat.self_s += duration - frame[1]
                stack[-1][1] += duration
            if extra is not None:
                stat.extra += extra(args, result)
            return result

        return wrapper

    def _evaluate_wrapper(self, formulas, orig):
        stat = self.stats[EVALUATE]
        stack = self.stack
        tracer = self

        if self.count_nodes:
            depth = [0]

            def inner(phi, env, base=None):
                tracer.nodes += 1
                if depth[0]:
                    return orig(phi, env, base)
                depth[0] = 1
                try:
                    return outer(phi, env, base)
                finally:
                    depth[0] = 0

            recursion_target = inner
        else:
            inner = None
            recursion_target = orig

        def outer(phi, env, base=None):
            # While the outermost call runs, its recursion goes straight to
            # `recursion_target` through the module-level name.
            parent = stack[-1]
            start = perf_counter()
            try:
                formulas.evaluate = recursion_target
                return orig(phi, env, base)
            finally:
                duration = perf_counter() - start
                formulas.evaluate = entry
                stat.calls += 1
                stat.self_s += duration
                parent[1] += duration
                if parent[2] == SAMPLE:
                    tracer.sample_envs += 1

        entry = inner if inner is not None else outer
        return entry

    def counts(self) -> dict[str, int]:
        """Exact per-pass counts, which repeat on every pass of a seed."""
        out = {}
        for key, stat in self.stats.items():
            out[_calls(key)] = stat.calls
            out[f"{key}.too_large"] = stat.too_large
        out[f"{SAMPLE}.tuples"] = self.stats[SAMPLE].extra
        out[f"{FIND_HOM}.found"] = self.stats[FIND_HOM].extra
        out[f"{CANONICAL_FORM}.elements"] = self.stats[CANONICAL_FORM].extra
        out[f"{SAMPLE}.envs"] = self.sample_envs
        return out

    def self_times(self) -> dict[str, float]:
        return {f"{key}.self_s": stat.self_s for key, stat in self.stats.items()}


def _sample_tuples(args, result) -> int:
    return sum(len(ts) for ts in result.structure.relations.values())


def _found(args, result) -> int:
    return 0 if result is None else 1


def _elements(args, result) -> int:
    return args[0].size


_EXTRA = {SAMPLE: _sample_tuples, FIND_HOM: _found, CANONICAL_FORM: _elements}
