"""Span tracer for the per-layer run, and the wrappers that feed it.

Spans are recorded from the benchmark's own side: ``instrument`` replaces
public functions of ``ncfree`` with timed wrappers in every ncfree module
that imported them, so calls between modules are seen too.  The library
itself is not changed.  A traced pass runs in its own process, which exits
when the pass ends, so nothing is ever un-patched.

Every closed span is aggregated per (name, parent name) into calls, total
seconds and self seconds; self time is the span's duration minus the time
its direct child spans cover.  Raw spans (id, parent id, name, start, end)
are also kept, but only the first ``SPAN_CAP`` of them: the cumulant
recursion opens millions of spans, and the aggregates carry the totals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 200_000

ENUM = ("annular.enumerate_nc", "annular.enumerate_snc", "annular.enumerate_psnc")
COMPLEMENT = ("annular.kreweras_cycle_ids",)
JOIN = ("perm.partition_join", "perm.orbit_partition")
POLY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
POLY = tuple(f"spaces.poly.{m}" for m in POLY_METHODS + ("sum",))
MOMENT = ("spaces.phi", "spaces.phi2")


class Tracer:
    """Nested spans, memo-key bookkeeping and plain counters."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child seconds, id, parent frame, start]
        self.next_id = 0
        self.seen: dict[str, set] = defaultdict(set)  # memo keys met so far, per function
        self.reset()

    def reset(self) -> None:
        """Forget spans and counts, keeping the memo keys already seen."""
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, seconds, self seconds]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.hits: Counter = Counter()
        self.counts: Counter = Counter()

    def forget_keys(self, names) -> None:
        """The memos behind ``names`` were emptied: their keys are new again."""
        for name in names:
            self.seen.pop(name, None)

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        frame = [name, 0.0, self.next_id, parent, time.perf_counter()]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, child, span_id, parent, start = frame
        duration = end - start
        if parent is None:
            parent_name, parent_id = "", -1
        else:
            parent[1] += duration
            parent_name, parent_id = parent[0], parent[2]
        entry = self.agg.get((name, parent_name))
        if entry is None:
            entry = self.agg[(name, parent_name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one top-level call."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn, key=None, on_miss=None):
        """A timed stand-in for ``fn``.

        With ``key``, each call's memo key is computed from its arguments; a
        key met before counts as a memo hit.  ``on_miss`` gets the result of
        every call whose key was new.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            miss = False
            if key is not None:
                k = key(*args, **kwargs)
                seen = self.seen[name]
                if k in seen:
                    self.hits[name] += 1
                else:
                    seen.add(k)
                    miss = True
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if miss and on_miss is not None:
                on_miss(result)
            return result

        return traced

    # -- queries --------------------------------------------------------

    def calls(self, names, parent: str | None = None) -> int:
        return sum(
            e[0] for (n, p), e in self.agg.items() if n in names and (parent is None or p == parent)
        )

    def self_seconds(self, names) -> float:
        return sum(e[2] for (n, _), e in self.agg.items() if n in names)

    def hit_ratio(self, names) -> float:
        calls = self.calls(names)
        return sum(self.hits[n] for n in names) / calls if calls else 0.0

    def dump(self, path: str) -> None:
        rows = [
            {"name": n, "parent": p, "calls": e[0], "seconds": e[1], "self_seconds": e[2]}
            for (n, p), e in sorted(self.agg.items())
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "aggregate": rows,
                    "spans_fields": ["id", "parent_id", "name", "start", "end"],
                    "spans": self.spans,
                    "spans_dropped": self.dropped,
                },
                handle,
            )


def _norm(args) -> tuple:
    return tuple(tuple(w) for w in args)


def _replace_everywhere(original, traced) -> None:
    """Point every ncfree module's binding of ``original`` at ``traced``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ncfree" or mod_name.startswith("ncfree."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer.

    ``ncfree.draw`` is left alone: it lies on no hot path.  ``verify`` and
    ``cli`` are measured by the spans the workloads open around each check
    and each command.
    """
    from ncfree import annular, cumulants, perm, spaces

    def count_elements(result) -> None:
        tracer.counts["annular.enum.elements"] += len(result)

    enum_keys = {
        "enumerate_nc": lambda n, bound=None: n,
        "enumerate_snc": lambda shape, bound=None: (shape.p, shape.q),
        "enumerate_psnc": lambda shape, bound=None: (shape.p, shape.q),
    }
    for attr, key in enum_keys.items():
        original = getattr(annular, attr)
        _replace_everywhere(original, tracer.wrap(f"annular.{attr}", original, key, count_elements))

    original = annular.kreweras_cycle_ids
    _replace_everywhere(original, tracer.wrap("annular.kreweras_cycle_ids", original))

    for attr in ("partition_join", "orbit_partition"):
        original = getattr(perm, attr)
        _replace_everywhere(original, tracer.wrap(f"perm.{attr}", original))

    cumulant_keys = {
        "kappa_n": lambda model, args: (model.name, _norm(args)),
        "kappa_pq": lambda model, a1, a2: (model.name, _norm(a1), _norm(a2)),
        "kappa_vp": lambda model, args, vp: (model.name, _norm(args), vp),
    }
    for attr, key in cumulant_keys.items():
        original = getattr(cumulants, attr)
        _replace_everywhere(original, tracer.wrap(f"cumulants.{attr}", original, key))
    for attr in ("main_product_cumulant", "oracle_product_cumulant", "ks_product_cumulant", "haar_kappa_pq"):
        original = getattr(cumulants, attr)
        _replace_everywhere(original, tracer.wrap(f"cumulants.{attr}", original))

    poly = spaces.CumulantPolynomial
    wrapped = {}
    for method in POLY_METHODS:
        original = poly.__dict__[method]
        if original not in wrapped:  # __radd__ and __rmul__ alias __add__ and __mul__
            wrapped[original] = tracer.wrap(f"spaces.poly.{method}", original)
        setattr(poly, method, wrapped[original])
    poly.sum = classmethod(tracer.wrap("spaces.poly.sum", poly.__dict__["sum"].__func__))

    # Moment oracles: same name (the cumulant memos are keyed by it), timed
    # phi and phi2.  Every accessor of a model space returns the wrapped one.
    for attr in ("semicircular_space", "haar_unitary_space", "formal_moment_space"):
        accessor = getattr(spaces, attr)
        model = accessor()
        traced_model = spaces.MomentOracle(
            model.name,
            tracer.wrap("spaces.phi", model.phi),
            tracer.wrap("spaces.phi2", model.phi2),
        )
        _replace_everywhere(accessor, functools.wraps(accessor)(lambda m=traced_model: m))
