"""Spans and counters recorded from outside the program.

`Tracer.install` replaces public functions in the namespaces where `cli` and
`projections` look them up, and `uninstall` puts the originals back.  Each
call to a replaced function appends a span (name, parent span, start, end)
to the current operation's columns; the operation itself is span 0.  The
columns are flat lists of strings and integers, so recording a span makes
no object that the garbage collector tracks.  Self times and counts are
reduced from these spans after the operation, so the reduction costs
nothing inside the timed interval.

The profiles that `make_profile` returns are wrapped too: their `s` and
`s_prime` count calls and evaluated elements but record no span, because
`project` calls them once per vertex.  Each span also counts the profile
calls made while it is the innermost one.

The wrappers cost time of their own, and `reduce` takes it out again.
`install` times a wrapped empty function against the bare one: the part of
a span's fixed cost that falls between its start and end is taken from the
span's own self time, the rest from its parent's, and the cost of a counted
profile call from the span that made it.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

# (module attribute of conicmaps, names looked up there at call time)
PATCH_POINTS = (
    ("cli", (
        "build_parser",
        "graticule",
        "parse_geojson_lines",
        "project_polylines",
        "render_svg",
        "make_profile",
        "compare_all",
        "stretch_at",
        "annulus_distortion",
        "optimal_alpha_by_root",
        "optimal_alpha_by_scan",
    )),
    ("projections", (
        "make_profile",
        "profile_distortion",
        "optimal_alpha_by_root",
        "lambert_chart",
    )),
)

# Results worth keeping, reduced to the number the checks compare.
NOTES = {
    "geodata.parse_geojson_lines": lambda parsed: parsed.ignored,
    "geodata.project_polylines": lambda projected: projected.dropped,
}


# Calls per timing loop, and loops whose median gives the tracer's own cost.
COST_CALLS = 2000
COST_REPEATS = 5


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _empty(x):
    return x


def _loop_ns(fn, calls: int) -> int:
    start = perf_counter_ns()
    for i in range(calls):
        fn(i)
    return perf_counter_ns() - start


class Tracer:
    def __init__(self, package):
        self.package = package
        self.op_id = -1
        # Span columns, cleared in place by `begin` because the wrappers
        # hold on to them.
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.profile_calls = []  # profile calls made while the span is innermost
        self.stack = [0]
        self.profile_elems = 0
        self.notes = defaultdict(list)
        self._saved = []
        # The tracer's own cost in ns, set by measure_cost.
        self.span_inside_ns = self.span_outside_ns = self.profile_call_ns = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.measure_cost()
        wrappers = {}
        for module_name, names in PATCH_POINTS:
            module = getattr(self.package, module_name)
            for name in names:
                original = getattr(module, name)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original)
                self._saved.append((module, name, original))
                setattr(module, name, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def measure_cost(self) -> None:
        """Time wrapped empty functions against the bare one."""
        traced, counted = self._wrap(_empty), self._count(_empty)
        bare, spans, inside, profile = [], [], [], []
        for _ in range(COST_REPEATS):
            self.begin(-1, "cost")
            bare.append(_loop_ns(_empty, COST_CALLS) / COST_CALLS)
            spans.append(_loop_ns(traced, COST_CALLS) / COST_CALLS)
            inside.append((sum(self.ends[1:]) - sum(self.starts[1:])) / COST_CALLS)
            profile.append(_loop_ns(counted, COST_CALLS) / COST_CALLS)
        bare_ns = median(bare)
        span_ns = median(spans) - bare_ns
        self.span_inside_ns = median(inside) - bare_ns
        self.span_outside_ns = span_ns - self.span_inside_ns
        self.profile_call_ns = median(profile) - bare_ns

    def _wrap(self, fn):
        name = span_name(fn)
        note = NOTES.get(name)
        if fn.__name__ == "make_profile":
            fn = self._counting_profiles(fn)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        profile_calls, stack = self.profile_calls, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            profile_calls.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if note is not None:
                self.notes[name].append(note(result))
            return result

        return traced

    def _count(self, f):
        profile_calls, stack = self.profile_calls, self.stack

        def counted(e):
            profile_calls[stack[-1]] += 1
            self.profile_elems += getattr(e, "size", 1)
            return f(e)

        return counted

    def _counting_profiles(self, make_profile):
        @functools.wraps(make_profile)
        def counting(*args, **kwargs):
            profile = make_profile(*args, **kwargs)
            return dataclasses.replace(
                profile, s=self._count(profile.s), s_prime=self._count(profile.s_prime)
            )

        return counting

    # -- per operation ----------------------------------------------------

    def begin(self, op_id: int, name: str) -> None:
        self.op_id = op_id
        for column, first in ((self.names, name), (self.parents, -1), (self.ends, 0),
                              (self.profile_calls, 0), (self.stack, 0)):
            column[:] = [first]
        self.profile_elems = 0
        self.starts[:] = [perf_counter_ns()]

    def end(self) -> None:
        self.ends[0] = perf_counter_ns()

    def spans(self) -> list:
        """The current operation's spans as rows (name, parent, start, end,
        profile calls)."""
        return [list(row) for row in zip(self.names, self.parents, self.starts,
                                         self.ends, self.profile_calls)]

    def reduce(self) -> dict:
        """Per-name self time (ns) and call count of the current operation,
        without the tracer's own cost.

        The operation span is reported under the name "op".
        """
        names, parents = self.names, self.parents
        self_ns = [end - start - calls * self.profile_call_ns
                   for start, end, calls in zip(self.starts, self.ends, self.profile_calls)]
        for i in range(1, len(names)):
            self_ns[parents[i]] -= self.ends[i] - self.starts[i] + self.span_outside_ns
            self_ns[i] -= self.span_inside_ns
        out = defaultdict(lambda: [0, 0])
        out["op"] = [self_ns[0], 1]
        for i in range(1, len(names)):
            out[names[i]][0] += self_ns[i]
            out[names[i]][1] += 1
        # compare_all is reported inclusive: its self time is only the loop
        # around make_profile and profile_distortion.  Children follow their
        # parent in the columns, so one backward pass sums each subtree.
        total_ns = list(self_ns)
        for i in range(len(names) - 1, 0, -1):
            total_ns[parents[i]] += total_ns[i]
            if names[i] == "projections.compare_all":
                out["projections.compare_all.total"][0] += total_ns[i]
        out["op.total"] = [total_ns[0], 1]
        out["projections.profile_calls"] = [sum(self.profile_calls), 0]
        out["projections.profile_elems"] = [self.profile_elems, 0]
        return dict(out)
