"""Spans and counts at the library's module boundaries, recorded from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds the
module attributes the library actually calls (``_simulate`` is imported by
name into both ``mc`` and ``bonds``; ``money_market`` and ``_draw_normals``
are looked up in ``robustrates.paths``; ``sigma_table`` and ``step_sigma``
are methods of the scenario classes) and ``uninstall`` puts the originals
back.  A boundary whose name no longer exists is recorded as absent, and
every metric built on it is reported as absent rather than as zero.

Spans are ``[name, start, end, parent index, operation id]`` and stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: name, unit, better, boundaries it needs; the per-layer metrics in order
LAYER_METRICS = (
    ("paths.simulate.self_s", "s", "lower", ("paths.simulate",)),
    ("paths.simulate.calls", "count", "lower", ("paths.simulate",)),
    ("paths.draw_normals.s", "s", "lower", ("paths.draw_normals",)),
    ("paths.normals_drawn", "count", "lower", ("paths.draw_normals",)),
    ("paths.money_market.s", "s", "lower", ("paths.money_market",)),
    ("paths.array_bytes", "bytes-computed", "lower", ("paths.simulate", "paths.draw_normals")),
    ("scenarios.sigma_table.s", "s", "lower", ("scenarios.sigma_table",)),
    ("scenarios.step_sigma.s", "s", "lower", ("scenarios.step_sigma",)),
    ("scenarios.step_sigma.calls", "count", "lower", ("scenarios.step_sigma",)),
    ("mc.scenario_functional_values.self_s", "s", "lower", ("mc.scenario_functional_values",)),
    ("mc.functional.s", "s", "lower", ("mc.scenario_functional_values",)),
    ("mc.chunks", "count", "lower", ("mc.scenario_functional_values",)),
    ("mc.normals_reuse_ratio", "1", "higher", ("paths.draw_normals",)),
    ("bonds.noarb_gap.self_s", "s", "lower", ("bonds.noarb_gap",)),
    ("bonds.martingale_check.self_s", "s", "lower", ("bonds.martingale_check",)),
    ("bonds.a_robust.s", "s", "lower", ("bonds.a_robust",)),
    ("bonds.a_robust.calls", "count", "lower", ("bonds.a_robust",)),
    ("gheat.solve_gheat.s", "s", "lower", ("gheat.solve_gheat",)),
    ("gheat.node_updates", "count", "lower", ("gheat.solve_gheat",)),
    ("gheat.sweep_bytes", "bytes-computed", "lower", ("gheat.solve_gheat",)),
    ("trace.overhead_s", "s", "lower", ()),
    ("process.import_s", "s", "lower", ()),
)

#: span name -> (defining module, attribute) for module-level functions
_FUNCTIONS = {
    "paths.simulate": ("robustrates.paths", "_simulate"),
    "paths.draw_normals": ("robustrates.paths", "_draw_normals"),
    "paths.money_market": ("robustrates.paths", "money_market"),
    "mc.scenario_functional_values": ("robustrates.mc", "scenario_functional_values"),
    "bonds.noarb_gap": ("robustrates.bonds", "noarb_gap"),
    "bonds.martingale_check": ("robustrates.bonds", "martingale_check"),
    "bonds.a_robust": ("robustrates.bonds", "a_robust"),
    "gheat.solve_gheat": ("robustrates.gheat", "solve_gheat"),
}
#: span name -> method name on the scenario classes
_METHODS = {
    "scenarios.sigma_table": "sigma_table",
    "scenarios.step_sigma": "step_sigma",
}


def _rng_fingerprint(rng) -> str:
    return repr(rng.bit_generator.state)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)  # (op, name) -> total
        self.maxima: dict = defaultdict(float)  # (op, name) -> largest value
        self.absent: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._normal_keys: set = set()

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def operation(self):
        """Root span of one benchmark operation; later spans belong to it."""
        self.op += 1
        self._normal_keys = set()
        return self.span("op")

    def count(self, name: str, n: float) -> None:
        self.counts[(self.op, name)] += n

    def peak(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.maxima[key] = max(self.maxima[key], value)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _wrap_draw_normals(self, fn):
        @functools.wraps(fn)
        def traced(rng, *args, **kwargs):
            key = (_rng_fingerprint(rng), args, tuple(sorted(kwargs.items())))
            with self.span("paths.draw_normals"):
                z = fn(rng, *args, **kwargs)
            self.count("paths.normals_drawn", z.size)
            if key not in self._normal_keys:
                self._normal_keys.add(key)
                self.count("paths.normals_distinct", z.size)
            self.peak("paths.normals_bytes", z.nbytes)
            return z

        return traced

    def _wrap_functional_values(self, fn):
        def traced_functional(functional):
            def call(bundle):
                with self.span("mc.functional"):
                    out = functional(bundle)
                self.count("mc.chunks", 1)
                return out

            return call

        @functools.wraps(fn)
        def traced(functional, *args, **kwargs):
            with self.span("mc.scenario_functional_values"):
                return fn(traced_functional(functional), *args, **kwargs)

        return traced

    def _after_simulate(self, bundle, args, kwargs):
        self.count("paths.simulate.calls", 1)
        arrays = (bundle.sigma, bundle.b, bundle.qv, bundle.lam, bundle.r, bundle.d)
        self.peak("paths.bundle_bytes", sum(a.nbytes for a in arrays if a is not None))

    def _after_solve_gheat(self, solution, args, kwargs):
        grid = solution.grid
        self.count("gheat.node_updates", grid.nx * grid.nt)
        # one read and one write of the nx-node state per time level
        self.count("gheat.sweep_bytes", 2 * 8 * grid.nx * grid.nt)

    def _counter(self, name):
        return lambda out, args, kwargs: self.count(name, 1)

    def _make(self, name: str, fn):
        if name == "paths.draw_normals":
            return self._wrap_draw_normals(fn)
        if name == "mc.scenario_functional_values":
            return self._wrap_functional_values(fn)
        after = {
            "paths.simulate": self._after_simulate,
            "gheat.solve_gheat": self._after_solve_gheat,
            "bonds.a_robust": self._counter("bonds.a_robust.calls"),
            "scenarios.step_sigma": self._counter("scenarios.step_sigma.calls"),
        }.get(name)
        return self._wrap(name, fn, after)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Rebind every boundary; names that no longer exist become absent."""
        modules = [m for n, m in sys.modules.items() if n == "robustrates" or n.startswith("robustrates.")]
        for name, (mod_name, attr) in _FUNCTIONS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(original):
                self.absent.add(name)
                continue
            traced = self._make(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, traced)
        scen = sys.modules.get("robustrates.scenarios")
        base = getattr(scen, "ScenarioSpec", None)
        classes = [
            c for c in vars(scen).values() if isinstance(c, type) and issubclass(c, base)
        ] if isinstance(base, type) else []
        for name, attr in _METHODS.items():
            owners = [c for c in classes if callable(c.__dict__.get(attr))]
            if not owners:
                self.absent.add(name)
            for cls in owners:
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ metrics

    def _child_totals(self) -> dict[int, float]:
        child_total: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        return child_total

    def nesting_problems(self) -> list[str]:
        """Children must lie inside their parent and sum to at most its length."""
        problems = []
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if end is None or end < start:
                return [f"span {i} ({name}) has no valid end"]
            p = self.spans[parent] if parent >= 0 else None
            if p is not None and (start < p[1] or end > p[2] or op != p[4]):
                problems.append(f"span {i} ({name}) lies outside its parent {parent} ({p[0]})")
        for i, total in self._child_totals().items():
            if total > self.spans[i][2] - self.spans[i][1]:
                problems.append(f"children of span {i} ({self.spans[i][0]}) exceed it")
        return problems

    def per_op(self) -> dict[int, dict[str, float]]:
        """Layer metrics of each traced operation (absent ones left out)."""
        child_total = self._child_totals()
        total = defaultdict(float)  # (op, span name) -> summed duration
        self_time = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            total[(op, name)] += end - start
            self_time[(op, name)] += end - start - child_total[i]

        absent = self.absent_metrics()
        out = {}
        for op in range(self.op + 1):
            c = lambda name: self.counts.get((op, name), 0.0)  # noqa: E731
            m = {
                "paths.simulate.self_s": self_time[(op, "paths.simulate")],
                "paths.simulate.calls": c("paths.simulate.calls"),
                "paths.draw_normals.s": total[(op, "paths.draw_normals")],
                "paths.normals_drawn": c("paths.normals_drawn"),
                "paths.money_market.s": total[(op, "paths.money_market")],
                "paths.array_bytes": self.maxima.get((op, "paths.bundle_bytes"), 0.0)
                + self.maxima.get((op, "paths.normals_bytes"), 0.0),
                "scenarios.sigma_table.s": total[(op, "scenarios.sigma_table")],
                "scenarios.step_sigma.s": total[(op, "scenarios.step_sigma")],
                "scenarios.step_sigma.calls": c("scenarios.step_sigma.calls"),
                "mc.scenario_functional_values.self_s": self_time[(op, "mc.scenario_functional_values")],
                "mc.functional.s": total[(op, "mc.functional")],
                "mc.chunks": c("mc.chunks"),
                # nothing drawn means no draw was redundant
                "mc.normals_reuse_ratio": c("paths.normals_distinct") / c("paths.normals_drawn")
                if c("paths.normals_drawn") else 1.0,
                "bonds.noarb_gap.self_s": self_time[(op, "bonds.noarb_gap")],
                "bonds.martingale_check.self_s": self_time[(op, "bonds.martingale_check")],
                "bonds.a_robust.s": total[(op, "bonds.a_robust")],
                "bonds.a_robust.calls": c("bonds.a_robust.calls"),
                "gheat.solve_gheat.s": total[(op, "gheat.solve_gheat")],
                "gheat.node_updates": c("gheat.node_updates"),
                "gheat.sweep_bytes": c("gheat.sweep_bytes"),
            }
            out[op] = {k: v for k, v in m.items() if k not in absent}
        return out

    def absent_metrics(self) -> set[str]:
        return {name for name, _, _, needs in LAYER_METRICS if self.absent.intersection(needs)}

    def medians(self) -> dict[str, float]:
        """Median over the traced operations of each layer metric."""
        rows = list(self.per_op().values())
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
