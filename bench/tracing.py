"""Per-layer timing and counting, installed from outside the program.

Wrappers go on the module-level names that callers look up at call time
(``attractor.compare``, ``cli.estimate_area``, ...), so the program's own
files stay untouched.  Each wrapper records a span; a span's self time is
its duration minus the time its child spans cover.  ``restore`` puts every
original function back.

Times are raw seconds summed over a pass.  Ratios: hole_hit_ratio is the
share of hole tests that return True, dedup_ratio is distinct regions over
words.  refine_rounds is how far the lambda or theta interval is bisected
inside the library calls.  A layer that a workload does not reach reads 0.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

from goldengasket import attractor, cli, geometry, separation
from goldengasket.exact import AlgebraicNumber


class Tracer:
    def __init__(self):
        self._stack = []
        self._saved = []
        self._scalar = None
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def wrap(self, name, fn, before=None, after=None, within=None):
        """``fn`` timed as span ``name``; with ``within``, only while a
        span of that name is open."""

        def wrapper(*args, **kwargs):
            if within is not None and not any(n == within for n, _ in self._stack):
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            frame = [0.0]
            self._stack.append((name, frame))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                if self._stack:
                    self._stack[-1][1][0] += dt
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def _patch(self, module, attr, name, before=None, after=(), within=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        signature = inspect.signature(original)

        def run_hooks(args, kwargs, result, state):
            def arguments():
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments

            for hook in after:
                hook(arguments, result, state)

        hooks = run_hooks if after else None
        setattr(module, attr, self.wrap(name, original, before, hooks, within))

    def install(self):
        """Wrap the public entry points of every measured layer."""
        patch = self._patch
        patch(attractor, "compare", "exact.compare")
        patch(geometry, "compare", "exact.compare")
        patch(attractor, "scalar_ceil", "exact.ceil")
        patch(attractor, "hole_meets_region", "geometry.hole_test",
              after=(self._count_hit,))
        patch(attractor, "build_level", "attractor.level",
              after=(self._count_level,))
        patch(attractor, "classify_holes", "attractor.classify",
              after=(self._count_holes,))
        patch(separation, "ell_upper", "separation.search")
        patch(separation, "scalar_sign", "separation.leaf_sign",
              within="separation.search")
        patch(separation, "compare", "separation.leaf_compare",
              within="separation.search")
        patch(cli, "parse_ratio_token", "cli.parse", after=(self._keep_scalar,))
        patch(cli, "parse_theta_token", "cli.parse", after=(self._keep_scalar,))
        # The library calls of the subcommands.  What a job spends outside
        # them and outside parsing is the front end's own work.
        refines = dict(before=self._generation, after=(self._count_refines,))
        patch(cli, "estimate_area", "attractor.area", before=self._generation,
              after=(self._count_refines, self._count_grid))
        patch(cli, "classify_holes", "attractor.classify", before=self._generation,
              after=(self._count_refines, self._count_holes))
        patch(cli, "check_total_self_similarity", "cli.selfsim", **refines)
        patch(cli, "separation_bound_check", "cli.separation_check", **refines)
        patch(cli, "ell_upper", "separation.search", **refines)
        patch(cli, "converse_witness", "cli.witness", **refines)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_job(self, main, argv):
        """``main(argv)`` as one job span."""
        self._scalar = None
        return self.wrap("cli.job", main)(argv)

    # -- hooks

    def _count_hit(self, arguments, result, state):
        self.counts["hole_hits"] += bool(result)

    def _count_level(self, arguments, result, state):
        a = arguments()
        self.counts["words"] += (a["d"] + 1) ** a["n"]
        self.counts["regions"] += len(result.regions)

    def _count_holes(self, arguments, result, state):
        self.counts["candidates"] += len(result.candidates)
        self.counts["violations"] += len(result.violations)

    def _count_grid(self, arguments, result, state):
        self.counts["grid_cells"] += arguments()["resolution"] ** 2

    def _keep_scalar(self, arguments, result, state):
        # lambda or theta of the current job, when it is irrational
        if isinstance(result, AlgebraicNumber):
            self._scalar = result

    def _generation(self, args, kwargs):
        return None if self._scalar is None else self._scalar.generation

    def _count_refines(self, arguments, result, state):
        if state is not None:
            self.counts["refine_rounds"] += self._scalar.generation - state

    # -- per-layer metrics of everything recorded since the last reset

    def layer_metrics(self):
        c, t = self.counts, self.total
        tests = self.calls["geometry.hole_test"]
        return {
            "exact.compare_calls": self.calls["exact.compare"],
            "exact.compare_s": t["exact.compare"],
            "exact.ceil_calls": self.calls["exact.ceil"],
            "exact.ceil_s": t["exact.ceil"],
            "exact.refine_rounds": c["refine_rounds"],
            "geometry.hole_tests": tests,
            "geometry.hole_hit_ratio": c["hole_hits"] / tests if tests else 0.0,
            "geometry.hole_test_s": t["geometry.hole_test"],
            "attractor.words": c["words"],
            "attractor.regions": c["regions"],
            "attractor.dedup_ratio": c["regions"] / c["words"] if c["words"] else 0.0,
            "attractor.level_s": t["attractor.level"],
            # build_level runs only inside estimate_area in these workloads.
            "attractor.grid_s": t["attractor.area"] - t["attractor.level"],
            "attractor.grid_cells": c["grid_cells"],
            "attractor.classify_s": t["attractor.classify"],
            "attractor.classify_self_s": t["attractor.classify"] - t["geometry.hole_test"],
            "attractor.candidates": c["candidates"],
            "attractor.violations": c["violations"],
            "separation.search_s": t["separation.search"],
            "separation.leaf_evals": self.calls["separation.leaf_sign"],
            "separation.leaf_compares": self.calls["separation.leaf_compare"],
            "separation.leaf_sign_s": t["separation.leaf_sign"],
            "cli.parse_s": t["cli.parse"],
            "cli.emit_s": self.self_time["cli.job"],
        }
