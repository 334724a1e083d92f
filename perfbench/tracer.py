"""Span tracer that instruments rootcal from outside the package.

Each wrapper is installed at the name its caller looks up.  ``engine``
imports ``fit``, ``posterior``, ``posterior_grad``, ``optimize``,
``select_incumbent``, ``acq_value`` and ``acq_gradient`` by name, so those
are patched on ``rootcal.engine``; ``select_incumbent`` reaches
``posterior`` through ``rootcal.acquisition``; ``fit`` reaches
``log_marginal_likelihood`` and ``kernel_matrix`` through
``rootcal.metamodel``.  Nothing inside the package is edited, and wrappers
only time and count: they never change an argument, a result or an RNG
stream, so a traced run produces the same bytes as an untraced one.

Spans are kept in memory as ``(parent, name, start, end)`` with the parent
as an index into the same list (-1 at the root), and are written out after
the measurement.  Counts are taken from arguments at the layer boundary
(``reps``, ``post_reps``, the objective callable handed to ``optimize``)
rather than from inner calls, so they keep their meaning when a later
version batches the draws or fuses the posterior with its gradient.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

# caller function name -> posterior call category, for rootcal.engine.posterior
_POSTERIOR_CALLERS = {"objective": "objective", "_active_box": "rss"}


class Tracer:
    def __init__(self):
        self.spans = []  # span id = index; (parent id, name, start, end)
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []

    def traced(self, fn, name, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` runs outside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, on_calibration=None):
        """Patch rootcal's entry points; `on_calibration(trace)` sees each result."""
        from rootcal import acquisition, cli, core, engine, metamodel, rss

        counts = self.counts

        def arg(args, kwargs, pos, key):
            return args[pos] if len(args) > pos else kwargs[key]

        def design_reps(args, kwargs, _):
            counts["simulators.design_reps"] += arg(args, kwargs, 2, "reps")

        def post_reps(args, kwargs, _):
            counts["simulators.post_reps"] += arg(args, kwargs, 2, "post_reps")

        def lml(args, kwargs, value):
            if value == -math.inf:
                counts["metamodel.lml_neg_inf"] += 1

        def degenerate(args, kwargs, result):
            if result[1] is None:
                counts["acqopt.degenerate"] += 1

        def shrink(args, kwargs, sub):
            if sub is not None:
                counts["rss.shrinks"] += 1

        def calibration(args, kwargs, trace):
            if on_calibration is not None:
                on_calibration(trace)

        run = self.traced(engine.run_calibration, "engine.run_calibration", calibration)
        opt = self.traced(engine.optimize, "acqopt.optimize")

        def optimize(objective, *args, **kwargs):
            return opt(self.traced(objective, "acqopt.objective", degenerate),
                       *args, **kwargs)

        post_engine = self.traced(engine.posterior, "metamodel.posterior")

        def posterior(model, theta):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # comprehension frames
                frame = frame.f_back
            caller = _POSTERIOR_CALLERS.get(frame.f_code.co_name, "other")
            counts["metamodel.posterior." + caller] += 1
            return post_engine(model, theta)

        post_incumbent = self.traced(acquisition.posterior, "metamodel.posterior")

        def posterior_incumbent(model, theta):
            counts["metamodel.posterior.incumbent"] += 1
            return post_incumbent(model, theta)

        table = [
            (engine, "run_calibration", run),
            (engine, "initial_design",
             self.traced(engine.initial_design, "engine.initial_design")),
            (engine, "evaluate_point",
             self.traced(engine.evaluate_point, "engine.evaluate_point", design_reps)),
            (engine, "post_evaluate",
             self.traced(engine.post_evaluate, "engine.post_evaluate", post_reps)),
            (engine, "fit", self.traced(engine.fit, "metamodel.fit")),
            (engine, "posterior", posterior),
            (engine, "posterior_grad",
             self.traced(engine.posterior_grad, "metamodel.posterior_grad")),
            (engine, "select_incumbent",
             self.traced(engine.select_incumbent, "acquisition.select_incumbent")),
            (engine, "acq_value", self.traced(engine.acq_value, "acquisition.acq_value")),
            (engine, "acq_gradient",
             self.traced(engine.acq_gradient, "acquisition.acq_gradient")),
            (engine, "optimize", optimize),
            (acquisition, "posterior", posterior_incumbent),
            (metamodel, "log_marginal_likelihood",
             self.traced(metamodel.log_marginal_likelihood,
                         "metamodel.log_marginal_likelihood", lml)),
            (metamodel, "kernel_matrix",
             self.traced(metamodel.kernel_matrix, "kernel.kernel_matrix")),
            (rss, "rss_stochastic",
             self.traced(rss.rss_stochastic, "rss.rss_stochastic", shrink)),
            (rss, "rss_deterministic",
             self.traced(rss.rss_deterministic, "rss.rss_deterministic", shrink)),
            (rss, "sign_change_prob",
             self.traced(rss.sign_change_prob, "rss.sign_change_prob")),
            (core.RngStream, "generator",
             self.traced(core.RngStream.generator, "core.RngStream.generator")),
            (cli, "load_config", self.traced(cli.load_config, "cli.load_config")),
            (cli, "_write_csv", self.traced(cli._write_csv, "cli.write_csv")),
            (cli, "macro_sweep", self.traced(cli.macro_sweep, "engine.macro_sweep")),
        ]
        for owner, attr, replacement in table:
            self._patch(owner, attr, replacement)
        return self

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self):
        """Per span name: calls, busy seconds and self seconds (busy minus direct children)."""
        children = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, (_, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - children[sid]
        return calls, busy, own, children

    def write(self, path):
        """Write spans as [parent, name index, start us, end us] relative to the first span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[p, index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                for p, n, s, e in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "counts": dict(self.counts), "spans": rows}, fh,
                      separators=(",", ":"))
