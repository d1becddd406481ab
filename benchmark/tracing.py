"""Spans around the calls into each cnoma_eh layer, recorded from outside.

Each public function is replaced, for the length of a traced pass, under the
name by which its caller looks it up: ``analysis`` imported ``bessel_k0`` by
name, so patching ``specfun.bessel_k0`` alone would miss every call the
analysis makes.  A span holds a name, a start, an end and the index of its
parent span.  Spans stay in compact in-memory arrays while the pass runs and
are written out once it is over.  A span's self time is its duration minus
the durations of its child spans (``integrate`` nests inside ``integrate``).

Spans recorded in forked pool workers stay in the workers and are lost; the
caller takes worker-side counts from a ``workers=1`` pass instead.
"""

from __future__ import annotations

import time
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from cnoma_eh import analysis, montecarlo, optimizer
from cnoma_eh.errors import ToleranceNotMet
from cnoma_eh.optimizer import AlphaGridSpec


class Tracer:
    """In-memory span recorder plus exact counters taken at the same call
    boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.quadrature_error_max = 0.0

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, result)`` runs
        after the span closes, so its cost is not charged to the layer."""
        nid = self._id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        idx = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[idx] = time.perf_counter()

    @contextmanager
    def patched(self):
        """Trace every layer boundary for the length of the block, and count
        ``ToleranceNotMet`` warnings."""
        originals = []

        def patch(module, attr, name, observe=None, wrap_args=None):
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            target = fn if wrap_args is None else wrap_args(fn)
            setattr(module, attr, self.wrap(name, target, observe))

        patch(analysis, "bessel_k0", "specfun.bessel_k0")
        patch(analysis, "bessel_k1", "specfun.bessel_k1")
        patch(analysis, "gamma_upper_0_scaled", "specfun.gamma_upper_0_scaled")
        patch(analysis, "integrate", "specfun.integrate", wrap_args=self._counting_integrand)
        patch(analysis, "prob_w_exceeds", "analysis.prob_w_exceeds")
        patch(analysis, "ergodic_rate_u2", "analysis.ergodic_rate_u2", self._observe_u2)
        patch(analysis, "ergodic_weighted_sum", "analysis.ergodic_weighted_sum")
        patch(montecarlo, "solve_1d", "optimizer.solve_1d", self._observe_solve)
        patch(montecarlo, "sample_gains", "montecarlo.sample_gains", self._observe_block)
        patch(montecarlo, "estimate_optimized", "montecarlo.estimate_optimized",
              self._observe_optimized)
        patch(montecarlo, "estimate_ergodic", "montecarlo.estimate_ergodic",
              self._observe_ergodic)
        patch(optimizer, "optimal_rho_for_alpha", "optimizer.optimal_rho_for_alpha")
        patch(optimizer, "rates", "model.rates")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ToleranceNotMet)
                yield self
            self.counts["specfun.tolerance_not_met"] += sum(
                issubclass(w.category, ToleranceNotMet) for w in caught)
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # -- exact counters -------------------------------------------------------

    def _counting_integrand(self, integrate):
        counts = self.counts

        def integrate_counted(f, *args, **kwargs):
            def counted(x):
                counts["specfun.integrand_evals"] += 1
                return f(x)
            return integrate(counted, *args, **kwargs)

        return integrate_counted

    def _observe_u2(self, args, result):
        self.quadrature_error_max = max(self.quadrature_error_max, result[1])

    def _observe_solve(self, args, out):
        grid = args[2] if len(args) > 2 and args[2] is not None else AlphaGridSpec()
        c = self.counts
        c["optimizer.evaluations"] += out.evaluations
        c[f"optimizer.branch.{out.branch.value}"] += 1
        step = (1.0 - 2.0 * grid.margin) / (grid.n - 1)
        if not grid.margin + step < out.alpha_star < 1.0 - grid.margin - step:
            c["optimizer.alpha_edge_hits"] += 1

    def _observe_block(self, args, result):
        self.counts["montecarlo.sample_gains.draws"] += args[3]

    def _observe_optimized(self, args, point):
        self.counts["montecarlo.estimate_optimized.draws"] += args[0].sample_count
        self.counts["montecarlo.skipped_draws"] += point["skipped"]

    def _observe_ergodic(self, args, result):
        self.counts["montecarlo.estimate_ergodic.draws"] += args[0].sample_count

    # -- results --------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def layers(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        ids, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span (name table, name id, parent index, start, end)."""
        ids, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start, end=end)
