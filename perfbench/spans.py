"""Span tracer installed from outside the package.

Each traced call records a span (name, start, end, parent, job id).
Spans are kept in memory for the current job and folded into per-name
self times and counters when the job ends.  A span's self time is its
duration minus the intervals its child spans cover, where a child's
interval also covers the tracer's own bookkeeping after the call, so
the counting done here is not charged to the parent layer.

Wrappers are installed over every binding of a target function inside
the ``bol`` package (``from .x import y`` copies the name into each
importing module), over class attributes for methods, and over the
callables carried by each Young and weight function the package builds.
``installed()`` restores every original binding on exit.
"""

import contextlib
import dataclasses
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "cover_end", "child")

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.cover_end = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.job_id = None
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, self.job_id, parent, perf_counter())
        self.stack.append(sp)
        return sp

    def close(self, sp):
        sp.end = perf_counter()
        self.stack.pop()

    def settle(self, sp):
        """Mark the end of the bookkeeping that followed a span's call."""
        sp.cover_end = perf_counter()
        if sp.parent is not None:
            sp.parent.child += sp.cover_end - sp.start
        self.spans.append(sp)

    def add(self, key, amount):
        self.counts[key] += amount

    @property
    def active(self):
        return self.job_id is not None

    @contextlib.contextmanager
    def job(self, job_id, root=None):
        """Record spans for one job; ``root`` names a span around the whole job."""
        self.job_id = job_id
        sp = self.open(root) if root else None
        try:
            yield
        finally:
            if sp is not None:
                self.close(sp)
                self.settle(sp)
            self.stack.clear()
            self.job_id = None
            self._fold()

    def _fold(self):
        for sp in self.spans:
            self.self_s[sp.name] += (sp.end - sp.start) - sp.child
            self.calls[sp.name] += 1
        self.spans = []

    def take(self):
        """Return and reset (self seconds, call counts, counters)."""
        out = (dict(self.self_s), dict(self.calls), dict(self.counts))
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out


def traced(tracer, name, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before(args, kwargs)`` runs ahead of the call
    and its result goes to ``after(sp, args, kwargs, result, state)``, which
    may return a replacement result."""
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before else None
        sp = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sp)
        if after is not None:
            replaced = after(sp, args, kwargs, result, state)
            if replaced is not None:
                result = replaced
        tracer.settle(sp)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# -- what is traced -------------------------------------------------------------

def _size(args):
    return int(np.size(args[0])) if args else 0


def _instrument_young(tracer, obj):
    """Copy of a YoungFunction / WeightFunction whose callables are traced."""
    from bol.young import WeightFunction, YoungFunction

    if getattr(obj, "_bench_traced", False):
        return None

    def counted(name, fn, values_key=None):
        if fn is None:
            return None

        def after(sp, args, kwargs, result, state):
            tracer.add(values_key, _size(args))
        return traced(tracer, name, fn, after=after if values_key else None)

    if isinstance(obj, YoungFunction):
        new = dataclasses.replace(
            obj,
            eval=counted("young.eval", obj.eval, "young.eval_values"),
            inv=counted("young.inv", obj.inv),
            log_inv=counted("young.log", obj.log_inv, "young.log_values"),
        )
    elif isinstance(obj, WeightFunction):
        new = dataclasses.replace(
            obj,
            eval=counted("young.eval", obj.eval, "young.eval_values"),
            log_eval=counted("young.log", obj.log_eval, "young.log_values"),
        )
    else:
        return None
    object.__setattr__(new, "_bench_traced", True)
    return new


def _targets(tracer):
    """(module, attribute, span name, before, after) for every traced function."""
    import bol.besov
    import bol.condition
    import bol.corpus
    import bol.evidence
    import bol.grid
    import bol.molecules
    import bol.orlicz
    import bol.young

    def young_factory(sp, args, kwargs, result, state):
        return _instrument_young(tracer, result)

    def lux_after(sp, args, kwargs, result, state):
        vals = args[0].values if isinstance(args[0], bol.grid.GridFunction) \
            else np.asarray(args[0], dtype=np.float64)
        a = np.abs(vals[vals != 0.0])
        tracer.add("orlicz.bisection_iters", result.iterations)
        tracer.add("orlicz.luxemburg_values", a.size)
        tracer.add("orlicz.luxemburg_distinct", np.unique(a).size)

    def sup_before(args, kwargs):
        return args[0].evaluated

    def sup_after(sp, args, kwargs, result, state):
        added = args[0].evaluated - state
        tracer.add("orlicz.shifts_evaluated", added)
        tracer.add("orlicz.sup_reused", 1 if added == 0 else 0)

    def lattice_after(sp, args, kwargs, result, state):
        if sp.parent is not None and sp.parent.name == "orlicz.l1_modulus":
            tracer.add("orlicz.l1_shifts", len(result))

    def besov_after(sp, args, kwargs, result, state):
        tracer.add("besov.nodes", len(result.curve.ts))

    def decompose_after(sp, args, kwargs, result, state):
        tracer.add("molecules.layers", len(result.molecules))

    def value_after(sp, args, kwargs, result, state):
        tracer.add("condition.diverged", int(result.head_diverged or result.tail_diverged))

    def lemma6_after(sp, args, kwargs, result, state):
        bound = inspect.signature(bol.evidence.lemma6_check).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if a["d"] >= 3:
            tracer.add("evidence.mc_samples", a["n_samples"] * len(list(a["offsets"])))

    y = bol.young
    return [
        (y, "make_power_young", "young.build", None, young_factory),
        (y, "make_section5_young", "young.build", None, young_factory),
        (y, "make_table_young", "young.build", None, young_factory),
        (y, "make_power_weight", "young.build", None, young_factory),
        (y, "make_section5_weight", "young.build", None, young_factory),
        (y, "parse_young_spec", "young.build", None, young_factory),
        (y, "parse_weight_spec", "young.build", None, young_factory),
        (bol.grid, "shift_difference", "grid.shift_difference", None, None),
        (bol.grid, "total_variation", "grid.tv", None, None),
        (bol.grid, "save_grid_function", "grid.io", None, None),
        (bol.grid, "load_grid_function", "grid.io", None, None),
        (bol.orlicz, "luxemburg_norm", "orlicz.luxemburg", None, lux_after),
        (bol.orlicz.ShiftNormCache, "sup_up_to", "orlicz.sup", sup_before, sup_after),
        (bol.orlicz, "lattice_shifts", "orlicz.lattice_shifts", None, lattice_after),
        (bol.orlicz, "l1_modulus", "orlicz.l1_modulus", None, None),
        (bol.besov, "besov_orlicz_norm", "besov.norm", None, besov_after),
        (bol.molecules, "decompose", "molecules.decompose", None, decompose_after),
        (bol.molecules, "verify_r1_r2", "molecules.verify", None, None),
        (bol.molecules, "verify_r3", "molecules.verify", None, None),
        (bol.condition, "condition_sup", "condition.sup", None, None),
        (bol.condition, "condition_value", "condition.value", None, value_after),
        (bol.condition, "section5_first_bound", "condition.section5", None, None),
        (bol.condition, "section5_second_bound", "condition.section5", None, None),
        (bol.evidence, "lemma6_check", "evidence.lemma6", None, lemma6_after),
        (bol.evidence, "ball_besov_parts", "evidence.ball_parts", None, None),
        (bol.corpus, "random_piecewise_constant", "corpus.gen", None, None),
        (bol.corpus, "stacked_rectangles", "corpus.gen", None, None),
        (bol.corpus, "make_corpus", "corpus.gen", None, None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Patch every binding of every traced function; restore them on exit."""
    import bol.condition

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "bol" or name.startswith("bol."))]
    saved = []

    def patch(owner, key, old, new):
        saved.append((owner, key, old))
        setattr(owner, key, new)

    try:
        for owner, attr, name, before, after in _targets(tracer):
            orig = getattr(owner, attr)
            wrapper = traced(tracer, name, orig, before, after)
            if isinstance(owner, type):
                patch(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patch(mod, key, orig, wrapper)

        orig_nodes = bol.condition.ConditionQuad.nodes

        def nodes(self):
            u = orig_nodes(self)
            if tracer.active:
                tracer.add("condition.nodes", len(u))
            return u
        patch(bol.condition.ConditionQuad, "nodes", orig_nodes, nodes)
        yield tracer
    finally:
        for owner, key, val in reversed(saved):
            setattr(owner, key, val)
