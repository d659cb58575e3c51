"""Per-layer tracing of divaria from outside the package.

The tracer replaces public functions and methods of the layers by timing
wrappers.  A module-level function is replaced in every loaded module
namespace that binds it, because modules import each other's functions
by name (``cli`` does ``from .envelope import eval_term``, and so do the
benchmark's own modules); a method is replaced on its class.  Self time
comes from a span stack: a wrapper adds its duration to the enclosing
span, which subtracts it from its own.

Functions called many times per job (``aggregate=True``) only update
per-job counters; the others also keep one span per call.  Spans stay in
memory and are written once, by ``Tracer.dump``.  ``lru_cache`` functions
are not wrapped by call; the tracer reads their ``cache_info()`` deltas
around each job.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric prefix, module, attribute or "Class.method", aggregate, count true results)
TRACED = (
    ("envelope.eval_term", "divaria.envelope", "eval_term", True, False),
    ("envelope.pseudo_product", "divaria.envelope", "pseudo_product", True, False),
    ("envelope.EnvelopePA.base_product", "divaria.envelope", "EnvelopePA.base_product",
     True, False),
    ("envelope.closed_form_eval", "divaria.envelope", "closed_form_eval", True, False),
    ("envelope.CoefficientDialgebra.eval_dipoly", "divaria.envelope",
     "CoefficientDialgebra.eval_dipoly", True, False),
    ("current.CurrentPA.base_product", "divaria.current", "CurrentPA.base_product", True, False),
    ("fd.FDDialgebra.product", "divaria.fd", "FDDialgebra.lprod", True, False),
    ("fd.FDDialgebra.product", "divaria.fd", "FDDialgebra.rprod", True, False),
    ("words.eval_shape_tree", "divaria.words", "eval_shape_tree", True, False),
    ("linalg.RowSpace.add", "divaria.linalg", "RowSpace.add", True, True),
    ("linalg.RowSpace.reduce", "divaria.linalg", "RowSpace.reduce", True, False),
    ("envelope.EnvelopePA.init", "divaria.envelope", "EnvelopePA.__init__", False, False),
    ("envelope.build_var_quotient", "divaria.envelope", "build_var_quotient", False, False),
    ("envelope.check_var_pseudo", "divaria.envelope", "check_var_pseudo", False, False),
    ("envelope.extend_hom", "divaria.envelope", "extend_hom", False, False),
    ("fd.is_var_dialgebra", "divaria.fd", "is_var_dialgebra", False, False),
    ("fd.is_zero_dialgebra", "divaria.fd", "is_zero_dialgebra", False, False),
    ("conformal.build_rho", "divaria.conformal", "build_rho", False, False),
    ("conformal.verify_representation", "divaria.conformal", "verify_representation", False, False),
    ("conformal.embed_associative", "divaria.conformal", "embed_associative", False, False),
    ("operads.consequence_space", "divaria.operads", "consequence_space", False, False),
    ("operads.axiom_check", "divaria.operads", "axiom_check", False, False),
    ("translate.derive_variety", "divaria.translate", "derive_variety", False, False),
    ("cli.derive", "divaria.cli", "cmd_derive", False, False),
    ("cli.check", "divaria.cli", "cmd_check", False, False),
    ("cli.envelope", "divaria.cli", "cmd_envelope", False, False),
    ("cli.represent", "divaria.cli", "cmd_represent", False, False),
    ("cli.operad-selftest", "divaria.cli", "cmd_operad_selftest", False, False),
)

CACHES = (("hopf.coproduct_splits", "divaria.hopf", "coproduct_splits"),)

# Counter slots per name: calls, seconds inside outermost calls, self seconds,
# and calls that returned a true value (RowSpace.add: the rank grew).
CALLS, INCL_S, SELF_S, TRUE = range(4)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []      # frames: [child seconds, span id or None]
        self._depth: dict[str, int] = {}  # active calls per name, so recursion counts once
        self._stats: dict[str, list] = {}
        self._job = None
        self._job_start = 0.0
        self._cache_start: dict = {}
        self.jobs: dict[str, dict] = {}   # job -> start, end, layer counters, cache deltas
        self.spans: list[tuple] = []      # (id, parent id, job, name, start, end)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of TRACED; imports all divaria modules first."""
        import divaria.cli  # noqa: F401  (pulls in every layer)
        for name, module, attr, aggregate, count_true in TRACED:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), aggregate, count_true))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, aggregate, count_true)
            for other in list(sys.modules.values()):
                for key, val in list(getattr(other, "__dict__", {}).items()):
                    if val is orig:
                        setattr(other, key, wrapped)

    def _wrap(self, name: str, fn, aggregate: bool, count_true: bool):
        stack, depth = self._stack, self._depth
        spans = self.spans

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if not aggregate:
                frame[1] = len(spans)
                spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                outermost = depth[name] == 1
                depth[name] -= 1
                dur = t1 - t0
                st = self._stats.get(name)
                if st is None:
                    st = self._stats[name] = [0, 0.0, 0.0, 0]
                st[CALLS] += 1
                st[SELF_S] += dur - frame[0]
                if outermost:
                    st[INCL_S] += dur
                if stack:
                    stack[-1][0] += dur
                if not aggregate:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    spans[frame[1]] = (frame[1], parent, self._job, name, t0, t1)
            if count_true and result:
                st[TRUE] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- jobs ------------------------------------------------------------

    def begin_job(self, job: str) -> None:
        self._job = job
        self._job_start = perf_counter()
        self._stats = {}
        self._cache_start = {name: _cache_info(module, attr) for name, module, attr in CACHES}

    def end_job(self) -> None:
        caches = {}
        for name, module, attr in CACHES:
            hits0, misses0 = self._cache_start[name]
            hits1, misses1 = _cache_info(module, attr)
            caches[name] = {"hits": hits1 - hits0, "misses": misses1 - misses0}
        self.jobs[self._job] = {"start": self._job_start, "end": perf_counter(),
                                "layers": self._stats, "caches": caches}
        self._job = None

    # -- results ---------------------------------------------------------

    def totals(self, scale: dict) -> dict:
        """Per-layer counters summed over all jobs, as metric name -> value.

        scale maps a job to the factor that takes its wall time to the
        reference speed (see ``sample.py``); it is applied to the times."""
        sums: dict[str, list] = {}
        for job_name, job in self.jobs.items():
            factor = scale.get(job_name, 1.0)
            for name, st in job["layers"].items():
                acc = sums.setdefault(name, [0, 0.0, 0.0, 0])
                acc[CALLS] += st[CALLS]
                acc[INCL_S] += st[INCL_S] * factor
                acc[SELF_S] += st[SELF_S] * factor
                acc[TRUE] += st[TRUE]
        out = {}
        for name, _module, _attr, aggregate, count_true in TRACED:
            st = sums.get(name, [0, 0.0, 0.0, 0])
            out[f"{name}.calls"] = st[CALLS]
            out[f"{name}.s"] = st[INCL_S]
            out[f"{name}.self_s"] = st[SELF_S]
            if count_true:
                out[f"{name}.useful_frac"] = st[TRUE] / st[CALLS] if st[CALLS] else 0.0
        for name, _module, _attr in CACHES:
            hits = sum(j["caches"][name]["hits"] for j in self.jobs.values())
            misses = sum(j["caches"][name]["misses"] for j in self.jobs.values())
            out[f"{name}.calls"] = hits + misses
            out[f"{name}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"jobs": self.jobs,
                       "spans": [dict(zip(("id", "parent", "job", "name", "start", "end"), s))
                                 for s in self.spans if s is not None]}, fh)


def _cache_info(module: str, attr: str) -> tuple[int, int]:
    info = getattr(sys.modules[module], attr).cache_info()
    return info.hits, info.misses
