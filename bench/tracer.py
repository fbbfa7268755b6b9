"""Span tracer for the stratmc benchmark.

The tracer wraps the functions of each hot-path ``stratmc`` module from the
outside: nothing in ``src/`` knows about it.  While installed, every call of
a wrapped function records one span (function id, start, end, parent span)
in flat integer arrays, and a few hooks read counts off the call arguments
and return values.  :func:`layer_metrics` turns one traced repetition into
the per-layer metrics named in ``BENCHMARK.json``.

A wrapper is installed under every ``stratmc`` module attribute that holds
the original object, because ``experiment`` and ``stratify`` import helpers
by name.  A target the code no longer has is skipped; the metrics that need
it are reported as absent rather than failing the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
from array import array
from time import perf_counter_ns

import numpy as np

# hot-path modules, one layer each; presets, acceptance, cli and errors are
# off the hot path and stay unwrapped
LAYERS = ("gaussian", "stratify", "models", "payoffs", "directions",
          "linalg", "experiment")

# targets beyond the public functions and methods found by inspection:
# the stream constructor and lazy generator, ndtri as imported by the
# samplers (a scipy ufunc, so inspection does not see it), and the private
# per-stratum loop
EXTRA_TARGETS = (
    ("gaussian", "RandomStream.__init__"),
    ("gaussian", "RandomStream.generator"),
    ("stratify", "ndtri"),
    ("stratify", "_run_strata"),
)

SAMPLERS = ("sample_stratum_1d", "sample_stratum_orthogonal",
            "sample_stratum_nonorthogonal")
SLAB = ("gaussian:RandomStream.uniform_open", "gaussian:stratum_uniform",
        "stratify:ndtri")
ESTIMATOR_SELF = ("stratified_estimate", "two_stage_estimate", "_run_strata")
ALLOCATORS = ("optimal_allocation", "equal_allocation")
BUDGETED = ("plain_mc_estimate", "lhs_estimate", "two_stage_estimate")

# per-layer metric -> (unit, needs); each entry of needs is a group of
# alternative targets, and the metric is absent once a whole group is gone
_SAMPLER_GROUP = tuple("stratify:" + s for s in SAMPLERS)
LAYER_METRICS = {
    "gaussian.normal_ns": ("ns", (("gaussian:RandomStream.normal",),)),
    "gaussian.normals": ("count", (("gaussian:RandomStream.normal",),)),
    "gaussian.streams": ("count", (("gaussian:RandomStream.__init__",),)),
    "gaussian.lhs_ns": ("ns", (("gaussian:lhs_normals",),)),
    "stratify.slab_ns": ("ns", tuple((k,) for k in SLAB) + (_SAMPLER_GROUP,)),
    "stratify.complete_ns": ("ns", (_SAMPLER_GROUP,)),
    "stratify.sampler_calls": ("count", (_SAMPLER_GROUP,)),
    "stratify.overhead_us": ("us", (("stratify:stratified_estimate",),)),
    "stratify.alloc_s": ("s", (tuple("stratify:" + a for a in ALLOCATORS),)),
    "stratify.useful_draw_frac": ("fraction",
                                  (("stratify:stratified_estimate",),)
                                  + tuple(("stratify:" + b,) for b in BUDGETED)),
    "stratify.empty_strata": ("count", (("stratify:stratified_estimate",),)),
    "models.bs_basket_g_ns": ("ns", (("models:bs_basket_g",),)),
    "models.cir_euler_ns": ("ns", (("models:cir_euler_path",),)),
    "models.floored_batches": ("count", (("models:cir_euler_path",),)),
    "payoffs.evaluate_ns": ("ns", (("payoffs:evaluate",),)),
    "directions.build_s": ("s", ()),
}
LAYER_METRICS.update({f"{layer}.self_s": ("s", ()) for layer in LAYERS})

COUNT_METRICS = tuple(name for name, (unit, _) in LAYER_METRICS.items()
                      if unit == "count")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Records spans of wrapped stratmc calls while installed."""

    def __init__(self):
        self.ids: dict[str, int] = {}      # "layer:qualname" -> function id
        self.layer_of: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self.broken: set[str] = set()      # targets whose hook failed
        self.reset()

    # --- recording ----------------------------------------------------------

    def reset(self):
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(
            ("normals", "lhs_elems", "strat_draws", "strata_visited",
             "empty", "requested", "useful", "bsg_elems", "cir_elems",
             "floored", "eval_draws"), 0)
        self.stage_draws: dict[int, int] = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, key, hook):
        fid = self.ids.setdefault(key, len(self.ids))
        if fid == len(self.layer_of):
            self.layer_of.append(key.split(":", 1)[0])
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            idx = len(rec.fid)
            rec.fid.append(fid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None and key not in rec.broken:
                try:
                    hook(rec, idx, args, kwargs, result)
                except Exception:  # signature drift: drop the metric, keep the run
                    rec.broken.add(key)
            return result

        return wrapper

    # --- installation -------------------------------------------------------

    def install(self):
        """Wrap every target in every stratmc namespace that holds it."""
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "stratmc" or n.startswith("stratmc."))]
        for key, owner, attr, orig in list(self._targets()):
            if orig is None:
                continue
            hook = HOOKS.get(key)
            if isinstance(orig, property):
                self._patch(owner, attr, property(self._wrap(orig.fget, key, hook)))
            elif inspect.isclass(owner):
                self._patch(owner, attr, self._wrap(orig, key, hook))
            else:
                wrapped = self._wrap(orig, key, hook)
                # ndtri counts as stratify only where the samplers use it;
                # gaussian's lhs_normals keeps the plain ufunc
                homes = [owner] if key == "stratify:ndtri" else pkg_modules
                for mod in homes:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if inspect.isclass(owner) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _targets(self):
        """(key, owner, attribute, original) for each function to wrap."""
        seen = set()
        for layer in LAYERS:
            mod = sys.modules.get(f"stratmc.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    seen.add(f"{layer}:{name}")
                    yield f"{layer}:{name}", mod, name, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(val):
                            key = f"{layer}:{name}.{attr}"
                            seen.add(key)
                            yield key, obj, attr, val
        for layer, dotted in EXTRA_TARGETS:
            key = f"{layer}:{dotted}"
            if key in seen:
                continue
            mod = sys.modules.get(f"stratmc.{layer}")
            owner, _, attr = dotted.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = None if holder is None else vars(holder).get(attr)
            yield key, holder, attr, orig


# --- hooks: counts read at the wrapped boundary -------------------------------


def _normals(rec, idx, args, kwargs, result):
    rec.counts["normals"] += int(np.size(result))


def _lhs(rec, idx, args, kwargs, result):
    rec.counts["lhs_elems"] += int(np.size(result))


def _sampler(rec, idx, args, kwargs, result):
    rec.counts["strat_draws"] += int(result.z.shape[0])


def _stage(rec, idx, args, kwargs, result):
    rec.counts["strata_visited"] += int(result.n_strata)
    if result.stratum_empty is not None:
        rec.counts["empty"] += int(np.count_nonzero(result.stratum_empty))
    rec.stage_draws[rec.parent[idx]] = int(result.n_samples)


def _two_stage(rec, idx, args, kwargs, result):
    # the reported estimate uses the last stage only; an opt cell's pilot
    # draws are spent but discarded
    useful = rec.stage_draws.pop(idx)
    rec.counts["requested"] += int(_arg(args, kwargs, 3, "n_total"))
    rec.counts["useful"] += useful


def _single_stage(rec, idx, args, kwargs, result):
    rec.counts["requested"] += int(_arg(args, kwargs, 2, "n_total"))
    rec.counts["useful"] += int(result.n_samples)


def _bs_basket_g(rec, idx, args, kwargs, result):
    eps = np.asarray(_arg(args, kwargs, 0, "eps"))
    rec.counts["bsg_elems"] += int(np.size(result)) * int(eps.shape[-1])


def _cir_euler(rec, idx, args, kwargs, result):
    rec.counts["cir_elems"] += int(np.size(_arg(args, kwargs, 0, "z")))
    rec.counts["floored"] += int(bool(result.floored))


def _evaluate(rec, idx, args, kwargs, result):
    rec.counts["eval_draws"] += int(np.size(result))


HOOKS = {
    "gaussian:RandomStream.normal": _normals,
    "gaussian:lhs_normals": _lhs,
    **{f"stratify:{s}": _sampler for s in SAMPLERS},
    "stratify:stratified_estimate": _stage,
    "stratify:two_stage_estimate": _two_stage,
    "stratify:plain_mc_estimate": _single_stage,
    "stratify:lhs_estimate": _single_stage,
    "models:bs_basket_g": _bs_basket_g,
    "models:cir_euler_path": _cir_euler,
    "payoffs:evaluate": _evaluate,
}


# --- metrics --------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(rec: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset.

    Self time is a span's duration minus the durations of its direct
    children, so the per-layer self times add up to the duration of the
    outermost spans.
    """
    fid = np.frombuffer(rec.fid, dtype=np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    dur = (np.frombuffer(rec.end, dtype=np.int64)
           - np.frombuffer(rec.start, dtype=np.int64)).astype(float)
    n_fn = len(rec.ids)
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=fid.size)
    self_by_fn = np.bincount(fid, weights=self_t, minlength=n_fn)
    calls_by_fn = np.bincount(fid, minlength=n_fn)

    def ids(*names):
        keys = (n if ":" in n else "stratify:" + n for n in names)
        return [rec.ids[k] for k in keys if k in rec.ids]

    def fn_mask(fn_ids):
        mask = np.zeros(n_fn, dtype=bool)
        mask[fn_ids] = True
        return mask

    def below(fn_ids):
        """Spans with an ancestor span of one of fn_ids."""
        mask = fn_mask(fn_ids)
        hit = np.zeros(fid.size, dtype=bool)
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            hit[live] |= mask[fid[anc[live]]]
            anc[live] = parent[anc[live]]
            live = anc >= 0
        return hit

    def outermost_s(fn_ids):
        """Seconds spent in fn_ids, counting nested calls among them once."""
        return float(dur[fn_mask(fn_ids)[fid] & ~below(fn_ids)].sum()) / 1e9

    def self_of(*names):
        return float(self_by_fn[ids(*names)].sum())

    # slab spans count only under a sampler, since LHS also draws uniforms
    slab = fn_mask(ids(*SLAB))[fid] & below(ids(*SAMPLERS))
    # lhs_estimate runs its replications through _run_strata too; that work
    # is not per-stratum overhead
    estimator = fn_mask(ids(*ESTIMATOR_SELF))[fid] & ~below(ids("lhs_estimate"))
    layer_ids = {layer: [i for i, l in enumerate(rec.layer_of) if l == layer]
                 for layer in LAYERS}
    c = rec.counts
    out = {
        "gaussian.normal_ns": _ratio(self_of("gaussian:RandomStream.normal"),
                                     c["normals"]),
        "gaussian.normals": c["normals"],
        "gaussian.streams": int(calls_by_fn[ids("gaussian:RandomStream.__init__")].sum()),
        "gaussian.lhs_ns": _ratio(self_of("gaussian:lhs_normals"), c["lhs_elems"]),
        "stratify.slab_ns": _ratio(float(self_t[slab].sum()), c["strat_draws"]),
        "stratify.complete_ns": _ratio(self_of(*SAMPLERS), c["strat_draws"]),
        "stratify.sampler_calls": int(calls_by_fn[ids(*SAMPLERS)].sum()),
        "stratify.overhead_us": _ratio(float(self_t[estimator].sum()),
                                       c["strata_visited"]) / 1e3,
        "stratify.alloc_s": outermost_s(ids(*ALLOCATORS)),
        "stratify.useful_draw_frac": _ratio(c["useful"], c["requested"]),
        "stratify.empty_strata": c["empty"],
        "models.bs_basket_g_ns": _ratio(self_of("models:bs_basket_g"), c["bsg_elems"]),
        "models.cir_euler_ns": _ratio(self_of("models:cir_euler_path"), c["cir_elems"]),
        "models.floored_batches": c["floored"],
        "payoffs.evaluate_ns": _ratio(outermost_s(ids("payoffs:evaluate")) * 1e9,
                                      c["eval_draws"]),
        "directions.build_s": outermost_s(layer_ids["directions"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_by_fn[layer_ids[layer]].sum()) / 1e9
    return out


def absent_metrics(rec: Tracer) -> set[str]:
    """Metrics that cannot be computed because a target is gone or drifted."""
    def gone(key):
        return key not in rec.ids or key in rec.broken
    return {name for name, (_, needs) in LAYER_METRICS.items()
            if any(all(gone(k) for k in group) for group in needs)}


def write_spans(rec: Tracer, path):
    """Write the recorded spans as JSON lines.

    Line i is span i: its function, start and end in ns from the first
    span's start, and the line number of its parent span (null at the top).
    """
    names = {i: k for k, i in rec.ids.items()}
    t0 = rec.start[0] if rec.start else 0
    with open(path, "w", encoding="utf-8") as fh:
        for f, s, e, p in zip(rec.fid, rec.start, rec.end, rec.parent):
            fh.write(f'{{"name":"{names[f]}","start":{s - t0},"end":{e - t0},'
                     f'"parent":{p if p >= 0 else "null"}}}\n')
