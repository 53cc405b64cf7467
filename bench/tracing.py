"""In-memory span tracer installed around the public callables of each layer.

Nothing under ``src/`` changes: the tracer replaces each target callable with
a wrapper in every namespace that holds it (``from x import f`` copies
included), so calls between modules and inside one module both pass through
it.  A wrapper records one span (name, start, end, parent) per call and keeps
the per-callable call count, the inclusive time of outermost activations and
the self time of its layer (span duration minus the time its child spans
cover).  Counter hooks read arguments and results at the same boundaries.

Span times are CPU seconds of the calling thread (``time.thread_time``), so
the reference clock thread running beside the workload does not count.  A
target that no longer exists is reported in ``absent`` and its metrics are
left out; the run does not fail.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import thread_time

# Layers are the program's modules.  Public module-level functions defined in
# each are wrapped, except the hot inner helpers listed in SKIP (their time is
# inside the caller that is wrapped); classes are wrapped only through the
# methods listed in METHODS.
LAYERS = {
    "cli": "darboux3.cli",
    "reports": "darboux3.reports",
    "model": "darboux3.model",
    "ring": "darboux3.algebra.ring",
    "operators": "darboux3.algebra.operators",
    "builders": "darboux3.algebra.builders",
    "parser": "darboux3.algebra.parser",
    "verify": "darboux3.algebra.verify",
    "spectra": "darboux3.spectra",
    "classical": "darboux3.classical",
}

# flattening_coordinate runs several times per inverse_flattening call and
# conformal_factor inside every potential; wrapping them would multiply the
# span count of a spectrum solve without adding a boundary.
SKIP = {"model": {"flattening_coordinate", "conformal_factor"}}

# cli handlers and the private push-through generator carry named metrics.
EXTRA_FUNCTIONS = {
    "cli": ("cmd_verify", "cmd_spectrum", "cmd_classical", "cmd_figures"),
    "operators": ("_push_through",),
}

# GaussRat and the Poly add/sub/neg methods run hundreds of thousands of
# times per verification; their cost stays in the self time of the ring.
METHODS = {
    "ring": {
        "Poly": ("__mul__", "__pow__"),
        "Coefficient": ("__init__", "__add__", "__sub__", "__mul__", "__neg__",
                        "diff_q", "conjugate", "substitute_lambda_zero"),
    },
    "operators": {
        "OperatorExpr": ("__mul__", "__add__", "__sub__", "__neg__", "scale",
                         "commutator", "adjoint", "conjugate_by_d_power",
                         "substitute_lambda_zero"),
    },
}

# Library calls at layer boundaries: (layer module, attribute, span name).
# They are children of the layer that calls them, so the layer's self time
# excludes them.
EXTERNAL = (
    ("spectra", "eigh_tridiagonal", "spectra.eigh"),
    ("classical", "solve_ivp", "classical.solve_ivp"),
    ("classical", "minimize_scalar", "classical.minimize_scalar"),
)


class Tracer:
    """Spans and counters of one traced run; install() patches, remove() restores."""

    def __init__(self):
        self.names = []
        self.name_layer = []
        self.ids = {}
        self.layers = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = []
        self.calls = []
        self.incl = []
        self.active = []
        self.layer_self = []
        self.counters = {}
        self.absent = []
        self._patches = []

    # -- bookkeeping -------------------------------------------------------

    def _name_id(self, name, layer):
        if name in self.ids:
            return self.ids[name]
        if layer not in self.layers:
            self.layers.append(layer)
            self.layer_self.append(0.0)
        fid = len(self.names)
        self.ids[name] = fid
        self.names.append(name)
        self.name_layer.append(self.layers.index(layer))
        self.calls.append(0)
        self.incl.append(0.0)
        self.active.append(0)
        return fid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, fid):
        idx = len(self.span_start)
        self.span_name.append(fid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.active[fid] += 1
        t0 = thread_time()
        self.span_start.append(t0)
        return frame, t0

    def _exit(self, fid, frame, t0):
        t1 = thread_time()
        dur = t1 - t0
        self.stack.pop()
        self.span_end[frame[0]] = t1
        if self.stack:
            self.stack[-1][1] += dur
        self.layer_self[self.name_layer[fid]] += dur - frame[1]
        self.active[fid] -= 1
        if not self.active[fid]:
            self.incl[fid] += dur

    def _wrap(self, fn, name, layer, hook):
        fid = self._name_id(name, layer)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between items
            # is not counted; the call counts once, when the generator is made
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                self.calls[fid] += 1
                while True:
                    frame, t0 = enter(fid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(fid, frame, t0)
                    if hook:
                        hook(self, args, kwargs, item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                self.calls[fid] += 1
                frame, t0 = enter(fid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(fid, frame, t0)
                if hook:
                    hook(self, args, kwargs, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every target; returns the list of targets that do not exist."""
        modules = {}
        for layer, modname in LAYERS.items():
            try:
                modules[layer] = importlib.import_module(modname)
            except ImportError:
                self.absent.append(modname)
        namespaces = [importlib.import_module("darboux3"),
                      importlib.import_module("darboux3.algebra"), *modules.values()]

        for layer, mod in modules.items():
            names = [
                attr for attr, value in vars(mod).items()
                if inspect.isfunction(value) and value.__module__ == mod.__name__
                and not attr.startswith("_") and attr not in SKIP.get(layer, ())
            ]
            for attr in EXTRA_FUNCTIONS.get(layer, ()):
                if attr in vars(mod):
                    names.append(attr)
                else:
                    self.absent.append(f"{layer}.{attr}")
            for attr in names:
                fn = vars(mod)[attr]
                name = f"{layer}.{attr.lstrip('_')}"
                wrapper = self._wrap(fn, name, layer, HOOKS.get(name))
                self._patch_everywhere(fn, wrapper, namespaces)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = vars(mod).get(cls_name)
                if cls is None:
                    self.absent.append(f"{layer}.{cls_name}")
                    continue
                for meth in methods:
                    fn = vars(cls).get(meth)
                    if fn is None:
                        self.absent.append(f"{layer}.{cls_name}.{meth}")
                        continue
                    name = f"{layer}.{cls_name}.{meth}"
                    wrapper = self._wrap(fn, name, layer, HOOKS.get(name))
                    # aliases such as __rmul__ = __mul__ share the wrapper
                    for attr, value in list(vars(cls).items()):
                        if value is fn:
                            self._patches.append((cls, attr, fn))
                            setattr(cls, attr, wrapper)

        for layer, attr, name in EXTERNAL:
            mod = modules.get(layer)
            fn = vars(mod).get(attr) if mod is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(fn, name, "scipy", HOOKS.get(name))
            self._patch_everywhere(fn, wrapper, [mod])
        for _, _, source, _ in METRICS:
            if source not in self.ids and source not in self.absent:
                self.absent.append(source)
        return list(self.absent)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _value(self, fid, what):
        if what == "calls":
            return self.calls[fid]
        if what == "s":
            return self.incl[fid]
        kind = what[0]
        if kind == "counter":
            return self.counters.get(what[1], 0)
        if kind == "ratio":
            num = self.counters.get(what[1], 0)
            den = self.calls[fid] if what[2] == "calls" else self.counters.get(what[2], 0)
            return num / den if den else 0.0
        return self._seconds_under(fid, self.ids.get(what[1]))

    def _seconds_under(self, fid, parent):
        """Total duration of the spans of ``fid`` whose direct parent is ``parent``."""
        import numpy as np

        if parent is None:
            return None
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        sel = names == fid
        par = parents[sel]
        under = np.zeros(par.size, dtype=bool)
        under[par >= 0] = names[par[par >= 0]] == parent
        return float(dur[sel][under].sum())

    def metrics(self):
        """{name: (value, unit)} for METRICS and each layer's self time; a
        metric whose callable is absent is left out."""
        out = {}
        for name, unit, source, what in METRICS:
            fid = self.ids.get(source)
            value = None if fid is None else self._value(fid, what)
            if value is not None:
                out[name] = (value, unit)
        for layer in LAYERS:
            if layer in self.layers:
                out[f"{layer}.self_s"] = (self.layer_self[self.layers.index(layer)], "s")
        out["trace.spans"] = (len(self.span_start), "count")
        return out

    def write_spans(self, path):
        """Spans as parallel arrays (name id, start, end, parent index)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


# -- per-layer metrics -----------------------------------------------------

# (metric, unit, wrapped callable, what): ``what`` is "calls", "s" (inclusive
# seconds of outermost calls), ("counter", key), ("ratio", numerator counter,
# denominator counter or "calls"), or ("under", parent) for the seconds of the
# callable's spans directly under ``parent``.
METRICS = (
    ("ring.divide_by_d.calls", "count", "ring.divide_by_d", "calls"),
    ("ring.divide_by_d.s", "s", "ring.divide_by_d", "s"),
    ("ring.divide_by_d.hit_ratio", "ratio", "ring.divide_by_d",
     ("ratio", "ring.divide_by_d.hits", "calls")),
    ("ring.d_poly.calls", "count", "ring.d_poly", "calls"),
    ("ring.poly_mul.calls", "count", "ring.Poly.__mul__", "calls"),
    ("ring.poly_mul.term_pairs", "count", "ring.Poly.__mul__", ("counter", "ring.poly_mul.term_pairs")),
    ("ring.poly_mul.s", "s", "ring.Poly.__mul__", "s"),
    ("ring.coefficient_add.calls", "count", "ring.Coefficient.__add__", "calls"),
    ("operators.commutator.calls", "count", "operators.OperatorExpr.commutator", "calls"),
    ("operators.commutator.s", "s", "operators.OperatorExpr.commutator", "s"),
    ("operators.push_through.calls", "count", "operators.push_through", "calls"),
    ("operators.push_through.terms", "count", "operators.push_through",
     ("counter", "operators.push_through.terms")),
    ("operators.push_through.s", "s", "operators.push_through", "s"),
    ("operators.conjugate_by_d_power.s", "s", "operators.OperatorExpr.conjugate_by_d_power", "s"),
    ("builders.build_fradkin.calls", "count", "builders.build_fradkin", "calls"),
    ("builders.build_fradkin.s", "s", "builders.build_fradkin", "s"),
    ("builders.build_hamiltonian.calls", "count", "builders.build_hamiltonian", "calls"),
    ("parser.parse.calls", "count", "parser.parse", "calls"),
    ("parser.parse.s", "s", "parser.parse", "s"),
    ("verify.verify_theorem.s", "s", "verify.verify_theorem", "s"),
    ("verify.checks", "count", "verify.verify_theorem", ("counter", "verify.checks")),
    ("verify.residual_chars", "count", "verify.verify_theorem", ("counter", "verify.residual_chars")),
    ("verify.similarity_checks.s", "s", "verify.similarity_checks", "s"),
    ("spectra.effective_1d_problem.s", "s", "spectra.effective_1d_problem", "s"),
    ("spectra.grid_nodes", "count", "spectra.effective_1d_problem", ("counter", "spectra.grid_nodes")),
    ("model.inverse_flattening.calls", "count", "model.inverse_flattening", "calls"),
    ("model.inverse_flattening.s", "s", "model.inverse_flattening", "s"),
    ("model.quantum_effective_potential.calls", "count", "model.quantum_effective_potential", "calls"),
    ("spectra.eigh.calls", "count", "spectra.eigh", "calls"),
    ("spectra.eigh.s", "s", "spectra.eigh", "s"),
    ("spectra.eigh.levels_requested", "count", "spectra.eigh",
     ("counter", "spectra.eigh.levels_requested")),
    ("spectra.eigh.levels_used_ratio", "ratio", "spectra.eigh",
     ("ratio", "spectra.eigh.levels_used", "spectra.eigh.levels_requested")),
    ("spectra.flavor_radial_solve.s", "s", "spectra.flavor_radial_solve", "s"),
    ("spectra.radial_wavefunctions.s", "s", "spectra.radial_wavefunctions", "s"),
    ("classical.solve_ivp.s", "s", "classical.solve_ivp", "s"),
    ("classical.rhs_evals", "count", "classical.solve_ivp", ("counter", "classical.rhs_evals")),
    ("classical.monitor.s", "s", "classical.classical_invariants", ("under", "classical.integrate")),
    ("classical.invariant_evals", "count", "classical.classical_invariants", "calls"),
    ("classical.orbit_closure.s", "s", "classical.orbit_closure", "s"),
    ("classical.minimize_scalar.calls", "count", "classical.minimize_scalar", "calls"),
    ("classical.fd_brackets.s", "s", "classical.poisson_bracket_with_h", "s"),
    ("classical.independence_rank.s", "s", "classical.independence_rank", "s"),
    ("reports.dump_json.s", "s", "reports.dump_json", "s"),
    ("reports.dump_json.bytes", "bytes", "reports.dump_json", ("counter", "reports.dump_json.bytes")),
    ("reports.dump_csv.s", "s", "reports.dump_csv", "s"),
    ("reports.dump_csv.rows", "count", "reports.dump_csv", ("counter", "reports.dump_csv.rows")),
)


# -- counter hooks: (tracer, args, kwargs, result) ---------------------------


def _hook_divide_by_d(tr, args, kwargs, result):
    if result is not None:
        tr.count("ring.divide_by_d.hits")


def _hook_poly_mul(tr, args, kwargs, result):
    a, b = args[0], args[1]
    other = len(b.terms) if hasattr(b, "terms") else 1
    tr.count("ring.poly_mul.term_pairs", len(a.terms) * other)


def _hook_push_through(tr, args, kwargs, item):
    tr.count("operators.push_through.terms")


def _hook_verify_theorem(tr, args, kwargs, report):
    tr.count("verify.checks", len(report.checks))
    tr.count("verify.residual_chars", sum(len(c.residual) for c in report.checks))


def _hook_similarity(tr, args, kwargs, checks):
    tr.count("verify.checks", len(checks))
    tr.count("verify.residual_chars", sum(len(c.residual) for c in checks))


def _hook_effective_1d(tr, args, kwargs, result):
    tr.count("spectra.grid_nodes", len(result[0]))


def _hook_eigh(tr, args, kwargs, result):
    # the eigenvalues returned are the levels computed, whichever way they
    # were selected (by index, by value or all); with eigenvectors the
    # result is a (values, vectors) pair
    values = result[0] if isinstance(result, tuple) else result
    tr.count("spectra.eigh.levels_requested", len(values))


def _hook_solve_bound_states(tr, args, kwargs, report):
    tr.count("spectra.eigh.levels_used", len(report.levels))


def _hook_flavor_radial_solve(tr, args, kwargs, vals):
    tr.count("spectra.eigh.levels_used", len(vals))


def _hook_threshold(tr, args, kwargs, stages):
    tr.count("spectra.eigh.levels_used", sum(s["count_below_threshold"] for s in stages))


def _hook_solve_ivp(tr, args, kwargs, sol):
    tr.count("classical.rhs_evals", int(sol.nfev))


def _hook_dump_json(tr, args, kwargs, text):
    tr.count("reports.dump_json.bytes", len(text))


def _hook_dump_csv(tr, args, kwargs, text):
    rows = args[0] if args else kwargs["rows"]
    tr.count("reports.dump_csv.rows", len(rows))


HOOKS = {
    "ring.divide_by_d": _hook_divide_by_d,
    "ring.Poly.__mul__": _hook_poly_mul,
    "operators.push_through": _hook_push_through,
    "verify.verify_theorem": _hook_verify_theorem,
    "verify.similarity_checks": _hook_similarity,
    "spectra.effective_1d_problem": _hook_effective_1d,
    "spectra.eigh": _hook_eigh,
    "spectra.solve_bound_states": _hook_solve_bound_states,
    "spectra.flavor_radial_solve": _hook_flavor_radial_solve,
    "spectra.threshold_accumulation": _hook_threshold,
    "classical.solve_ivp": _hook_solve_ivp,
    "reports.dump_json": _hook_dump_json,
    "reports.dump_csv": _hook_dump_csv,
}
