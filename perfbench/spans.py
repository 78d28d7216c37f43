"""Span tracing of eigendecay's public functions, installed from outside the
package.

Tracer.install() replaces each traced function with a recording wrapper in
every eigendecay module that holds a reference to it, so calls made through
an imported alias (``backward`` in ``train`` as well as ``grad``) are
recorded too. Each call becomes one span: name, start, end and the span that
was open when it began. Spans are kept in flat arrays while the workload
runs; span_stats() reduces them to per-function calls, self time and total
time.
"""

from array import array
import functools
import importlib
import threading
import time

import numpy as np

# Public functions whose spans the traced run reports, per layer (module).
# Every one is called by at least one workload; test_perfbench checks that.
TRACED = {
    "linalg": ("gram", "power_dominant_eigen", "jacobi_eigenvalues",
               "exact_dominant_eigen"),
    "model": ("forward", "forward_batch", "init_mlp"),
    "objectives": ("loss_batch", "loss_gradient_batch", "eigen_decay_penalty",
                   "sample_dropout_masks", "penalties", "total_objective"),
    "grad": ("eigen_decay_gradient", "backward", "finite_diff_gradient",
             "finite_diff_model_gradient"),
    "margin": ("verify_theorem1", "find_surface_point", "per_point_bound",
               "verify_denominator_inequality"),
    "train": ("sgd_train", "evaluate", "grid_search"),
    "data": ("kfold", "encode_batch_pm1", "gen_two_gaussians"),
    "verify": ("power_method_fidelity_suite", "quadratic_form_bound_suite",
               "gradient_check_suite", "denominator_inequality_suite"),
    "cli": ("main", "cmd_gridsearch"),
}

MARKER = "__perfbench_span__"


def package_modules():
    """Every eigendecay module a traced function can be imported into."""
    return [importlib.import_module(f"eigendecay.{name}") for name in TRACED]


def installed_wrappers():
    """(module, attribute) pairs that currently hold a tracing wrapper."""
    return [
        (mod.__name__, attr)
        for mod in package_modules()
        for attr, value in vars(mod).items()
        if getattr(value, MARKER, None) is not None
    ]


class Tracer:
    """Records one span per call of each traced function.

    Single-threaded by design: the benchmark is one caller with one call in
    flight and runs the program at its default thread count of 1, so a span
    opened on another thread is an error rather than a silently wrong tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self._patched = []  # (module, attribute, original)
        self._owner = None
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._current = -1

    def wrap(self, name_id, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                raise RuntimeError(f"{self.names[name_id]} called off the tracing thread")
            idx = len(self.starts)
            parent = self._current
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.ends.append(0.0)
            self._current = idx
            self.starts.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._current = parent

        setattr(traced, MARKER, self.names[name_id])
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._owner = threading.get_ident()
        modules = package_modules()
        by_name = {mod.__name__.rsplit(".", 1)[1]: mod for mod in modules}
        for name_id, full in enumerate(self.names):
            mod_name, fn_name = full.split(".")
            original = getattr(by_name[mod_name], fn_name)
            if getattr(original, MARKER, None) is not None:
                raise RuntimeError(f"{full} is already wrapped")
            wrapper = self.wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def __len__(self):
        return len(self.starts)

    def stats(self, lo=0, hi=None):
        """span_stats over the spans recorded between indices lo and hi,
        which must not split a span from its parent."""
        hi = len(self) if hi is None else hi
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        return span_stats(
            len(self.names),
            np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi],
            np.where(parents >= 0, parents - lo, -1),
            np.frombuffer(self.starts)[lo:hi],
            np.frombuffer(self.ends)[lo:hi],
        )

    def spans(self):
        """The recorded spans as plain arrays, for writing out."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts).copy(),
            "end": np.frombuffer(self.ends).copy(),
        }


def span_stats(n_names, name_ids, parents, starts, ends):
    """Per-name (calls, self_s, total_s) arrays from a span forest.

    A span's self time is its duration minus the durations of its direct
    children; on one thread children nest inside their parent, so that is
    the part of the interval no child covers. total_s sums only the
    outermost span of each name along any path, so a function that calls
    itself is not counted twice.
    """
    durations = ends - starts
    has_parent = parents >= 0
    child_time = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=len(durations)
    )
    self_time = durations - child_time

    nested_in_same = np.zeros(len(durations), dtype=bool)
    ancestor = parents.copy()
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        nested_in_same[live] |= name_ids[ancestor[live]] == name_ids[live]
        ancestor[live] = parents[ancestor[live]]
    outermost = ~nested_in_same

    calls = np.bincount(name_ids, minlength=n_names)
    self_s = np.bincount(name_ids, weights=self_time, minlength=n_names)
    total_s = np.bincount(
        name_ids[outermost], weights=durations[outermost], minlength=n_names
    )
    return calls, self_s, total_s
