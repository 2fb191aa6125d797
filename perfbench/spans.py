"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's side of each layer boundary:
``install`` replaces a function in every namespace where the package
looks it up at call time (a module global, a class attribute, a catalog
entry's ``evaluator`` field) and ``uninstall`` puts the originals back.
Nothing under ``src/`` is modified.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, ``op`` the benchmark operation it belongs to.
Self time is a span's duration minus the time its direct children cover;
calls are single-threaded, so children nest and never overlap.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

RANK_BUCKETS = ("r1", "r2", "r3-6", "r7-128", "r129up")


def rank_bucket(r: int) -> str:
    if r <= 1:
        return "r1"
    if r == 2:
        return "r2"
    if r <= 6:
        return "r3-6"
    if r <= 128:
        return "r7-128"
    return "r129up"


def _matrices(a) -> int:
    """Number of square matrices in a (possibly batched) eig input."""
    shape = getattr(a, "shape", ())
    n = 1
    for d in shape[:-2]:
        n *= int(d)
    return n


def _resident_bytes(space) -> int:
    """Bytes held by the space's arrays (computed from ``nbytes``)."""
    return sum(v.nbytes for v in vars(space).values() if hasattr(v, "nbytes"))


class Recorder:
    """Collects spans and exact counts for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.resident_bytes = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name_of, fn):
        """Wrap ``fn`` so each call records a span; ``name_of(args)``
        gives the span name."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx] = (name_of(args), start, end, parent, rec.op)
        return wrapper

    def counter(self, name, fn, matrices=None):
        """Wrap ``fn`` so each call counts ``<name>.calls`` and, when
        given, adds ``matrices(args)`` to ``<name>.matrices``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if matrices is not None:
                counts[name + ".matrices"] += matrices(args)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, pkg):
        """Wrap the layer boundaries of the ``opradius`` modules in ``pkg``."""
        import numpy as np

        ens, fun, har, ine, ell, spc = (pkg.ensembles, pkg.functionals,
                                        pkg.harness, pkg.inequalities,
                                        pkg.elliptic, pkg.space)
        orig_radius = fun.numerical_radius
        radius = self.span(
            lambda a: "functionals.numerical_radius."
            + rank_bucket(a[0].shape[0]), orig_radius)
        for mod in (fun, ine, ell):
            self._replace(mod, "numerical_radius", radius)
        norm = self.span(lambda a: "functionals.spectral_norm",
                         fun.spectral_norm)
        for mod in (fun, ine):
            self._replace(mod, "spectral_norm", norm)
        for attr in ("crawford_number", "sampling_oracle"):
            self._replace(fun, attr, self.span(
                lambda a, n="functionals." + attr: n, getattr(fun, attr)))

        rec = self
        orig_build = spc.build_space

        def build_and_measure(*args, **kwargs):
            sp = orig_build(*args, **kwargs)
            rec.resident_bytes = max(rec.resident_bytes, _resident_bytes(sp))
            return sp
        build = self.span(lambda a: "space.build_space",
                          functools.wraps(orig_build)(build_and_measure))
        for mod in (spc, ens, har, ell):
            self._replace(mod, "build_space", build)
        cls = spc.SemiHilbertSpace
        self._replace(cls, "compression", self.span(
            lambda a: "space.compression", cls.compression))
        self._replace(cls, "membership_residual", self.counter(
            "space.membership_residual", cls.membership_residual))

        self._replace(ine, "fingerprint_payload", self.span(
            lambda a: "inequalities.fingerprint_payload",
            ine.fingerprint_payload))
        evaluate = self.span(lambda a: "inequalities.evaluate", ine.evaluate)
        for mod in (ine, har):
            self._replace(mod, "evaluate", evaluate)
        ctx = ine.EvalContext
        for attr in ("rad", "nrm"):
            self._replace(ctx, attr, self.span(
                lambda a, n="inequalities.EvalContext." + attr: n,
                getattr(ctx, attr)))
        for entry in ine.list_catalog():
            self._replace(entry, "evaluator", self.span(
                lambda a, n="inequalities." + entry.id: n, entry.evaluator))

        for attr in ("random_space", "random_in_BA", "random_commuting_family",
                     "random_a_normal", "random_a_positive"):
            self._replace(ens, attr, self.span(lambda a: "ensembles.draw",
                                               getattr(ens, attr)))
        kit = self.span(lambda a: "harness.build_kit", har.build_kit)

        @functools.wraps(har.build_kit)
        def build_kit(config, trial):
            rec.op = trial      # a fuzz op is one trial
            return kit(config, trial)
        self._replace(har, "build_kit", build_kit)
        self._replace(har, "run_fuzz", self.span(lambda a: "harness.run_fuzz",
                                                 har.run_fuzz))

        self._replace(ell, "run_case", self.span(
            lambda a: f"elliptic.run_case.N{a[0]}", ell.run_case))
        self._replace(ell, "dirichlet_laplacian", self.span(
            lambda a: "elliptic.dirichlet_laplacian", ell.dirichlet_laplacian))

        for attr in ("eigh", "eigvalsh", "eig"):
            self._replace(np.linalg, attr, self.counter(
                "numpy.eig", getattr(np.linalg, attr),
                matrices=lambda a: _matrices(a[0])))

    def uninstall(self):
        while self._originals:
            owner, attr, orig = self._originals.pop()
            setattr(owner, attr, orig)

    # -- aggregation ------------------------------------------------------

    def layer_stats(self) -> tuple[dict, dict, dict]:
        """Per span name: (exact call counts, self seconds, total seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
        return dict(calls), dict(self_s), dict(total_s)

    def parent_names(self, child_prefix: str) -> Counter:
        """How often spans named ``child_prefix*`` ran under each parent."""
        out: Counter = Counter()
        for name, _, _, parent, _ in self.spans:
            if name.startswith(child_prefix):
                out[self.spans[parent][0] if parent >= 0 else ""] += 1
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
