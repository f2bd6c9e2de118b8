"""In-memory span recorder and the timing wrappers of the traced run.

A span is (name, start, end, parent span, op id).  Spans live in flat
arrays while the pass runs and are written out once, at the end.  Wrappers
are installed by patching each function under the name its caller looks it
up by (``ghs.posterior.log_phi1`` as well as ``ghs.specfun.log_phi1``), so
no file of the package changes and removing them restores the originals.
"""

import importlib
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from ghs.config import DEFAULT_CONFIG


def kummer_regime(a, b, x, config=DEFAULT_CONFIG):
    """Which branch ``log_kummer_1f1`` takes for these arguments."""
    if b <= 0 or x == 0.0:
        return None
    if x < 0:
        x = -x
    return "asymptotic" if x > config.asymptotic_switch * b else "taylor"


def expint_regime(nu, x, config=DEFAULT_CONFIG):
    """Which branch ``exp_scaled_gen_exp_integral`` takes for these arguments."""
    if not x > 0:
        return None
    if nu < 0:
        nu += math.ceil(-nu)
    if abs(nu) < 1e-9:
        return None
    return "cf" if x >= 1.0 else "series"


# (module, attribute, span name, argument classifier).  Every entry patches
# the name where a caller looks the function up.
PATCHES = (
    ("ghs.posterior", "marginal_log_density", "posterior.marginal_log_density", None),
    ("ghs.posterior", "posterior_mean", "posterior.posterior_mean", None),
    ("ghs.posterior", "side_model_shrinkage", "posterior.side_model_shrinkage", None),
    ("ghs.posterior", "log_phi1", "specfun.log_phi1", None),
    ("ghs.specfun", "log_phi1", "specfun.log_phi1", None),
    ("ghs.posterior", "log_kummer_1f1", "specfun.log_kummer_1f1", kummer_regime),
    ("ghs.specfun", "log_kummer_1f1", "specfun.log_kummer_1f1", kummer_regime),
    ("ghs.distribution", "exp_scaled_gen_exp_integral", "specfun.expint", expint_regime),
    ("ghs.specfun", "exp_scaled_gen_exp_integral", "specfun.expint", expint_regime),
    ("ghs.specfun", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("ghs.posterior", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("ghs.distribution", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("ghs.risk", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("ghs.cli", "log_density", "distribution.log_density", None),
    ("ghs.cli", "sample_arrays", "distribution.sample_arrays", None),
    ("ghs.risk", "origin_ball_mass", "distribution.origin_ball_mass", None),
    ("ghs.cli", "kl_ball_prior_mass", "risk.kl_ball_prior_mass", None),
    ("ghs.risk", "kl_ball_prior_mass", "risk.kl_ball_prior_mass", None),
    ("ghs.cli", "risk_upper_bound", "risk.risk_upper_bound", None),
    ("ghs.risk", "radial_log_density", "risk.radial_log_density", None),
    ("ghs.study", "run_replication", "study.run_replication", None),
    ("ghs.study", "write_aggregates", "study.write_aggregates", None),
    ("ghs.study", "generate_data", "gamsel.generate_data", None),
    ("ghs.study", "gibbs_sampler", "gamsel.gibbs_sampler", None),
    ("ghs.study", "gamma_statistics", "gamsel.gamma_statistics", None),
    ("ghs.study", "kmeans_threshold", "gamsel.kmeans_threshold", None),
    ("ghs.gamsel", "build_design", "gamsel.build_design", None),
    ("ghs.gamsel", "cho_factor", "gamsel.cho_factor", None),
    ("ghs.gamsel", "cho_solve", "gamsel.cho_solve", None),
    ("ghs.gamsel", "solve_triangular", "gamsel.solve_triangular", None),
)


class Tracer:
    """Records nested spans; ``install`` wraps the functions in PATCHES."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._saved = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    @contextmanager
    def span(self, name, op_id=None):
        """A harness span; ``op_id`` starts a new operation."""
        if op_id is not None:
            self.op_id = op_id
        sid = self._open(self._nid(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def wrap(self, fn, name, classify):
        nid = self._nid(name)
        stack, name_id, counts = self._stack, self.name_id, self.counts
        regime_keys = {}
        perf = time.perf_counter

        def traced(*args, **kwargs):
            # a function re-entering itself (the Kummer transform, the E_nu
            # order recursion) is one call of its layer, not two
            if stack[-1] >= 0 and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if classify is not None:
                regime = classify(*args, **kwargs)
                if regime is not None:
                    key = regime_keys.get(regime)
                    if key is None:
                        key = regime_keys[regime] = f"{name}.{regime}.calls"
                    counts[key] += 1
            sid = self._open(nid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, classify in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, classify))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.bincount(parent + 1, weights=dur, minlength=dur.size + 1)[1:]
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
