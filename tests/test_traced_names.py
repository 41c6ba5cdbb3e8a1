"""The benchmark tracer wraps functions by name; every name must resolve."""

import importlib.util
import math
import threading
from pathlib import Path

import numpy as np

import rittcalc
import rittcalc.cli  # noqa: F401  (the package does not import it; the benchmark does)
from rittcalc import funcalc, numlin, ritt, sqfun
from rittcalc.numlin import Hilbert, LpWeighted, SchattenP, SupSeq

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_every_traced_name_resolves_on_rittcalc():
    traced = _traced()
    assert traced
    missing = []
    for mod_name, attr in traced:
        owner = getattr(rittcalc, mod_name, None)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer takes a method from the class dict, a function by getattr
        found = vars(owner).get(name) if path else getattr(owner, name, None)
        if not callable(found):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing


def test_traced_calls_stay_on_the_calling_thread(monkeypatch):
    # the tracer's span stack is not thread-safe: the resolvent, decay and
    # enumeration workers must call none of the traced functions
    threads = []
    for mod_name, attr in _traced():
        owner = getattr(rittcalc, mod_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = vars(owner)[name] if path else getattr(owner, name)

        def recording(*args, _fn=fn, **kwargs):
            threads.append(threading.get_ident())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
    # the workers' own entry points, to see that the pool is used
    workers = {}
    for name in ("_guarded_inverses", "_singular_resolvent_norms"):
        def on_worker(*args, _fn=getattr(numlin, name), _name=name, **kwargs):
            workers.setdefault(_name, set()).add(threading.get_ident())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(numlin, name, on_worker)
    monkeypatch.setattr(numlin, "_worker_count", lambda: 3)
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 22 * 256)  # 4 x 4: blocks of 5

    rng = np.random.default_rng(2)
    V = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    T = V @ np.diag([0.5, 0.3 + 0.2j, -0.4, 0.8]) @ np.linalg.inv(V)
    # 28 nodes: blocks of 5 on the pool
    for space in (Hilbert(4), LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5)),
                  SchattenP(2.0, 2), SchattenP(3.0, 2), SupSeq(4)):
        ritt.resolvent_sup(T, 1.2, space, per_piece=6)
    pooled = set().union(*workers.values())
    # the verdict's walk of 33 powers takes slices of 5, whose ceilings are
    # taken on workers; the rows of decay_profiles are normed on workers,
    # and the verdict's three betas of 10 nodes take blocks of 5 on workers
    decay, ceilings = set(), set()
    workers.clear()

    def decay_norms(*args, _fn=ritt.op_norms):
        decay.add(threading.get_ident())
        return _fn(*args)

    monkeypatch.setattr(ritt, "op_norms", decay_norms)
    for space in (Hilbert(4), SupSeq(4)):
        def ceiling_thread(self, A, _fn=type(space).op_norm_ceilings):
            ceilings.add(threading.get_ident())
            return _fn(self, A)

        monkeypatch.setattr(type(space), "op_norm_ceilings", ceiling_thread)
        ritt.ritt_verdict(T, space, ritt.RittConfig(N=16))
        ritt.decay_profiles(T, space, 32)
    # rad_norm at K = 10 on lp:3 takes 32 blocks of 16 patterns, rad_rad_norm
    # on a 3 x 4 grid 2 blocks of 16; the blocks are built on workers
    enumeration = set()

    def sign_block(*args, _fn=sqfun._sign_block):
        enumeration.add(threading.get_ident())
        return _fn(*args)

    monkeypatch.setattr(sqfun, "_sign_block", sign_block)
    lp3 = LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5))
    X = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
    sqfun.rad_norm(list(X), lp3)
    sqfun.rad_rad_norm(rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)), lp3)
    # the contour's triangular sweep runs in the caller's thread
    sweeps = set()

    def sweep(*args, _fn=numlin._triangular_inverses):
        sweeps.add(threading.get_ident())
        return _fn(*args)

    monkeypatch.setattr(numlin, "_triangular_inverses", sweep)
    V = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    T12 = V @ np.diag(np.linspace(-0.4, 0.8, 12)) @ np.linalg.inv(V)
    funcalc.ContourCalculus(T12, beta=math.pi / 4).apply(funcalc.poly([1.0, -1.0]))

    caller = threading.get_ident()
    assert threads and set(threads) == {caller}
    assert pooled - {caller}
    assert workers["_singular_resolvent_norms"] - {caller}
    assert decay - {caller}
    assert ceilings - {caller}
    assert enumeration - {caller}
    assert sweeps == {caller}
