"""The compiled Dormand-Prince 8(5,3) runner of the background's shooting
solver.

``background.solve_tov_shooting`` integrates the hydrostatic system outward
from a series start, one run per trial central density:

* ``run`` steps a right-hand side with the DOP853 pair (Hairer, Norsett and
  Wanner, *Solving ODEs I*, II.5) compiled in scipy's ``ode`` interface, so
  no Python runs between right-hand-side calls except a one-line record of
  each accepted step;
* ``dense_output`` reads the solution at any points of the run from those
  steps through the pair's own 7th-order continuous extension (*Solving ODEs
  I*, II.6), with the stages recomputed for all steps at once in numpy, so
  a profile costs no second integration.

Importing this module imports scipy; the fixed-point background solver
never does.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853, ode

from .errors import ConvergenceError

#: Step budget of one run.  A hydrostatic run takes at most 22 accepted
#: steps (R = 0.247, rtol 1e-13), so the budget only ends a run gone wrong.
MAX_STEPS = 100_000


class _Severable:
    """Forwarder to ``fn`` that is cut when its ``with`` block ends.

    ``brentq`` keeps the callable it is given in an object that refers to
    itself (its NaN guard is a closure over itself), so it lingers in cyclic
    garbage until a full collection.  Scipy's compiled ``dop853`` runner
    keeps one reference to its right-hand side per integration and never
    drops it.  Handing them a forwarder that is cut afterwards keeps that
    garbage from holding a solver's tables and the background profile
    meanwhile.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fn = None


class _RhsForwarder(_Severable):
    """The right-hand-side forwarder, which also keeps the first exception
    ``fn`` raises in ``error`` and returns NaN in its place.

    Scipy's compiled runner does not stop on an exception raised in the
    right-hand side: it keeps stepping on whatever the failed call left (in
    one case 1.2 million calls, 17 s and 1.2 GB before the runner returned).
    The step recorder of ``run`` reads ``error`` and stops the run at the
    next accepted step (or the runner gives up on the NaN steps first).
    """

    __slots__ = ("error",)

    def __init__(self, fn):
        super().__init__(fn)
        self.error = None

    def __call__(self, t, y):
        try:
            return self.fn(t, y)
        except Exception as exc:  # noqa: BLE001 - reported by run, not lost
            if self.error is None:
                self.error = exc
            return [math.nan] * len(y)


#: The right-hand side every cached ``dop853`` integrator calls; pointed at
#: one run's right-hand side for the length of that run.
_RHS = _RhsForwarder(None)
#: The step recorder every cached integrator calls after each accepted step
#: (and once at the start); pointed at one run's list likewise.
_SOLOUT = _Severable(None)
#: Guards the two forwarders and the cached integrators, which are shared.
_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _dop853(rtol: float, atol: float) -> ode:
    """One ``dop853`` integrator per pair of tolerances, reused by every run:
    a fresh one per call would leave its per-call references (to the
    right-hand side and to its own ``_solout``) behind, about 1.1 KB each.
    Parameters are bound in the right-hand side, not passed through
    ``set_f_params``, because the runner hands those to the step recorder
    as well."""
    solver = ode(_RHS).set_integrator("dop853", rtol=rtol, atol=atol, nsteps=MAX_STEPS)
    solver.set_solout(_SOLOUT)
    return solver


def run(rhs: Callable[[float, np.ndarray], Sequence[float]], t0: float,
        y0: Sequence[float], t_end: float, rtol: float, atol: float) -> np.ndarray:
    """Accepted steps, rows (t, *y), of one compiled DOP853 run of
    y' = rhs(t, y) from (t0, y0) (the first row) to t_end (the last).

    ``rhs`` receives t as a float and y as an array, and returns a sequence
    of floats.  An array, not the recorded tuples, since a shooting solver
    holds one per trial.  Raises ``ConvergenceError`` when the runner fails
    or the right-hand side raises; the text of any warning scipy issued
    during the run (such as ``dop853: step size becomes too small``) is
    appended to its message.  A successful run issues its warnings again.
    """
    steps: list[tuple[float, ...]] = []

    def record(t, y):
        if _RHS.error is not None:
            return -1
        steps.append((t, *y.tolist()))

    solver = _dop853(rtol, atol)
    with _LOCK:
        _RHS.fn, _RHS.error = rhs, None
        _SOLOUT.fn = record
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solver.set_initial_value(y0, t0)
                solver.integrate(t_end)
            notes = "".join(f"; scipy warned: {w.message}" for w in caught)
            error = _RHS.error
            if error is not None:
                raise ConvergenceError(
                    f"the right-hand side raised {type(error).__name__}: {error}{notes}"
                ) from error
            if not solver.successful():
                raise ConvergenceError(f"the DOP853 run stopped short of t = {t_end!r}{notes}")
        finally:
            _RHS.fn = _RHS.error = _SOLOUT.fn = None
    for w in caught:
        warnings.warn(w.message, stacklevel=2)
    return np.array(steps)


#: Nodes of the 16 stages of one DOP853 step as fractions of the step: the
#: 12 of the step, the FSAL stage at its end, and the 3 extra stages of the
#: dense output.
_STAGE_C = np.concatenate([DOP853.C, [1.0], DOP853.C_EXTRA])
#: Their coupling rows, padded to 16 columns (the FSAL row is unused: that
#: stage is taken at the recorded end value).
_STAGE_A = np.zeros((16, 16))
_STAGE_A[:DOP853.n_stages, :DOP853.n_stages] = DOP853.A
_STAGE_A[DOP853.n_stages + 1:] = DOP853.A_EXTRA


def dense_output(steps: np.ndarray, t: np.ndarray,
                 stages: Callable[[np.ndarray], Callable]) -> np.ndarray:
    """The solution at the points ``t`` (one row per component) from the
    accepted ``steps`` of one ``run``.

    Each step's 7th-order continuous extension is ``solve_ivp``'s
    ``Dop853DenseOutput``: the 12 stages, the FSAL stage f(t_new, y_new) and
    the 3 extra stages are recomputed for all steps at once, and the
    interpolant runs between the recorded end values.  ``stages(nodes)``
    receives every stage node, an array (16, steps), before any stage value
    is known (the nodes do not depend on them), and returns ``f(s, y)``, the
    right-hand side at stage row s for stage values y, an array
    (components, steps).  A point in (t_old, t_new] is read from that step,
    as ``solve_ivp``'s ``t_eval`` does; points before the first step are
    read from it too.
    """
    ts = steps[:, 0]
    y = steps[:, 1:].T                       # a row per component, a column per point
    t0, y0, y1 = ts[:-1], y[:, :-1], y[:, 1:]
    dt = np.diff(ts)
    n = DOP853.n_stages
    nodes = t0 + _STAGE_C[:, None] * dt
    nodes[n] = ts[1:]
    f = stages(nodes)
    K = np.empty((len(_STAGE_C),) + y0.shape)
    for s in range(len(_STAGE_C)):
        if s == 0:
            ys = y0
        elif s == n:
            ys = y1
        else:
            ys = y0 + (_STAGE_A[s, :s] @ K[:s].reshape(s, -1)).reshape(y0.shape) * dt
        K[s] = f(s, ys)

    rise = y1 - y0
    F = np.empty((7,) + y0.shape)            # the interpolant's coefficients
    F[0] = rise
    F[1] = dt * K[0] - rise
    F[2] = 2.0 * rise - dt * (K[n] + K[0])
    for c in range(len(y)):
        F[3:, c] = dt * (DOP853.D @ K[:, c])
    i = np.clip(np.searchsorted(ts, t), 1, len(dt)) - 1
    x = (t - t0[i]) / dt[i]
    rest = 1.0 - x
    out = np.zeros((len(y), len(t)))
    for j, coef in enumerate(np.take(F, i, axis=-1)[::-1]):
        out += coef
        out *= x if j % 2 == 0 else rest
    return out + y0[:, i]
