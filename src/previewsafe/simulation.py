"""Closed-loop demonstration of preview value: LQR nominal control on the
augmented system, invariant-set safety supervision, disturbance scripting
with a sliding preview buffer, and trace capture.

The lane-keeping study uses a linearized single-track (bicycle) model at
constant longitudinal speed; the physical parameters and the sample time are
config-exposed because the published study does not fix them, so the
acceptance checks on this scenario are properties (preview-supervised trace
stays safe, no-preview trace does not) rather than trajectory comparisons.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    NumericalError,
    RiccatiDivergedError,
    ScriptExhaustedError,
)
from .geometry import HPolytope, Hyperbox, LPStatus, lift, linprog_max
from .geometry.polytope import _ZERO_ROW_TOL, _ZERO_TOL, _row_norms
from .invariance import input_constraints, method1, method2
from .systems import LinearSystem, PreviewSystem, augment, system_from_config

__all__ = [
    "LQRSpec",
    "Supervisor",
    "SuperviseResult",
    "Trace",
    "lqr_gain",
    "supervise",
    "rollout",
    "lane_keeping",
    "LaneKeepingResult",
    "bicycle_system",
    "load_simulation_config",
    "zoh_discretize",
]

_log = logging.getLogger("previewsafe.simulation")

# the ZOH series stops at the first term below this (max-abs entry)
_ZOH_TOL = 1e-12
# the Riccati recursion stops at the first step below this (max-abs entry)
_RICCATI_TOL = 1e-12
# least seed-facet violation that counts as a state of grown \ seed
_GAP_SLACK = 1e-4


@dataclass(frozen=True)
class LQRSpec:
    """Riccati recursion parameters: stage costs and iteration budget."""

    Q: np.ndarray
    R: np.ndarray
    max_iter: int = 10_000


def lqr_gain(sys_aug: LinearSystem, spec: LQRSpec) -> np.ndarray:
    """Gain K of the infinite-horizon regulator via Riccati fixed-point
    iteration; the closed loop A - B K is verified Schur stable.

    Raises :class:`RiccatiDivergedError` if the recursion does not converge
    within ``spec.max_iter`` or the closed loop fails the stability check.
    """
    A, B = sys_aug.A, sys_aug.B
    Q = np.asarray(spec.Q, dtype=float)
    R = np.asarray(spec.R, dtype=float)
    n, m = A.shape[0], B.shape[1]
    if Q.shape != (n, n) or R.shape != (m, m):
        raise ValueError("cost matrix dimensions must match the system")
    P = Q.copy()
    for _ in range(spec.max_iter):
        S = R + B.T @ P @ B
        K = np.linalg.solve(S, B.T @ P @ A)
        Pn = Q + A.T @ P @ A - A.T @ P @ B @ K
        Pn = 0.5 * (Pn + Pn.T)
        if float(np.min(np.linalg.eigvalsh(Pn))) < -1e-9:
            raise RiccatiDivergedError("Riccati iterate lost positive semidefiniteness")
        if float(np.max(np.abs(Pn - P))) <= _RICCATI_TOL:
            P = Pn
            break
        P = Pn
    else:
        raise RiccatiDivergedError("Riccati recursion did not converge")
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if np.abs(np.linalg.eigvals(A - B @ K)).max() >= 1.0 - 1e-9:
        raise RiccatiDivergedError("closed loop is not Schur stable")
    return K


@dataclass(frozen=True)
class Supervisor:
    """Safety filter: move the nominal input into the admissible set of an
    invariant set; fall back to the plain input box when that set is empty.

    ``sys`` is the system whose state space the invariant lives in (base or
    augmented), so the rollout can hand over the matching state vector; the
    invariant must have ``sys.n`` coordinates and the input box ``sys.m``
    (``ValueError`` otherwise).

    Building the supervisor compiles the filter into one private step
    function, ``_step(state, u_nom) -> (u, supervised, fallback, lo, hi)``,
    which :func:`supervise` and :func:`rollout` both call; the float
    interval ``[lo, hi]`` is NaN for a fallback or several inputs.  The build
    erodes the invariant by ``E D`` and tests the erosion for emptiness once;
    :func:`_compile_step` describes the step.
    """

    sys: LinearSystem
    invariant: HPolytope
    input_box: Hyperbox
    _step: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_box.dim != self.sys.m:
            raise ValueError("input box dimension must match the system's inputs")
        if self.invariant.dim != self.sys.n:
            raise ValueError("invariant dimension must match the system's states")
        rows = input_constraints(self.sys, self.invariant)
        object.__setattr__(self, "_step", _compile_step(rows, self.input_box))


@dataclass(frozen=True)
class SuperviseResult:
    """One filtered step; ``[adm_lo, adm_hi]`` is the one-input admissible
    interval, NaN for a fallback or several inputs (as in :class:`Trace`)."""

    u: np.ndarray
    supervised: bool
    admissible_empty: bool
    adm_lo: float
    adm_hi: float


def _closest_point(P: HPolytope, z: np.ndarray) -> np.ndarray:
    """Point of the nonempty ``P`` closest to ``z`` in the infinity norm: the LP
    over ``(u, t)`` maximizing ``-t`` s.t. ``H u <= h`` and ``+-(u - z) <= t``."""
    m = z.shape[0]
    eye, ones = np.eye(m), np.ones((m, 1))
    A = np.block([[P.H, np.zeros((P.nrows, 1))], [eye, -ones], [-eye, -ones]])
    res = linprog_max(np.append(np.zeros(m), -1.0), A, np.concatenate([P.h, z, -z]))
    if res.status is not LPStatus.OPTIMAL:
        raise NumericalError(f"closest admissible input LP is {res.status.value}")
    return res.point[:m]


def _compile_step(rows: Optional[tuple], input_box: Hyperbox) -> Callable:
    """The safety filter of :class:`Supervisor` as one function of the state
    and the nominal input, with everything that depends on neither bound
    here: ``rows`` are ``input_constraints``' ``(G_x, G_u, h0)``, or ``None``
    when the eroded invariant is empty and every step falls back (clamps the
    nominal input into the input box, which has one coordinate per input).
    The build drops the rows with an all-zero ``G_x`` row and a zero
    ``G_u`` row (norm at most ``_ZERO_ROW_TOL``, as :class:`HPolytope`
    finds them): each reads ``0 <= h0_i`` at every state, so its verdict is
    taken once, and an offset below ``-_ZERO_TOL`` makes every step fall
    back.  A step evaluates ``rhs = h0 - G_x.dot(x)``; with two or more
    inputs it then solves LPs (emptiness, and the closest point when
    ``u_nom`` is not admissible), since those depend on the state.  ``ndarray.dot`` makes the
    BLAS call of the ``@`` operator without its ufunc dispatch (measured at
    0.4-0.6 against 0.8-1.0 µs a call on these shapes, one BLAS thread); on
    the C-ordered arrays here its bits are those of ``@``.

    For one input the build orders the rows once as the zero rows of ``g =
    G_u[:, 0]`` (``|g_i| <= _ZERO_ROW_TOL``, as :class:`HPolytope` finds
    them), then those that bound the input from below (``g_i < 0``) and above
    (``g_i > 0``), each block led by a sentinel row with zero coefficients
    and offset ``+inf``, and stores ``w``: 1 on the zero rows, ``|g_i|`` on
    the bounding ones.  A step then takes one division ``rhs / w`` and one
    ``np.minimum.reduceat`` over the three blocks: the least zero-row offset,
    minus the lower bound and the upper bound (``+-inf`` for an empty block),
    and clips ``u_nom`` onto ``[lo, hi]``, with no LP.  A row's bound ``rhs_i
    / g_i`` is ``HPolytope``'s ``(rhs_i / |g_i|) / (g_i / |g_i|)`` bit for
    bit, since the norm of a one-entry row is ``|g_i|`` and its unit
    coefficient ``+-1`` exactly, and for ``g_i < 0`` it is ``-(rhs_i /
    |g_i|)``, so the largest lower bound is minus the least quotient.  This
    holds above ``|g_i|`` of about 1.3e154 as well, where ``g_i ** 2``
    overflows: ``HPolytope`` first divides such a row by its largest
    ``|entry|``, ``|g_i|``, which leaves the same ``+-1`` and quotient.  A
    NaN offset (the mat-vec overflowed) gives the verdicts of a row-by-row
    reading: a zero row's NaN is skipped, so the least zero-row offset is
    taken again with ``np.fmin`` when the reduction returns NaN, and a NaN
    bound falls back.  The step checks nothing: its state and
    nominal input must be finite and of lengths ``sys.n`` and ``sys.m``."""
    m, box_lo, box_hi = input_box.dim, input_box.lo, input_box.hi
    nan = math.nan

    def fallback(u_nom):
        return np.minimum(np.maximum(u_nom, box_lo), box_hi), True, True, nan, nan

    if rows is not None:
        G_x, G_u, h0 = rows
        # rows that read 0 <= h0_i at every state
        fixed = ~G_x.any(axis=1) & (_row_norms(G_u) <= _ZERO_ROW_TOL)
        rows = None if (h0[fixed] < -_ZERO_TOL).any() else (G_x[~fixed], G_u[~fixed], h0[~fixed])
    if rows is None:
        return lambda state, u_nom: fallback(u_nom)
    G_x, G_u, h0 = rows
    if m > 1:
        def step(state, u_nom):
            # emptiness and the closest point depend on the state, so LPs stay
            adm = HPolytope(G_u, h0 - G_x.dot(state))
            if adm.is_empty:
                return fallback(u_nom)
            if adm.contains(u_nom, tol=1e-9):
                return u_nom, False, False, nan, nan
            return _closest_point(adm, u_nom), True, False, nan, nan

        return step
    g = G_u[:, 0]
    # rows reordered once into zero | lower | upper blocks, each led by a
    # sentinel row (index -1: zero coefficients, offset +inf) so that no block
    # is empty and one reduceat reads all three minima
    zero, lower, upper = np.abs(g) <= _ZERO_ROW_TOL, g < -_ZERO_ROW_TOL, g > _ZERO_ROW_TOL
    sentinel = [-1]
    order = np.concatenate([
        sentinel, np.flatnonzero(zero), sentinel, np.flatnonzero(lower), sentinel, np.flatnonzero(upper),
    ])
    starts = np.flatnonzero(order < 0)
    z_end = int(starts[1])
    # more sentinel rows, in the upper block, up to a multiple of 4 rows:
    # OpenBLAS's dgemv sums rows in groups of 4 and the rows left over in
    # another kernel that can round them differently (measured on x86-64,
    # OpenBLAS 0.3.31), so every row gets the grouped kernel's bits
    order = np.append(order, np.full(-len(order) % 4, -1))
    G_x = np.vstack([G_x, np.zeros(G_x.shape[1])])[order]
    h0 = np.append(h0, np.inf)[order]
    w = np.append(np.where(zero, 1.0, np.abs(g)), 1.0)[order]

    def step(state, u_nom):
        rhs = h0 - G_x.dot(state)
        # a lower row's bound rhs_i / g_i is -(rhs_i / |g_i|) bit for bit, so
        # the largest lower bound is minus the least quotient of its block
        zmin, nlo, hi = np.minimum.reduceat(rhs / w, starts).tolist()
        # a zero row with a negative offset certifies emptiness; the verdict
        # skips a NaN offset (rhs overflowed), as the comparison with it does
        if zmin != zmin:
            zmin = np.fmin.reduce(rhs[:z_end])
        if zmin < -_ZERO_TOL:
            return fallback(u_nom)
        lo = -nlo
        if not lo <= hi:
            # width-zero sets can cross by rounding noise; snap to the point.
            # A NaN bound (rhs overflowed) falls back, so the clip never sees one
            if lo - hi <= 1e-7:
                lo = hi = 0.5 * (lo + hi)
            else:
                return fallback(u_nom)
        u0 = float(u_nom[0])
        u = min(max(u0, lo), hi)
        return np.array([u]), u != u0, False, lo, hi

    return step


def supervise(sup: Supervisor, state, u_nom) -> SuperviseResult:
    """Replace ``u_nom`` by the admissible input closest in the infinity norm
    (for one input, the clip onto the admissible interval) at ``state``.

    ``state`` needs ``sup.sys.n`` entries and ``u_nom`` ``sup.sys.m``, all
    finite (``ValueError`` otherwise); then the compiled step
    (:func:`_compile_step`) runs, and the result carries its float endpoints
    as they are, or ``admissible_empty`` for a fallback to the input box.
    """
    u_nom = np.asarray(u_nom, dtype=float).ravel()
    state = np.asarray(state, dtype=float).ravel()
    m = sup.sys.m
    if state.shape[0] != sup.sys.n:
        raise ValueError("state dimension mismatch")
    if u_nom.shape[0] != m:
        raise ValueError(f"nominal input has {u_nom.shape[0]} entries, the system {m} inputs")
    if not (np.isfinite(state).all() and np.isfinite(u_nom).all()):
        raise ValueError("state and nominal input must be finite")
    return SuperviseResult(*sup._step(state, u_nom))


@dataclass(frozen=True)
class Trace:
    """Rollout record, one row per step ``t``: ``x (T, n)``, ``u_nominal``,
    ``u_applied (T, m)``, ``d_applied (T, l)``, the admissible interval
    ``adm_lo``, ``adm_hi (T,)`` (NaN for a fallback, several inputs or no
    supervisor) and the bools ``supervised``, ``fallback``, ``safe (T,)``
    (``(x, u)`` in the safe set).  The shapes name the CSV columns at T = 0."""

    x: np.ndarray
    u_nominal: np.ndarray
    u_applied: np.ndarray
    d_applied: np.ndarray
    adm_lo: np.ndarray
    adm_hi: np.ndarray
    supervised: np.ndarray
    fallback: np.ndarray
    safe: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def all_safe(self) -> bool:
        return bool(self.safe.all())

    def first_unsafe_step(self) -> Optional[int]:
        unsafe = np.flatnonzero(~self.safe)
        return int(unsafe[0]) if unsafe.size else None

    def supervision_count(self) -> int:
        return int(np.count_nonzero(self.supervised))

    def to_csv(self) -> str:
        n, m, l = self.x.shape[1], self.u_applied.shape[1], self.d_applied.shape[1]
        cols = ["t"]
        cols += [f"x{i+1}" for i in range(n)]
        cols += (["u_nom"] if m == 1 else [f"u_nom{i+1}" for i in range(m)])
        cols += (["u"] if m == 1 else [f"u{i+1}" for i in range(m)])
        cols += [f"d{i+1}" for i in range(l)]
        cols += ["supervised", "safe", "adm_lo", "adm_hi"]
        table = np.column_stack([
            self.t, self.x, self.u_nominal, self.u_applied, self.d_applied,
            self.supervised, self.safe, self.adm_lo, self.adm_hi,
        ])
        out = io.StringIO()
        np.savetxt(out, table, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")
        return out.getvalue()


Controller = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def rollout(
    sys: LinearSystem,
    p: int,
    controller: Controller,
    supervisor: Optional[Supervisor],
    x0,
    d_script,
    T: int,
) -> Trace:
    """Closed-loop simulation with a sliding p-step preview window.

    At each t the controller observes (x(t), d_script[t .. t+p-1]) and the
    dynamics consume d_script[t]; the script therefore needs at least T + p
    entries of ``sys.l`` values, an ``(N, 0)`` array when ``sys.l = 0``
    (:class:`ScriptExhaustedError` otherwise).  ``T`` must be
    nonnegative, ``x0`` must have ``sys.n`` entries, ``x0`` and the first
    T + p script entries must be finite, the supervisor's state space must be
    that of ``sys`` or of its p-step preview realization and its inputs those
    of ``sys``, and the controller must return ``sys.m`` finite inputs
    (``ValueError`` otherwise).

    These checks run once, before the loop, except the controller's output,
    which each step checks for its length and finiteness, and the state,
    which each step checks for finiteness (it can overflow).  A supervised
    step calls the compiled step (:func:`_compile_step`), not
    :func:`supervise`, with a lifted state in one reused buffer.  The
    dynamics are ``A.dot(x) + B.dot(u) + E.dot(d)``, summed left to right as
    ``A @ x + B @ u + E @ d``: ``ndarray.dot`` makes the same BLAS call
    without the ufunc dispatch of ``@`` (measured at 0.4-0.6 against 0.8-1.0
    µs a product on the lane-keeping shapes), and on the C-ordered arrays that
    :class:`LinearSystem` stores it gives the same bits.  Each step writes its
    row of the preallocated :class:`Trace` columns in place; safety, which
    does not feed back, is judged after the loop in one product with the safe
    set's rows (tolerance 1e-7, as ``HPolytope.contains``).

    Each step where the filter changed the input writes one DEBUG record on
    the ``previewsafe.simulation`` logger: ``t``, the nominal and applied
    inputs, and the admissible interval's ``(lo, hi)`` or ``fallback``.
    """
    if T < 0:
        raise ValueError("horizon T must be nonnegative")
    x = np.asarray(x0, dtype=float).ravel().copy()
    n, m, l = sys.n, sys.m, sys.l
    if x.shape[0] != n:
        raise ValueError(f"initial state has {x.shape[0]} entries, the system {n} states")
    script = np.asarray(d_script, dtype=float)
    # with no disturbance channel (l = 0) only the first axis counts the steps
    script = script.reshape(script.shape[0] if l == 0 and script.ndim else -1, l)
    if script.shape[0] < T + p:
        raise ScriptExhaustedError(
            f"script holds {script.shape[0]} steps, need {T + p}"
        )
    if not (np.isfinite(x).all() and np.isfinite(script[: T + p]).all()):
        raise ValueError("initial state and disturbance script must be finite")
    step, state = None, None
    if supervisor is not None:
        step = supervisor._step
        if supervisor.sys.n != n:
            if supervisor.sys.n != n + p * l:
                raise ValueError("supervisor state space matches neither the system nor its preview")
            state = np.empty(supervisor.sys.n)
        if supervisor.sys.m != m:
            raise ValueError(f"supervisor has {supervisor.sys.m} inputs, the system {m}")
    A, B, E = sys.A, sys.B, sys.E
    X, U_nom, U = np.empty((T, n)), np.empty((T, m)), np.empty((T, m))
    adm_lo, adm_hi = np.full(T, np.nan), np.full(T, np.nan)
    supervised, fallback = np.zeros(T, dtype=bool), np.zeros(T, dtype=bool)
    debug = _log.isEnabledFor(logging.DEBUG)
    # math.isfinite over a few entries costs a fraction of np.isfinite(...).all()
    isfinite = math.isfinite
    for t in range(T):
        window = script[t : t + p]
        u_nom = np.asarray(controller(t, x, window), dtype=float).ravel()
        if u_nom.shape[0] != m:
            raise ValueError(f"controller returned {u_nom.shape[0]} inputs, the system has {m}")
        if not all(map(isfinite, u_nom.tolist())):
            raise ValueError("nominal input must be finite")
        if not all(map(isfinite, x.tolist())):
            raise ValueError("state must be finite")
        if step is None:
            u = u_nom
        else:
            if state is not None:
                state[:n], state[n:] = x, window.ravel()
            u, changed, empty, lo, hi = step(x if state is None else state, u_nom)
            supervised[t], fallback[t], adm_lo[t], adm_hi[t] = changed, empty, lo, hi
            if debug and changed:
                _log.debug(
                    "supervise: t=%d u_nom=%s u=%s admissible=%s", t, u_nom.tolist(), u.tolist(),
                    "fallback" if empty else (lo, hi),
                )
        X[t], U_nom[t], U[t] = x, u_nom, u
        x = A.dot(x) + B.dot(u) + E.dot(script[t])
    H_safe, h_safe = sys.safe.H, sys.safe.h
    safe = (np.hstack([X, U]).dot(H_safe.T) <= h_safe + 1e-7).all(axis=1)
    return Trace(X, U_nom, U, script[:T].copy(), adm_lo, adm_hi, supervised, fallback, safe)


def zoh_discretize(Ac: np.ndarray, Bc: np.ndarray, Ec: np.ndarray, dt: float):
    """Zero-order-hold discretization (Van Loan): the top block row of
    ``exp([[Ac, Bc, Ec], [0, 0, 0]] dt)`` is ``[Ad, Bd, Ed]``, summed as one
    truncated series until a term falls below ``_ZOH_TOL``."""
    n, m = Ac.shape[0], Bc.shape[1]
    M = np.hstack([Ac, Bc, Ec]) * dt
    # the block matrix has zero rows below its first n, so the top block row
    # of its k-th power over k! is term_k = (Ac dt)^(k-1) M / k!
    term = M
    total = np.eye(n, M.shape[1]) + term
    k = 1
    while float(np.max(np.abs(term))) >= _ZOH_TOL:
        k += 1
        if k > 400:
            raise NumericalError("matrix exponential series did not settle")
        term = M[:, :n] @ term / k
        total = total + term
    return total[:, :n], total[:, n : n + m], total[:, n + m :]


def bicycle_system(model: dict, bounds: dict) -> LinearSystem:
    """Discretized single-track lateral model at constant speed.

    States: lateral displacement y, lateral velocity v, yaw angle error, yaw
    rate.  The disturbance is the road-curvature yaw-rate term entering the
    yaw-angle equation; the input is the steering angle.

    Every number must be finite, mass, yaw inertia, axle distances, cornering
    stiffnesses, speed and sample time positive and the bounds nonnegative
    (:class:`ConfigError` otherwise), before any arithmetic on them; finite
    numbers whose model overflows, or whose discretization overflows or
    takes an invalid value, raise :class:`ConfigError` too.
    """
    try:
        m = {key: float(model[key]) for key in ("mass", "yaw_inertia", "lf", "lr", "cf", "cr", "speed")}
        m["dt"] = float(model.get("dt", 0.1))
        b = {key: float(bounds[key]) for key in ("y", "v", "yaw", "yaw_rate", "steer", "rd")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed bicycle config: {exc}") from exc
    for name, value in {**m, **b}.items():
        if not math.isfinite(value):
            raise ConfigError(f"inconsistent bicycle config: {name} must be finite, got {value}")
        if value < 0 and name in b or value <= 0 and name not in b:
            need = "nonnegative" if name in b else "positive"
            raise ConfigError(f"inconsistent bicycle config: {name} must be {need}, got {value}")
    mass, inertia, lf, lr, cf, cr, speed, dt = m.values()
    y_max, v_max, yaw_max, rate_max, steer_max, rd_max = b.values()

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            Ac = np.array(
                [
                    [0.0, 1.0, speed, 0.0],
                    [0.0, -(cf + cr) / (mass * speed), 0.0, (cr * lr - cf * lf) / (mass * speed) - speed],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, (cr * lr - cf * lf) / (inertia * speed), 0.0, -(cf * lf**2 + cr * lr**2) / (inertia * speed)],
                ]
            )
            Bc = np.array([[0.0], [cf / mass], [0.0], [cf * lf / inertia]])
            Ec = np.array([[0.0], [0.0], [-1.0], [0.0]])
            Ad, Bd, Ed = zoh_discretize(Ac, Bc, Ec, dt)
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"inconsistent bicycle config: the model leaves the float range ({exc})") from exc

    state_bounds = np.array([y_max, v_max, yaw_max, rate_max])
    try:
        return LinearSystem(
            A=Ad, B=Bd, E=Ed,
            dist_set=Hyperbox.from_bounds([-rd_max], [rd_max]),
            safe=lift(HPolytope.from_bounds(-state_bounds, state_bounds), Hyperbox.cube(1, steer_max), 1),
        )
    except ValueError as exc:
        raise ConfigError(f"inconsistent bicycle config: {exc}") from exc


def load_simulation_config(data: dict):
    """Read a parsed config: the generic system schema or the bicycle-model
    schema.  Returns ``(LinearSystem, lqr_options: dict)``, the config's
    ``lqr`` object as it is; anything but a dict, or an ``lqr`` block whose
    ``q_state`` is not ``n`` finite nonnegative numbers or whose ``r`` is not
    one finite positive number, raises :class:`ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError("simulation config must be a JSON object")
    if "A" in data:
        sys, _ = system_from_config(data)
    elif "model" in data and "bounds" in data:
        sys = bicycle_system(data["model"], data["bounds"])
    else:
        raise ConfigError("config must provide either matrices or a bicycle model")
    lqr_opts = data.get("lqr", {})
    if not isinstance(lqr_opts, dict):
        raise ConfigError("lqr must be a JSON object")
    q_state = lqr_opts.get("q_state", [1.0] * sys.n)
    try:
        q = np.asarray(q_state, dtype=float)
    except (TypeError, ValueError, OverflowError):
        q = np.empty(0)
    if q.shape != (sys.n,) or not (np.isfinite(q) & (q >= 0)).all():
        raise ConfigError(f"lqr q_state must be {sys.n} finite nonnegative numbers, got {q_state!r}")
    r = lqr_opts.get("r", 1.0)
    if isinstance(r, bool) or not isinstance(r, (int, float)) or not 0 < r <= np.finfo(float).max:
        raise ConfigError(f"lqr r must be one finite positive number, got {r!r}")
    return sys, lqr_opts


@dataclass
class LaneKeepingResult:
    sys: LinearSystem
    p: int
    cmax0: HPolytope
    cio: HPolytope
    gap_found: bool
    gap_state: Optional[np.ndarray]
    trace_preview: Optional[Trace]
    trace_no_preview: Optional[Trace]
    script: Optional[np.ndarray]


def _augmented_lqr(preview: PreviewSystem, lqr_opts: dict) -> np.ndarray:
    # the options were checked by load_simulation_config
    aug = preview.aug
    q_state = np.asarray(lqr_opts.get("q_state", np.ones(preview.base.n)), dtype=float)
    Q = np.diag(np.concatenate([q_state, np.zeros(aug.n - q_state.size)]))
    return lqr_gain(aug, LQRSpec(Q=Q, R=float(lqr_opts.get("r", 1.0)) * np.eye(aug.m)))


def _find_gap_state(seed: HPolytope, grown: HPolytope):
    """LP search of grown \\ seed: maximize each seed facet over the grown set
    and keep the deepest violation, backed off toward the interior of the
    grown set (a boundary vertex would start the rollout with degenerate
    admissible sets).  A later facet replaces an earlier one only when its
    violation is deeper by more than 1e-9, so last-bit changes in the model
    do not switch facets."""
    best_slack = -np.inf
    best_point = None
    best_row = None
    for i in range(seed.nrows):
        res = grown.maximize(seed.H[i])
        if res.point is None:
            continue
        slack = res.objective - seed.h[i]
        if slack > best_slack + 1e-9:
            best_slack, best_point, best_row = slack, res.point, i
    if best_point is None or best_slack <= _GAP_SLACK:
        return None, None
    normal = seed.H[best_row]
    center = grown.feasible_point()
    center_slack = float(normal @ center - seed.h[best_row])
    # largest interior blend that keeps at least half the facet violation
    target = 0.5 * best_slack
    if center_slack >= target:
        t = 1.0
    else:
        t = (best_slack - target) / (best_slack - center_slack)
    point = best_point + t * (center - best_point)
    return point, normal


def _candidate_scripts(
    preview_d: np.ndarray,
    dist: Hyperbox,
    push_dir: Optional[np.ndarray],
    E: np.ndarray,
    total: int,
    seed: int,
) -> list:
    """Deterministic disturbance scripts: extreme-value candidates first
    (constant vertex aligned with / against the violated facet), then an
    alternating pattern, then seeded random vertices."""
    l = dist.dim
    p = preview_d.shape[0]
    lo, hi = dist.lo, dist.hi
    if push_dir is not None and E.size:
        impact = E.T @ push_dir[: E.shape[0]]
        aligned = np.where(impact >= 0, hi, lo)
    else:
        aligned = hi
    opposed = lo + hi - aligned

    def tail(pattern: Callable[[int], np.ndarray]) -> np.ndarray:
        rows = [pattern(t) for t in range(total - p)]
        return np.vstack([preview_d, np.array(rows).reshape(-1, l)])

    rng = np.random.default_rng(seed)
    candidates = [
        tail(lambda t: aligned),
        tail(lambda t: opposed),
        tail(lambda t: aligned if (t // 2) % 2 == 0 else opposed),
    ]
    picks = rng.integers(0, 2, size=(total - p, l))
    candidates.append(
        np.vstack([preview_d, np.where(picks == 1, hi, lo)])
    )
    return candidates


def lane_keeping(
    config: dict,
    p: int = 5,
    T: int = 100,
    seed: int = 0,
    K: int = 10,
    max_iter: int = 200,
) -> LaneKeepingResult:
    """The preview-value demonstration on a parsed ``config`` (see
    :func:`load_simulation_config`): grow the no-preview invariant set under
    p-step preview, pick a start in the grown set but outside the lifted
    no-preview set, and roll out both supervisors on one disturbance script.

    The script is chosen adversarially for the no-preview supervisor among a
    deterministic family of extreme-disturbance candidates (the study only
    fixes the start state, not the disturbances); the preview-supervised
    trace is safe for any script by invariance.  When the grown set does not
    strictly contain the lifted seed the result reports ``gap_found=False``
    instead of failing.
    """
    sys, lqr_opts = load_simulation_config(config)
    cmax0 = method1(sys, max_iter).result
    preview = augment(sys, p)
    seed_set = lift(cmax0, sys.dist_set, p)
    grown = method2(preview.aug, seed_set, K).result

    gap_state, push_dir = _find_gap_state(seed_set, grown)
    if gap_state is None:
        return LaneKeepingResult(
            sys=sys, p=p, cmax0=cmax0, cio=grown, gap_found=False,
            gap_state=None, trace_preview=None, trace_no_preview=None, script=None,
        )

    n, l = sys.n, sys.l
    x0 = gap_state[:n]
    preview_d = gap_state[n:].reshape(p, l)

    gain = _augmented_lqr(preview, lqr_opts)

    def controller(t: int, x: np.ndarray, window: np.ndarray) -> np.ndarray:
        xi = np.concatenate([x, window.ravel()])
        return -gain @ xi

    input_box = _input_box_of(sys)
    sup_preview = Supervisor(sys=preview.aug, invariant=grown, input_box=input_box)
    sup_plain = Supervisor(sys=sys, invariant=cmax0, input_box=input_box)

    chosen = None
    chosen_trace = None
    for script in _candidate_scripts(
        preview_d, sys.dist_set, push_dir, sys.E, T + p, seed
    ):
        trace = rollout(sys, p, controller, sup_plain, x0, script, T)
        if chosen is None:
            chosen, chosen_trace = script, trace
        if not trace.all_safe:
            chosen, chosen_trace = script, trace
            break
    trace_preview = rollout(sys, p, controller, sup_preview, x0, chosen, T)
    return LaneKeepingResult(
        sys=sys, p=p, cmax0=cmax0, cio=grown, gap_found=True,
        gap_state=gap_state, trace_preview=trace_preview,
        trace_no_preview=chosen_trace, script=chosen,
    )


def _input_box_of(sys: LinearSystem) -> Hyperbox:
    """Input bounds read off the safe set (fallback for empty admissibility)."""
    lo = np.full(sys.m, -np.inf)
    hi = np.full(sys.m, np.inf)
    Hu = sys.safe.H[:, sys.n :]
    Hx = sys.safe.H[:, : sys.n]
    for i in range(sys.safe.nrows):
        if np.any(np.abs(Hx[i]) > 1e-12):
            continue
        for j in range(sys.m):
            a = Hu[i, j]
            others = np.abs(np.delete(Hu[i], j)).sum() if sys.m > 1 else 0.0
            if abs(a) > 1e-12 and others <= 1e-12:
                bound = sys.safe.h[i] / a
                if a > 0:
                    hi[j] = min(hi[j], bound)
                else:
                    lo[j] = max(lo[j], bound)
    lo = np.where(np.isfinite(lo), lo, -1e6)
    hi = np.where(np.isfinite(hi), hi, 1e6)
    return Hyperbox.from_bounds(lo, hi)
