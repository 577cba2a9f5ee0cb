"""The three benchmark workloads: set-up, timed operations and checks.

Each workload is a closed loop with one caller: ``run_item`` performs one
checked item, calling ``timed`` around every operation it times, and runs the
item's check outside those calls.  The worker scales every time to the
reference machine's speed, by the run's calibration or, when
``per_op_calibration`` is set, by calibration runs around and inside each
operation.
Library functions are always looked up on their module at call time, so that
the traced run's wrappers see the calls.

* ``maxset``: one Method 1 run on a shift register per item; the LP-bound,
  offline synthesis path.
* ``preview_control``: one criterion-8 rollout per item, each step one timed
  ``controller_g`` call; pure Python, no LPs.
* ``lane_keeping``: one supervised bicycle rollout per item; many tiny LPs,
  and a set-up that grows sets with Method 2.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import generators as gen
from previewsafe import brunovsky, invariance, simulation, systems
from previewsafe.geometry import Hyperbox, polytope


class MaxSet:
    """Item: ``method1(augment(sys, p).aug)``; check: converged and equal to
    the closed form (acceptance criterion 3's oracle)."""

    # an operation takes up to seconds, and the host's speed changes within
    # tens of milliseconds, so each is scaled by calibration runs around and
    # inside it
    per_op_calibration = True

    def setup(self, rng):
        self.specs = gen.maxset_specs(rng)
        self.oracles = [
            brunovsky.to_hpolytope(brunovsky.closed_form(spec.problem())) for spec in self.specs
        ]
        return len(self.specs)

    def run_item(self, i, timed) -> bool:
        spec = self.specs[i]
        box = Hyperbox.from_bounds(spec.box_lo, spec.box_hi)
        sys = systems.make_brunovsky(spec.n, spec.dist(), box)
        report = timed(lambda: invariance.method1(systems.augment(sys, spec.p).aug))
        return report.converged and polytope.set_equal(report.result, self.oracles[i], tol=1e-6)

    def warm_up(self) -> None:
        # the smallest problem, so that set-up time does not depend on the order
        smallest = min(range(len(self.specs)), key=lambda i: self.specs[i].n * (self.specs[i].p + 1))
        self.run_item(smallest, lambda fn: fn())


class PreviewControl:
    """Item: an (n + 3)-step rollout, one timed ``controller_g`` call per
    step; check: in the invariant at t = n and in the box afterwards
    (acceptance criterion 8)."""

    extra = 3
    # a call takes 1 to 10 ms, less than calibration runs around it would;
    # the run's median kernel time tracks these short calls well
    per_op_calibration = False

    def setup(self, rng):
        self.rollouts = gen.control_rollouts(rng, extra=self.extra)
        self.problems = [r.spec.problem() for r in self.rollouts]
        self.systems = [prob.system() for prob in self.problems]
        self.invariants = [brunovsky.closed_form(prob) for prob in self.problems]
        return len(self.rollouts)

    def run_item(self, i, timed) -> bool:
        prob, sys, inv = self.problems[i], self.systems[i], self.invariants[i]
        script = self.rollouts[i].script
        n, p = prob.n, prob.p
        x = self.rollouts[i].x0
        ok = True
        for t in range(n + self.extra):
            window = list(script[t : t + p])
            u = timed(lambda: brunovsky.controller_g(prob, window))
            x = sys.A @ x + sys.B @ [u] + sys.E @ script[t]
            if t == n - 1:
                ok = ok and brunovsky.membership(inv, x, list(script[n : n + p]), tol=1e-7)
            if t >= n - 1:
                ok = ok and prob.box.contains(x, tol=1e-7)
        return ok

    def warm_up(self) -> None:
        prob = self.problems[0]
        brunovsky.controller_g(prob, list(self.rollouts[0].script[: prob.p]))


class LaneKeeping:
    """Set-up: Method 1 on the bundled bicycle model, Method 2 growth of the
    lifted seed at each preview, LQR gains and supervisors.  Item: one
    fixed-length supervised rollout from a start in the grown set under a
    vertex disturbance script; check: every step safe (by invariance)."""

    # as for maxset; a rollout takes about 60 ms
    per_op_calibration = True
    previews = (2, 5, 8)
    # 102 rollouts, so that at least ten lie beyond the 90th percentile
    starts_per_preview = 34
    steps = 50
    growth_budget = 10

    def __init__(self, src: Path):
        self.config = json.loads(
            (src / "previewsafe" / "configs" / "lane_keeping.json").read_text(encoding="utf-8")
        )

    def setup(self, rng):
        sys, lqr_opts = simulation.load_simulation_config(self.config)
        steer = float(self.config["bounds"]["steer"])
        input_box = Hyperbox.from_bounds([-steer], [steer])
        q_state = np.asarray(lqr_opts.get("q_state", np.ones(sys.n)), dtype=float)
        r = float(lqr_opts.get("r", 1.0))
        cmax0 = invariance.method1(sys).result
        self.sys = sys
        self.items = []
        for p in self.previews:
            aug = systems.augment(sys, p).aug
            seed_set = invariance.lift(cmax0, sys.dist_set, p)
            grown = invariance.method2(aug, seed_set, self.growth_budget).result
            Q = np.diag(np.concatenate([q_state, np.zeros(aug.n - sys.n)]))
            gain = simulation.lqr_gain(aug, simulation.LQRSpec(Q=Q, R=r * np.eye(aug.m)))
            sup = simulation.Supervisor(sys=aug, invariant=grown, input_box=input_box)

            def controller(t, x, window, gain=gain):
                return -gain @ np.concatenate([x, window.ravel()])

            lo, hi = sys.dist_set.lo, sys.dist_set.hi
            for _ in range(self.starts_per_preview):
                z = gen.point_in(grown, rng)
                script = gen.vertex_script(rng, z[sys.n :].reshape(p, sys.l), lo, hi, self.steps)
                self.items.append((p, controller, sup, z[: sys.n], script))
        self.items = [self.items[i] for i in rng.permutation(len(self.items))]
        return len(self.items)

    def run_item(self, i, timed) -> bool:
        p, controller, sup, x0, script = self.items[i]
        trace = timed(
            lambda: simulation.rollout(self.sys, p, controller, sup, x0, script, self.steps)
        )
        return len(trace) == self.steps and trace.all_safe

    def warm_up(self) -> None:
        self.run_item(0, lambda fn: fn())


def make(name: str, src: Path):
    if name == "maxset":
        return MaxSet()
    if name == "preview_control":
        return PreviewControl()
    if name == "lane_keeping":
        return LaneKeeping(src)
    raise ValueError(f"unknown workload {name!r}")
