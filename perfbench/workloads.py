"""The four benchmark workloads.

Each workload generates its inputs from the workload seed (scenario YAMLs go
into a private temp dir), and then runs *operations*: one operation is one
`bdsvi` command through `bdsvi.cli.run`, or one calculus pass through the
public API.  Every operation gets its own derived seed and is checked for
correctness after the timed call.  `ref_op_s` is a workload's median
operation time on the reference machine (2 vCPUs, Intel Xeon); it
sizes the fixed operation count of a run.

Why these four (see README.md for the layer map):
  ladder     the paper's eps -> 0 study; few paths, many steps, so the
             per-step overhead in `solver` and `convex` dominates.
  reflected  a large Markov batch in the 2-d ball; array work in `drivers`,
             `reflected` and the regression in `solver` dominates.
  field      the value-field lattice; the same layers as `reflected` but as
             20 node solves, so per-call overhead and `field` dominate.
  calculus   the lattice prox oracle and the Doss-Sussmann flow, the only
             workload that runs `convex.grid_prox_oracle` and `flow`.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace

import numpy as np
import yaml

import bdsvi
import bdsvi.cli


@dataclass
class OpResult:
    ok: bool
    path_steps: int
    detail: str


def op_seed(seed: int, index: int) -> int:
    """Distinct 31-bit seed for operation `index` of a run with `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# CLI workloads: one `bdsvi` command on a generated scenario
# ---------------------------------------------------------------------------

_VI_BARRIER = {
    "phi": "indicator_box(-inf,0.5)",
    "psi": "zero",
    "coefficients": {"f": {"kind": "constant", "value": 1.0}, "g": {"kind": "zero"},
                     "h": {"kind": "zero"}, "terminal": {"kind": "constant", "value": 0.0}},
    "constants": {"beta1": 0.0, "beta2": 0.0, "K": 0.0, "alpha": 0.5, "lam": 3.0, "mu": 1.5},
}

# The barrier oracle of scenarios/cauchy.yaml with the ladder cut to three
# rungs and the grid to 500 steps, so dt = eps_min / 2 as the explicit
# scheme requires.  Short operations let the fastest one fall inside a quiet
# spell of a shared host.
LADDER = dict(_VI_BARRIER, name="bench-ladder",
              grid={"t0": 0.0, "T": 1.0, "steps": 500},
              solver={"eps": 4.0e-3, "scheme": "explicit-yosida", "regression": "sample-mean"},
              eps_ladder=[1.0e-1, 1.0e-2, 4.0e-3], a_process="none", paths=4)

# scenarios/ball.yaml at 2000 paths and 200 steps.
REFLECTED = {
    "name": "bench-reflected",
    "phi": "zero",
    "psi": "zero",
    "coefficients": {"f": {"kind": "zero"}, "g": {"kind": "constant", "value": 0.1},
                     "h": {"kind": "zero"}, "terminal": {"kind": "quadratic_norm"}},
    "constants": {"beta1": 0.0, "beta2": 0.0, "K": 0.0, "alpha": 0.5, "lam": 3.0, "mu": 1.5},
    "domain": {"kind": "ball", "dim": 2, "radius": 1.0},
    "start": [0.0, 0.0],
    "sigma": 1.0,
    "drift": 0.0,
    "grid": {"t0": 0.0, "T": 1.0, "steps": 200},
    "solver": {"eps": 1.0e-3, "scheme": "implicit-prox", "regression": {"kind": "poly", "degree": 2}},
    "paths": 2000,
}

# scenarios/field.yaml; the exact field is u = T - t.
FIELD = {
    "name": "bench-field",
    "phi": "zero",
    "psi": "zero",
    "coefficients": {"f": {"kind": "constant", "value": 1.0}, "g": {"kind": "zero"},
                     "h": {"kind": "zero"}, "terminal": {"kind": "constant", "value": 0.0}},
    "constants": {"beta1": 0.0, "beta2": 0.0, "K": 0.0, "alpha": 0.5, "lam": 3.0, "mu": 1.5},
    "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0},
    "sigma": 1.0,
    "drift": 0.0,
    "grid": {"t0": 0.0, "T": 1.0, "steps": 50},
    "solver": {"eps": 1.0e-3, "scheme": "implicit-prox", "regression": {"kind": "poly", "degree": 2}},
    "lattice": {"times": 5, "points": 5, "draws": 1},
    "paths": 200,
}


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_ladder(scn, out):
    """Slope of the sup gap vs (eps + delta), refitted from cauchy.csv."""
    rows = _csv(os.path.join(out, "cauchy.csv"))
    slope = float(np.polyfit(np.log(rows[:, 0] + rows[:, 1]), 0.5 * np.log(rows[:, 2]), 1)[0])
    ok = len(rows) == len(scn["eps_ladder"]) - 1 and 0.75 <= slope <= 1.25
    return ok, f"slope {slope:.4f}"


def _check_reflected(scn, out):
    """Finite solve.csv, terminal values in the range of |x|^2 on the ball,
    and the mean balance E[Y_0] - E[Y_T] = g (E[A_T] - E[A_0]), which the
    poly projection (its basis holds the constants) keeps exact when
    f = h = 0 and phi = psi = 0."""
    rows = _csv(os.path.join(out, "solve.csv"))
    mean_y, mean_a = rows[:, 1], rows[:, 6]
    g = scn["coefficients"]["g"]["value"]
    r2 = scn["domain"]["radius"] ** 2
    balance = abs((mean_y[0] - mean_y[-1]) - g * (mean_a[-1] - mean_a[0]))
    ok = (bool(np.all(np.isfinite(rows))) and len(rows) == scn["grid"]["steps"] + 1
          and 0.0 <= mean_y[-1] <= r2 and balance <= 1e-9)
    return ok, f"mean balance {balance:.2e}, E[Y_T] {mean_y[-1]:.4f}"


def _check_field(scn, out):
    """max |u - (T - t)| <= 2 dt over the lattice."""
    rows = _csv(os.path.join(out, "field.csv"))
    T = scn["grid"]["T"]
    dt = (T - scn["grid"]["t0"]) / scn["grid"]["steps"]
    err = float(np.max(np.abs(rows[:, 2] - (T - rows[:, 0]))))
    lat = scn["lattice"]
    ok = (bool(np.all(np.isfinite(rows))) and len(rows) == lat["times"] * lat["points"]
          and err <= 2.0 * dt)
    return ok, f"max |u - (T - t)| {err:.2e}"


def _steps_fixed(scn, out):
    """Backward path-steps of every solve: paths x steps per eps rung."""
    return scn["paths"] * scn["grid"]["steps"] * max(1, len(scn.get("eps_ladder", [])))


def _steps_field(scn, out):
    """One solve per (draw, lattice node) before T, over the steps left to T."""
    rows = _csv(os.path.join(out, "field.csv"))
    T = scn["grid"]["T"]
    dt = (T - scn["grid"]["t0"]) / scn["grid"]["steps"]
    steps_left = np.rint((T - rows[:, 0]) / dt).astype(int)
    return int(scn["lattice"]["draws"] * scn["paths"] * steps_left.sum())


class CliWorkload:
    """One `bdsvi <command>` per operation on a scenario generated from the seed."""

    def __init__(self, command, scenario, check, path_steps, ref_op_s):
        self.command = command
        self.scenario = scenario
        self.check = check
        self.path_steps = path_steps
        self.ref_op_s = ref_op_s

    def setup(self, seed, tmp):
        self.scn = dict(self.scenario, seed=op_seed(seed, 2**31 - 1))
        self.path = os.path.join(tmp, f"{self.scn['name']}.yaml")
        with open(self.path, "w") as fh:
            yaml.safe_dump(self.scn, fh, sort_keys=False)
        self.out = os.path.join(tmp, "out")
        bdsvi.load_scenario(self.path)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, seed):
        return bdsvi.cli.run([self.command, "--scenario", self.path, "--seed", str(seed),
                              "--out", self.out, "--quiet"])

    def result(self, code):
        if code != 0:
            return OpResult(False, 0, f"exit code {code}")
        ok, detail = self.check(self.scn, self.out)
        return OpResult(bool(ok), self.path_steps(self.scn, self.out), detail)


# ---------------------------------------------------------------------------
# calculus: lattice prox oracle and Doss-Sussmann flow, in process
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("zero", "quadratic(1.0)", "abs", "indicator_box(-1,1)", "hinge_sq")

# acceptance 07's linear coefficient, on which the round trip holds to 1e-9
LINEAR = bdsvi.FlowSpec(h=lambda t, x, u: np.asarray(u, dtype=float),
                        d_u=lambda t, x, u: np.ones_like(np.asarray(u, dtype=float)))


class CalculusWorkload:
    """The lattice prox oracle and the Doss-Sussmann flow, through the public API.

    Each check takes its set-up and tolerance from the project's tests: the
    law suite on the lattice oracle as in acceptance 01 (k = 1, 1e-5); a
    k = 2 lattice prox of `abs` against its closed form, to the 1e-6 of
    test_grid_oracle_two_dim; the flow round trip on acceptance 07's
    linear coefficient (1e-9); and, on a smooth nonlinear coefficient, a
    forward flow that is increasing in y (test_flow_monotone_in_y) and
    finite penalized coefficient transforms.
    """

    law_samples = 1000      # per catalog function, k = 1
    lattice_points_2d = 300
    flow_steps = 200
    flow_queries = 500
    transform_points = 24
    ref_op_s = 0.27

    def setup(self, seed, tmp):
        rng = np.random.default_rng(op_seed(seed, 2**31 - 1))
        self.times = np.linspace(0.3, 1.0, self.flow_steps + 1)
        self.spec = bdsvi.FlowSpec(h=lambda t, x, u: 0.5 * np.sin(u) + 0.2,
                                   d_u=lambda t, x, u: 0.5 * np.cos(u))
        self.base_y = rng.uniform(-2.0, 2.0, self.flow_queries)
        self.abs = bdsvi.make_convex("abs")

    def prepare(self):
        pass

    def run(self, seed):
        rng = np.random.default_rng(seed)
        worst = -np.inf
        for i, name in enumerate(CATALOG_NAMES):
            theta = replace(bdsvi.make_convex(name), prox_oracle=None)
            worst = max(worst, max(bdsvi.prox_property_suite(
                theta, n_samples=self.law_samples, seed=seed + i).values()))
        x2 = rng.uniform(-3.0, 3.0, (self.lattice_points_2d, 2))
        eps2 = 10.0 ** rng.uniform(-3.0, 0.0, self.lattice_points_2d)
        j2 = bdsvi.prox(replace(self.abs, prox_oracle=None), eps2, x2)

        dB = rng.normal(size=self.flow_steps) * np.sqrt(np.diff(self.times))
        B = np.concatenate([[0.0], np.cumsum(dB)])
        x = np.zeros(1)
        y = np.sort(self.base_y + rng.uniform(-0.1, 0.1, self.base_y.size))
        eta = bdsvi.flow(LINEAR, x, y, self.times, B).eta
        round_trip = float(np.max(np.abs(bdsvi.flow_inverse(LINEAR, x, eta, self.times, B) - y)))
        eta_nonlinear = bdsvi.flow(self.spec, x, y, self.times, B).eta

        domain = bdsvi.make_domain("interval", lo=-1.0, hi=1.0)
        phi, psi = bdsvi.make_convex("indicator_box(-inf,0.5)"), self.abs
        f = lambda t, x, y, z: 1.0 - 0.5 * y + 0.1 * float(np.sum(z))
        g = lambda t, x, y: 0.2 * y
        transforms = [bdsvi.transform_penalized(self.spec, f, g, phi, psi, 0.05, domain, 1.0, 0.0,
                                                (0.3, np.array([px]), py, np.array([pz])), self.times, B)
                      for px, py, pz in rng.uniform(-0.9, 0.9, (self.transform_points, 3))]
        return worst, (eps2, x2, j2), round_trip, eta_nonlinear, np.asarray(transforms)

    def result(self, out):
        worst, (eps2, x2, j2), round_trip, eta_nonlinear, transforms = out
        lattice_2d = float(np.max(np.abs(j2 - self.abs.prox_oracle(eps2, x2))))
        ok = (worst <= 1e-5 and lattice_2d <= 1e-6 and round_trip <= 1e-9
              and bool(np.all(np.diff(eta_nonlinear) > 0.0)) and bool(np.all(np.isfinite(transforms))))
        # flow path-steps: both forward passes, the inverse, and one path per transform point
        steps = self.flow_steps * (3 * self.flow_queries + self.transform_points)
        return OpResult(bool(ok), steps, f"worst law violation {worst:.2e}, k=2 lattice error "
                                         f"{lattice_2d:.2e}, round trip {round_trip:.2e}")


def make(name):
    if name == "ladder":
        return CliWorkload("cauchy", LADDER, _check_ladder, _steps_fixed, 0.3)
    if name == "reflected":
        return CliWorkload("solve", REFLECTED, _check_reflected, _steps_fixed, 0.65)
    if name == "field":
        return CliWorkload("field", FIELD, _check_field, _steps_field, 0.7)
    if name == "calculus":
        return CalculusWorkload()
    raise KeyError(f"unknown workload {name!r}")

