"""Scenario files: named catalogs plus YAML parsing.

One scenario file describes one experiment: the convex pair (phi, psi), the
coefficient selections, structural constants, optional domain, grid, solver
settings, eps ladder, and seed.  All randomness in a run derives from the
scenario seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .convex import AssumptionConstants, ConvexFunction, make_convex, validate_weights
from .drivers import TimeGrid
from .reflected import DomainSpec, make_domain
from .solver import CoefficientSet, SolverConfig

__all__ = ["Scenario", "ScenarioError", "load_scenario", "make_f", "make_g", "make_h", "make_terminal"]


# libyaml's parser when PyYAML was built with it; both loaders resolve and
# construct with the same safe Python code, so they yield equal documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Raised when a scenario file fails validation."""


def _zeros_like_y(t, x, y, z=None):
    return np.zeros_like(y)


def make_f(spec: dict):
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return _zeros_like_y
    if kind == "constant":
        c = float(spec["value"])
        return lambda t, x, y, z: np.full_like(y, c)
    if kind == "linear":
        a_y = float(spec.get("a_y", 0.0))
        c = float(spec.get("c", 0.0))
        a_z = float(spec.get("a_z", 0.0))
        return lambda t, x, y, z: a_y * y + a_z * np.sum(z, axis=-1) + c
    raise ScenarioError(f"unknown f kind {kind!r}")


def make_g(spec: dict):
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return lambda t, x, y: np.zeros_like(y)
    if kind == "constant":
        c = float(spec["value"])
        return lambda t, x, y: np.full_like(y, c)
    if kind == "linear":
        a_y = float(spec.get("a_y", 0.0))
        c = float(spec.get("c", 0.0))
        return lambda t, x, y: a_y * y + c
    raise ScenarioError(f"unknown g kind {kind!r}")


def make_h(spec: dict):
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return lambda t, x, y, z: np.zeros(y.shape + (z.shape[-1],))
    if kind == "constant":
        c = float(spec["value"])
        return lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), c)
    if kind == "linear":
        a_y = float(spec.get("a_y", 0.0))
        c = float(spec.get("c", 0.0))
        return lambda t, x, y, z: (a_y * y + c)[..., None] * np.ones(z.shape[-1])
    raise ScenarioError(f"unknown h kind {kind!r}")


def make_terminal(spec: dict):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return float(spec.get("value", 0.0))
    if kind == "quadratic_norm":
        return lambda x: np.sum(x * x, axis=-1)
    if kind == "identity":
        return lambda x: x[..., 0]
    raise ScenarioError(f"unknown terminal kind {kind!r}")


@dataclass
class Scenario:
    name: str
    phi: ConvexFunction
    psi: ConvexFunction
    coeffs: CoefficientSet
    grid: TimeGrid
    solver: SolverConfig
    seed: int
    n_paths: int
    eps_ladder: list
    domain: Optional[DomainSpec] = None
    sigma: float = 1.0
    drift: float = 0.0
    a_process: str = "time"  # "time" | "none" | Markov local time when a domain is set
    lattice: Optional[dict] = None
    weight_warning: Optional[str] = None
    raw: dict = field(default_factory=dict)


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    with open(path) as fh:
        raw = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must be a mapping")
    overrides = overrides or {}
    raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        name = raw.get("name", "unnamed")
        phi = make_convex(raw.get("phi", "zero"))
        psi = make_convex(raw.get("psi", "zero"))
        cs = raw.get("constants", {})
        constants = AssumptionConstants(
            beta1=float(cs.get("beta1", 0.0)),
            beta2=float(cs.get("beta2", 0.0)),
            K=float(cs.get("K", 0.0)),
            alpha=float(cs.get("alpha", 0.5)),
            lam=float(cs.get("lam", 3.0)),
            mu=float(cs.get("mu", 1.5)),
        )
        co = raw.get("coefficients", {})
        coeffs = CoefficientSet(
            f=make_f(co.get("f", {"kind": "zero"})),
            g=make_g(co.get("g", {"kind": "zero"})),
            h=make_h(co.get("h", {"kind": "zero"})),
            terminal=make_terminal(co.get("terminal", {"kind": "constant"})),
            constants=constants,
        )
        gs = raw.get("grid", {})
        grid = TimeGrid.uniform(float(gs.get("t0", 0.0)), float(gs.get("T", 1.0)),
                                int(raw.get("steps") or gs.get("steps", 100)))
        sv = raw.get("solver", {})
        regression = sv.get("regression", "sample-mean")
        if isinstance(regression, dict):
            regression = (regression["kind"], regression.get("degree", regression.get("cells", 2)))
        solver = SolverConfig(
            grid=grid,
            eps=float(raw.get("eps") or sv.get("eps", 1e-3)),
            scheme=sv.get("scheme", "implicit-prox"),
            regression=regression,
        )
        domain = None
        if "domain" in raw and raw["domain"]:
            dspec = dict(raw["domain"])
            domain = make_domain(dspec.pop("kind"), **dspec)
        if regression == "sample-mean" and (domain is not None or callable(coeffs.terminal)):
            # the pathwise value update it takes holds only for state-free data
            raise ScenarioError("regression sample-mean needs a constant terminal and no domain;"
                                " use poly or partition")
        ladder = [float(e) for e in raw.get("eps_ladder", [])]
        scn = Scenario(
            name=name,
            phi=phi,
            psi=psi,
            coeffs=coeffs,
            grid=grid,
            solver=solver,
            seed=int(raw.get("seed", 0)),
            n_paths=int(raw.get("paths", 100)),
            eps_ladder=ladder,
            domain=domain,
            sigma=float(raw.get("sigma", 1.0)),
            drift=float(raw.get("drift", 0.0)),
            a_process=raw.get("a_process", "time"),
            lattice=raw.get("lattice"),
            raw=raw,
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    wr = validate_weights(constants)
    if not wr.ok:
        # sufficient-not-necessary inequalities: warn, do not abort
        scn.weight_warning = (
            f"weight constants outside the sufficient region: "
            f"lam margin {wr.lam_margin:.4g}, mu margin {wr.mu_margin:.4g}"
        )
    return scn
