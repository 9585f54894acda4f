"""Scenario files: named catalogs plus YAML parsing.

One scenario file describes one experiment: the convex pair (phi, psi), the
coefficient selections, structural constants, grid, solver settings, eps
ladder, seed, and one of two forward models.  With a domain it is the reflected
diffusion of start, sigma and drift; without one there is no state, and dim and
a_process (A = t or A = 0) are read instead.  A key of the other kind fails at
load.  All randomness in a run derives from the scenario seed.  `load_scenario`
is the only reader of the file: it builds every object a command uses, so a
bad section fails at load for every command.  The estimator, eps-ladder,
domain, closure, forward-model and seed rules are checked by their owners,
and `load_scenario` re-raises an owner's ValueError as a ScenarioError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from .convex import AssumptionConstants, ConvexFunction, make_convex, validate_weights
from .drivers import TimeGrid, _stream_key
from .field import FieldGrid, _continuity_pairs
from .reflected import ForwardModel, _check_closure, make_domain
from .solver import CoefficientSet, SolverConfig, _Affine, _check_ladder, _check_regression

__all__ = ["Scenario", "ScenarioError", "load_scenario", "make_coefficients", "make_terminal"]


# libyaml's parser when PyYAML was built with it; both loaders resolve and
# construct with the same safe Python code, so they yield equal documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Raised when a scenario file fails validation."""


def _whole(value, key):
    """A count or seed setting as an int: 7.0 loads as 7, but int() would truncate
    7.9 to another run's setting, and true would run as 1, so a fraction, inf, nan
    or boolean fails."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _real(value, key):
    """A real setting as a float: YAML text such as 1e-3, which PyYAML reads as a string, loads as its number,
    but true would run as 1.0, so a boolean fails."""
    if isinstance(value, bool):
        raise ScenarioError(f"{key} must be a real number, got {value!r}")
    return float(value)


def _mapping(spec, where):
    """spec, which must be a mapping: a list or a number would fail later, with a message naming no section."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(spec).__name__} {spec!r}")
    return spec


def _keys(spec, where, *known):
    """spec, its keys all known: a misspelled key fails at load instead of leaving its default in force."""
    unknown = sorted(map(str, _mapping(spec, where).keys() - known))
    if unknown:
        raise ScenarioError(f"unknown {where} key(s) {', '.join(unknown)}; known: {', '.join(known)}")
    return spec


def _kind(spec, where, default, kinds):
    """The kind a section names, with its other keys checked against that kind's."""
    kind = _mapping(spec, where).get("kind", default)
    if kind not in kinds:
        raise ScenarioError(f"unknown {where} kind {kind!r}")
    _keys(spec, where, "kind", *kinds[kind])
    return kind


def _affine(spec: dict, role: str) -> _Affine:
    kind = _kind(spec, f"coefficient {role}", "zero",
                 {"zero": (), "constant": ("value",), "linear": ("a_y", "a_z", "c")})
    a_y, a_z, c = (_real(spec.get(key, 0.0), f"coefficient {role} {key}") if kind == "linear" else 0.0
                   for key in ("a_y", "a_z", "c"))
    if kind == "constant":
        if "value" not in spec:
            raise ScenarioError(f"coefficient {role} of kind constant needs a value")
        c = _real(spec["value"], f"coefficient {role} value")
    return _Affine(a_y, a_z, c, role == "h")


def make_coefficients(co: dict):
    """The maps f, g and h that a coefficients section spells.

    Each is the affine map a_y y + a_z sum(z) + c: kind zero (the default) is
    the map 0, constant the map `value`, and linear reads a_y, a_z and c, each
    0 when absent; any other key is a ScenarioError.  g takes no z, so an a_z
    on g is one too, and h repeats its value along the last axis of z.
    """
    if "a_z" in _mapping(co.get("g", {}), "coefficient g"):
        raise ScenarioError("coefficient g takes no z, so it has no a_z")
    return tuple(_affine(co.get(role, {}), role) for role in ("f", "g", "h"))


def make_terminal(spec: dict):
    kind = _kind(spec, "terminal", "constant", {"constant": ("value",), "quadratic_norm": ()})
    if kind == "constant":
        return _real(spec.get("value", 0.0), "terminal value")
    return lambda x: np.sum(x * x, axis=-1)


@dataclass
class Scenario:
    name: str
    phi: ConvexFunction
    psi: ConvexFunction
    coeffs: CoefficientSet
    solver: SolverConfig  # its grid is the scenario's
    seed: int
    n_paths: int
    eps_ladder: list
    model: Optional[ForwardModel]  # the reflected diffusion (domain, drift, sigma), None without a domain
    d: int  # the domain's dimension, else the file's dim
    start: Optional[np.ndarray]  # (d,) launch point of the reflected ensemble, None without a domain
    a_spec: Optional[Callable]  # without a domain A = t, or None for A = 0; in one, None: the local time is A
    lattice: Optional[FieldGrid]  # the field lattice, its times on grid nodes
    draws: int  # backward-noise draws of the field
    weight_warning: Optional[str]  # the weight constants outside the sufficient region, else None


def load_scenario(path, overrides: Optional[dict] = None) -> Scenario:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        if not isinstance(raw, dict):
            raise ScenarioError("scenario file must be a mapping")
        over = {k: v for k, v in (overrides or {}).items() if v is not None}
        for key, section in (("steps", "grid"), ("eps", "solver")):  # a CLI override wins over its section's key
            if key in over:
                raw[section] = {**_mapping(raw.get(section, {}), section), key: over.pop(key)}
        raw.update(over)
        _keys(raw, "scenario", *"""name phi psi constants coefficients grid solver domain eps_ladder lattice seed
              paths""".split(), *(("start", "sigma", "drift") if "domain" in raw else ("dim", "a_process")))
        name = raw.get("name", "unnamed")
        phi = make_convex(raw.get("phi", "zero"))
        psi = make_convex(raw.get("psi", "zero"))
        constants = AssumptionConstants(**{k: _real(v, f"constant {k}") for k, v in
                                           _mapping(raw.get("constants", {}), "constants").items()})
        co = _keys(raw.get("coefficients", {}), "coefficients", "f", "g", "h", "terminal")
        f, g, h = make_coefficients(co)
        coeffs = CoefficientSet(f, g, h, make_terminal(co.get("terminal", {"kind": "constant"})), constants)
        gs = _keys(raw.get("grid", {}), "grid", "t0", "T", "steps")
        grid = TimeGrid.uniform(_real(gs.get("t0", 0.0), "t0"), _real(gs.get("T", 1.0), "T"),
                                _whole(gs.get("steps", 100), "steps"))
        sv = _keys(raw.get("solver", {}), "solver", "eps", "scheme", "regression")
        regression = sv.get("regression", "sample-mean")
        if regression != "sample-mean":  # a poly or partition mapping, its count key named by its kind
            kind = _kind(regression, "regression", None, {"poly": ("degree",), "partition": ("cells",)})
            count = {"poly": "degree", "partition": "cells"}[kind]
            if count not in regression:
                raise ScenarioError(f"regression {kind} needs its {count}")
            regression = (kind, _whole(regression[count], f"regression {count}"))
        solver = SolverConfig(
            grid=grid,
            eps=_real(sv.get("eps", 1e-3), "eps"),
            scheme=sv.get("scheme", "implicit-prox"),
            regression=regression,
        )
        domain = model = start = a_spec = None
        if "domain" in raw:  # present, so an empty or null section fails as one
            dspec = dict(_mapping(raw["domain"], "domain"))
            if "dim" in dspec:
                dspec["dim"] = _whole(dspec["dim"], "domain dim")
            domain = make_domain(dspec.pop("kind", None), **dspec)
            for key, v in dspec.items():  # the builder read each number, but a boolean as 1.0 or 0.0
                _real(v, f"domain {key}")
            model, d = ForwardModel(domain, _real(raw.get("drift", 0.0), "drift"),
                                    _real(raw.get("sigma", 1.0), "sigma")), domain.d
            pts = np.atleast_1d(np.array(raw.get("start", [0.0] * d), dtype=object))  # a boolean stays one
            start = np.reshape([_real(v, "start") for v in pts.flat], pts.shape)
            if start.shape != (d,):
                raise ScenarioError(f"start must be a point of dimension {d}, got shape {start.shape}")
            _check_closure(domain, start, "start point")
        else:  # no state: A = t or A = 0
            d, a_process = _whole(raw.get("dim", 1), "dim"), raw.get("a_process", "time")
            if a_process not in ("time", "none"):
                raise ScenarioError(f"unknown a_process {a_process!r}; known: time, none")
            a_spec = (lambda t: np.asarray(t, dtype=float)) if a_process == "time" else None
        n_paths = _whole(raw.get("paths", 100), "paths")
        for key, n in (("dim", d), ("paths", n_paths)):
            if n < 1:
                raise ScenarioError(f"{key} must be at least 1, got {n}")
        _check_regression(regression, d, domain is not None, coeffs.terminal)
        ladder = [_real(e, "eps_ladder") for e in raw.get("eps_ladder", [])]
        _check_ladder(ladder)
        seed = _whole(raw.get("seed", 0), "seed")
        _stream_key(seed, "W", 0)  # the key packer's range of seeds, for every command
        lattice, draws = None, 1
        if "lattice" in raw:  # present, so a null section fails as one
            lat = _keys(raw["lattice"], "lattice", "times", "points", "draws")
            if domain is None or domain.d != 1:
                raise ScenarioError("a field lattice needs a one-dimensional domain")
            n_times, n_points, draws = (_whole(lat.get(key, n), f"lattice {key}")
                                        for key, n in (("times", 5), ("points", 5), ("draws", 1)))
            for key, n in (("times", n_times), ("points", n_points), ("draws", draws)):
                if n < 1:
                    raise ScenarioError(f"lattice has no {key}")
            if n_times > grid.n_steps + 1:  # two lattice times would snap to one node
                raise ScenarioError(f"lattice times {n_times} exceed the {grid.n_steps + 1} grid nodes")
            idx = np.linspace(0, grid.n_steps, n_times).round().astype(int)
            lo, hi = domain.bounding_box
            pts = np.linspace(float(lo[0]), float(hi[0]), n_points)[:, None]
            lattice = FieldGrid.build(domain, grid.nodes[idx], pts)
            _continuity_pairs(lattice.times, lattice.points)  # field's check, so a lattice too small for it fails here
        wr = validate_weights(constants)  # sufficient-not-necessary inequalities: warn, do not abort
        return Scenario(
            name=name,
            phi=phi,
            psi=psi,
            coeffs=coeffs,
            solver=solver,
            seed=seed,
            n_paths=n_paths,
            eps_ladder=ladder,
            model=model,
            d=d,
            start=start,
            a_spec=a_spec,
            lattice=lattice,
            draws=draws,
            weight_warning=None if wr.ok else (f"weight constants outside the sufficient region: "
                                               f"lam margin {wr.lam_margin:.4g}, mu margin {wr.mu_margin:.4g}"),
        )
    except (TypeError, AttributeError, ValueError, yaml.YAMLError) as exc:  # ValueError: an owner's rule
        raise ScenarioError(str(exc)) from exc
