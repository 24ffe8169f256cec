"""Scenario configuration: JSON documents describing a manifold, a system,
an initial state, integrator settings, the structure checks and the Frenet
analysis.  A key the parser does not read is a configuration error.

A process builds each manifold once: a catalog entry by its name, an inline
manifold by its canonical JSON text, in bounded least-recently-used memos.
Scenarios of the same manifold share its structure and default F, and
scenarios of the same rho1, rho2 texts their coefficient functions, with
everything compiled for them; none of these may be mutated.  A system's own
F is built for each scenario."""

from __future__ import annotations

import functools
import json
import numbers
from pathlib import Path

import numpy as np

from . import catalog
from .bundle import BundleState, BundleSystem, FPlanarCoefficients, FTensor
from .errors import (
    BundleFlowError,
    ExprSyntaxError,
    ScenarioError,
    UnknownEntryError,
)
from .geometry import FieldTensor, MetricStructure
from .integrate import IntegratorConfig

__all__ = ["Scenario", "load_scenario"]

_CHECK_NAMES = ("norden", "parallel_phi", "curvature_purity")

# How many inline manifolds a process keeps by their text, the least recently
# used dropped first.
_MEMO_MANIFOLDS = 64

# the keys each level of a scenario document may have
_KEYS = {
    "scenario": ("name", "manifold", "system", "F", "rho1", "rho2", "initial", "integrator",
                 "checks", "seed", "check_points", "frenet"),
    "inline manifold": ("dim", "g", "phi", "christoffel", "F", "chart_box", "name"),
    "initial": ("x", "xdot", "xi", "xidot", "xi_prime"),
    "integrator": ("step", "t_span"),
    "frenet": ("order", "constancy_tol"),
}


class Scenario:
    __slots__ = ("name", "structure", "system", "initial", "integrator", "checks", "seed",
                 "check_points", "frenet_order", "constancy_tol", "zero_span")

    def __init__(
        self,
        name: str,
        structure: MetricStructure,
        system: BundleSystem | None,
        initial: BundleState | None,
        integrator: IntegratorConfig | None,
        checks: tuple[str, ...],
        seed: int,
        check_points: int,
        frenet_order: int,
        constancy_tol: float,
        zero_span: bool = False,  # t0 == t1: outputs are headers only
    ):
        self.name, self.structure, self.system = name, structure, system
        self.initial, self.integrator, self.checks = initial, integrator, checks
        self.seed, self.check_points = seed, check_points
        self.frenet_order, self.constancy_tol = frenet_order, constancy_tol
        self.zero_span = zero_span


def _known_keys(raw: dict, level: str) -> None:
    """Reject a key of ``raw`` that the parser does not read at ``level``."""
    for key in raw:
        if key not in _KEYS[level]:
            raise ScenarioError(f"unknown {level} key {key!r}")


def _integer(raw, what: str) -> int:
    """An integer field: a JSON number with no fractional part, not a bool."""
    if (
        isinstance(raw, bool)
        or not isinstance(raw, numbers.Real)
        or not float(raw).is_integer()
    ):
        raise ScenarioError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


def _number(raw, what: str) -> float:
    """A real field: a JSON number, not a bool or a string."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise ScenarioError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def _vector(raw, dim: int, what: str) -> np.ndarray:
    try:
        vec = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be a numeric vector") from None
    if vec.shape != (dim,):
        raise ScenarioError(f"{what} must have length {dim}, got shape {vec.shape}")
    return vec


def _text(raw, what: str) -> str:
    """``raw`` as canonical JSON text, the key of what is built from it: keys
    sorted, a numpy array or number written as its list or number."""

    def plain(value):
        if isinstance(value, (np.ndarray, np.generic)):
            return value.tolist()
        raise TypeError(f"{type(value).__name__} is not a JSON value")

    try:
        return json.dumps(raw, sort_keys=True, default=plain)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from None


def _build_structure(spec) -> tuple[MetricStructure, FTensor | None]:
    if isinstance(spec, str):
        try:
            ent = catalog.entry(spec)
        except UnknownEntryError as exc:
            raise ScenarioError(str(exc)) from None
        return ent.structure, ent.f_tensor
    if not isinstance(spec, dict):
        raise ScenarioError("manifold must be a catalog name or an inline object")
    _known_keys(spec, "inline manifold")
    return _inline_structure(_text(spec, "inline manifold"))


@functools.lru_cache(maxsize=_MEMO_MANIFOLDS)
def _inline_structure(text: str) -> tuple[MetricStructure, FTensor | None]:
    """The structure and F of an inline manifold, built from its text."""
    spec = json.loads(text)
    if "dim" not in spec:
        raise ScenarioError("inline manifold needs an integer 'dim'")
    dim = _integer(spec["dim"], "inline manifold 'dim'")
    try:
        g = FieldTensor.from_spec(spec["g"], dim)
        phi = FieldTensor.from_spec(spec["phi"], dim)
        christoffel = None
        if "christoffel" in spec:
            christoffel = FieldTensor.from_spec(spec["christoffel"], dim)
        f_tensor = None
        if "F" in spec:
            f_tensor = FTensor.from_spec(spec["F"], dim)
    except (ExprSyntaxError, ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(f"bad inline manifold: {exc}") from None
    try:
        structure = MetricStructure(
            dim,
            g,
            phi,
            christoffel=christoffel,
            chart_box=spec.get("chart_box"),
            name=str(spec.get("name", "inline")),
        )
    except ValueError as exc:
        raise ScenarioError(f"bad inline manifold: {exc}") from None
    return structure, f_tensor


def _build_system(doc, structure, default_f) -> BundleSystem | None:
    """The document's system: its F and rho1, rho2 as given, the catalog
    entry's or the inline manifold's F standing in for a missing F of an
    F-system.  BundleSystem rejects a kind that lacks what it needs or is
    given what it does not take."""
    kind = doc.get("system")
    if kind is None:
        return None
    f_tensor = coeffs = None
    if "F" in doc:
        try:
            f_tensor = FTensor.from_spec(doc["F"], structure.dim)
        except (ExprSyntaxError, ValueError) as exc:
            raise ScenarioError(f"bad F tensor: {exc}") from None
    elif str(kind).startswith("f_"):
        f_tensor = default_f
    if "rho1" in doc or "rho2" in doc:
        if "rho1" not in doc or "rho2" not in doc:
            raise ScenarioError("F-planar systems need both rho1 and rho2 expressions in t")
        try:
            coeffs = FPlanarCoefficients.parse(str(doc["rho1"]), str(doc["rho2"]))
        except ExprSyntaxError as exc:
            raise ScenarioError(f"bad coefficient expression: {exc}") from None
    try:
        return BundleSystem(kind, f_tensor=f_tensor, coefficients=coeffs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _build_initial(doc, structure) -> BundleState | None:
    raw = doc.get("initial")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ScenarioError("'initial' must be an object")
    _known_keys(raw, "initial")
    dim = structure.dim
    x = _vector(raw.get("x"), dim, "initial.x")
    xdot = _vector(raw.get("xdot"), dim, "initial.xdot")
    xi = _vector(raw.get("xi"), dim, "initial.xi")
    has_dot = "xidot" in raw
    has_prime = "xi_prime" in raw
    if has_dot == has_prime:
        raise ScenarioError("initial state needs exactly one of 'xidot' or 'xi_prime'")
    if has_dot:
        xidot = _vector(raw["xidot"], dim, "initial.xidot")
    else:
        xi_prime = _vector(raw["xi_prime"], dim, "initial.xi_prime")
        xidot = structure.at(x).to_coordinate(xi, xi_prime, xdot)
    return BundleState(x, xdot, xi, xidot)


def _build_integrator(doc) -> tuple[IntegratorConfig | None, bool]:
    raw = doc.get("integrator")
    if raw is None:
        return None, False
    try:
        t0, t1 = (float(v) for v in raw["t_span"])
        step = float(raw["step"])
    except (KeyError, TypeError, ValueError):
        raise ScenarioError("integrator needs numeric 'step' and 't_span': [t0, t1]") from None
    _known_keys(raw, "integrator")  # raw["t_span"] was read, so raw is an object
    if t1 == t0 and np.isfinite(t0):
        return None, True  # degenerate span: emit headers only
    try:
        cfg = IntegratorConfig(step=step, t_span=(t0, t1))
    except ValueError as exc:
        raise ScenarioError(f"bad integrator config: {exc}") from None
    return cfg, False


def scenario_from_dict(doc: dict, *, name: str = "scenario") -> Scenario:
    """The scenario of a parsed document.  Its structure, default F and
    coefficient functions are built once per process for their text and
    shared with every scenario of the same text: callers must not mutate
    them."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _known_keys(doc, "scenario")
    if "manifold" not in doc:
        raise ScenarioError("scenario needs a 'manifold'")
    structure, default_f = _build_structure(doc["manifold"])
    system = _build_system(doc, structure, default_f)
    try:
        initial = _build_initial(doc, structure)
    except BundleFlowError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad initial state: {exc}") from None
    integrator, zero_span = _build_integrator(doc)
    checks = doc.get("checks", list(_CHECK_NAMES))
    if not isinstance(checks, list) or any(c not in _CHECK_NAMES for c in checks):
        raise ScenarioError(f"'checks' must be a subset of {_CHECK_NAMES}")
    seed = _integer(doc.get("seed", 12345), "seed")
    check_points = _integer(doc.get("check_points", 100), "check_points")
    frenet_opts = doc.get("frenet")
    if frenet_opts is None:
        frenet_opts = {}
    if not isinstance(frenet_opts, dict):
        raise ScenarioError(f"'frenet' must be an object, got {frenet_opts!r}")
    _known_keys(frenet_opts, "frenet")
    # default jet order adapts to the chart dimension
    frenet_order = _integer(frenet_opts.get("order", min(3, structure.dim)), "frenet.order")
    constancy_tol = _number(frenet_opts.get("constancy_tol", 1e-4), "frenet.constancy_tol")
    if seed < 0 or check_points < 1:
        raise ScenarioError(f"need seed >= 0 and check_points >= 1, got {seed} and {check_points}")
    if not 2 <= frenet_order <= structure.dim:
        raise ScenarioError(f"frenet.order must be in [2, {structure.dim}], got {frenet_order}")
    if not (np.isfinite(constancy_tol) and constancy_tol > 0.0):
        raise ScenarioError(f"frenet.constancy_tol must be finite and > 0, got {constancy_tol}")
    return Scenario(
        name=str(doc.get("name", name)),
        structure=structure,
        system=system,
        initial=initial,
        integrator=integrator,
        checks=tuple(checks),
        seed=seed,
        check_points=check_points,
        frenet_order=frenet_order,
        constancy_tol=constancy_tol,
        zero_span=zero_span,
    )


def load_scenario(path, *, seed=None, step=None, t_span=None) -> Scenario:
    """Load a scenario file; a given ``seed``, ``step`` or ``t_span`` replaces
    the file's value before the document is parsed.  Loading a file twice
    gives two scenarios of one shared structure (:func:`scenario_from_dict`),
    which callers must not mutate."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        if seed is not None:
            doc["seed"] = seed
        overrides = {k: v for k, v in (("step", step), ("t_span", t_span)) if v is not None}
        raw = doc.get("integrator") or {}
        if overrides and isinstance(raw, dict):
            doc["integrator"] = {**raw, **overrides}
    return scenario_from_dict(doc, name=path.stem)
