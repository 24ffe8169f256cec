import math

import numpy as np
import pytest

from bundleflow import catalog
from bundleflow.bundle import geodesic_residual
from bundleflow.errors import ParameterError, UnknownEntryError
from bundleflow.geometry import check_norden, check_parallel_phi


def test_entry_names_and_lookup():
    for name in catalog.entry_names():
        assert catalog.entry(name).structure.dim in (2, 4)
    with pytest.raises(UnknownEntryError):
        catalog.entry("moebius")


def test_const_curv_parameter_parsing():
    ent = catalog.entry("const_curv(2.5)")
    assert ent.curvature_op.c == 2.5
    g = np.eye(4)
    e = np.eye(4)
    np.testing.assert_allclose(
        ent.structure.riemann_at(np.zeros(4), e[0], e[1], e[1]), 2.5 * e[0]
    )


def test_every_entry_passes_structure_axioms():
    for name in ("exp2d", "flat_diag", "poly2d", "euclid_oblique", "const_curv"):
        M = catalog.entry(name).structure
        assert check_norden(M, n_points=40).passed, name
        assert check_parallel_phi(M, n_points=40).passed, name


def test_exp2d_christoffel_everywhere():
    M = catalog.entry("exp2d").structure
    gam = M.christoffel_at((0.9, -1.2))
    assert gam[0, 0, 0] == 1.0 and gam[1, 1, 1] == 1.0
    assert np.count_nonzero(gam) == 2


def test_flat_diag_curvature_vanishes():
    M = catalog.entry("flat_diag").structure
    rng = np.random.default_rng(0)
    X, Y, Z = rng.normal(size=(3, 2))
    np.testing.assert_allclose(M.riemann_at((0.1, 0.2), X, Y, Z), 0.0, atol=1e-15)


def test_poly2d_closed_form_initial_value():
    fam = catalog.entry("poly2d").family(
        "f_geodesic_lift", c1=1.0, c2=0.0, c3=1.0, c4=0.5, k1=0.3, k2=0.4
    )
    state = fam.initial_state(0.0)
    assert state.x[0] == pytest.approx(1.0)  # sqrt(c1 e^0 + c2) with c1=1, c2=0


def test_exp2d_lift_constraints_enforced():
    ent = catalog.entry("exp2d")
    with pytest.raises(ParameterError):
        ent.family("natural_lift", a=0.0, b=0.0, lam=1.0, eta=1.0)  # 2 lam eta != 1
    with pytest.raises(ParameterError):
        ent.family("horizontal_lift", h1=1.0, h2=1.0)
    # the constraint couples to the base point through e^{a+b}
    fam = ent.family("natural_lift", a=0.3, b=-0.1, lam=1.0, eta=0.5 * math.exp(-0.2))
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 41))
    np.testing.assert_allclose(traj.monitors["unit_norm"], 1.0, atol=1e-12)


def test_euclid_oblique_constraints_enforced():
    ent = catalog.entry("euclid_oblique")
    good = dict(
        rho=0.5,
        c1=math.sqrt(0.75) * np.array([1.0, 0.0, 0.0, 0.0]),
        c2=np.zeros(4),
        c3=np.array([1.0, 0.0, 0.0, 0.0]),
        c4=np.array([0.0, 1.0, 0.0, 0.0]),
    )
    ent.family("oblique_geodesic", **good)
    with pytest.raises(ParameterError):
        ent.family("oblique_geodesic", **{**good, "rho": 1.5})
    with pytest.raises(ParameterError):
        ent.family("oblique_geodesic", **{**good, "c3": np.array([1.0, 0.0, 0.5, 0.0])})
    with pytest.raises(ParameterError):
        ent.family("oblique_geodesic", **{**good, "c1": np.array([1.0, 0.0, 0.0, 0.0])})


def test_validity_intervals_enforced():
    ent = catalog.entry("exp2d")
    fam = ent.family("natural_lift", lam=math.sqrt(0.5), eta=math.sqrt(0.5))
    with pytest.raises(ParameterError):
        fam.trajectory(ent.structure, np.linspace(-2.0, 0.0, 11))  # 1 + lam t <= 0
    flat = catalog.entry("flat_diag")
    planar = flat.family("hphi_planar")
    with pytest.raises(ParameterError):
        planar.trajectory(flat.structure, np.linspace(0.0, 1.5, 11))  # crosses t = 1
    poly = catalog.entry("poly2d")
    lift = poly.family("f_geodesic_lift", c1=1.0, c2=-0.9)
    with pytest.raises(ParameterError):
        lift.trajectory(poly.structure, np.linspace(-3.0, 0.0, 11))


def test_unknown_family():
    with pytest.raises(UnknownEntryError):
        catalog.entry("exp2d").family("spiral")


@pytest.mark.parametrize(
    "entry_name,family,params,span",
    [
        ("exp2d", "natural_lift", dict(lam=math.sqrt(0.5), eta=math.sqrt(0.5)), (0.0, 1.0)),
        ("exp2d", "horizontal_lift", dict(lam=math.sqrt(0.5), eta=math.sqrt(0.5), h1=1.0, h2=0.5), (0.0, 1.0)),
        ("flat_diag", "hphi_geodesic", {}, (0.0, 1.0)),
        ("flat_diag", "hphi_planar", {}, (0.0, 0.9)),
        ("poly2d", "f_geodesic_lift", {}, (0.0, 1.0)),
        ("poly2d", "f_planar_lift", {}, (0.0, 1.0)),
    ],
)
def test_closed_forms_reprove_themselves_at_200_points(entry_name, family, params, span):
    ent = catalog.entry(entry_name)
    fam = ent.family(family, **params)
    times = np.linspace(span[0], span[1], 200)
    res = geodesic_residual(ent.structure, fam.system, fam.trajectory(ent.structure, times))
    assert res.max_residual < 1e-8


def test_oblique_closed_form_residual_at_200_points():
    from bundleflow.verify import euclid_oblique_family

    ent, fam = euclid_oblique_family(0.5)
    times = np.linspace(0.0, 1.0, 200)
    res = geodesic_residual(ent.structure, fam.system, fam.trajectory(ent.structure, times))
    assert res.max_residual < 1e-8


def test_horizontal_lift_unit_norm_is_constant():
    # fibers k1/x, k2/y have g(xi, phi xi) = 2 k1 k2 along the whole curve
    ent = catalog.entry("poly2d")
    fam = ent.family("f_geodesic_lift", k1=0.5, k2=1.0)
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 41))
    np.testing.assert_allclose(traj.monitors["unit_norm"], 1.0, atol=1e-12)


def test_random_f_planar_solutions_are_exact():
    rng = np.random.default_rng(7)
    flat = catalog.entry("flat_diag")
    times = np.linspace(0.0, 1.0, 101)
    for on_unit in (False, True):
        sol = catalog.random_f_planar_solution(rng, on_unit=on_unit)
        res = geodesic_residual(flat.structure, sol.system, sol.trajectory(flat.structure, times))
        assert res.max_residual < 1e-10


def test_initial_state_outside_the_validity_interval_raises():
    with pytest.raises(ParameterError):
        catalog.entry("exp2d").family("natural_lift").initial_state(-5.0)  # 1 + lam t < 0
    lift = catalog.entry("poly2d").family("f_geodesic_lift", c1=1.0, c2=-0.9)
    with pytest.raises(ParameterError):
        lift.initial_state(-3.0)  # e^{-3} - 0.9 < 0 under the square root


def test_a_parameter_that_is_not_finite_is_refused_by_name():
    flat = catalog.entry("flat_diag")
    with pytest.raises(ParameterError, match="k1"):
        flat.family("hphi_geodesic", k1=math.inf)
    with pytest.raises(ParameterError, match="k4"):
        flat.family("hphi_geodesic", k4=math.nan)


_OBLIQUE = dict(
    rho=0.5,
    c1=math.sqrt(0.75) * np.array([0.6, 0.8, 0.0, 0.0]),
    c2=np.array([0.1, -0.3, 0.2, 0.05]),
    c3=np.array([math.cosh(0.3), 0.0, math.sinh(0.3), 0.0]),
    c4=np.array([0.0, math.cosh(0.2), 0.0, -math.sinh(0.2)]),
)


def test_numpy_parameters_give_the_states_of_python_floats():
    ent = catalog.entry("euclid_oblique")
    arrays = dict(_OBLIQUE, rho=np.float64(0.5))
    floats = {k: float(v) if np.ndim(v) == 0 else [float(c) for c in v] for k, v in arrays.items()}
    times = np.linspace(0.0, 1.0, 11)
    a = ent.family("oblique_geodesic", **arrays)
    b = ent.family("oblique_geodesic", **floats)
    assert a.base == b.base and a.fiber == b.fiber
    ta, tb = a.trajectory(ent.structure, times), b.trajectory(ent.structure, times)
    for name in ("x", "xdot", "xddot", "xi", "xidot", "xiddot"):
        assert np.array_equal(getattr(ta, name), getattr(tb, name)), name
    assert np.array_equal(a.initial_state(0.3).flat(), b.initial_state(0.3).flat())


def _every_family():
    """(structure, family, span) for each catalog family and the random ones."""
    named = [
        ("exp2d", "natural_lift", {}, 1.0),
        ("exp2d", "horizontal_lift", {}, 1.0),
        ("flat_diag", "hphi_geodesic", {}, 1.0),
        ("flat_diag", "hphi_planar", {}, 0.9),
        ("poly2d", "f_geodesic_lift", {}, 1.0),
        ("poly2d", "f_planar_lift", {}, 1.0),
        ("euclid_oblique", "oblique_geodesic", _OBLIQUE, 1.0),
        ("euclid_oblique", "vertical_oscillation", dict(c3=[1, 0, 0, 0], c4=[0, 1, 0, 0]), 1.0),
    ]
    out = [(catalog.entry(e).structure, catalog.entry(e).family(f, **p), t1) for e, f, p, t1 in named]
    flat = catalog.entry("flat_diag").structure
    tm = catalog.random_f_planar_solution(np.random.default_rng(3))
    unit = catalog.random_f_planar_solution(np.random.default_rng(4), on_unit=True)
    return out + [(flat, tm, 1.0), (flat, unit, 1.0), (flat, catalog.perturbed_base(tm), 1.0)]


def test_family_derivatives_agree_with_central_differences_of_its_values():
    # An oracle that does not use the engine's derivative rules: at 19
    # interior times, the first and second derivatives of x and xi must
    # match central differences of the family's own values with h = 1e-4,
    # to 1e-6 * max(1, |derivative|).  The stencils' truncation (h^2 f'''/6,
    # h^2 f''''/12) and roundoff (eps |f| / h^2 ~ 1e-8 |f|) stay below
    # 2.4e-7 here, the worst being hphi_planar next to its pole at t = 1.
    h, tol = 1e-4, 1e-6
    for M, fam, t1 in _every_family():
        centers = np.linspace(0.0, t1, 21)[1:-1]
        times = (centers[:, None] + h * np.array([-1.0, 0.0, 1.0])).ravel()
        traj = fam.trajectory(M, times)
        for value, first, second in (
            (traj.x, traj.xdot, traj.xddot),
            (traj.xi, traj.xidot, traj.xiddot),
        ):
            f = value.reshape(-1, 3, value.shape[1])
            d1 = first.reshape(f.shape)[:, 1]
            d2 = second.reshape(f.shape)[:, 1]
            fd1 = (f[:, 2] - f[:, 0]) / (2.0 * h)
            fd2 = (f[:, 2] - 2.0 * f[:, 1] + f[:, 0]) / h**2
            assert np.all(np.abs(fd1 - d1) <= tol * np.maximum(1.0, np.abs(d1))), fam.name
            assert np.all(np.abs(fd2 - d2) <= tol * np.maximum(1.0, np.abs(d2))), fam.name
