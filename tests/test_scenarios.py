import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustrates import (
    AdaptedFeedback,
    Constant,
    ForwardCurve,
    Grid1D,
    McConfig,
    PiecewiseConstant,
    RandomSwitching,
    RateParams,
    TimeGrid,
    ValidationError,
    VolBand,
    bang_bang,
    default_scenario_family,
    estimate_sublinear,
    family_from_json,
    family_to_json,
    gexpectation_terminal,
    martingale_check,
    noarb_gap,
    register_feedback_rule,
    simulate_bundle,
    solve_gheat,
)

BAND = VolBand(0.005, 0.02)
PARAMS = RateParams(r0=0.02, alpha=1.0)


def test_family_even_constant_spacing():
    fam = default_scenario_family(VolBand(0.005, 0.02), n_constant=4, n_switching=0, seed=1)
    consts = [s.value for s in fam if isinstance(s, Constant)]
    np.testing.assert_allclose(consts, [0.005, 0.010, 0.015, 0.020])


def test_family_always_contains_extremes():
    fam = default_scenario_family(BAND, n_constant=2, n_switching=5, seed=9)
    consts = {s.value for s in fam if isinstance(s, Constant)}
    assert {BAND.sigma_lo, BAND.sigma_hi} <= consts


def _path_major(band, tab):
    """A chunk table as path-major volatilities: a switching member's time-major bytes
    taken through ``(sigma_lo, sigma_hi)``, a deterministic table as it is."""
    return np.array([band.sigma_lo, band.sigma_hi])[tab.T] if tab.dtype == np.uint8 else tab


def test_family_rejects_single_constant():
    with pytest.raises(ValidationError):
        default_scenario_family(BAND, n_constant=1, n_switching=0, seed=0)


def test_family_degenerate_band_collapses_to_one_level():
    band = VolBand(0.01, 0.01)
    fam = default_scenario_family(band, n_constant=2, n_switching=2, seed=0)
    grid = TimeGrid(1.0, 16)
    for spec in fam:
        tab = _path_major(band, spec.sigma_table(grid.step_times, grid.dt, 8, 0))
        np.testing.assert_array_equal(np.unique(tab), [0.01])


def test_family_reproducible():
    f1 = default_scenario_family(BAND, n_constant=2, n_switching=3, seed=42)
    f2 = default_scenario_family(BAND, n_constant=2, n_switching=3, seed=42)
    assert [s.scenario_id for s in f1] == [s.scenario_id for s in f2]
    n_switch = sum(isinstance(s, RandomSwitching) for s in f1)
    n_const = sum(isinstance(s, Constant) for s in f1)
    assert (n_const, n_switch) == (2, 3)
    grid = TimeGrid(1.0, 32)
    for a, b in zip(f1, f2):
        ta = a.sigma_table(grid.step_times, grid.dt, 16, 3)
        tb = b.sigma_table(grid.step_times, grid.dt, 16, 3)
        np.testing.assert_array_equal(ta, tb)


def test_piecewise_needs_increasing_times():
    with pytest.raises(ValidationError):
        PiecewiseConstant(times=(0.5, 0.5), values=(0.01, 0.02, 0.01))
    with pytest.raises(ValidationError):
        PiecewiseConstant(times=(0.5,), values=(0.01,))


@pytest.mark.parametrize("times, values", [
    ((np.nan,), (0.01, 0.02)), ((0.5, np.nan), (0.01, 0.02, 0.01)),
    ((np.inf,), (0.01, 0.02)), ((0.5, np.inf), (0.01, 0.02, 0.01)), ((-np.inf, 0.5), (0.01,) * 3),
])
def test_piecewise_rejects_non_finite_breakpoints(times, values):
    """A NaN breakpoint once passed every check and the first value held at every step."""
    with pytest.raises(ValidationError, match="^times must be a finite real number"):
        PiecewiseConstant(times, values)


@pytest.mark.parametrize("times, values, name", [
    (0.5, (0.01, 0.02), "times"), ((0.5,), 0.01, "values"),
])
def test_piecewise_rejects_a_scalar_for_a_sequence(times, values, name):
    """Once a bare ``TypeError: 'float' object is not iterable``."""
    with pytest.raises(ValidationError, match=f"^{name} must be a sequence, got"):
        PiecewiseConstant(times, values)


def test_piecewise_segment_lookup():
    spec = PiecewiseConstant(times=(0.25, 0.75), values=(0.005, 0.02, 0.01))
    grid = TimeGrid(1.0, 8)
    tab = spec.sigma_table(grid.step_times, grid.dt, 1, 0)
    np.testing.assert_allclose(tab, [0.005, 0.005, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01])


def test_bang_bang_alternates_between_edges():
    spec = bang_bang(BAND, horizon=1.0, n_segments=4, start_high=True)
    assert spec.values == (0.02, 0.005, 0.02, 0.005)
    assert spec.times == (0.25, 0.5, 0.75)


def test_out_of_band_value_rejected():
    with pytest.raises(ValidationError):
        Constant(0.03).validate(BAND)
    with pytest.raises(ValidationError):
        PiecewiseConstant(times=(0.5,), values=(0.005, 0.5)).validate(BAND)


def test_switching_stays_inside_band_and_is_seed_deterministic():
    spec = RandomSwitching(intensity=4.0, seed=11)
    grid = TimeGrid(1.0, 64)
    tab1 = _path_major(BAND, spec.sigma_table(grid.step_times, grid.dt, 32, 5))
    tab2 = _path_major(BAND, spec.sigma_table(grid.step_times, grid.dt, 32, 5))
    np.testing.assert_array_equal(tab1, tab2)
    assert set(np.unique(tab1)) <= {BAND.sigma_lo, BAND.sigma_hi}
    # different noise key gives a different realization
    tab3 = _path_major(BAND, spec.sigma_table(grid.step_times, grid.dt, 32, 6))
    assert not np.array_equal(tab1, tab3)


def test_switching_zero_intensity_never_switches():
    spec = RandomSwitching(intensity=0.0, seed=3)
    grid = TimeGrid(1.0, 32)
    tab = _path_major(BAND, spec.sigma_table(grid.step_times, grid.dt, 16, 0))
    assert np.all(tab == tab[:, :1])


def _path_major_switching_table(spec, band, times, dt, n_paths, noise_key):
    """A switching member's path-major volatilities as one full-size draw forms them."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(noise_key,)))
    p_switch = -np.expm1(-spec.intensity * dt)
    start_hi = rng.random(n_paths) < 0.5
    flips = rng.random((n_paths, times.size)) < p_switch
    parity = np.logical_xor.accumulate(flips, axis=1)
    return np.where(start_hi[:, None] ^ parity, band.sigma_hi, band.sigma_lo)


@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("intensity, n_steps", [(0.0, 16), (4.0, 1), (4.0, 64), (300.0, 64)])
def test_switching_table_is_the_path_major_draw(n_paths, intensity, n_steps):
    """The byte table built block by block is a time-major index into ``(sigma_lo,
    sigma_hi)`` that gives the one-draw volatilities, bit for bit."""
    spec, grid = RandomSwitching(intensity, seed=7), TimeGrid(1.0, n_steps)
    for band, key in ((BAND, 0), (BAND, 4), (VolBand(0.01, 0.01), 2)):
        idx = spec.sigma_table(grid.step_times, grid.dt, n_paths, key)
        tab = _path_major(band, idx)
        expected = _path_major_switching_table(spec, band, grid.step_times, grid.dt, n_paths, key)
        assert (tab.shape, tab.dtype) == (expected.shape, expected.dtype)
        assert tab.tobytes() == expected.tobytes()
        assert (idx.shape, idx.dtype, idx.flags.c_contiguous) == ((n_steps, n_paths), np.uint8, True)
        assert idx.max(initial=0) <= 1
        assert np.array([band.sigma_lo, band.sigma_hi])[idx.T].tobytes() == expected.tobytes()


def test_feedback_unknown_rule_rejected():
    with pytest.raises(ValidationError):
        AdaptedFeedback("nonexistent_rule").validate(BAND)


def _hot(view, params):
    return view.band.sigma_hi


@pytest.mark.parametrize("name, fn, message", [
    ("not_callable", None, r"^feedback rule 'not_callable' must be callable, got None$"),
    ("a_name", "driver_sign", r"^feedback rule 'a_name' must be callable, got 'driver_sign'$"),
    (None, _hot, r"^feedback rule name must be a str, got None$"),
    (7, _hot, r"^feedback rule name must be a str, got 7$"),
])
def test_register_feedback_rule_checks_its_arguments(name, fn, message):
    """``register_feedback_rule("bad", None)`` was once accepted, and the first simulation
    with it died with a bare ``TypeError``."""
    with pytest.raises(ValidationError, match=message):
        register_feedback_rule(name, fn)
    if isinstance(name, str):  # nothing was registered
        with pytest.raises(ValidationError):
            AdaptedFeedback(name).validate(BAND)


#: every entry point that steps a feedback rule, run on a family holding ``spec``
_CFG = McConfig(n_paths=4, n_steps=4, horizon=1.0, base_seed=0)
_RUNNERS = {
    "simulate_bundle": lambda spec: simulate_bundle(
        spec, BAND, TimeGrid(1.0, 4), None, seed=0, n_paths=4
    ),
    "noarb_gap": lambda spec: noarb_gap(PARAMS, BAND, 1.0, [Constant(0.01), spec], _CFG),
    "martingale_check": lambda spec: martingale_check(
        PARAMS, BAND, [Constant(0.01), spec], 1.0, [0.5], _CFG
    ),
    "estimate_sublinear": lambda spec: estimate_sublinear(
        lambda bundle: bundle.b[:, -1], BAND, [Constant(0.01), spec], _CFG, PARAMS
    ),
}


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_feedback_rule_cannot_write_history(runner):
    def dishonest(view, params):
        view.b[:, 0] = 99.0  # must blow up: the past is read-only
        return np.full(view.b.shape[0], view.band.sigma_lo)

    register_feedback_rule("dishonest", dishonest)
    with pytest.raises(ValueError, match="read-only"):
        _RUNNERS[runner](AdaptedFeedback("dishonest"))


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
@pytest.mark.parametrize("name", ["sigma", "b", "qv", "r"])
def test_feedback_rule_cannot_unlock_its_history(runner, name):
    """Not even ``setflags(write=True)`` opens the past: no view the rule gets, nor a
    view of it, can be made writeable while the stepper writes the history."""
    def unlocking(view, params):
        past = getattr(view, name)
        if view.k == 2 and past is not None:
            for a in (past, past[:, :1], past.T):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    a.setflags(write=True)
            unlocked.append(view.k)
        return np.full(view.b.shape[0], view.band.sigma_lo)

    unlocked = []
    register_feedback_rule("unlocking", unlocking)
    _RUNNERS[runner](AdaptedFeedback("unlocking"))
    assert unlocked == ([] if name == "r" and runner == "simulate_bundle" else [2])


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_feedback_rule_leaving_the_band_is_named(runner):
    def escape(view, params):
        sigma = view.band.sigma_hi * (2.0 if view.k == 2 else 1.0)
        return np.full(view.b.shape[0], sigma)

    register_feedback_rule("escape", escape)
    message = r"^feedback rule left the band at step 2 \(scenario feedback\[escape\]\)$"
    with pytest.raises(ValidationError, match=message):
        _RUNNERS[runner](AdaptedFeedback("escape"))


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
@pytest.mark.parametrize("shape", [(3,), (4, 1), (8,)], ids=["short", "column", "long"])
def test_feedback_rule_of_the_wrong_shape_is_named(runner, shape):
    """A rule returns a scalar or one value per path; any other shape is a
    validation error naming the scenario and the step, not a numpy error."""
    def misshapen(view, params):
        return np.full(shape if view.k == 2 else view.b.shape[0], view.band.sigma_hi)

    register_feedback_rule("misshapen", misshapen)
    message = (rf"^feedback rule returned shape {re.escape(str(shape))} at step 2 "
               r"\(scenario feedback\[misshapen\]\); need a scalar or one value per path, \(4,\)$")
    with pytest.raises(ValidationError, match=message):
        _RUNNERS[runner](AdaptedFeedback("misshapen"))


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
@pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "per_path"])
@pytest.mark.parametrize("value, accepted", [
    (lambda band: band.sigma_hi + 1e-12, True),
    (lambda band: band.sigma_lo - 1e-12, True),
    (lambda band: band.sigma_hi + 3e-12, False),
    (lambda band: band.sigma_lo - 3e-12, False),
    (lambda band: np.nan, False),
], ids=["hi+1e-12", "lo-1e-12", "hi+3e-12", "lo-3e-12", "nan"])
def test_feedback_band_tolerance_is_1e_12(runner, scalar, value, accepted):
    """A rule may leave the band by at most 1e-12, on any path; NaN is outside."""
    def near_edge(view, params):
        if view.k != 2:
            return view.band.sigma_lo
        if scalar:
            return value(view.band)
        sigma = np.full(view.b.shape[0], view.band.midpoint)
        sigma[-1] = value(view.band)  # one path only
        return sigma

    register_feedback_rule("near_edge", near_edge)
    if accepted:
        _RUNNERS[runner](AdaptedFeedback("near_edge"))
    else:
        message = r"^feedback rule left the band at step 2 \(scenario feedback\[near_edge\]\)$"
        with pytest.raises(ValidationError, match=message):
            _RUNNERS[runner](AdaptedFeedback("near_edge"))


def test_feedback_rule_may_return_a_scalar():
    """A scalar applies to every path: the bundle is the constant's, bit for bit,
    and every entry point accepts it."""
    register_feedback_rule("scalar_hi", lambda view, params: view.band.sigma_hi)
    args = (BAND, TimeGrid(1.0, 4), PARAMS)
    got = simulate_bundle(AdaptedFeedback("scalar_hi"), *args, seed=0, n_paths=4)
    want = simulate_bundle(Constant(BAND.sigma_hi), *args, seed=0, n_paths=4)
    for name in ("sigma", "b", "qv", "lam", "r", "d"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for run in _RUNNERS.values():
        run(AdaptedFeedback("scalar_hi"))


def test_feedback_rule_sees_only_past():
    """The view at step k must expose exactly k sigma entries and k+1 driver
    points; progressive measurability is enforced structurally."""
    seen = []

    def probe(view, params):
        assert view.sigma.shape[1] == view.b.shape[1] - 1 == view.qv.shape[1] - 1
        seen.append(view.k)
        # only entries before the current step may be populated
        assert np.all(np.isfinite(view.b[:, : view.k + 1]))
        return np.full(view.b.shape[0], view.band.sigma_hi)

    register_feedback_rule("probe", probe)
    simulate_bundle(AdaptedFeedback("probe"), BAND, TimeGrid(1.0, 6), None, seed=0, n_paths=3)
    assert seen == list(range(6))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 12),
    dynamics=st.sampled_from(["original", "shifted"]),
)
def test_feedback_views_are_prefixes_of_the_final_bundle(seed, n_steps, dynamics):
    """What a rule saw at step k is what the finished bundle holds up to t_k:
    no later data reaches the view, and nothing it saw is rewritten."""
    views = []

    def recorder(view, params):
        views.append((view.k, view.sigma.copy(), view.b.copy(), view.qv.copy(), view.r.copy()))
        # reads the rate, so the path depends on what the view exposes
        return np.where(view.r[:, view.k] >= 0.02, view.band.sigma_hi, view.band.sigma_lo)

    register_feedback_rule("recorder", recorder)
    params = RateParams(r0=0.02, alpha=1.0, mu=0.02)
    bundle = simulate_bundle(
        AdaptedFeedback("recorder"), BAND, TimeGrid(1.0, n_steps), params,
        seed=seed, n_paths=4, dynamics=dynamics,
    )
    assert [v[0] for v in views] == list(range(n_steps))
    for k, sigma, b, qv, r in views:
        assert sigma.shape[1] == k and b.shape[1] == qv.shape[1] == r.shape[1] == k + 1
        np.testing.assert_array_equal(sigma, bundle.sigma[:, :k])
        for seen, full in ((b, bundle.b), (qv, bundle.qv), (r, bundle.r)):
            np.testing.assert_array_equal(seen, full[:, : k + 1])


def test_json_round_trip():
    fam = [
        Constant(0.02),
        PiecewiseConstant(times=(0.5,), values=(0.005, 0.02)),
        RandomSwitching(intensity=3.0, seed=7),
        AdaptedFeedback("driver_sign", {"threshold": 0.001}),
    ]
    doc = family_to_json(BAND, fam)
    doc2 = json.loads(json.dumps(doc))  # through a real serialization boundary
    band2, fam2 = family_from_json(doc2)
    assert (band2.sigma_lo, band2.sigma_hi) == (BAND.sigma_lo, BAND.sigma_hi)
    assert [s.scenario_id for s in fam2] == [s.scenario_id for s in fam]
    assert fam2[1].values == fam[1].values and fam2[1].times == fam[1].times
    assert fam2[2].seed == 7 and fam2[3].params == {"threshold": 0.001}


def test_json_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        family_from_json({"band": {"lo": 0.01, "hi": 0.02}, "scenarios": [{"kind": "mystery"}]})


@pytest.mark.parametrize(
    "entry",
    [{"kind": "constant"}, {"kind": "piecewise", "times": []}, {"kind": "feedback"},
     {"kind": "constant", "value": None}, ["constant", 0.01]],
)
def test_family_from_json_malformed_entry_names_index(entry):
    doc = {"band": {"lo": 0.005, "hi": 0.02}, "scenarios": [{"kind": "constant", "value": 0.01}, entry]}
    with pytest.raises(ValidationError, match="entry 1"):
        family_from_json(doc)


@pytest.mark.parametrize("params", ["ab", [["threshold", 0.001]], 3, None, True])
def test_feedback_params_must_be_an_object(params):
    """In a document, ``"ab"`` once escaped as a bare ``ValueError`` and a list of pairs
    became a dict; in the library, a rule failed on them with ``AttributeError``."""
    doc = {"band": {"lo": 0.005, "hi": 0.02},
           "scenarios": [{"kind": "feedback", "rule": "driver_sign", "params": params}]}
    message = f"feedback params must be an object (dict), got {params!r}"
    expected = f"malformed scenario entry 0: ValidationError: {message}"
    with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
        family_from_json(doc)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        AdaptedFeedback("driver_sign", params)


def test_feedback_params_are_copied():
    params = {"threshold": 0.001}
    spec = AdaptedFeedback("driver_sign", params)
    params["threshold"] = 1.0
    assert spec.params == {"threshold": 0.001}


#: every count an entry point takes, each built with the value under test
_COUNTS = [
    ("n_steps", lambda v: TimeGrid(1.0, v)),
    ("n_steps", lambda v: McConfig(n_paths=2, n_steps=v, horizon=1.0, base_seed=0)),
    ("n_paths", lambda v: McConfig(n_paths=v, n_steps=2, horizon=1.0, base_seed=0)),
    ("n_paths", lambda v: simulate_bundle(Constant(0.01), BAND, TimeGrid(1.0, 2), None, 0, v).b.tolist()),
    ("n_constant", lambda v: default_scenario_family(BAND, v, 2, seed=0)),
    ("n_switching", lambda v: default_scenario_family(BAND, 2, v, seed=0)),
    ("n_segments", lambda v: bang_bang(BAND, 1.0, v)),
]
_COUNT_IDS = ["TimeGrid", "McConfig.n_steps", "McConfig.n_paths", "simulate_bundle",
              "n_constant", "n_switching", "bang_bang"]


#: the PDE's counts, where 2 is not always a valid value
_PDE_COUNTS = [
    ("nx", lambda v: Grid1D(-1.0, 1.0, v, 1.0, 4)),
    ("nt", lambda v: Grid1D(-1.0, 1.0, 5, 1.0, v)),
    ("store_every", lambda v: solve_gheat(np.abs, BAND, Grid1D(-0.1, 0.1, 11, 1.0, 4), v)),
    ("nodes_per_width", lambda v: gexpectation_terminal(np.abs, BAND, 1.0, nodes_per_width=v)),
]


@pytest.mark.parametrize("name, build, value", [
    pytest.param(name, build, value, id=f"{count_id}-{value}")
    for (name, build), count_id in zip(_COUNTS + _PDE_COUNTS, _COUNT_IDS + [
        "Grid1D.nx", "Grid1D.nt", "store_every", "nodes_per_width"])
    for value in (2.5, 2.0, True, "2", None)
    if not (name == "store_every" and value is None)  # None is its default: keep no slices
])
def test_counts_must_be_integers(name, build, value):
    """A fractional count once escaped as a bare ``TypeError``, and ``True`` ran as 1."""
    message = rf"^{name} must be an integer( >= \d+)?, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        build(value)


@pytest.mark.parametrize("name, build", _COUNTS, ids=_COUNT_IDS)
def test_counts_take_numpy_integers(name, build):
    assert build(np.int64(2)) == build(2)


@pytest.mark.parametrize("value", ["no", "yes", 1, 0, None])
@pytest.mark.parametrize("build", [
    lambda v: McConfig(n_paths=3, n_steps=2, horizon=1.0, base_seed=0, antithetic=v),
    lambda v: simulate_bundle(Constant(0.01), BAND, TimeGrid(1.0, 2), None, 0, 3, antithetic=v),
], ids=["McConfig", "simulate_bundle"])
def test_antithetic_must_be_a_bool(build, value):
    """``antithetic="no"`` once turned antithetic sampling on."""
    with pytest.raises(ValidationError, match=rf"^antithetic must be a bool, got {re.escape(repr(value))}$"):
        build(value)
    build(np.False_)  # a numpy bool is a bool


#: every real field of a public constructor, each built with the value under test
_REALS = [
    ("sigma_lo", lambda v: VolBand(v, 2.0)),
    ("sigma_hi", lambda v: VolBand(0.5, v)),
    ("horizon", lambda v: TimeGrid(v, 4)),
    ("value", lambda v: Constant(v)),
    ("times", lambda v: PiecewiseConstant((v,), (0.01, 0.02))),
    ("values", lambda v: PiecewiseConstant((0.5,), (0.01, v))),
    ("intensity", lambda v: RandomSwitching(v, 1)),
    ("r0", lambda v: RateParams(r0=v, alpha=1.0)),
    ("alpha", lambda v: RateParams(r0=0.02, alpha=v)),
    ("mu", lambda v: RateParams(r0=0.02, alpha=1.0, mu=v)),
    ("maturities", lambda v: ForwardCurve([0.0, v], [0.02, 0.03])),
    ("forwards", lambda v: ForwardCurve([0.0, 1.0], [0.02, v])),
    ("x_min", lambda v: Grid1D(v, 2.0, 5, 1.0, 4)),
    ("x_max", lambda v: Grid1D(-2.0, v, 5, 1.0, 4)),
    ("t_final", lambda v: Grid1D(-2.0, 2.0, 5, v, 4)),
]
_REAL_IDS = ["VolBand.sigma_lo", "VolBand.sigma_hi", "TimeGrid.horizon", "Constant.value",
             "PiecewiseConstant.times", "PiecewiseConstant.values", "RandomSwitching.intensity",
             "RateParams.r0", "RateParams.alpha", "RateParams.mu", "ForwardCurve.maturities",
             "ForwardCurve.forwards", "Grid1D.x_min", "Grid1D.x_max", "Grid1D.t_final"]


@pytest.mark.parametrize("value", [True, "4", None, np.nan, np.inf, -np.inf, 10**400, np.array([0.1])],
                         ids=["True", "str", "None", "nan", "inf", "-inf", "huge_int", "array"])
@pytest.mark.parametrize("name, build", _REALS, ids=_REAL_IDS)
def test_reals_follow_the_number_rule(name, build, value):
    """A number is a finite Python or numpy real, never a bool or a string.  ``True``
    once ran as 1, ``"4"`` escaped as a bare ``TypeError`` or was converted, and
    ``Constant`` checked nothing."""
    with pytest.raises(ValidationError, match=rf"^{name} must be a finite real number"):
        build(value)


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1)], ids=["float32", "int64"])
@pytest.mark.parametrize("name, build", _REALS, ids=_REAL_IDS)
def test_reals_take_numpy_scalars_as_floats(name, build, value):
    assert build(value) == build(float(value))


def test_default_family_rejects_a_negative_switching_count():
    with pytest.raises(ValidationError, match=r"^n_switching must be an integer >= 0, got -1$"):
        default_scenario_family(BAND, 2, -1, seed=0)


@pytest.mark.parametrize("entries", [5, {"kind": "constant", "value": 0.01}, "constant"])
def test_family_from_json_rejects_non_list_scenarios(entries):
    with pytest.raises(ValidationError, match="must be a list"):
        family_from_json({"band": {"lo": 0.005, "hi": 0.02}, "scenarios": entries})


@pytest.mark.parametrize("seed", [1.5, 2.0, True, False, -1, "3", None, np.float64(4.0)])
def test_switching_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValidationError, match=r"^switching seed must be an integer >= 0, got "):
        RandomSwitching(intensity=1.0, seed=seed)


@pytest.mark.parametrize("seed", [1.7, 2.0, -1, True, "1", None])
def test_default_family_seed_must_be_a_non_negative_integer(seed):
    """Never truncated: ``1.7`` once built the seeds 1 and 2."""
    message = rf"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValidationError, match=message):
        default_scenario_family(BAND, 2, 2, seed=seed)


def test_default_family_takes_a_numpy_integer_seed():
    family = default_scenario_family(BAND, 2, 2, seed=np.int64(3))
    ids = [s.scenario_id for s in family[-2:]]
    assert ids == ["switch[rate=2;seed=3]", "switch[rate=4;seed=4]"]
    json.dumps(family_to_json(BAND, family))  # plain integers


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(2**32 - 1)])
def test_switching_seed_accepts_python_and_numpy_integers(seed):
    assert RandomSwitching(intensity=1.0, seed=seed).seed == seed


@pytest.mark.parametrize("entry, message", [
    ({"kind": "switching", "intensity": 1.0, "seed": 1.5},
     "switching seed must be an integer >= 0, got 1.5"),
    ({"kind": "switching", "intensity": 1.0, "seed": True},
     "switching seed must be an integer >= 0, got True"),
    ({"kind": "switching", "intensity": 1.0, "seed": -1},
     "switching seed must be an integer >= 0, got -1"),
    ({"kind": "switching", "intensity": True, "seed": 1},
     "intensity must be a finite real number >= 0, got True"),
    ({"kind": "constant", "value": True}, "value must be a finite real number, got True"),
    ({"kind": "piecewise", "times": [True], "values": [0.01, 0.02]},
     "times must be a finite real number, got True"),
    ({"kind": "piecewise", "times": [0.5], "values": [0.01, False]},
     "values must be a finite real number, got False"),
])
def test_family_from_json_rejects_what_it_would_coerce(entry, message):
    """A boolean is not a number and a seed is a non-negative integer: neither is
    converted, and the error names the entry."""
    doc = {"band": {"lo": 0.005, "hi": 0.02}, "scenarios": [{"kind": "constant", "value": 0.01}, entry]}
    expected = f"malformed scenario entry 1: ValidationError: {message}"
    with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
        family_from_json(doc)


def test_family_from_json_rejects_a_boolean_band_edge():
    with pytest.raises(ValidationError, match=r"^sigma_hi must be a finite real number > 0, got True$"):
        family_from_json({"band": {"lo": 0.005, "hi": True}, "scenarios": []})
