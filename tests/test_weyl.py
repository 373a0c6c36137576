import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from defectsum import weyl
from defectsum.errors import IntegrationFailure, NonFiniteCoefficient
from defectsum.weyl import (
    DEFAULT_SETTINGS,
    MIN_FIT,
    LIMIT_CIRCLE,
    LIMIT_POINT,
    RadialProblem,
    classify_endpoint_detailed,
    classify_inverse_square_cached,
    combine_endpoint_counts,
    count_L2_solutions,
    frobenius_classify_inverse_square,
    indeterminate,
    perturbation_stability_check,
    weyl_classify_numeric,
)


def inverse_square_problem(q0, endpoint=0.0):
    return RadialProblem(
        q=lambda r: q0 / np.asarray(r, dtype=float) ** 2,
        interval=(0.0, math.inf),
        singular_endpoint=endpoint,
        anchor=1.0,
    )


# ---------------------------------------------------------------------------
# Closed-form rule


def test_frobenius_threshold():
    assert frobenius_classify_inverse_square(0.75) is LIMIT_POINT
    assert frobenius_classify_inverse_square(2.0) is LIMIT_POINT
    assert frobenius_classify_inverse_square(0.0) is LIMIT_CIRCLE
    assert frobenius_classify_inverse_square(-1.0) is LIMIT_CIRCLE


# ---------------------------------------------------------------------------
# Numeric classification examples


def test_numeric_strong_repulsive_is_limit_point():
    assert weyl_classify_numeric(inverse_square_problem(2.0)).is_limit_point


def test_numeric_free_at_infinity_is_limit_point():
    p = RadialProblem(q=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                      interval=(1.0, math.inf), singular_endpoint=math.inf,
                      anchor=2.0)
    assert weyl_classify_numeric(p).is_limit_point


def test_numeric_mild_attractive_is_limit_circle():
    assert weyl_classify_numeric(inverse_square_problem(-0.5)).is_limit_circle


def test_numeric_agrees_with_frobenius_on_grid():
    for q0 in np.arange(-5.0, 5.0 + 1e-9, 0.25):
        q0 = float(q0)
        if abs(q0 - 0.75) < 1e-3:
            continue
        numeric = classify_inverse_square_cached(q0, "inner")
        assert numeric.kind == frobenius_classify_inverse_square(q0).kind, q0


def test_numeric_agrees_with_frobenius_fuzz():
    # random couplings, including clusters near the threshold
    rng = np.random.default_rng(17)
    values = np.concatenate([
        rng.uniform(-8.0, 8.0, size=200),
        0.75 + rng.uniform(-0.3, 0.3, size=100),
    ])
    for q0 in values:
        q0 = float(q0)
        if abs(q0 - 0.75) < 1e-3:
            continue
        numeric = classify_inverse_square_cached(q0, "inner")
        assert numeric.kind == frobenius_classify_inverse_square(q0).kind, q0


def test_fitted_exponent_matches_frobenius_index():
    # q0 = 2 has exponents 1/2 +- 3/2; the fitted nu must hit 1.5 closely
    _, diag = classify_endpoint_detailed(inverse_square_problem(2.0))
    assert diag.nu_hat == pytest.approx(1.5, abs=1e-6)


def test_limit_point_reports_minimizing_combination():
    from defectsum.weyl import _normalized_direction, _run_windows, \
        _recessive_diagnostics
    import math as _math
    problem = inverse_square_problem(2.0)
    q, anchor, direction = _normalized_direction(problem)
    run = _run_windows(q, anchor, direction, DEFAULT_SETTINGS.n_windows, 1j,
                       DEFAULT_SETTINGS)
    # cross correlations obey Cauchy-Schwarz on every window
    assert (np.abs(run.corr) <= 1.0 + 1e-12).all()
    lam, _ = _recessive_diagnostics(run, DEFAULT_SETTINGS.fit_windows)
    # at the minimizer the last-window form equals g00 (1 - |corr|^2)
    k = run.n_done - 1
    g00 = _math.exp(run.l00[k] - run.l00[k])
    g11 = _math.exp(run.l11[k] - run.l00[k])
    corr = run.corr[k]
    value = (g00 + 2.0 * (np.conj(lam) * corr).real * _math.sqrt(g00 * g11)
             + abs(lam) ** 2 * g11)
    assert value == pytest.approx(g00 * (1.0 - abs(corr) ** 2), rel=1e-9)

    cls, diag = classify_endpoint_detailed(problem)
    assert cls.is_limit_point
    assert diag.lambda_hat is not None and np.isfinite(diag.lambda_hat)


def test_borderline_returns_indeterminate():
    cls = classify_inverse_square_cached(0.75, "inner")
    assert cls.is_indeterminate
    assert cls.band == DEFAULT_SETTINGS.band


# ---------------------------------------------------------------------------
# Outer schedule: the shortest fittable run first, the full run if undecided


@given(q0=st.floats(-20.0, 60.0), z=st.sampled_from([1j, -1j]))
@hyp_settings(max_examples=25, deadline=None)
def test_outer_decides_at_shortest_run(q0, z):
    cls, diag = classify_endpoint_detailed(inverse_square_problem(q0, math.inf), z)
    assert cls.is_limit_point
    assert diag.windows_used == MIN_FIT + 2
    assert diag.slope_dominant > DEFAULT_SETTINGS.decisive_slope


@pytest.mark.parametrize("q0", [-0.4998, 3.3199])
@pytest.mark.parametrize("z", [1j, -1j])
def test_outer_short_run_is_prefix_of_long_run(q0, z):
    q, anchor, direction = weyl._normalized_direction(
        inverse_square_problem(q0, math.inf))
    short = weyl._run_windows(q, anchor, direction, MIN_FIT + 2, z, DEFAULT_SETTINGS)
    full = weyl._run_windows(q, anchor, direction, 8, z, DEFAULT_SETTINGS)
    n = short.n_done
    assert n == MIN_FIT + 2
    assert np.array_equal(short.l00, full.l00[:n])
    assert np.array_equal(short.l11, full.l11[:n])
    assert np.array_equal(short.corr, full.corr[:n])


def test_outer_fit_that_is_not_decisive_reruns_at_full_length():
    settings = replace(DEFAULT_SETTINGS, decisive_slope=1e9, n_windows_outer=8)
    problem = inverse_square_problem(2.0, math.inf)
    cls, diag = classify_endpoint_detailed(problem, 1j, settings)
    assert diag.windows_used == 8

    q, anchor, direction = weyl._normalized_direction(problem)
    direct, _ = weyl._analyze(
        weyl._run_windows(q, anchor, direction, 8, 1j, settings), settings, direction)
    assert replace(diag, lambda_hat=None, recessive_slope=None) == direct
    assert cls is (LIMIT_POINT if direct.slope_dominant > 0 else LIMIT_CIRCLE)


@pytest.mark.parametrize("n_outer", [5, 6])
def test_short_outer_setting_runs_one_rung(n_outer, monkeypatch):
    calls = []
    run_windows = weyl._run_windows

    def recording(q, anchor, direction, n_win, z, settings):
        calls.append(n_win)
        return run_windows(q, anchor, direction, n_win, z, settings)

    monkeypatch.setattr(weyl, "_run_windows", recording)
    settings = replace(DEFAULT_SETTINGS, n_windows_outer=n_outer)
    problem = inverse_square_problem(2.0, math.inf)
    if n_outer < MIN_FIT + 2:
        with pytest.raises(IntegrationFailure, match=f"only {n_outer} usable"):
            classify_endpoint_detailed(problem, 1j, settings)
    else:
        _, diag = classify_endpoint_detailed(problem, 1j, settings)
        assert diag.windows_used == n_outer
    assert calls == [n_outer]


def test_mirrored_finite_endpoint():
    # endpoint at the right end b=1 of (0,1) with a 1/(1-r)^{1/2} blowup:
    # mild singularity, both solutions square integrable
    p = RadialProblem(
        q=lambda r: np.abs(1.0 - np.asarray(r, dtype=float)) ** -0.5,
        interval=(0.0, 1.0), singular_endpoint=1.0, anchor=0.5)
    assert weyl_classify_numeric(p).is_limit_circle


def test_nonfinite_coefficient_rejected():
    p = RadialProblem(
        q=lambda r: np.where(np.asarray(r) < 0.5, np.nan, 0.0),
        interval=(0.0, math.inf), singular_endpoint=0.0, anchor=1.0)
    with pytest.raises(NonFiniteCoefficient):
        weyl_classify_numeric(p)


def test_spectral_parameter_validated():
    with pytest.raises(ValueError):
        weyl_classify_numeric(inverse_square_problem(0.0), z=2j)


def test_integration_failure_on_exhausted_budget():
    import dataclasses
    from defectsum.errors import IntegrationFailure
    starved = dataclasses.replace(DEFAULT_SETTINGS, max_steps_per_window=8,
                                  max_refinements=0)
    with pytest.raises(IntegrationFailure):
        weyl_classify_numeric(inverse_square_problem(-4.0), settings=starved)


# ---------------------------------------------------------------------------
# Counting


def test_count_table():
    assert combine_endpoint_counts(LIMIT_CIRCLE, LIMIT_POINT) == 1
    assert combine_endpoint_counts(LIMIT_POINT, LIMIT_POINT) == 0
    assert combine_endpoint_counts(LIMIT_CIRCLE, LIMIT_CIRCLE) == 2


def test_count_indeterminate_propagates():
    from defectsum.errors import IndeterminateClassification
    with pytest.raises(IndeterminateClassification):
        combine_endpoint_counts(indeterminate(1e-4), LIMIT_POINT)


def test_count_half_line():
    assert count_L2_solutions(inverse_square_problem(0.0)) == 1
    assert count_L2_solutions(inverse_square_problem(2.0)) == 0


# ---------------------------------------------------------------------------
# Perturbation stability


def test_perturbation_identity():
    p = inverse_square_problem(0.0)
    assert perturbation_stability_check(p, lambda r: np.zeros_like(np.asarray(r)))


def test_perturbation_integrable_tail():
    # r^{-1/2} lies in the integrable class; classification stays limit circle
    p = inverse_square_problem(0.0)
    assert perturbation_stability_check(
        p, lambda r: np.asarray(r, dtype=float) ** -0.5)


def test_perturbation_bounded_bump():
    p = inverse_square_problem(2.0)
    bump = lambda r: np.exp(-((np.asarray(r, dtype=float) - 0.5) ** 2) * 30.0)
    assert perturbation_stability_check(p, bump)


# ---------------------------------------------------------------------------
# Invariants


def test_conjugation_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(12):
        q0 = float(rng.uniform(-4.0, 4.0))
        if abs(q0 - 0.75) < 5e-3:
            continue
        plus = classify_inverse_square_cached(q0, "inner", DEFAULT_SETTINGS, 1.0)
        minus = classify_inverse_square_cached(q0, "inner", DEFAULT_SETTINGS, -1.0)
        assert plus.kind == minus.kind


def test_monotone_consistency():
    grid = [float(q) for q in np.arange(-2.0, 4.0, 0.5)]
    kinds = [classify_inverse_square_cached(q, "inner").kind for q in grid]
    seen_lp = False
    for kind in kinds:
        if kind == "limit_point":
            seen_lp = True
        elif seen_lp:
            pytest.fail("limit point did not persist for larger couplings")


def test_determinism():
    p = inverse_square_problem(-1.3)
    first = classify_endpoint_detailed(p)
    second = classify_endpoint_detailed(p)
    assert first == second
