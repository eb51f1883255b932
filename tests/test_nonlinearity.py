import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullwave.errors import DomainError, HyperbolicityLoss
from nullwave.nonlinearity import (
    acoustic_metric,
    coefficients,
    eval_coeffs,
    linear_model,
    membrane_model,
    polynomial_model,
    range_certificate,
)
from nullwave.oracles import (coeffs_via_cas, contraction_identity_check,
                              metric_via_cas)
from nullwave.scenario import model_from_config


# frozen reference values (computed once via the symbolic route)
MEMBRANE_AT_QUARTER = {
    "fp": -0.4, "fpp": 0.32, "kappa": 0.8, "G": -0.8, "H": 1.0, "Hp": 0.0,
}
MEMBRANE_AT_M008 = {
    "fp": -0.5434782608695652,
    "fpp": 0.5907372400756143,
    "kappa": 1.0869565217391304,
    "G": -1.0869565217391304,
    "H": 1.0,
}
METRIC_MEMBRANE_03_01 = {
    "sigma": -0.08, "g00": -0.91, "g01": 0.03, "g11": 1.01,
    "det_inv": -1.0869565217391304, "det": -0.92,
}
POLY02_AT_ZERO = {"G": 0.4, "H": -0.4, "Hp": 0.16}


def test_membrane_frozen_values():
    co = eval_coeffs(membrane_model(), 0.25)
    for key, val in MEMBRANE_AT_QUARTER.items():
        assert getattr(co, key) == pytest.approx(val, rel=1e-12, abs=1e-13)
    co = eval_coeffs(membrane_model(), -0.08)
    for key, val in MEMBRANE_AT_M008.items():
        assert getattr(co, key) == pytest.approx(val, rel=1e-12)


def test_membrane_H_identically_one():
    s = np.linspace(-0.9, 5.0, 311)
    co = eval_coeffs(membrane_model(), s)
    assert np.max(np.abs(co.H - 1.0)) < 1e-12
    assert np.max(np.abs(co.Hp)) < 1e-12


def test_polynomial_frozen_values():
    co = eval_coeffs(polynomial_model(0.2), 0.0)
    assert co.G == pytest.approx(POLY02_AT_ZERO["G"], rel=1e-12)
    assert co.H == pytest.approx(POLY02_AT_ZERO["H"], rel=1e-12)
    assert co.Hp == pytest.approx(POLY02_AT_ZERO["Hp"], rel=1e-12)


@pytest.mark.parametrize("name,params,sigma", [
    ("membrane", (), 0.25),
    ("membrane", (), -0.08),
    ("polynomial", (0.2,), 0.15),
    ("polynomial", (0.1, -0.05, 0.02), -0.3),
])
def test_coeffs_match_cas(name, params, sigma):
    model = membrane_model() if name == "membrane" else polynomial_model(*params)
    co = eval_coeffs(model, sigma)
    ref = coeffs_via_cas(name, sigma, params)
    for key, val in ref.items():
        assert getattr(co, key) == pytest.approx(val, rel=1e-11, abs=1e-12)


def test_linear_model_trivial():
    co = eval_coeffs(linear_model(), np.array([-3.0, 0.0, 7.5]))
    assert np.all(co.G == 0.0)
    assert np.all(co.H == 0.0)
    assert np.all(co.kappa == 1.0)


def _dets(met):
    """det g and det g^{-1} formed from the metric's components."""
    return (met.g00 * met.g11 - met.g01 * met.g01,
            met.inv00 * met.inv11 - met.inv01 * met.inv01)


def test_metric_frozen_values():
    met = acoustic_metric(membrane_model(), 0.3, 0.1)
    for key in ("sigma", "g00", "g01", "g11"):
        assert getattr(met, key) == pytest.approx(METRIC_MEMBRANE_03_01[key], rel=1e-12)
    det, det_inv = _dets(met)
    assert det_inv == pytest.approx(METRIC_MEMBRANE_03_01["det_inv"], rel=1e-12)
    assert det == pytest.approx(METRIC_MEMBRANE_03_01["det"], rel=1e-12)


@pytest.mark.parametrize("name,params,Phi0,Phi1", [
    ("membrane", (), 0.3, 0.1),
    ("membrane", (), -0.2, 0.45),
    ("polynomial", (0.2,), 0.5, -0.3),
    ("polynomial", (0.1, -0.05, 0.02), 0.8, 0.6),
])
def test_metric_matches_cas(name, params, Phi0, Phi1):
    model = membrane_model() if name == "membrane" else polynomial_model(*params)
    met = acoustic_metric(model, Phi0, Phi1)
    ref = metric_via_cas(name, Phi0, Phi1, params)
    assert met.sigma == pytest.approx(ref["sigma"], rel=1e-12, abs=1e-14)
    assert met.g00 == pytest.approx(ref["g00"], rel=1e-11)
    assert met.g01 == pytest.approx(ref["g01"], rel=1e-11, abs=1e-13)
    assert met.g11 == pytest.approx(ref["g11"], rel=1e-11)
    det, det_inv = _dets(met)
    assert det_inv == pytest.approx(ref["det_inv"], rel=1e-11)
    assert det == pytest.approx(ref["det"], rel=1e-11)


def test_metric_determinant_pair():
    # det g = -1/kappa and det g^{-1} = -kappa, so the product is 1
    model = membrane_model()
    for Phi0, Phi1 in [(0.3, 0.1), (0.0, 0.6), (-0.4, -0.2)]:
        met = acoustic_metric(model, Phi0, Phi1)
        det, det_inv = _dets(met)
        assert det * det_inv == pytest.approx(1.0, rel=1e-12)
        assert det_inv == pytest.approx(-met.kappa, rel=1e-12)


@given(
    Phi0=st.floats(-0.6, 0.6),
    Phi1=st.floats(-0.6, 0.6),
    a=st.floats(-0.3, 0.3),
    b=st.floats(-0.2, 0.2),
)
@settings(max_examples=60, deadline=None)
def test_contraction_identity_property(Phi0, Phi1, a, b):
    # g^{mn} dphi_m dphi_n == sigma + 2 f' sigma^2 for every model and state
    for model in (membrane_model(), polynomial_model(a, b)):
        sigma = -Phi0 * Phi0 + Phi1 * Phi1
        try:
            kappa = eval_coeffs(model, sigma).kappa
        except (DomainError, HyperbolicityLoss):
            continue
        if kappa <= 1e-6:
            continue
        lhs, rhs, resid = contraction_identity_check(model, Phi0, Phi1)
        assert resid < 1e-12 * (1.0 + abs(lhs))


def test_membrane_domain_error():
    with pytest.raises(DomainError):
        eval_coeffs(membrane_model(), -1.2)


def test_polynomial_hyperbolicity_loss():
    # kappa = 1 + 0.4 sigma crosses zero at sigma = -2.5
    with pytest.raises(HyperbolicityLoss):
        eval_coeffs(polynomial_model(0.2), -3.0)


@pytest.mark.parametrize("model", [linear_model(), membrane_model(),
                                   polynomial_model(0.2, 0.1)],
                         ids=["linear", "membrane", "polynomial"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sigma_is_a_domain_error(model, bad):
    with pytest.raises(DomainError):
        eval_coeffs(model, bad)
    with pytest.raises(DomainError):
        eval_coeffs(model, np.array([0.1, bad, 0.0]))
    # the non-raising evaluator masks the entry out instead
    assert coefficients(model, np.array([0.1, bad])).ok.tolist() == [True, False]


def test_domain_error_comes_before_hyperbolicity_loss():
    # kappa = 1 + 0.4 sigma <= 0 from sigma = -2.5 on; the wall is at -5
    walled = dataclasses.replace(polynomial_model(0.2), sigma_min=-5.0)
    for sigma in ([-6.0, -3.0], [-3.0, -6.0]):
        with pytest.raises(DomainError):
            eval_coeffs(walled, np.array(sigma))
    with pytest.raises(HyperbolicityLoss):
        eval_coeffs(walled, np.array([0.0, -3.0]))
    co = coefficients(walled, np.array([-6.0, -3.0, 0.5]))
    assert co.ok.tolist() == [False, False, True]
    assert co.kappa[0] == 1.0  # evaluated at sigma = 0
    assert co.kappa[1] <= 0.0 and co.k[1] == 1.0


@given(
    family=st.sampled_from(["linear", "membrane", "polynomial"]),
    unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
    a=st.floats(-0.3, 0.3),
    b=st.floats(-0.3, 0.3),
    c=st.floats(-0.3, 0.3),
)
@settings(max_examples=60)
def test_one_coefficient_algebra(family, unit, a, b, c):
    # On admissible sigma the non-raising evaluator (the march's) and
    # eval_coeffs (every other stage's) agree bit for bit.
    u = np.array(unit)
    if family == "linear":
        model, sigma = linear_model(), 200.0 * u - 100.0
    elif family == "membrane":
        model, sigma = membrane_model(), 5.99 * u - 0.99
    else:
        # |2 f' sigma| <= 2 (0.3 + 0.3 + 0.225) / 2 < 1, so kappa > 0
        model, sigma = polynomial_model(a, b, c), u - 0.5
    quiet, checked = coefficients(model, sigma), eval_coeffs(model, sigma)
    assert quiet.ok.all()
    for key in ("G", "H", "Hp", "kappa"):
        assert np.array_equal(getattr(quiet, key), getattr(checked, key))


def test_range_certificate_membrane():
    cert = range_certificate(membrane_model(), 0.5)
    # closed forms on [-1/2, 1/2]: sup|G| = 2, sup|f'| = 1, sup|f''| = 2,
    # sup kappa = 2, sup 1/kappa = 3/2, sup|G'| = 4, H == 1, H' == H'' == 0
    assert cert["m0"] == 0.5
    assert cert["G"] == pytest.approx(2.0, rel=1e-6)
    assert cert["fp"] == pytest.approx(1.0, rel=1e-6)
    assert cert["fpp"] == pytest.approx(2.0, rel=1e-6)
    assert cert["kappa"] == pytest.approx(2.0, rel=1e-6)
    assert cert["kappa_inv"] == pytest.approx(1.5, rel=1e-6)
    assert cert["H"] == pytest.approx(1.0, rel=1e-12)
    assert cert["Hp"] < 1e-10
    assert cert["Hpp"] < 1e-6
    assert cert["Gp"] == pytest.approx(4.0, rel=1e-4)
    assert cert["M0"] == pytest.approx(4.0, rel=1e-4)


def test_range_certificate_monotone_in_m0():
    model = polynomial_model(0.1, 0.05)
    small = range_certificate(model, 0.2)
    big = range_certificate(model, 0.6)
    tol = 1e-9
    for key in ("G", "H", "fp", "kappa", "M0"):
        assert big[key] >= small[key] - tol


def test_range_certificate_domain_guard():
    with pytest.raises(DomainError):
        range_certificate(membrane_model(), 1.5)  # reaches sigma = -1.5
    # every sample is admissible, but the finite-difference stencil
    # (step 5e-5) reaches sigma = -1.00002, across the wall
    with pytest.raises(DomainError):
        range_certificate(membrane_model(), 0.99997)


def test_model_from_config():
    assert model_from_config("membrane").name == "membrane"
    assert model_from_config("linear").name == "linear"
    poly = model_from_config({"polynomial": [0.2]})
    assert eval_coeffs(poly, 0.0).G == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(DomainError):
        model_from_config("cubic")
    with pytest.raises(DomainError):
        model_from_config({"spline": [1.0]})
