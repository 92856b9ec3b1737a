import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from recycled_mzi import (LoopParameters, ParameterError, cascade, closed_form, lambda1_values,
                          lambda2_values, lambda3_values, loss_curve, maximize, mzi_entries,
                          sweep, verification)
from recycled_mzi.loop import loop_ratio
from recycled_mzi.optics import check_loss

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

# Reference route for the expanded entries: the balanced splitter, the
# upper-arm phase shifter and the splitter again, multiplied out by numpy.
BS = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)


def phase_shifter(phi):
    return np.diag([cmath.exp(-1j * phi), 1.0])


def mzi_product(phi):
    return BS @ phase_shifter(phi) @ BS


def mzi_matrix(phi):
    s11, s12, s21, s22 = mzi_entries(phi)
    return np.array([[s11, s12], [s21, s22]], dtype=complex)


def test_beam_splitter_matrix_entries():
    inv_sqrt2 = 1 / math.sqrt(2)
    expected = np.array([[inv_sqrt2, 1j * inv_sqrt2], [1j * inv_sqrt2, inv_sqrt2]])
    np.testing.assert_allclose(BS, expected, atol=1e-15)


def test_beam_splitter_is_unitary():
    np.testing.assert_allclose(BS.conj().T @ BS, np.eye(2), atol=1e-12)


def test_beam_splitter_squared_swaps_with_phase():
    # (1/sqrt(2))^2 [[1+i^2, 2i], [2i, i^2+1]] = [[0, i], [i, 0]] by direct
    # 2x2 multiplication; with no phase shift the interferometer is bs @ bs.
    np.testing.assert_allclose(mzi_matrix(0.0), np.array([[0, 1j], [1j, 0]]), atol=1e-15)


@pytest.mark.parametrize("phi,expected", [
    (0.0, np.eye(2)),
    (math.pi, np.diag([-1.0 + 0j, 1.0])),
    (math.pi / 2, np.diag([-1j, 1.0 + 0j])),
])
def test_phase_matrix_special_angles(phi, expected):
    # The sign convention: only the upper arm picks up exp(-i*phi).
    np.testing.assert_allclose(phase_shifter(phi), expected, atol=1e-12)
    np.testing.assert_allclose(mzi_matrix(phi), BS @ expected @ BS, atol=1e-12)


def test_phase_matrix_rejects_nonfinite():
    with pytest.raises(ParameterError):
        LoopParameters(phi=math.inf, theta0=0.0, loss=0.5)


@pytest.mark.parametrize("phi,entries", [
    (0.0, (0.0, 1j, 1j, 0.0)),
    (math.pi, (-1.0, 0.0, 0.0, 1.0)),
    (math.pi / 2, ((-1 - 1j) / 2, (1 + 1j) / 2, (1 + 1j) / 2, (1 + 1j) / 2)),
])
def test_compose_mzi_special_angles(phi, entries):
    np.testing.assert_allclose(mzi_product(phi).ravel(), entries, atol=1e-12)
    np.testing.assert_allclose(np.array(mzi_entries(phi)), entries, atol=1e-12)


def test_compose_matches_expanded_entries_on_grid():
    phi = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    expanded = np.stack(mzi_entries(phi))
    for k, p in enumerate(phi):
        product = mzi_product(float(p)).ravel()
        assert np.max(np.abs(product - expanded[:, k])) < 1e-12


def test_unitarity_on_grid():
    for p in np.linspace(0.0, 2 * math.pi, 1000, endpoint=False):
        mzi = mzi_matrix(float(p))
        assert np.max(np.abs(mzi.conj().T @ mzi - np.eye(2))) < 1e-12
        # Column norms of a unitary matrix are one.
        assert abs(abs(mzi[0, 0]) ** 2 + abs(mzi[1, 0]) ** 2 - 1) < 1e-12
        assert abs(abs(mzi[0, 1]) ** 2 + abs(mzi[1, 1]) ** 2 - 1) < 1e-12


@given(phi=finite_angles)
def test_unitarity_for_arbitrary_phase(phi):
    mzi = mzi_matrix(phi)
    assert np.max(np.abs(mzi.conj().T @ mzi - np.eye(2))) < 1e-12


# Bounded so that the rounding of phi + 2*pi itself stays under the 1e-12
# comparison tolerance (ulp of the shifted angle grows with |phi|).
@given(phi=st.floats(min_value=-1000.0, max_value=1000.0))
def test_periodicity(phi):
    assert np.max(np.abs(mzi_matrix(phi) - mzi_matrix(phi + 2 * math.pi))) < 1e-12


# The loss channel on the recycling arm passes sqrt(1-L) of the loop
# amplitude and admits sqrt(L) of vacuum.

def test_loss_transform_lossless_and_opaque():
    lossless = closed_form(1.0, 0.5, 0.0)
    assert lossless.vac_a == 0 and lossless.vac_b == 0
    assert loop_ratio(1.0, 0.5, 1.0) == 0
    opaque = closed_form(1.0, 0.5, 1.0)
    assert abs(opaque.vac_a) == pytest.approx(abs(mzi_entries(1.0)[1]), abs=1e-15)


def test_loss_transform_intermediate():
    # At phi = pi the recirculated port maps onto itself (s22 = 1).
    gamma = complex(loop_ratio(math.pi, 0.3, 0.19))
    assert abs(gamma) == pytest.approx(0.9, abs=1e-12)
    coef = closed_form(math.pi, 0.3, 0.19)
    assert abs(coef.vac_b * (1 - gamma)) == pytest.approx(0.4358898943540674, abs=1e-12)


@given(loss=st.floats(min_value=0.0, max_value=1.0))
def test_loss_transform_preserves_power(loss):
    # The cascade's own vacuum bookkeeping keeps the monitored output a
    # free mode.  |gamma| <= |sin(0.5)| < 0.48, and 0.48**64 < 1e-20.
    coef, _ = cascade(1.0, 0.5, loss, 64)
    assert abs(coef.upsilon) ** 2 + abs(coef.vac_a) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("loss", [-0.1, 1.1, math.nan])
def test_loss_transform_domain(loss):
    with pytest.raises(ParameterError):
        LoopParameters(phi=0.0, theta0=0.0, loss=loss)
    with pytest.raises(ParameterError):
        closed_form(np.zeros(3), 0.0, np.array([0.5, loss, 0.5]))


def _listed(loss):
    return [loss] if np.ndim(loss) == 0 else loss


# Every public route that takes a loss, and whether it takes an array of them.
LOSS_ROUTES = {
    "lambda1_values": (lambda loss: lambda1_values(1.0, 0.5, loss), True),
    "lambda2_values": (lambda loss: lambda2_values(1.0, 0.5, loss), True),
    "lambda3_values": (lambda loss: lambda3_values(1.0, 0.5, loss), True),
    "closed_form": (lambda loss: closed_form(1.0, 0.5, loss), True),
    "cascade": (lambda loss: cascade(1.0, 0.5, loss, 3), True),
    "loop_ratio": (lambda loss: loop_ratio(1.0, 0.5, loss), True),
    "LoopParameters": (lambda loss: LoopParameters(phi=1.0, theta0=0.5, loss=loss), False),
    "sweep": (lambda loss: sweep("lambda1", loss, 2), False),
    "maximize": (lambda loss: maximize("lambda1", loss, grid_seed=2), False),
    "loss_curve": (lambda loss: loss_curve("lambda1", _listed(loss), grid_seed=2), True),
    "run_all": (lambda loss: verification.run_all(points=1, losses=_listed(loss), grid_n=2), True),
}

# Negative (not -0.0, which lies in [0, 1]), above 1, NaN, infinite, a flag,
# which equals 1 but is not a loss, or not a number at all.
bad_losses = (st.sampled_from([math.nan, math.inf, -math.inf, True, np.True_, -0.1, 1.5,
                               "0.5", None])
              | st.floats(max_value=-5e-324)
              | st.floats(min_value=1.0, exclude_min=True))


@given(route=st.sampled_from(sorted(LOSS_ROUTES)), bad=bad_losses,
       container=st.sampled_from(["alone", "list", "array"]))
@settings(max_examples=300, deadline=None)
def test_every_loss_route_refuses_a_bad_loss(route, bad, container):
    call, takes_array = LOSS_ROUTES[route]
    loss = bad
    if takes_array and container == "list":
        loss = [0.2, bad, 0.7]
    elif takes_array and container == "array":
        # A float array turns a flag into 1.0, a valid loss.
        assume(not isinstance(bad, (bool, np.bool_)))
        loss = np.array([0.2, bad, 0.7])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="loss must lie in"):
            call(loss)
    assert caught == []


class TestCheckLoss:
    def test_float64_array_is_not_copied(self):
        loss = np.linspace(0.0, 1.0, 7)
        assert check_loss(loss) is loss

    def test_scalars_and_lists_become_float64_arrays(self):
        for loss, expected in ((0.25, np.array(0.25)), (1, np.array(1.0)),
                               ([0, 0.5], np.array([0.0, 0.5])),
                               (np.array([0, 1], dtype=np.int64), np.array([0.0, 1.0]))):
            checked = check_loss(loss)
            assert checked.dtype == np.float64
            np.testing.assert_array_equal(checked, expected)

    @pytest.mark.parametrize("loss,named", [
        ([0.5, 2.0, -1.0], "2.0"),
        ([[0.5], [math.nan]], "nan"),
        (np.array([0.1, -math.inf]), "-inf"),
        ([0.0, np.True_, 0.3], "True"),
        (np.array([False, True]), "False"),
        # Not real numbers, though numpy would convert the strings.
        ([0.5, "0.25"], "0.25"),
        (np.array(["0.25"]), "0.25"),
        (0.5 + 0j, r"\(0.5\+0j\)"),
    ])
    def test_names_the_first_bad_element(self, loss, named):
        with pytest.raises(ParameterError, match=rf"^loss must lie in \[0, 1\], got {named}$"):
            check_loss(loss)


@pytest.mark.parametrize("kwargs,reason", [
    pytest.param({"losses": [0.1, 1.5]}, "got 1.5", id="losses"),
    pytest.param({"grid_n": 1}, "grid_n must be >= 2, got 1$", id="grid-1"),
    pytest.param({"grid_n": -5}, "grid_n must be >= 2, got -5$", id="grid-negative"),
    pytest.param({"grid_n": 2.0}, "grid_n must be an integer, got 2.0$", id="grid-float"),
    pytest.param({"points": 1.5}, "points must be an integer, got 1.5$", id="points-float"),
    pytest.param({"points": True}, "points must be an integer, got True$", id="points-bool"),
    pytest.param({"seed": 1.5}, "seed must be an integer, got 1.5$", id="seed-float"),
    pytest.param({"points": 0}, "points must be >= 1, got 0$", id="points-0"),
    pytest.param({"seed": -1}, "seed must be >= 0, got -1$", id="seed-negative"),
    # A numpy integer whose square wraps int64 to 0 is still over the cap.
    pytest.param({"grid_n": np.int64(2**32)}, "point-losses exceed", id="grid-wraps-int64"),
    pytest.param({"grid_n": 2}, "no point of the 2x2 derivative grid", id="grid-2-nulls"),
])
def test_run_all_checks_inputs_before_sampling(monkeypatch, kwargs, reason):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled points before checking the inputs")
    # `run_all` draws its sample chunk by chunk.
    monkeypatch.setattr(verification, "_sample_chunks", refuse)
    with pytest.raises(ParameterError, match=reason):
        verification.run_all(**kwargs)


class TestLoopParameters:
    @pytest.mark.parametrize("kwargs", [
        {"phi": math.nan, "theta0": 0.0, "loss": 0.5},
        {"phi": 0.0, "theta0": math.inf, "loss": 0.5},
        {"phi": 0.0, "theta0": 0.0, "loss": -0.01},
        {"phi": 0.0, "theta0": 0.0, "loss": 1.01},
        {"phi": 0.0, "theta0": 0.0, "loss": 0.5, "alpha_mag": -1.0},
        {"phi": 0.0, "theta0": 0.0, "loss": 0.5, "alpha_mag": 1e200},
        # A flag is not a loss, though True == 1.
        {"phi": 0.0, "theta0": 0.0, "loss": True},
        {"phi": 0.0, "theta0": 0.0, "loss": np.True_},
        # Each phase is finite, but theta0 + phi overflows in the kernels.
        {"phi": 1e308, "theta0": 1e308, "loss": 0.5},
        # An operating point has real phases, one loss and a real amplitude.
        {"phi": 0.0, "theta0": 0.0, "loss": np.array([0.2, 0.3])},
        {"phi": 0.0, "theta0": 0.0, "loss": 0.5, "alpha_mag": "1"},
        {"phi": "1", "theta0": 0.0, "loss": 0.5},
        {"phi": 0.0, "theta0": np.array([0.1, 0.2]), "loss": 0.5},
        # Nor is a flag a phase or an amplitude.
        {"phi": True, "theta0": 0.0, "loss": 0.5},
        {"phi": 0.0, "theta0": False, "loss": 0.5},
        {"phi": 0.0, "theta0": 0.0, "loss": 0.5, "alpha_mag": True},
    ])
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ParameterError):
            LoopParameters(**kwargs)
