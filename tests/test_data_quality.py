"""Quality-signal computations: 1-D transport, noise bounds, CSV formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from msdro_opf.data_quality import (NoiseModel, QualitySignal,
                                    additive_noise_bound,
                                    aggregation_protocol_bound,
                                    empirical_wasserstein_1d,
                                    read_quality_csv,
                                    read_samples_csv, write_quality_csv,
                                    write_samples_csv)
from msdro_opf.errors import InputError

from oracles import laplace_mechanism, read_samples_by_row, transport_wp

samples_1d = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1, max_size=6,
)


def test_w1_identical_lists_is_zero():
    assert empirical_wasserstein_1d([0.3, -0.1], [0.3, -0.1], 1) == 0.0


def test_w1_single_point_translation():
    assert empirical_wasserstein_1d([0.0], [1.0], 1) == 1.0


def test_w1_two_by_two_coupling():
    # 2x2 instance where the sorted pairing beats the crossing one.
    assert empirical_wasserstein_1d([0, 2], [1, 3], 1) == pytest.approx(1.0)


def test_w1_equal_length_is_sorted_mean_difference():
    rng = np.random.default_rng(3)
    a = rng.normal(size=9)
    b = rng.normal(size=9)
    expect = np.mean(np.abs(np.sort(a) - np.sort(b)))
    assert empirical_wasserstein_1d(a, b, 1) == pytest.approx(expect, abs=1e-15)


def test_w1_equal_length_matches_transport_lp():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        assert empirical_wasserstein_1d(a, b, 1) == pytest.approx(
            transport_wp(a, b, 1), abs=1e-12)


def test_w1_unequal_length_matches_transport_lp():
    rng = np.random.default_rng(12)
    for _ in range(30):
        a = rng.normal(size=int(rng.integers(1, 8)))
        b = rng.normal(size=int(rng.integers(1, 8)))
        assert empirical_wasserstein_1d(a, b, 1) == pytest.approx(
            transport_wp(a, b, 1), abs=1e-10)


@pytest.mark.parametrize("n,m", [(100, 30), (1000, 700), (1000, 999),
                                 (20000, 15001)])
def test_w1_unequal_counts_match_scipy(n, m):
    """Merged breakpoints such as 7/100 must not read the next order statistic."""
    rng = np.random.default_rng(n + m)
    a = rng.normal(0.0, 1.0, size=n)
    b = rng.normal(0.1, 1.2, size=m)
    assert empirical_wasserstein_1d(a, b, 1) == pytest.approx(
        wasserstein_distance(a, b), rel=1e-12)


def test_wp_power_convention():
    # Returned value is W_p^p, not W_p: two-atom split at distance 2.
    assert empirical_wasserstein_1d([0.0, 0.0], [0.0, 2.0], 2) == pytest.approx(2.0)
    rng = np.random.default_rng(13)
    a = rng.normal(size=5)
    b = rng.normal(size=7)
    assert empirical_wasserstein_1d(a, b, 2) == pytest.approx(
        transport_wp(a, b, 2), abs=1e-9)


def test_w1_empty_list_raises():
    with pytest.raises(InputError):
        empirical_wasserstein_1d([], [1.0], 1)
    with pytest.raises(InputError):
        empirical_wasserstein_1d([1.0], [], 1)


@given(samples_1d)
def test_w1_self_distance_zero(a):
    assert empirical_wasserstein_1d(a, a, 1) == pytest.approx(0.0, abs=1e-9)


@given(samples_1d, samples_1d)
def test_w1_symmetry(a, b):
    assert empirical_wasserstein_1d(a, b, 1) == pytest.approx(
        empirical_wasserstein_1d(b, a, 1), rel=1e-9, abs=1e-9)


@settings(max_examples=60)
@given(samples_1d, samples_1d, samples_1d)
def test_w1_triangle_inequality(a, b, c):
    ab = empirical_wasserstein_1d(a, b, 1)
    bc = empirical_wasserstein_1d(b, c, 1)
    ac = empirical_wasserstein_1d(a, c, 1)
    assert ac <= ab + bc + 1e-9 * (1 + ab + bc)


def test_laplace_bound_analytic():
    signal = additive_noise_bound(NoiseModel.laplace(0.05), p=1, norm="l1")
    assert signal.epsilon == pytest.approx(0.05)
    assert signal.p == 1


def test_laplace_bound_matches_monte_carlo():
    rng = np.random.default_rng(17)
    z = np.abs(rng.laplace(scale=0.05, size=1_000_000))
    se = z.std(ddof=1) / np.sqrt(len(z))
    bound = additive_noise_bound(NoiseModel.laplace(0.05), 1, "l1").epsilon
    assert abs(z.mean() - bound) <= 3 * se


def test_gaussian_bound_p1_matches_monte_carlo():
    rng = np.random.default_rng(18)
    z = np.abs(rng.normal(scale=0.2, size=1_000_000))
    se = z.std(ddof=1) / np.sqrt(len(z))
    bound = additive_noise_bound(NoiseModel.gaussian(0.2), 1, "l1").epsilon
    assert bound == pytest.approx(0.2 * np.sqrt(2 / np.pi))
    assert abs(z.mean() - bound) <= 3 * se


def test_gaussian_bound_p2_is_variance():
    bound = additive_noise_bound(NoiseModel.gaussian(0.3), 2, "l2")
    assert bound.epsilon == pytest.approx(0.09)


def test_unsupported_noise_combination_raises():
    with pytest.raises(InputError, match="no bound implemented for p=2, "
                                         "norm='l1'"):
        additive_noise_bound(NoiseModel.laplace(0.1), p=2, norm="l1")
    with pytest.raises(InputError, match="no bound implemented for p=1, "
                                         "norm='l2'"):
        additive_noise_bound(NoiseModel.laplace(0.1), p=1, norm="l2")


def test_noise_model_requires_positive_scale():
    with pytest.raises(InputError):
        NoiseModel.laplace(0.0)
    with pytest.raises(InputError):
        NoiseModel.gaussian(-1.0)


@pytest.mark.parametrize("dimension", [0, -1, 2.5, 1.0, "2", True, None])
def test_noise_model_rejects_a_dimension_that_is_not_a_count(dimension):
    with pytest.raises(InputError, match="noise dimension must be an integer "
                                         ">= 1"):
        NoiseModel("laplace", 0.1, dimension)


def test_noise_model_accepts_integer_dimensions():
    assert NoiseModel("gaussian", 0.1, np.int64(3)).dimension == 3
    bound = additive_noise_bound(NoiseModel.laplace(0.05, 4), 1, "l1")
    assert bound.epsilon == pytest.approx(0.2)


@pytest.mark.parametrize("kind", ["laplace", "gaussian"])
def test_overflowing_noise_bound_is_an_input_error(kind):
    """E|z|^2 of a huge parameter overflows; the bound is rejected as
    non-finite, not raised as an OverflowError."""
    noise = NoiseModel(kind, 1e200)
    with pytest.raises(InputError, match="epsilon must be finite"):
        additive_noise_bound(noise, p=2, norm="l2")
    assert np.isfinite(additive_noise_bound(noise, p=1, norm="l1").epsilon)


def test_noise_model_rejects_unknown_kind():
    with pytest.raises(InputError, match="unknown noise kind 'uniform'"):
        NoiseModel("uniform", 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_noise_model_and_signal_reject_non_finite_values(value):
    with pytest.raises(InputError):
        NoiseModel.laplace(value)
    with pytest.raises(InputError):
        NoiseModel.gaussian(value)
    with pytest.raises(InputError):
        QualitySignal(value)


def test_laplace_mechanism_scale_and_determinism():
    data = np.linspace(-0.5, 0.5, 20)
    noisy, signal = laplace_mechanism(data, sensitivity=1.0, theta=10.0, seed=5)
    assert signal.epsilon == pytest.approx(0.1)
    again, _ = laplace_mechanism(data, sensitivity=1.0, theta=10.0, seed=5)
    np.testing.assert_array_equal(noisy, again)
    other, _ = laplace_mechanism(data, sensitivity=1.0, theta=10.0, seed=6)
    assert not np.array_equal(noisy, other)


def test_laplace_mechanism_vanishing_noise():
    data = np.linspace(-0.5, 0.5, 20)
    noisy, signal = laplace_mechanism(data, 1.0, 1e9, seed=5)
    assert signal.epsilon == pytest.approx(1e-9)
    np.testing.assert_allclose(noisy, data, atol=1e-6)


def test_laplace_mechanism_rejects_nonpositive_parameters():
    with pytest.raises(InputError):
        laplace_mechanism(np.zeros(3), 0.0, 1.0, seed=1)
    with pytest.raises(InputError):
        laplace_mechanism(np.zeros(3), 1.0, -2.0, seed=1)


def test_laplace_mechanism_empirical_w1_within_bound():
    """The empirical transport moved by the mechanism stays under epsilon.

    Coupling original to obfuscated by identity gives mean |noise|, whose
    expectation is the returned bound; allow sampling slack on top.
    """
    data = np.linspace(-0.5, 0.5, 5000)
    for seed in range(5):
        noisy, signal = laplace_mechanism(data, 1.0, 10.0, seed=seed)
        moved = empirical_wasserstein_1d(data, noisy, 1)
        assert moved <= signal.epsilon + 0.01


def test_aggregation_bound_identity_and_mask():
    assert aggregation_protocol_bound([1.0, 2.0], [1.0, 2.0], 1).epsilon == 0.0
    m = 0.4
    got = aggregation_protocol_bound([0.0, 0.0], [m, -m], 1)
    assert got.epsilon == pytest.approx(m)


def test_aggregation_bound_three_point_example():
    got = aggregation_protocol_bound([1, 2, 3], [1.5, 1.5, 3], 1)
    assert got.epsilon == pytest.approx((0.5 + 0.5 + 0.0) / 3)


def test_quality_signal_rejects_negative_epsilon():
    with pytest.raises(InputError):
        QualitySignal(-0.1)


def test_samples_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    xs = rng.normal(size=(2, 7))
    path = tmp_path / "samples.csv"
    write_samples_csv(path, xs)
    names, back = read_samples_csv(path)
    assert names == ["xi_1", "xi_2"]
    np.testing.assert_allclose(back, xs, atol=1e-12)


def test_samples_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        read_samples_csv(path)


def test_samples_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("xi_1,xi_2\n1,2\n3\n")
    with pytest.raises(InputError):
        read_samples_csv(path)


#: Sample files as text: plain, Windows and old Mac line ends, blank and
#: comma-only rows, quoted cells, what ``float`` accepts beyond plain
#: decimals, and every kind of bad row, some after a blank line.
SAMPLE_FILES = [
    "xi_1,xi_2\n0.1,-2\n3e-3,4E+2\n",
    "xi_1,xi_2\r\n0.1,-2\r\n.5,5.\r\n",
    "xi_1,xi_2\r0.1,-2\r.5,5.\r",
    "xi_1\n1\n\n  \n\t\n2",
    "xi_1,xi_2\n1,2\n,\n , \n\n3,4\n\n",
    ' "xi_1" ,xi_2\n"1.5"," 2"\n',
    'xi_1,xi_2\n"1\n",2\n3,4\n',
    "xi_1,xi_2\n 1.5 ,\t+2\t\n",
    "xi_1\n1_000\n",
    "xi_1\n\u0661\n",
    "xi_1\n\u20031\u2003\n",
    "xi_1,xi_2\n1,2\n3\n",
    'xi_1,xi_2\n"1\n",2\n3,x\n',
    '"xi_1\n",xi_2\n1,2\n3,x\n',
    "xi_1,xi_2\n1,2\n\n3,4,5\n",
    "xi_1,xi_2\n1,2,\n",
    "xi_1,xi_2\n1,2,3\n4,5,6\n",
    "xi_1\n1e5e5\n",
    "xi_1\n1,\n",
    "xi_1,xi_2\n1,abc\n",
    "xi_1,xi_2\n1,\n",
    "xi_1\n0x10\n",
    "xi_1\n1.5e\n",
    "xi_1\n--1\n",
    "xi_1\n1 2\n",
    "xi_1,xi_2\n0.1,0.2\n\n0.3,nan\n",
    "xi_1\nNaN\n",
    "xi_1\n-inf\n",
    "xi_1\n1e999\n",
    "xi_1\n",
    "xi_1\n\n\n",
    "xi_1\r\n\r\n",
    "xi_1\n\n , \n",
    "",
    "a,b\n1,2\n",
    "xi_1,b\n1,2\n",
]


@pytest.mark.parametrize("text", SAMPLE_FILES)
def test_samples_csv_matches_row_by_row_reader(tmp_path, text):
    path = tmp_path / "samples.csv"
    path.write_bytes(text.encode())
    try:
        expect = read_samples_by_row(path)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            read_samples_csv(path)
        assert str(got.value) == str(exc)
        return
    names, values = read_samples_csv(path)
    assert names == expect[0]
    assert values.shape == expect[1].shape
    assert np.array_equal(values, expect[1])


@pytest.mark.parametrize("text", ['xi_1,xi_2\n"1\n",2\n3,x\n',
                                  '"xi_1\n",xi_2\n1,2\n3,x\n'])
def test_sample_readers_name_the_line_after_a_cell_across_lines(tmp_path,
                                                                text):
    """A quoted cell (or header cell) that spans lines 2-3 leaves the bad
    row on line 4, where both readers place it; counting records put it on
    line 3."""
    path = tmp_path / "samples.csv"
    path.write_bytes(text.encode())
    message = f"{path}:4: could not convert string to float: 'x'"
    for read in (read_samples_csv, read_samples_by_row):
        with pytest.raises(InputError) as exc:
            read(path)
        assert str(exc.value) == message


def test_samples_csv_matches_row_by_row_reader_on_a_large_file(tmp_path):
    rng = np.random.default_rng(23)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, rng.normal(size=(3, 2000)))
    names, values = read_samples_csv(path)
    expect = read_samples_by_row(path)
    assert names == expect[0] and np.array_equal(values, expect[1])
    text = path.read_text()
    path.write_text(text + "1,2,abc\n")
    with pytest.raises(InputError, match=r":2002: could not convert"):
        read_samples_csv(path)


def test_samples_csv_matches_columns_by_name(tmp_path):
    path = tmp_path / "samples.csv"
    for text in ("xi_2,xi_1\n1,2\n3,4\n", '"xi_2",xi_1\n"1",2\n3,4\n'):
        path.write_text(text)
        names, values = read_samples_csv(path)
        assert names == ["xi_1", "xi_2"]
        assert values.tolist() == [[2.0, 4.0], [1.0, 3.0]]
    path.write_text("xi_1,xi_3\n1,2\n")
    with pytest.raises(InputError) as got:
        read_samples_csv(path)
    assert str(got.value) == (f"{path}:1: expected header columns "
                              "xi_1,...,xi_2 in any order, got ['xi_1', 'xi_3']")


def test_csv_readers_reject_non_finite_values(tmp_path):
    path = tmp_path / "samples.csv"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"xi_1,xi_2\n0.1,0.2\n0.3,{bad}\n")
        with pytest.raises(InputError, match=":3: non-finite"):
            read_samples_csv(path)
    path = tmp_path / "quality.csv"
    for bad in ("nan", "inf"):
        path.write_text(f"feature,epsilon\nxi_1,{bad}\n")
        with pytest.raises(InputError):
            read_quality_csv(path)


def test_quality_csv_roundtrip(tmp_path):
    path = tmp_path / "quality.csv"
    write_quality_csv(path, {"xi_1": 0.1, "xi_2": 0.005})
    assert read_quality_csv(path) == {"xi_1": 0.1, "xi_2": 0.005}


@pytest.mark.parametrize("text, message", [
    ("", ": empty file"),
    ("feature,epsilon\nxi_1,0.1,0.2\n", ":2: expected 2 columns"),
    ("feature,epsilon\n\nxi_1,wide\n", ":3: could not convert"),
    ("feature,epsilon\n\n , \n", ": no quality rows"),
    ("feature,epsilon\nxi_1,0.1\nxi_3,0.2\n",
     ":3: feature 'xi_3' is not one of xi_1, xi_2"),
    ('feature,epsilon\n"xi_1\n",0.1\nxi_2,x\n',
     ":4: could not convert string to float: 'x'"),
    # Rows both readers share: {header} is each file's own header.
    ("{header}\n1,2,3\n", ":2: expected 2 columns"),
    ("{header}\n\n1,wide\n", ":3: could not convert string to float: 'wide'"),
    ("{header}\n , \n1\n", ":3: expected 2 columns"),
    ("{header}\r\n\r\n,\r\n1,x\r\n",
     ":4: could not convert string to float: 'x'"),
])
def test_quality_csv_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "quality.csv"
    path.write_bytes(text.replace("{header}", "feature,epsilon").encode())
    with pytest.raises(InputError) as exc:
        read_quality_csv(path, ["xi_1", "xi_2"])
    assert str(exc.value).startswith(f"{path}{message}")
    if "{header}" in text:
        path.write_bytes(text.replace("{header}", "xi_1,xi_2").encode())
        with pytest.raises(InputError) as samples_exc:
            read_samples_csv(path)
        assert str(samples_exc.value) == str(exc.value)


def test_quality_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "quality.csv"
    path.write_text("name,eps\nxi_1,0.1\n")
    with pytest.raises(InputError):
        read_quality_csv(path)
