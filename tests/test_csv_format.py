"""The vectorised 12-digit cell formatter against Python's own `'%.12g'`."""

from fractions import Fraction

import numpy as np
import pytest

from kzring._csvtext import csv_lines


def formatted(values) -> list[str]:
    """The cells csv_lines writes for a single numeric column."""
    text = b"".join(csv_lines([np.asarray(values, dtype=float)])).decode("utf-8")
    assert text.endswith("\n") or not len(values)
    return text.split("\n")[:-1]


def mismatches(values) -> list[tuple[float, str, str]]:
    values = np.asarray(values, dtype=float)
    got = formatted(values)
    assert len(got) == values.size
    return [
        (v, "%.12g" % v, g)
        for v, g in zip(values.tolist(), got)
        if g != "%.12g" % v
    ]


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


def halfway(x: int, rng) -> list[Fraction]:
    """Points halfway between two 12-digit neighbours with exponent x.

    (2M + 1)/2 · 10^(x−11) is a double only when 5^(11−x) divides 2M + 1,
    so the odd numerator is moved to such a multiple where one fits.
    """
    step = 5 ** max(11 - x, 0)
    points = []
    for _ in range(20):
        odd = int(rng.integers(10**11, 10**12)) * 2 + 1
        if 2 * 10**11 < step < 2 * 10**12:
            odd = step
        elif step > 1:
            k = odd // step
            odd = (k if k % 2 else k + 1) * step
        points.append(Fraction(odd, 2) * Fraction(10) ** (x - 11))
    return points


def test_random_bit_patterns():
    rng = np.random.default_rng(20240601)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    assert mismatches(bits.view(np.float64))[:5] == []


def test_log_uniform_values_of_both_signs():
    rng = np.random.default_rng(7)
    wide = 10.0 ** rng.uniform(-320, 300, size=100_000)
    dense = 10.0 ** rng.uniform(-11, 11, size=100_000)
    values = np.concatenate([wide, dense]) * rng.choice([-1.0, 1.0], size=200_000)
    assert mismatches(values)[:5] == []


def test_exact_and_nearest_halfway_points_across_the_range_limits():
    rng = np.random.default_rng(11)
    exact_ties = {}
    values = []
    for x in range(-14, 16):
        for point in halfway(x, rng):
            v = float(point)
            values.append(v)
            exact_ties[x] = exact_ties.get(x, 0) + (Fraction(v) == point)
    # Exact ties exist from 10^-6 up, inside [1e-10, 1e10) and above it;
    # below 10^-6 only the nearest doubles to a tie exist.
    assert all(exact_ties[x] for x in range(-6, 16))
    values = with_neighbours(values)
    assert mismatches(np.concatenate([values, -values]))[:5] == []


def test_powers_of_ten_and_their_neighbours():
    powers = [float(Fraction(10) ** k) for k in range(-12, 13)]
    values = with_neighbours(powers)
    assert mismatches(np.concatenate([values, -values]))[:5] == []


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-10, 1e10, 1e300],
)
def test_special_values(value):
    assert formatted([value]) == ["%.12g" % value]


def test_rows_join_cells_with_commas():
    a = np.array([0.5, -1e-12, 123456.0])
    b = np.array([np.nan, 2.0, 1e-5])
    text = b"".join(csv_lines([a, b])).decode("utf-8")
    assert text == "0.5,nan\n-1e-12,2\n123456,1e-05\n"
