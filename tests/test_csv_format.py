"""The vectorised 12-digit cell formatter against Python's own `'%.12g'`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kzring
from kzring import tables
from kzring.tables import csv_lines

SMALLEST_NORMAL = float(np.finfo(float).tiny)
LARGEST_SUBNORMAL = float(np.nextafter(SMALLEST_NORMAL, 0.0))


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
    so the odd numerator is moved to such a multiple where one fits.  Where
    none fits (x <= -7) the point stays put and its nearest double is used.
    """
    step = 5 ** max(11 - x, 0)
    points = []
    for _ in range(20):
        odd = int(rng.integers(10**11, 10**12)) * 2 + 1
        if 2 * 10**11 < step < 2 * 10**12:
            odd = step
        elif 1 < step < 2 * 10**11:
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


def nearest_halfway(exponents, per_exponent: int, seed: int) -> list[float]:
    """The doubles nearest to random halfway points (2M + 1)/2 · 10^(x−11)."""
    rng = np.random.default_rng(seed)
    return [
        float(Fraction(2 * m + 1, 2) * Fraction(10) ** (x - 11))
        for x in exponents
        for m in rng.integers(10**11, 10**12, size=per_exponent).tolist()
    ]


def test_nearest_doubles_to_halfway_points_below_1e_minus_6():
    # For X <= -7 no double is a tie, so the doubles nearest to a halfway
    # point, and their neighbours, are the hardest cells to round.
    values = with_neighbours(nearest_halfway(range(-308, -6), 8, seed=17))
    assert mismatches(np.concatenate([values, -values]))[:5] == []


def test_powers_of_ten_and_their_neighbours():
    powers = [float(Fraction(10) ** k) for k in range(-308, 13)]
    values = with_neighbours(powers)
    assert mismatches(np.concatenate([values, -values]))[:5] == []


def exact_y(v: float) -> Fraction:
    """|v|·10^k exactly, k = 11 − X with X the true decimal exponent of v."""
    f = abs(Fraction(v))
    x = int(np.floor(np.log10(abs(v))))
    x += (f >= Fraction(10) ** (x + 1)) - (f < Fraction(10) ** x)
    return f * Fraction(10) ** (11 - x)


# The bound on |y − |v|·10^k| in kzring.tables: u = 2^-53 for q[k] and
# u for the product, 2u·1e12 ≈ 2.22e-4 for y < 1e12.
U = Fraction(1, 2**53)
BOUND = 2 * U * 10**12


def test_scaled_product_stays_within_the_stated_bound():
    # y = (|v|·2^64)·q[k] against the exact |v|·10^k for every k from 1 to 319.
    rng = np.random.default_rng(5)
    x = np.repeat(np.arange(-308, 11), 12)
    v = np.concatenate([10.0 ** (x + rng.uniform(0, 1, x.size)), [SMALLEST_NORMAL, 9.999999999999e9]])
    k = 11 - np.floor(np.log10(v)).astype(np.intp)
    assert set(k.tolist()) == set(range(1, 320))
    y = v * 2.0**64 * tables._lookup_tables()[-1][k]
    for vi, ki, yi in zip(v.tolist(), k.tolist(), y.tolist()):
        exact = Fraction(vi) * Fraction(10) ** ki
        assert abs(Fraction(yi) - exact) <= 2 * U * exact, (vi, ki)


@pytest.mark.parametrize(
    "value",
    [
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-10, 1e10, 1e300,
        SMALLEST_NORMAL, -SMALLEST_NORMAL, LARGEST_SUBNORMAL, -LARGEST_SUBNORMAL,
    ],
)
def test_special_values(value):
    assert formatted([value]) == ["%.12g" % value]


def count_per_cell(monkeypatch) -> list[float]:
    """Record every value that csv_lines formats one cell at a time."""
    seen = []
    per_cell = tables._per_cell

    def counting(values):
        seen.extend(values.tolist())
        return per_cell(values)

    monkeypatch.setattr(tables, "_per_cell", counting)
    return seen


def test_only_cells_without_an_exact_path_go_one_at_a_time(monkeypatch):
    seen = count_per_cell(monkeypatch)
    # 1234567890.125 and 2^-18 are exact ties, which go per-cell.
    slow = [
        LARGEST_SUBNORMAL, -5e-324, np.inf, -np.inf, np.nan, 1e10, -3.5e15, 1e300,
        -1e200, 123456789012.5, 1234567890.125, 2.0**-18,
    ]
    fast = [
        0.0, -0.0, SMALLEST_NORMAL, -1e-300, 9.9999999999995e9, 0.5, -1e-11, 1.25e-100,
        1.5, -2.5e-7, 123.456, -9.87654321e-5,
    ]
    column = np.ravel(np.column_stack([fast, slow]))
    assert mismatches(column) == []
    assert [repr(v) for v in seen] == [repr(v) for v in slow]


def test_ties_within_the_error_bound_go_one_at_a_time(monkeypatch):
    # The doubles nearest to halfway points below 1e-11 lie within u·y of
    # the tie, so all fall in the band, and some of their neighbours do:
    # every cell closer to a tie than the band less the bound goes per-cell,
    # every per-cell one lies within the band plus the bound, and all read
    # the same.
    seen = count_per_cell(monkeypatch)
    values = with_neighbours(nearest_halfway(range(-60, -11), 40, seed=23)).tolist()
    assert mismatches(values) == []
    band = Fraction(tables._NEAR_TIE)
    off_tie = {v: abs(exact_y(v) % 1 - Fraction(1, 2)) for v in values}
    assert {v for v, d in off_tie.items() if d < band - BOUND} <= set(seen)
    assert 0 < len(seen) < len(values)
    assert all(off_tie[v] < band + BOUND for v in seen)


def test_importing_the_cli_builds_no_formatter_tables():
    # The tables, and the exact arithmetic that builds them, wait for the
    # first CSV, so a command's start-up does not pay for them.
    code = (
        "import sys, kzring.cli, kzring.tables as c; "
        "print(c._lookup_tables.cache_info().currsize, 'fractions' in sys.modules)"
    )
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    root = str(Path(kzring.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0", "False"]


def test_rows_join_cells_with_commas():
    a = np.array([0.5, -1e-12, 123456.0])
    b = np.array([np.nan, 2.0, 1e-5])
    text = b"".join(csv_lines([a, b])).decode("utf-8")
    assert text == "0.5,nan\n-1e-12,2\n123456,1e-05\n"
