"""Domain-ensemble sampling and the equilibrium magnetization oracle."""

import gc
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kzring.errors import ConfigError
from kzring.exact import MAX_RING_SITES, magnetization_diagonal, ring_hamiltonian
from kzring.sampler import (
    DomainEnsemble,
    ensemble_mean_magnetization,
    equilibrium_magnetization,
    sample_initial_directions,
)

targets = st.floats(-0.35, 0.35)


def test_mean_polarization_hits_target_exactly():
    ens = sample_initial_directions(12, m0z=0.31, mdz=0.35, seed=5)
    assert not ens.clamped
    assert ensemble_mean_magnetization(ens) == pytest.approx(0.31, abs=1e-12)


@given(n_d=st.integers(1, 40), m0z=targets, mdz=targets, seed=st.integers(0, 2**31))
@settings(max_examples=150)
def test_mean_closure_and_containment(n_d, m0z, mdz, seed):
    """Every tilt cosine stays inside the initial spread window and the
    ensemble mean lands on the preparation target."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = sample_initial_directions(n_d, m0z, mdz, seed=seed)
    if ens.clamped:
        return
    center = 2.0 * m0z
    width = abs(2.0 * mdz - 2.0 * m0z)
    cosines = [math.cos(theta) for theta in ens.theta]
    for c in cosines:
        assert center - width - 1e-9 <= c <= center + width + 1e-9
    assert ensemble_mean_magnetization(ens) == pytest.approx(m0z, abs=1e-9)


def test_single_domain_is_deterministic():
    ens = sample_initial_directions(1, m0z=0.2, mdz=0.4, seed=99)
    assert math.cos(ens.theta[0]) == pytest.approx(0.4)


def test_clamp_warns_and_flags():
    with pytest.warns(UserWarning):
        ens = sample_initial_directions(2, m0z=0.49, mdz=-0.3, seed=0)
    assert ens.clamped


def test_same_seed_same_draw():
    a = sample_initial_directions(6, 0.3, 0.34, seed=17)
    b = sample_initial_directions(6, 0.3, 0.34, seed=17)
    assert a.to_json() == b.to_json()
    c = sample_initial_directions(6, 0.3, 0.34, seed=18)
    assert c.to_json() != a.to_json()


def test_realizations_use_distinct_streams():
    a = sample_initial_directions(6, 0.3, 0.34, seed=17, realization=0)
    b = sample_initial_directions(6, 0.3, 0.34, seed=17, realization=1)
    assert a.to_json() != b.to_json()
    again = sample_initial_directions(6, 0.3, 0.34, seed=17, realization=1)
    assert again.to_json() == b.to_json()


def test_sampled_values_are_frozen():
    """Regression pin on the RNG stream layout (draws, then azimuth bits)."""
    ens = sample_initial_directions(3, 0.3, 0.35, seed=11)
    assert list(ens.theta) == pytest.approx(
        [0.8256313677824852, 0.9243103513075963, 1.0245052157295933], rel=1e-13
    )
    assert list(ens.phi) == pytest.approx(
        [math.pi, math.pi, math.pi]
    )


# to_json() of draws pinned bit for bit: one, five and twelve domains, a
# later realization, and clamped draws at either pole, where the azimuth
# bit was 1 in the last two cases and is pinned to 0.
GOLDEN_DRAWS = [
    (
        (1, 0.2, 0.4, 99, 0),
        '{"clamped": false, "directions": [[1.1592794807274085, 0.0]], '
        '"m0z_target": 0.2, "mdz_target": 0.4, "realization": 0, "seed": 99}',
    ),
    (
        (5, 0.28, 0.31, 23, 2),
        '{"clamped": false, "directions": [[1.0278669402126437, 3.141592653589793], '
        '[0.9511895234436651, 0.0], [0.9956404416967868, 0.0], '
        '[0.9326462694274216, 3.141592653589793], [0.9728305790356448, 3.141592653589793]], '
        '"m0z_target": 0.28, "mdz_target": 0.31, "realization": 2, "seed": 23}',
    ),
    (
        (12, 0.31, 0.35, 5, 0),
        '{"clamped": false, "directions": [[0.9216595829331551, 0.0], '
        '[0.848286953752155, 3.141592653589793], [0.9944907632181065, 3.141592653589793], '
        '[0.9835763376190061, 0.0], [0.945932207067015, 3.141592653589793], '
        '[0.8644283126118854, 0.0], [0.9319107635926083, 3.141592653589793], '
        '[0.8905771302244072, 0.0], [0.8588610439453165, 3.141592653589793], '
        '[0.9020972261707204, 0.0], [0.8423083032773704, 0.0], '
        '[0.8272288379379162, 3.141592653589793]], '
        '"m0z_target": 0.31, "mdz_target": 0.35, "realization": 0, "seed": 5}',
    ),
    (
        (2, 0.49, -0.3, 0, 0),
        '{"clamped": true, "directions": [[0.0, 0.0], [0.283794109208328, 0.0]], '
        '"m0z_target": 0.49, "mdz_target": -0.3, "realization": 0, "seed": 0}',
    ),
    (
        (2, 0.49, -0.3, 1, 0),
        '{"clamped": true, "directions": [[0.0, 0.0], [0.283794109208328, 0.0]], '
        '"m0z_target": 0.49, "mdz_target": -0.3, "realization": 0, "seed": 1}',
    ),
    (
        (2, -0.49, 0.3, 5, 0),
        '{"clamped": true, "directions": [[3.141592653589793, 0.0], '
        '[2.857798544381465, 3.141592653589793]], '
        '"m0z_target": -0.49, "mdz_target": 0.3, "realization": 0, "seed": 5}',
    ),
]


@pytest.mark.parametrize(
    "args, text", GOLDEN_DRAWS,
    ids=["n1", "n5-realization2", "n12", "north-pole", "north-pole-bit1", "south-pole-bit1"],
)
def test_draws_keep_their_bytes(args, text):
    n_d, m0z, mdz, seed, realization = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = sample_initial_directions(n_d, m0z, mdz, seed=seed, realization=realization)
    assert ens.to_json() == text
    assert DomainEnsemble.from_json(text) == ens


def prefix_fsum_draw(n_d, m0z, mdz, seed, realization=0):
    """(cosines, azimuth bits, clamped), recentred on math.fsum of each prefix."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(realization,)))
    center0, width0 = 2.0 * m0z, abs(2.0 * mdz - 2.0 * m0z)
    lower0, upper0 = center0 - width0, center0 + width0
    center, width = center0, width0
    cosines, clamped = [], False
    for k, u in enumerate(rng.random(n_d - 1).tolist()):
        lo = center - width
        draw = lo + (center + width - lo) * u
        cosines.append(min(1.0, max(-1.0, draw)))
        clamped = clamped or cosines[-1] != draw
        center = (n_d * center0 - math.fsum(cosines)) / (n_d - k - 1)
        width = min(abs(upper0 - center), abs(lower0 - center))
    last = n_d * center0 - math.fsum(cosines)
    cosines.append(min(1.0, max(-1.0, last)))
    return cosines, rng.integers(0, 2, size=n_d).tolist(), clamped or cosines[-1] != last


@pytest.mark.parametrize(
    "n_d, m0z, mdz, seed, clamps",
    [
        (2500, 0.3594, 0.3632, 7, False),
        (2500, 0.49, -0.3, 12345, True),
        (2500, 0.0, 0.3, 3, False),  # the sum cancels
        (1, 0.3594, 0.3632, 7, False),
        (2, 0.0, 0.25, 11, False),
        (12, 0.0, 0.3632, 1, False),
        (12, 0.49, -0.3, 5, True),
    ],
    ids=["0.3594-0.3632-7", "0.49--0.3-12345", "sum-cancels", "n1", "n2", "n12", "n12-clamps"],
)
def test_large_draw_matches_a_prefix_fsum_reference(n_d, m0z, mdz, seed, clamps):
    # The sampler keeps the running sum as one exact integer; recentring on
    # math.fsum of the whole prefix at every step must give the same bytes.
    cosines, bits, clamped = prefix_fsum_draw(n_d, m0z, mdz, seed, realization=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = sample_initial_directions(n_d, m0z, mdz, seed=seed, realization=3)
    assert ens.clamped == clamped == clamps
    assert ens.theta == tuple(math.acos(c) for c in cosines)
    assert ens.phi == tuple(
        0.0 if t in (0.0, math.pi) else math.pi * b for t, b in zip(ens.theta, bits)
    )


def test_replayed_angles_are_canonicalized():
    text = (
        '{"directions": [[-0.3, 7.0], [4.0, 1.0], [0.0, 2.0]], "seed": 3, '
        '"m0z_target": 0.3, "mdz_target": 0.3}'
    )
    ens = DomainEnsemble.from_json(text)
    assert ens.theta == (0.3, 2.0 * math.pi - 4.0, 0.0)
    assert ens.phi == ((7.0 + math.pi) % (2.0 * math.pi), 1.0 + math.pi, 0.0)


def test_azimuths_are_balanced_coin_flips():
    flips = []
    for seed in range(300):
        ens = sample_initial_directions(4, 0.2, 0.25, seed=seed)
        flips.extend(1 if phi > 1.0 else 0 for phi in ens.phi)
    n = len(flips)
    ones = sum(flips)
    # 3 sigma band of a fair binomial
    assert abs(ones - n / 2) < 3.0 * math.sqrt(n / 4.0)


def test_ensemble_json_round_trip():
    ens = sample_initial_directions(5, 0.28, 0.31, seed=23, realization=2)
    back = DomainEnsemble.from_json(ens.to_json())
    assert back == ens
    data = json.loads(ens.to_json())
    assert data["seed"] == 23
    assert data["realization"] == 2
    assert len(data["directions"]) == 5


def test_rejects_unphysical_targets():
    with pytest.raises(ValueError):
        sample_initial_directions(3, 0.8, 0.2, seed=0)
    with pytest.raises(ValueError):
        sample_initial_directions(0, 0.2, 0.2, seed=0)
    for m0z, mdz in ((math.nan, 0.2), (0.2, math.nan), (math.inf, 0.2), (0.2, -math.inf)):
        with pytest.raises(ConfigError):
            sample_initial_directions(3, m0z, mdz, seed=0)


def test_equilibrium_magnetization_two_site_analytic():
    # 2-site ring: ground state of -2 sx sx - h (sz1 + sz2) gives
    # m_z = h / (2 sqrt(h^2 + 1/4)) per site
    for h in (0.3, 1.0, 5.0):
        expected = h / (2.0 * math.sqrt(h * h + 0.25))
        assert equilibrium_magnetization(h, n_ref=2) == pytest.approx(
            expected, rel=1e-12
        )


def test_equilibrium_magnetization_limits_and_monotonicity():
    assert equilibrium_magnetization(0.0, n_ref=8) == pytest.approx(0.0, abs=1e-10)
    vals = [equilibrium_magnetization(h, n_ref=10) for h in (0.2, 0.5, 1.0, 2.0, 8.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5
    assert equilibrium_magnetization(50.0, n_ref=8) == pytest.approx(0.5, abs=1e-4)


def test_equilibrium_magnetization_matches_a_dense_reference():
    # One sparse route serves every ring size; the small rings check it
    # against a dense diagonalization kept here.
    for n in (2, 4, 6, 8, 10):
        mz = magnetization_diagonal(n)
        for h in (0.0, 0.5, 1.0, 8.0):
            vec = np.linalg.eigh(ring_hamiltonian(n, h).toarray())[1][:, 0]
            assert abs(equilibrium_magnetization(h, n_ref=n) - vec @ (mz * vec) / n) <= 1e-13


def test_equilibrium_magnetization_regression_value():
    # 14-site ring just above the lattice critical point of the scaled field
    assert equilibrium_magnetization(1.01, n_ref=14) == pytest.approx(
        0.46778816703602033, rel=1e-12
    )
    assert equilibrium_magnetization(0.505, n_ref=14) == pytest.approx(
        0.3239503867322893, rel=1e-12
    )


def test_equilibrium_magnetization_validates_input():
    with pytest.raises(ValueError):
        equilibrium_magnetization(1.0, n_ref=1)
    with pytest.raises(ValueError):
        equilibrium_magnetization(-0.5, n_ref=8)
    with pytest.raises(ConfigError, match=rf"\[2, {MAX_RING_SITES}\]"):
        equilibrium_magnetization(1.0, n_ref=MAX_RING_SITES + 1)


def test_a_magnetization_lookup_keeps_no_ed_memory():
    # warm up the sparse path (scipy's imports, any per-size state) on
    # another ring size, then trace a lookup on a field not seen before
    equilibrium_magnetization(0.7316, n_ref=11)
    gc.collect()
    tracemalloc.start()
    try:
        equilibrium_magnetization(0.7315, n_ref=12)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2**20


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_equilibrium_magnetization_rejects_a_non_finite_field(h):
    with pytest.raises(ConfigError, match="finite"):
        equilibrium_magnetization(h)


@pytest.mark.parametrize("n_ref", [14.5, 14.0, True])
def test_equilibrium_magnetization_rejects_a_non_integer_ring_size(n_ref):
    with pytest.raises(ConfigError, match="integer"):
        equilibrium_magnetization(1.0, n_ref=n_ref)


def test_equilibrium_magnetization_accepts_a_numpy_integer_ring_size():
    assert equilibrium_magnetization(1.0, n_ref=np.int64(8)) == equilibrium_magnetization(1.0, n_ref=8)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"n_d": 2.5}, "n_d"),
        ({"n_d": True}, "n_d"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"realization": -1}, "realization"),
        ({"realization": 0.5}, "realization"),
    ],
)
def test_sampler_rejects_bad_counts_and_seeds_before_drawing(kwargs, name, monkeypatch):
    def no_draw(*args, **kw):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    args = {"n_d": 3, "m0z": 0.3, "mdz": 0.35, "seed": 11, "realization": 0, **kwargs}
    with pytest.raises(ConfigError, match=name):
        sample_initial_directions(**args)


def test_sampler_accepts_numpy_integers():
    ens = sample_initial_directions(
        np.int64(3), 0.3, 0.35, seed=np.int64(11), realization=np.int32(1)
    )
    assert ens == sample_initial_directions(3, 0.3, 0.35, seed=11, realization=1)
