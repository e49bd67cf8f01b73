"""The package's public surface: ``fblsec.__all__`` and the names it dropped."""

import importlib
import types

import pytest

import fblsec

# (module, name) of public names the package no longer has.
REMOVED = [
    ("fb_coding", "FbPoint"),
    ("lob", "SinrPair"),
    ("lob", "sinr_pair"),
    ("numerics", "sample_standard_normal"),
    ("numerics", "sample_uniform"),
    ("secrecy", "asymptotic_secrecy_capacity"),
    ("cipc", "default_q_objective"),
    ("cipc", "cipc_power"),
    ("cipc", "cipc_beamformer"),
    ("lob", "lob_beamformer"),
    ("fb_coding", "RateBound"),
    ("fb_coding", "ApproximationConfig"),
    ("channels", "ReciprocityError"),
    ("secrecy", "SecrecyAssessment"),
    ("secrecy", "r_sup"),
]


def _public_bindings() -> set[str]:
    # dir(), not vars(): the package binds a name only once it is first used.
    return {
        name
        for name in dir(fblsec)
        if not name.startswith("_") and not isinstance(getattr(fblsec, name), types.ModuleType)
    }


def test_all_lists_exactly_the_public_bindings():
    assert len(fblsec.__all__) == len(set(fblsec.__all__))
    assert set(fblsec.__all__) == _public_bindings() | {"__version__"}


def test_every_entry_resolves():
    assert [name for name in fblsec.__all__ if not hasattr(fblsec, name)] == []


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert not hasattr(fblsec, name)
    assert not hasattr(importlib.import_module(f"fblsec.{module}"), name)


def test_simulator_summary_fields_are_floats():
    # Every field but the trial count is a Python float, so a summary's repr
    # reads feasibility_prob=0.99, not np.float64(0.99).
    cp, seed = fblsec.ConstraintPair(1e-6, 0.5), fblsec.RngSeed(7, 0)
    cipc = fblsec.run_cipc(fblsec.CipcConfig(
        q_target=1.0, p_max=10.0, n_antennas_tx=2, noise_power_bob=0.01, noise_power_eve=0.1,
        blocklength=500, constraints=cp, sigma_delta=0.05, trials=50,
        seed=seed))
    lob = fblsec.run_lob(fblsec.LobConfig(
        n_antennas=4, theta_bob=0.0, theta_eve=0.3, location_error_std=0.02, k_factor_bob=10.0,
        k_factor_eve=1.0, total_power=1.0, an_fraction=0.3, noise_power_bob=0.05,
        noise_power_eve=0.05, blocklength=500, constraints=cp, trials=50, seed=seed))
    for summary in (cipc.summary, lob.summary):
        fields = {name: type(getattr(summary, name)) for name in summary.__slots__}
        assert fields == {name: int if name == "trials" else float for name in fields}


def test_rate_interval_fields_are_floats():
    # One scenario's rate interval holds Python floats and a bool, as the
    # batch form holds arrays; an infinite floor is a float too.
    cp = fblsec.ConstraintPair(1e-6, 0.5)
    with pytest.warns(RuntimeWarning, match="beta_e=1.0"):
        certain = fblsec.rate_interval(500, 10.0, 1.0, fblsec.ConstraintPair(1e-6, 1.0), True)
    for a in (fblsec.rate_interval(500, 10.0, 1.0, cp), fblsec.rate_interval(5, 1e-3, 1.0, cp), certain):
        assert type(a) is fblsec.RateIntervals
        assert [type(x) for x in a] == [float, float, float, bool]
