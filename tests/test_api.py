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
]


def _public_bindings() -> set[str]:
    return {
        name
        for name, value in vars(fblsec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
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
