"""Public API surface tests: documented names exist and stay importable.

Downstream code imports through the package ``__all__`` lists; these
tests freeze that surface so refactors cannot silently drop exports.
"""

from __future__ import annotations

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.coloring",
    "repro.comm",
    "repro.core",
    "repro.dispatch",
    "repro.engine",
    "repro.graphs",
    "repro.lowerbound",
    "repro.obs",
    "repro.rand",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} must declare __all__"
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export} missing"


def test_top_level_subpackages():
    assert repro.__version__ == "1.1.0"
    for sub in (
        "analysis",
        "baselines",
        "coloring",
        "comm",
        "core",
        "engine",
        "graphs",
        "lowerbound",
        "obs",
        "verify",
    ):
        assert hasattr(repro, sub)


def test_headline_entry_points_exist():
    """The functions the README documents."""
    from repro.core import (
        run_edge_coloring,
        run_vertex_coloring,
        run_zero_comm_edge_coloring,
    )
    from repro.verify import verify_edge_result, verify_vertex_result

    for fn in (
        run_edge_coloring,
        run_vertex_coloring,
        run_zero_comm_edge_coloring,
        verify_edge_result,
        verify_vertex_result,
    ):
        assert callable(fn)
        assert fn.__doc__, f"{fn.__name__} must be documented"


def test_every_public_function_has_a_docstring():
    import inspect

    undocumented = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            obj = getattr(module, export)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{name}.{export}")
    assert not undocumented, f"undocumented public items: {undocumented}"
