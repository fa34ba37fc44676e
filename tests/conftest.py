"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from amalgams.colorings import ColoringTable, omega_sq_scope


@pytest.fixture(scope="session")
def walks_table():
    """The walk colorings on the first 300 ordinals below omega^2, built
    once per session; tests must not modify it."""
    scope = omega_sq_scope(300)
    return scope, ColoringTable.from_walks(scope)
