"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

from masseyq import cohomology
from masseyq.linalg import Subspace, zero_vector


@pytest.fixture
def corrupt_certificate(monkeypatch):
    """Corrupt one route of ``certify_ideal_membership`` and nothing else.

    ``corrupt_certificate("solve")`` adds 1 to the coordinate of the
    first nonzero column in the certificate's solution (the first
    coordinate if all are zero), reading an inconsistent system's missing
    solution as zero, so every system gets a wrong solution.
    ``corrupt_certificate("kernel_basis")`` subtracts 1 from the leading
    coordinate of every functional it offers.  Every other caller of the
    two functions gets the true result.
    """

    def corrupt(route: str) -> None:
        real = getattr(cohomology, route)

        def corrupted(matrix, *args):
            out = real(matrix, *args)
            if sys._getframe(1).f_code.co_name != "certify_ideal_membership":
                return out
            if route == "solve":
                x = list(zero_vector(matrix.cols) if out is None else out)
                columns = matrix.columns()
                x[next((j for j, col in enumerate(columns) if any(col)), 0)] += 1
                return tuple(x)
            rows = [{**row, p: row[p] - 1} for row, p in zip(out.rows, out.pivots)]
            return Subspace(
                out.ambient_dim,
                [{j: v for j, v in row.items() if v} for row in rows],
                out.pivots,
            )

        monkeypatch.setattr(cohomology, route, corrupted)

    return corrupt
