"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

from masseyq import cohomology
from masseyq.linalg import Subspace, sparse_sum


@pytest.fixture
def corrupt_certificate(monkeypatch):
    """Corrupt one route of ``certify_ideal_membership`` and nothing else.

    ``corrupt_certificate("solve")`` corrupts the member route: it adds 1
    to the coordinate of the first nonzero column in the sparse solution
    of ``solve_rows`` (the first coordinate if all are zero), reading an
    inconsistent system's missing solution as zero, so every system gets
    a wrong solution.  ``corrupt_certificate("functional")`` corrupts the
    non-member route: it drops the 1 at the free column from every
    functional that ``Subspace.separating_functional`` reads off the
    indeterminacy.  Every other caller of the two gets the true result.
    """

    def corrupt(route: str) -> None:
        if route == "solve":
            real = cohomology.solve_rows

            def corrupted(rows, cols, b):
                out = real(rows, cols, b)
                if sys._getframe(1).f_code.co_name != "certify_ideal_membership":
                    return out
                first = min((j for row in rows for j in row), default=0)
                return sparse_sum([*(out or {}).items(), (first, 1)])

            monkeypatch.setattr(cohomology, "solve_rows", corrupted)
            return
        real_functional = Subspace.separating_functional

        def corrupted_functional(span, v):
            phi = real_functional(span, v)
            if phi is None or sys._getframe(1).f_code.co_name != "certify_ideal_membership":
                return phi
            free = min(span.reduce_row(v))
            return {k: c for k, c in phi.items() if k != free}

        monkeypatch.setattr(Subspace, "separating_functional", corrupted_functional)

    return corrupt
