import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
import pytest


class _LawSpy(np.ndarray):
    """A law family's coefficients that fail when read one by one, as a pointwise
    (Horner) evaluation of the law reads them; slices and whole-array arithmetic,
    all a closed-form tail does with them, give plain arrays."""

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise AssertionError("a tail evaluated the law pointwise")
        return np.asarray(self)[key]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(v) if isinstance(v, _LawSpy) else v for v in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.fixture
def law_spy(monkeypatch):
    """law_spy(table) is the table with its law's coefficients spied on (_LawSpy); with
    the fixture, the tail's lam > 0 evaluators (Lerch's series and the Gauss-Legendre
    rule) fail too, so a lam = 0 tail passes only through its closed form at z = 0."""
    from rosenblatt import specfun

    def lam_route(*args):
        raise AssertionError("a lam = 0 tail reached a lam > 0 evaluator")

    monkeypatch.setattr(specfun, "_lerch_sums", lam_route)
    monkeypatch.setattr(specfun, "_gauss_sums", lam_route)
    return lambda table: specfun._ETable(table.E, tuple(
        (e0, delta, np.asarray(coefs).view(_LawSpy)) for e0, delta, coefs in table.law))
