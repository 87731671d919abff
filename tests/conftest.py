"""Fixtures shared by the test modules."""

import pytest

import pgk.arith
import pgk.cli
import pgk.quotient


@pytest.fixture
def factorize_calls(monkeypatch):
    """The argument of every factorize call made through arith, quotient or
    cli, recorded by a wrapper in front of the memo, so a cache hit counts."""
    calls = []
    factorize = pgk.arith.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    for module in (pgk.arith, pgk.quotient, pgk.cli):
        monkeypatch.setattr(module, "factorize", counted)
    return calls
