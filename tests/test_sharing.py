"""Threshold sharing: evaluation and reconstruction. The exhaustive
round-trip and secrecy checks are in test_acceptance."""

import random

import pytest
from hypothesis import given, strategies as st

from rucon.errors import InconsistencyError
from rucon.sharing import (InsufficientSharesError, LinearPolynomial,
                           make_polynomial, reconstruct, share_for)


def test_polynomial_evaluation():
    poly = LinearPolynomial(constant=3, slope=2, p=7)
    assert share_for(poly, 1) == 5
    assert share_for(poly, 2) == 0


def test_zero_polynomial():
    poly = LinearPolynomial(constant=0, slope=0, p=7)
    assert all(share_for(poly, j) == 0 for j in range(1, 6))


def test_wraparound_evaluation():
    poly = LinearPolynomial(constant=6, slope=6, p=7)
    assert share_for(poly, 3) == 3


def test_seeded_slope_regression():
    # Pinned: random.Random(42).randrange(7) draws 5.
    poly = make_polynomial(5, random.Random(42), 7)
    assert poly.constant == 5
    assert poly.slope == 5
    again = make_polynomial(5, random.Random(42), 7)
    assert again == poly


def test_secret_out_of_field():
    with pytest.raises(ValueError):
        make_polynomial(7, random.Random(0), 7)
    with pytest.raises(ValueError):
        LinearPolynomial(constant=1, slope=9, p=7)


def test_share_at_zero_rejected():
    poly = LinearPolynomial(constant=3, slope=2, p=7)
    with pytest.raises(ValueError):
        share_for(poly, 0)
    with pytest.raises(ValueError):
        share_for(poly, -1)


# reconstruct takes plain (owner, value) pairs


def test_reconstruct_two_shares():
    assert reconstruct([(1, 5), (2, 0)], p=7) == 3


def test_reconstruct_consistent_triple():
    assert reconstruct([(3, 2), (1, 5), (2, 0)], p=7) == 3


def test_reconstruct_inconsistent_triple():
    with pytest.raises(InconsistencyError) as exc:
        reconstruct([(1, 5), (2, 0), (3, 4)], p=7)
    assert (exc.value.category, exc.value.rule) == ("share", "off-line")
    assert exc.value.detail == ("share at x=3 does not lie on the polynomial "
                                "through x=1, x=2")


def test_reconstruct_needs_two_shares():
    with pytest.raises(InsufficientSharesError):
        reconstruct([(1, 5)], p=7)
    with pytest.raises(InsufficientSharesError):
        reconstruct([], p=7)


def test_reconstruct_duplicate_owners_rejected():
    with pytest.raises(ValueError, match="distinct owners"):
        reconstruct([(1, 5), (1, 5)], p=7)
    with pytest.raises(ValueError, match="distinct owners"):
        reconstruct([(2, 1), (1, 5), (2, 3)], p=7)


def test_value_and_proposal_shares_pair_up():
    # Shares of both polynomials travel to the same evaluation point, so
    # whoever can reconstruct the value can reconstruct the proposal too.
    rng = random.Random(4)
    q = make_polynomial(12, rng, 101)
    b = make_polynomial(88, rng, 101)
    points = [3, 5]
    qs = [(j, share_for(q, j)) for j in points]
    bs = [(j, share_for(b, j)) for j in points]
    assert reconstruct(qs, 101) == 12
    assert reconstruct(bs, 101) == 88


@given(secret=st.integers(0, 100), slope=st.integers(0, 100),
       ids=st.sets(st.integers(1, 100), min_size=2, max_size=6))
def test_roundtrip_property(secret, slope, ids):
    poly = LinearPolynomial(secret, slope, p=101)
    shares = [(j, share_for(poly, j)) for j in sorted(ids)]
    assert reconstruct(shares, 101) == secret


@given(secret=st.integers(0, 100), slope=st.integers(0, 100),
       ids=st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True))
def test_reconstruct_order_insensitive(secret, slope, ids):
    poly = LinearPolynomial(secret, slope, p=101)
    shares = [(j, share_for(poly, j)) for j in ids]
    assert reconstruct(shares, 101) == reconstruct(list(reversed(shares)), 101)
