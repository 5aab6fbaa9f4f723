"""Threshold sharing: evaluation, reconstruction, and secrecy."""

import random
from itertools import combinations

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


def test_roundtrip_exhaustive_p7():
    p = 7
    for secret in range(p):
        for slope in range(p):
            poly = LinearPolynomial(secret, slope, p)
            shares = [(j, share_for(poly, j)) for j in range(1, 6)]
            for a, b in combinations(shares, 2):
                assert reconstruct([a, b], p) == secret


def test_single_share_secrecy_exhaustive_p7():
    # Fixing one share, every candidate secret is explained by exactly one
    # slope, so the share carries no information about the secret.
    p = 7
    for j in range(1, 6):
        for y in range(p):
            for s in range(p):
                fits = [sl for sl in range(p) if (s + sl * j) % p == y]
                assert len(fits) == 1


def test_single_share_secrecy_p101():
    p = 101
    for j in (1, 2, 50, 100):
        for y in (0, 1, 73):
            for s in range(p):
                slope = ((y - s) * pow(j, p - 2, p)) % p
                assert (s + slope * j) % p == y  # the unique fitting slope


def test_all_pairs_agreement_p101():
    p = 101
    rng = random.Random(9)
    for _ in range(50):
        poly = make_polynomial(rng.randrange(p), rng, p)
        shares = [(j, share_for(poly, j)) for j in range(1, 6)]
        secrets = {reconstruct([a, b], p)
                   for a, b in combinations(shares, 2)}
        assert secrets == {poly.constant}
        assert reconstruct(shares, p) == poly.constant


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
