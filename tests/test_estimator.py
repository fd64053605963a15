"""Tests for the colength extrapolator."""

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from hkrees.errors import ParameterError
from hkrees.estimator import ColengthSample, estimate, normalized_sequence
from hkrees.exact import format_fraction

from reference_routes import two_point_fits_by_fractions, width


def synthetic(a, b, d, qs):
    return [ColengthSample(q, a * q**d + b * q ** (d - 1)) for q in qs]


def test_exact_recovery_on_synthetic_inputs():
    for a, b, d in [(2, 0, 3), (3, 5, 2), (1, -1, 4), (7, 11, 1)]:
        est = estimate(synthetic(a, b, d, [2, 4, 8, 16]), d)
        assert est.leading == a
        assert est.bracket == (Fraction(a), Fraction(a))
        assert width(est) == 0


def test_exact_recovery_from_two_samples():
    est = estimate(synthetic(5, 3, 2, [3, 7]), 2)
    assert est.leading == 5


def test_bracket_orders_and_contains():
    samples = [
        ColengthSample(2, 10),
        ColengthSample(4, 50),
        ColengthSample(8, 230),
        ColengthSample(16, 980),
    ]
    est = estimate(samples, 2)
    assert est.bracket[0] <= est.leading <= est.bracket[1]
    assert est.contains(est.leading)
    assert not est.contains(est.bracket[1] + 1)


def test_samples_sorted_before_fitting():
    qs = [16, 2, 8, 4]
    est = estimate(synthetic(2, 1, 2, qs), 2)
    assert est.samples[0].q == 2
    assert est.leading == 2


def test_errors():
    with pytest.raises(ParameterError):
        estimate([ColengthSample(2, 4)], 2)
    with pytest.raises(ParameterError):
        estimate(synthetic(1, 0, 2, [2, 4]), 0)
    with pytest.raises(ParameterError):
        estimate([ColengthSample(2, 4), ColengthSample(2, 5)], 2)
    with pytest.raises(ParameterError):
        ColengthSample(0, 1)
    with pytest.raises(ParameterError):
        ColengthSample(2, -1)


def test_normalized_sequence():
    samples = synthetic(3, 0, 2, [2, 4, 8])
    assert normalized_sequence(samples, 2) == [3, 3, 3]
    samples = [ColengthSample(2, 6), ColengthSample(4, 20)]
    assert normalized_sequence(samples, 2) == [Fraction(3, 2), Fraction(5, 4)]


def test_serialization_uses_exact_strings():
    est = estimate(synthetic(4, 3, 2, [2, 4, 8]), 2)
    doc = est.to_dict()
    assert doc["leading"] == "4"
    assert doc["bracket"] == ["4", "4"]
    assert doc["normalized"][0] == "11/2"
    assert isinstance(doc["leading_approx"], float)


@st.composite
def increasing_samples(draw):
    """2 to 8 samples with increasing q <= 10^4 and increasing counts up
    to 10^30."""
    n = draw(st.integers(2, 8))
    qs = sorted(draw(st.sets(st.integers(1, 10**4), min_size=n, max_size=n)))
    counts = sorted(draw(st.lists(st.integers(0, 10**30), min_size=n, max_size=n)))
    return [ColengthSample(q, c) for q, c in zip(qs, counts)]


@settings(max_examples=200, deadline=None)
@given(increasing_samples(), st.integers(1, 6))
def test_estimate_matches_fraction_chain(samples, d):
    """The integer two-point fits give the Fractions of the Fraction chain,
    and the strings of to_dict are format_fraction's."""
    est = estimate(samples[::-1], d)
    fits = two_point_fits_by_fractions(samples, d)
    tail = fits[-3:]
    for new, old in zip((est.leading, *est.bracket),
                        (fits[-1], min(tail), max(tail))):
        assert type(new) is Fraction
        assert (new.numerator, new.denominator) == (old.numerator, old.denominator)
    doc = est.to_dict()
    assert doc["normalized"] == [format_fraction(v)
                                 for v in normalized_sequence(samples, d)]
