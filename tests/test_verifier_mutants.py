"""The package's verifiers judged against the dense re-checker on mutated answers.

Honest certificates of `check_completeness(3)` and honest drop-one
witnesses of `check_minimality(3)` are mutated: ids or coefficients
dropped, duplicated, permuted or truncated, an id shifted by the member
count or past the end, a coefficient or a point coordinate nudged by
1/k, a sign flipped.  `verify_certificate` and `verify_witness` must
accept a mutant exactly when `recheck.certificate_holds` and
`recheck.witness_holds` do; an IndexError counts as a rejection.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ingletonlp import certify, ingen
from ingletonlp.entspace import EntropyVector, ingleton_expr, parse_quad
from recheck import certificate_holds, ingleton, member_form, subsets, witness_holds

N = 3


@functools.cache
def _members():
    """(package expressions, dense forms) of Delta at n=3, in member order."""
    delta = ingen.gen_delta(N)
    return ([ci.expr for ci in delta],
            [member_form(ci.kind, ci.payload_text(), N) for ci in delta])


@functools.cache
def _certificates():
    """(label, gen_ids, coeffs) of every nonempty certificate of the n=3 scan."""
    report = certify.check_completeness(N)
    return [(label, list(c.gen_ids), list(c.coeffs))
            for label, c in report.certificates if c.gen_ids]


@functools.cache
def _witnesses():
    """(member id, dense point) of every drop-one witness of the n=3 scan."""
    report = certify.check_minimality(N)
    return [(k, [0, *(v for _m, v in w.point.items())])
            for k, (_kind, _payload, w) in enumerate(report.witnesses)]


_IDS = ("drop", "duplicate", "permute", "truncate", "shift", "past", "flip")
_COEFFS = ("drop", "duplicate", "permute", "truncate", "nudge", "flip")
_PAIRS = ("drop", "duplicate", "permute", "truncate")


@st.composite
def _list_mutant(draw, items, hows, count=0):
    """items mutated once by one of hows: an entry dropped, duplicated, nudged
    by 1/k, sign-flipped, shifted by the member count or put past the end,
    or the list permuted or truncated."""
    items = list(items)
    i = draw(st.integers(0, len(items) - 1))
    how = draw(st.sampled_from(hows))
    if how == "drop":
        del items[i]
    elif how == "duplicate":
        items.insert(i, items[i])
    elif how == "permute":
        items = draw(st.permutations(items))
    elif how == "truncate":
        items = items[:i]
    elif how == "nudge":
        items[i] += draw(st.sampled_from([1, -1])) * Fraction(1, draw(st.integers(1, 6)))
    elif how == "flip":
        items[i] = -items[i]
    elif how == "shift":
        items[i] += draw(st.sampled_from([count, -count]))
    else:
        items[i] = count + draw(st.integers(0, 3))
    return items


@st.composite
def _certificate_mutants(draw):
    label, ids, coeffs = draw(st.sampled_from(_certificates()))
    part = draw(st.sampled_from(["ids", "coeffs", "pairs"]))
    if part == "ids":
        ids = draw(_list_mutant(ids, _IDS, len(_members()[0])))
    elif part == "coeffs":
        coeffs = draw(_list_mutant(coeffs, _COEFFS))
    else:  # both in step
        pairs = draw(_list_mutant(list(zip(ids, coeffs)), _PAIRS))
        ids, coeffs = [g for g, _c in pairs], [c for _g, c in pairs]
    return label, ids, coeffs


def _package_accepts_certificate(label, ids, coeffs):
    exprs, _forms = _members()
    cert = certify.FarkasCertificate(tuple(ids), tuple(coeffs))
    try:
        return certify.verify_certificate(ingleton_expr(parse_quad(label, N)), exprs, cert)
    except IndexError:
        return False


@settings(max_examples=300, deadline=None)
@given(_certificate_mutants())
def test_verify_certificate_agrees_with_the_recheck(case):
    label, ids, coeffs = case
    _exprs, forms = _members()
    want = certificate_holds(ids, coeffs, ingleton(N, *subsets(label)), forms)
    assert _package_accepts_certificate(label, ids, coeffs) == want


@st.composite
def _witness_mutants(draw):
    """A drop-one witness with one coordinate zeroed, copied to another, nudged
    by 1/k or sign-flipped, its coordinates permuted, or those from one on zeroed."""
    k, h = draw(st.sampled_from(_witnesses()))
    h = list(h)
    i, j = draw(st.integers(1, len(h) - 1)), draw(st.integers(1, len(h) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "permute", "truncate", "nudge", "flip"]))
    if how == "drop":
        h[i] = 0
    elif how == "duplicate":
        h[j] = h[i]
    elif how == "permute":
        h[1:] = draw(st.permutations(h[1:]))
    elif how == "truncate":
        h[i:] = [0] * (len(h) - i)
    elif how == "nudge":
        h[i] += draw(st.sampled_from([1, -1])) * Fraction(1, draw(st.integers(1, 6)))
    else:
        h[i] = -h[i]
    return k, h


@settings(max_examples=300, deadline=None)
@given(_witness_mutants())
def test_verify_witness_agrees_with_the_recheck(case):
    k, h = case
    exprs, forms = _members()
    want = witness_holds(h, forms[k], forms[:k] + forms[k + 1:])
    wit = certify.SeparationWitness(EntropyVector(N, h[1:]))
    assert certify.verify_witness(exprs[k], exprs[:k] + exprs[k + 1:], wit) == want


def test_the_honest_answers_pass_both():
    exprs, forms = _members()
    for label, ids, coeffs in _certificates():
        assert _package_accepts_certificate(label, ids, coeffs)
        assert certificate_holds(ids, coeffs, ingleton(N, *subsets(label)), forms)
    for k, h in _witnesses():
        assert witness_holds(h, forms[k], forms[:k] + forms[k + 1:])
