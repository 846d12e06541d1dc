"""The series product, the truncated inverse and the Magnus rows against the
benchmark's reference arithmetic, perfbench/model.py, which is written
without the package: its own group laws, weights, element strings and
crossed-product rule. The model is imported read-only, as the benchmark's
own tests import it, and the two meet only in the series text format.

The model has no prime fields: an F_p series meets it as the Q series of its
residues, and the model's product of those is reduced mod p here.
"""

import contextlib
import os
import random
import sys

import pytest

from helpers import random_series
from mnseries.magnus import enumerate_reduced_words, magnus_images
from mnseries.registry import resolve_crossed, resolve_monoid
from mnseries.scalars import QQ, field_from_spec
from mnseries.series import GradedSeries, shared_products, to_text

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import model  # noqa: E402

# (context id, field spec, crossed id): the model's seven contexts over Q
# and Q(sqrt 2), and the two twisted systems on their lattices
CASES = ([(ctx_id, spec, "trivial") for ctx_id in model.CONTEXTS for spec in ("Q", "Qsqrt:2")]
         + [("z2", "Q", "z2-sign-twist"), ("z", "Qsqrt:2", "quadratic-conj-Z")])
IDS = [f"{ctx_id}-{spec}-{crossed}" for ctx_id, spec, crossed in CASES]


def _series_pairs(context, spec, crossed, seed, unit=False):
    """Seeded pairs of random series in one context, at degrees 0 to 5."""
    ctx_id = context.id
    field = field_from_spec(spec)
    system = resolve_crossed(crossed, field)
    rng = random.Random(f"{ctx_id}:{spec}:{crossed}:{seed}")
    for _ in range(12):
        degree = rng.randint(0, 5)
        yield tuple(random_series(context, degree, field, rng, rng.randint(1, 6), system, unit)
                    for _ in range(2))


def _read(f):
    """(model context, degree, crossed id, terms) of f, read from its text;
    the model's header names no field, which f's names when f has no term
    to name it."""
    header, rows = to_text(f).split("\n", 1)
    return model.parse_series(header.split(" field=")[0] + "\n" + rows)


def _model_terms(f):
    return _read(f)[3]


def _model_text(f, terms):
    """The model's text of a term map in f's context, degree and system."""
    ctx, degree, crossed, _ = _read(f)
    return model.series_text(ctx, degree, crossed, terms)


@pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
@pytest.mark.parametrize("ctx_id,spec,crossed", CASES, ids=IDS)
def test_products_match_the_model(ctx_id, spec, crossed, shared):
    # plain, and inside one product table over the context for all pairs,
    # as word_images multiplies
    context = resolve_monoid(ctx_id)
    pairs = list(_series_pairs(context, spec, crossed, "product"))
    with shared_products(context) if shared else contextlib.nullcontext():
        products = [f * g for f, g in pairs]
    for (f, g), product in zip(pairs, products):
        ctx, degree, crossed_id, left = _read(f)
        expected = model.multiply(ctx, degree, crossed_id, left, _model_terms(g))
        if product.terms:
            assert to_text(product) == _model_text(f, expected)
        else:
            assert not {y: c for y, c in expected.items() if c}


@pytest.mark.parametrize("ctx_id,spec,crossed", CASES, ids=IDS)
def test_inverses_are_two_sided_under_the_model(ctx_id, spec, crossed):
    pairs = _series_pairs(resolve_monoid(ctx_id), spec, crossed, "inverse", unit=True)
    for f, _ in pairs:
        ctx, degree, crossed_id, terms = _read(f)
        inverse = _model_terms(f.invert())
        one = to_text(GradedSeries.one(f.context, f.degree, f.field, f.system))
        for left, right in ((terms, inverse), (inverse, terms)):
            assert _model_text(f, model.multiply(ctx, degree, crossed_id, left, right)) == one


FP_CASES = [(ctx_id, spec) for ctx_id in model.CONTEXTS for spec in ("Fp:5", "Fp:7", "Fp:101")]
FP_IDS = [f"{ctx_id}-{spec}" for ctx_id, spec in FP_CASES]


def _lifted_terms(f):
    """The model's term map of an F_p series f, each residue lifted to Q."""
    return _model_terms(GradedSeries(f.context, f.degree,
                                     {g: c.residue for g, c in f.terms.items()}, QQ))


def _reduced_product(f, left, right):
    """The model's product of two lifted term maps in f's context and degree,
    reduced mod f's p, as {element string: residue}, zero residues dropped."""
    ctx, p = model.CONTEXTS[f.context.id], f.field.p
    product = model.multiply(ctx, f.degree, "trivial", left, right)
    return {ctx.fmt(y): c % p for y, c in product.items() if c % p}


def _residue_map(f):
    """f's term map as {element string: residue}, zero residues kept."""
    return {f.context.format_element(g): c.residue for g, c in f.terms.items()}


@pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
@pytest.mark.parametrize("ctx_id,spec", FP_CASES, ids=FP_IDS)
def test_prime_field_products_match_the_model_mod_p(ctx_id, spec, shared):
    context = resolve_monoid(ctx_id)
    pairs = list(_series_pairs(context, spec, "trivial", "product"))
    with shared_products(context) if shared else contextlib.nullcontext():
        products = [f * g for f, g in pairs]
    assert any(product.terms for product in products)
    for (f, g), product in zip(pairs, products):
        expected = _reduced_product(f, _lifted_terms(f), _lifted_terms(g))
        assert _residue_map(product) == expected


@pytest.mark.parametrize("ctx_id,spec", FP_CASES, ids=FP_IDS)
def test_prime_field_inverses_are_two_sided_under_the_model_mod_p(ctx_id, spec):
    for f, _ in _series_pairs(resolve_monoid(ctx_id), spec, "trivial", "inverse", unit=True):
        terms, inverse = _lifted_terms(f), _lifted_terms(f.invert())
        one = _residue_map(GradedSeries.one(f.context, f.degree, f.field))
        for left, right in ((terms, inverse), (inverse, terms)):
            assert _reduced_product(f, left, right) == one


def _identity_orders(f):
    """f with its identity term first, with it last, and without it: the
    product seeds its output from the left factor when the right factor's
    first term is the identity, and multiplies every pair otherwise."""
    ident = f.context.identity()
    rest = {g: c for g, c in f.terms.items() if g != ident}
    orders = ({ident: f.terms[ident], **rest}, {**rest, ident: f.terms[ident]}, rest)
    return [GradedSeries(f.context, f.degree, terms, f.field, f.system) for terms in orders]


@pytest.mark.parametrize("ctx_id,spec,crossed", CASES, ids=IDS)
def test_products_by_an_identity_term_match_the_model(ctx_id, spec, crossed):
    # the identity as the right factor's first term, as its last term and
    # missing, on either side; under a crossed system the seeding never fires
    context = resolve_monoid(ctx_id)
    ident = context.identity()
    seeded = 0
    for f, g in _series_pairs(context, spec, crossed, "identity", unit=True):
        ctx, degree, crossed_id, _ = _read(f)
        for left in _identity_orders(f):
            for right in _identity_orders(g):
                seeded += next(iter(right.terms), None) == ident
                product = left * right
                expected = model.multiply(ctx, degree, crossed_id, _model_terms(left),
                                          _model_terms(right))
                if product.terms:
                    assert to_text(product) == _model_text(f, expected)
                else:
                    assert not {y: c for y, c in expected.items() if c}
    assert seeded


@pytest.mark.parametrize("ctx_id,spec", FP_CASES, ids=FP_IDS)
def test_prime_field_products_by_an_identity_term_match_the_model_mod_p(ctx_id, spec):
    # the seeded output holds unreduced residue products, reduced with the
    # rest of the sums at the end
    for f, g in _series_pairs(resolve_monoid(ctx_id), spec, "trivial", "identity", unit=True):
        for left in _identity_orders(f):
            for right in _identity_orders(g):
                expected = _reduced_product(f, _lifted_terms(left), _lifted_terms(right))
                assert _residue_map(left * right) == expected


@pytest.mark.parametrize("degree", range(6))
def test_magnus_rows_match_the_model(degree):
    words = enumerate_reduced_words(2, 4)
    _, rows, _ = magnus_images(words, degree)
    for word, image_rows in zip(words, rows):
        assert [list(row) for row in image_rows] == model.magnus_terms(str(word), degree), word


def test_the_model_reads_the_packages_texts():
    # the oracle is not vacuous: a wrong coefficient changes the model's text
    f = GradedSeries(resolve_monoid("heis"), 2, {resolve_monoid("heis").identity(): QQ.one}, QQ)
    terms = _model_terms(f)
    assert _model_text(f, terms) == to_text(f)
    assert _model_text(f, {key: 2 * c for key, c in terms.items()}) != to_text(f)
