import numpy as np
import pytest

from randpress import BundleSFT, apply_skew, enumerate_cylinders
from randpress.bundle import separated_predicate
from randpress.errors import WordTooShort

from fixtures import golden_mean, random_bundle, random_chain, transfer_count


def test_zero_row_rejected_with_location():
    M = np.ones((2, 2, 2), dtype=int)
    M[1, 0, :] = 0
    with pytest.raises(ValueError, match="base symbol 1, fiber row 0"):
        BundleSFT.from_matrices(M)


def test_zero_column_only_rejected_in_strict_mode():
    M = np.ones((1, 2, 2), dtype=int)
    M[0, :, 1] = 0
    BundleSFT.from_matrices(M)  # fine without strictness
    with pytest.raises(ValueError, match="zero column"):
        BundleSFT.from_matrices(M, strict=True)


def test_enumerate_full_shift():
    bundle = BundleSFT.from_matrices(np.ones((1, 2, 2), dtype=int))
    assert len(enumerate_cylinders(bundle, (0, 0, 0), 3)) == 8


def test_enumerate_golden_mean_count():
    _, bundle, _ = golden_mean()
    words = enumerate_cylinders(bundle, (0, 0, 0), 3)
    assert len(words) == 5
    assert all(bundle.is_admissible((0, 0, 0), w) for w in words)


def test_enumerate_length_one():
    bundle = BundleSFT.from_matrices(np.ones((1, 3, 3), dtype=int))
    assert len(enumerate_cylinders(bundle, (0,), 1)) == 3


def test_transfer_count_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        S = int(rng.integers(1, 3))
        A = int(rng.integers(2, 4))
        chain = random_chain(rng, S)
        bundle = random_bundle(rng, S, A)
        ell = int(rng.integers(1, 5))
        word = tuple(int(x) for x in rng.integers(0, S, size=ell))
        assert transfer_count(bundle, word, ell) == len(
            enumerate_cylinders(bundle, word, ell)
        )
    assert chain is not None


def test_apply_skew_identity_and_shift():
    bundle = BundleSFT.from_matrices(np.ones((3, 2, 2), dtype=int))
    u, w = (0, 1, 2), (0, 1, 0)
    assert apply_skew(bundle, u, w, 0) == (u, w)
    assert apply_skew(bundle, u, w, 1) == ((1, 2), (1, 0))


def test_apply_skew_semigroup():
    bundle = BundleSFT.from_matrices(np.ones((2, 2, 2), dtype=int))
    u, w = (0, 1, 0, 1), (1, 1, 0, 0)
    once = apply_skew(bundle, *apply_skew(bundle, u, w, 1), 1)
    assert once == apply_skew(bundle, u, w, 2)


def test_apply_skew_out_of_range():
    bundle = BundleSFT.from_matrices(np.ones((1, 2, 2), dtype=int))
    with pytest.raises(IndexError):
        apply_skew(bundle, (0, 0), (0, 1), 2)


def test_separated_basics():
    assert not separated_predicate((0, 0, 0), (0, 0, 0), 2, 1)
    # m=1: disagreement within the first n coordinates
    assert separated_predicate((0, 1, 0), (0, 0, 0), 2, 1)
    assert not separated_predicate((0, 0, 1), (0, 0, 0), 2, 1)


def test_separated_n2_m2_examples():
    assert not separated_predicate((0, 0, 0, 0), (0, 0, 0, 1), 2, 2)
    assert separated_predicate((0, 0, 0, 0), (0, 0, 1, 0), 2, 2)


def test_separated_symmetric_antireflexive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(0, 2, size=5))
        y = tuple(int(v) for v in rng.integers(0, 2, size=5))
        assert separated_predicate(x, y, 3, 2) == separated_predicate(y, x, 3, 2)
        assert not separated_predicate(x, x, 3, 2)


def test_separated_word_too_short():
    with pytest.raises(WordTooShort):
        separated_predicate((0, 1), (1, 0), 2, 2)
