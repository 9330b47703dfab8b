import re

import numpy as np
import pytest

from randpress import BundleSFT
from randpress.bundle import _joint_walk
from randpress.pressure import _forest

from fixtures import golden_mean, naive_fiber_words, random_bundle, random_chain, transfer_count


def cylinders(bundle, u, ell):
    """The fiber words of length ell over one base word, from the joint walk, as tuples."""
    [(_, nodes, node, last, (base, words))] = _joint_walk(bundle.allowed, _forest([u]), [ell])
    assert nodes == slice(0, 1) and not node.any() and np.array_equal(last, words[:, -1])
    assert (base == np.asarray(u[:ell])).all()
    return [tuple(w) for w in words.tolist()]


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
    assert len(cylinders(bundle, (0, 0, 0), 3)) == 8


def test_enumerate_golden_mean_count():
    _, bundle, _ = golden_mean()
    words = cylinders(bundle, (0, 0, 0), 3)
    assert len(words) == 5
    assert words == naive_fiber_words(bundle, (0, 0, 0), 3)


def test_enumerate_length_one():
    bundle = BundleSFT.from_matrices(np.ones((1, 3, 3), dtype=int))
    assert len(cylinders(bundle, (0,), 1)) == 3


def test_transfer_count_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        S = int(rng.integers(1, 3))
        A = int(rng.integers(2, 4))
        chain = random_chain(rng, S)
        bundle = random_bundle(rng, S, A)
        ell = int(rng.integers(1, 5))
        word = tuple(int(x) for x in rng.integers(0, S, size=ell))
        assert transfer_count(bundle, word, ell) == len(cylinders(bundle, word, ell))
    assert chain is not None


@pytest.mark.parametrize("matrices,alphabet,message", [
    (np.ones((2, 2, 3)), None, "allowed must have shape (num_base_symbols, A, A)"),
    (np.full((1, 2, 2), 2), None, "admissibility matrices must be 0/1"),
    (np.ones((1, 2, 2)), ["a"], "alphabet does not match matrix size"),
], ids=["shape", "zero-one", "alphabet"])
def test_bundle_input_checks_name_the_fault(matrices, alphabet, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BundleSFT.from_matrices(matrices, alphabet)
