import zlib

import numpy as np
from hypothesis import strategies as st

from patchsmooth.divergence import CodebookSpec, pairwise_divergence, simplex_rows
from patchsmooth.pool import PromptSpec, ScoreGrid


class StubScorer:
    """Deterministic toy backend: scores derive from a CRC of the prompt ids."""

    def __init__(self, grid_shape=(2, 2), codebook_size=4, with_keys=False):
        self._grid = grid_shape
        self._codebook = CodebookSpec(size=codebook_size)
        self._with_keys = with_keys

    @property
    def codebook(self):
        return self._codebook

    @property
    def grid_shape(self):
        return self._grid

    def pair_for(self, item_id):
        return item_id, item_id + ".out"

    def score(self, prompt: PromptSpec) -> ScoreGrid:
        key = f"{prompt.in_context_input}|{prompt.in_context_output}|{prompt.anchor}"
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        n = self._grid[0] * self._grid[1]
        rows = rng.dirichlet(np.ones(self._codebook.size), size=n)
        feature_keys = rng.normal(size=(n, 3)) if self._with_keys else None
        patch_keys = rng.normal(size=(n, 2)) if self._with_keys else None
        return ScoreGrid(
            probs=rows,
            prompt=prompt,
            feature_keys=feature_keys,
            patch_keys=patch_keys,
        )


@st.composite
def prob_vectors(draw, min_len=2, max_len=64):
    """Normalized probability vectors, zeros allowed."""
    n = draw(st.integers(min_len, max_len))
    weights = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ).filter(lambda w: sum(w) > 0)
    )
    arr = np.asarray(weights, dtype=np.float64)
    return arr / arr.sum()


def divergence_of(kind, a, b):
    """KL(a || b) or JS(a, b) of two distributions: the kernel on one pair."""
    return float(pairwise_divergence(b[None], a[None], 0, 0, kind=kind))


@st.composite
def distribution_pairs(draw, min_len=2, max_len=64):
    """Two distributions over the same codebook."""
    a = draw(prob_vectors(min_len=min_len, max_len=max_len))
    b = draw(prob_vectors(min_len=len(a), max_len=len(a)))
    return simplex_rows(a), simplex_rows(b)


def assert_same_selection(fast, slow, atol=1e-9):
    """The fast path and the oracle chose the same neighbors, in the same
    order, at the same distances and weights."""
    np.testing.assert_array_equal(fast.pair, slow.pair)
    np.testing.assert_array_equal(fast.patch, slow.patch)
    np.testing.assert_allclose(fast.distance, slow.distance, rtol=0, atol=atol)
    np.testing.assert_allclose(fast.weight, slow.weight, rtol=0, atol=atol)
