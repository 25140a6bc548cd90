"""The paper's claim that the method needs no token-by-token correspondence,
as properties over generated inputs.

- The sequence level ignores token order: permuting the rows and the
  columns of a cost permutes its Sinkhorn plan the same way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otdistill import SinkhornConfig, sinkhorn_plan


@given(tokens=st.integers(8, 600), regularization=st.floats(0.01, 0.1),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_permuted_tokens_permute_the_plan(tokens, regularization, seed):
    # sinkhorn_plan(C[p][:, q]) is sinkhorn_plan(C)[p][:, q] for independent
    # row and column permutations p and q. The two compute the same
    # iterates from v = 1 and differ only in the order of each product's
    # sum of T positive terms, within T eps relative; a sweep takes two
    # such products, and Sinkhorn's map does not expand Hilbert's
    # projective metric, so no sweep's rounding grows in later ones:
    # 2 iterations T eps, entry by entry.
    rng = np.random.default_rng(seed)
    C = rng.random((tokens, tokens))
    p, q = rng.permutation(tokens), rng.permutation(tokens)
    cfg = SinkhornConfig(regularization)
    bound = 2 * cfg.iterations * tokens * np.finfo(float).eps
    np.testing.assert_allclose(sinkhorn_plan(C[p][:, q], cfg),
                               sinkhorn_plan(C, cfg)[p][:, q],
                               rtol=bound, atol=0)
