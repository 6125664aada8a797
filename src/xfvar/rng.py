"""Counter-based uniform streams for reproducible Monte Carlo.

Every estimator in this package draws its randomness through
`uniform_block`. The value at position (replicate i, variable k, copy c)
is a pure function of (seed, i, k, c): blocks of BLOCK_LEN replicates are
generated from a Philox counter-based generator keyed by
(seed, block index), so a block's values do not depend on the blocks
drawn before it. The layout below is frozen by a golden test;
changing BLOCK_LEN or the keying breaks every seeded result.
"""

import numpy as np

BLOCK_LEN = 8192

_MASK64 = (1 << 64) - 1


def uniform_block(seed, block_index, n_vars):
    """Uniforms of shape (BLOCK_LEN, n_vars, 2) for one stream block.

    Entry [i, k, c] is the draw for replicate block_index*BLOCK_LEN + i,
    variable k, copy c (0 = base sample, 1 = independent resample).
    Callers slice off unused trailing rows; generating the full block
    keeps the (seed, replicate, variable, copy) -> value map independent
    of the total replicate count.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(block_index) & _MASK64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((BLOCK_LEN, n_vars, 2))


def n_blocks(n_replicates):
    """Number of blocks needed to cover n_replicates."""
    return (int(n_replicates) + BLOCK_LEN - 1) // BLOCK_LEN


def aux_generator(seed, purpose):
    """Generator for auxiliary randomness (fold splits, synthetic data).

    Keyed on (hash(purpose), seed) with the words swapped relative to
    uniform_block keys, so auxiliary streams never collide with
    replicate streams for any seed.
    """
    tag = 0
    for ch in purpose.encode("utf-8"):
        tag = (tag * 1000003 + ch) & _MASK64
    key = (tag << 64) | (int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))
