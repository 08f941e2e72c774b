"""The certified rank of a degree, and the transposed rank it is compared
with, the oracle: the uncleared transpose of the ranked block, eliminated
on its own, which shares neither pivots nor clearing with ``rank_d``."""

from affsymp.exact_linalg import rank


def certified_rank(complex_, k):
    """rank d_k, which passes the certificate of its ranked block as it is
    computed; a failing certificate raises ``ConsistencyError``."""
    return complex_.rank_d(k)


def transposed_rank(complex_, k):
    """rank d_k from the transpose of its ranked block, uncleared, plus the
    off-block part; rank d_0 is 0."""
    if k == 0:
        return 0
    return rank(complex_._ranked.block(k).transpose()) + complex_._off_block_rank(k)
