"""The certified rank of a degree, for comparison with the transposed
elimination, ``ChainComplex.rank_d_transposed``, the oracle."""


def certified_rank(complex_, k):
    """rank d_k once the certificate of its ranked block has passed; a
    failing certificate raises ``ConsistencyError``."""
    complex_._certify(k)
    return complex_.rank_d(k)
