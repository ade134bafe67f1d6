"""Privacy-preserving k-means over vertically partitioned data.

A simulated CKKS-style SIMD slot engine, packed homomorphic argmin,
differentially private centroid release, and two/N-party Lloyd iteration
with exact communication accounting.
"""

from . import dp_accounting, packed_matrix, protocol, secure_argmin, slot_engine

__version__ = "0.1.0"
