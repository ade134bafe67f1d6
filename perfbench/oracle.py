#!/usr/bin/env python3
"""Print the plaintext-oracle trajectory of one workload as JSON.

Usage: python3 perfbench/oracle.py <workload> <seed>

Writes one JSON list: the centroids after every round of
``bench.lloyd_plaintext`` with the matching tie rule, starting with the
initial ones.  ``run.py`` starts this script for its correctness gate so the
oracle runs beside the noise-free protocol run.
"""

import json
import sys

import run


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    run.import_program()
    from vpkmeans import bench

    w = run.Workload(name, seed)
    history = bench.lloyd_plaintext(w.data, w.init, run.ROUNDS, tie_rule=bench.MATCHING,
                                    sign=w.sign, seed=w.seed).history
    json.dump([h.tolist() for h in history], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
