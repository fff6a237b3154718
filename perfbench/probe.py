"""Host-speed probe for run.py: a fresh interpreter that imports numpy and
runs a fixed pure-Python loop, the two costs that make up most of a
pipeline process. Its wall time tracks how fast the host runs such a
process at the moment; the probe does no work of the program under test.
"""
import numpy  # noqa: F401


def loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


loop(600_000)
