"""Reference kernel that measures how fast the host is right now.

    python3 bench/reference.py

prints the seconds one pass of the kernel took. The kernel does the kinds of
work the workloads do: it formats numbers into CSV text in Python, draws,
sorts and sums freshly allocated NumPy arrays, and gathers at random from an
array much larger than the CPU caches. It uses nothing from dcpowersim, so a
change to the program does not move it. bench/run.py runs it in a process of
its own, so that its memory does not count in the peak RSS of the workload's
commands, which inherit the launching process's high-water mark.
"""

from __future__ import annotations

import time

import numpy as np


def kernel_seconds() -> float:
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    text = "".join(f"{i},{v:.9g}\n" for i, v in enumerate(rng.random(150_000).tolist()))
    draws = rng.exponential(size=500_000)
    total = np.cumsum(draws[np.argsort(draws, kind="stable")])
    table = rng.random(4_000_000)
    gathered = table[rng.integers(0, table.size, size=2_000_000)].sum()
    elapsed = time.perf_counter() - start
    if not (text and total[-1] > 0 and gathered > 0):
        raise RuntimeError("reference kernel produced no result")
    return elapsed


if __name__ == "__main__":
    print(repr(kernel_seconds()))
