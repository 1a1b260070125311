"""A fixed piece of interpreter work that measures the machine's current speed.

It mimics the program's mix (small dataclasses, float arithmetic, f-strings,
dict counting, seeded random draws) and never changes with the program, so
the time it takes tracks how fast this machine runs Python right now.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

# What kernel_s() takes on the 2-core Xeon VM this benchmark was built on,
# when no co-tenant slows it. Times the benchmark reports are wall times
# multiplied by REFERENCE_S / kernel_s() measured around them: seconds at
# that reference speed.
REFERENCE_S = 0.1


@dataclass
class _State:
    bid: float
    ask: float
    goodwill: float
    rounds: int = 0


def kernel_s(n: int = 8000) -> float:
    """Seconds the fixed work takes now.

    About 100 ms: the machine's speed flips within tenths of a second, and
    a quarter of this work tracked a pass's speed too loosely (on `corpus`
    the spread of `run_s` over six seeds was 0.13, against 0.08 with this).
    """
    start = perf_counter()
    rng = random.Random(5)
    counts: dict[str, int] = {}
    records = []
    for i in range(n):
        s = _State(3000.0, 5000.0, 2.0)
        while s.ask - s.bid > 50 and s.rounds < 12:
            gap = s.ask - s.bid
            s.bid += 0.3 * gap * max(s.goodwill, 0.0) / 2.0
            s.ask -= 0.3 * gap
            s.rounds += 1
            if rng.random() < 0.4:
                s.goodwill -= 0.5
            text = f"offer {round(s.bid)} per unit, ask {round(s.ask)}"
            counts[text[:9]] = counts.get(text[:9], 0) + 1
        records.append({"id": f"d{i}", "rounds": s.rounds, "deal": s.ask - s.bid <= 50})
    return perf_counter() - start
