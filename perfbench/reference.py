#!/usr/bin/env python3
"""Reference figures: the ROADMAP baselines, timed as library calls.

    python3 perfbench/reference.py

Run from the root of a checkout.  Prints one line per figure with the raw
wall time and the speed-scaled time of speed.py (the unit of the benchmark's
metrics).  Not part of the benchmark command; the README quotes its output.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import Speedometer  # noqa: E402
from sweedler.fields import GF, QQ  # noqa: E402
from sweedler.measurings import enumerate_measurings, regular_measuring  # noqa: E402
from sweedler.reconstruction import reconstruct  # noqa: E402
from sweedler.structures import (  # noqa: E402
    algebra_morphisms,
    find_antipode,
    general_linear_group,
    matrix_algebra,
    trivial_algebra,
    validate_hopf,
)
from sweedler.zoo import cyclic_group_hopf  # noqa: E402


def main() -> None:
    q6 = cyclic_group_hopf(QQ, 6)
    f3 = GF(3)
    c2 = cyclic_group_hopf(f3, 2).algebra
    figures = [
        ("validate_hopf Q[C_6]", lambda: validate_hopf(q6)),
        ("find_antipode Q[C_6]", lambda: find_antipode(q6.bialgebra)),
        ("enumerate_measurings F3[C_2] -> F3, n = 3",
         lambda: enumerate_measurings(c2, trivial_algebra(f3), 3)),
        ("  of which algebra_morphisms F3[C_2] -> M_3(F3)",
         lambda: algebra_morphisms(c2, matrix_algebra(trivial_algebra(f3), 3))),
        ("  of which general_linear_group(F3, 3)", lambda: general_linear_group(f3, 3)),
        ("reconstruct regular Q[C_6]", lambda: reconstruct([regular_measuring(q6.algebra)])),
    ]
    speed = Speedometer()
    speed.start()
    stamps = []
    for name, call in figures:
        start = perf_counter()
        call()
        stamps.append((name, start, perf_counter()))
    speed.stop()
    for name, start, end in stamps:
        print(f"{name:<50} raw {end - start:7.3f} s   scaled {speed.scaled(start, end):7.3f} s")


if __name__ == "__main__":
    main()
