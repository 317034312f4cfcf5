#!/usr/bin/env python3
"""Census of measurings at small dimension, with the coalgebras they generate.

For each (A, B) pair over a prime field this enumerates the n-dimensional
measurings, their conjugation orbits, and the dimension of the subcoalgebra of
the universal measuring coalgebra that the orbit representatives span
(``reconstruct``), printed as the "generated coalgebra".  It is dual to the
algebra that the representatives' blocks generate.
"""

from sweedler.fields import GF
from sweedler.measurings import enumerate_measurings
from sweedler.reconstruction import reconstruct
from sweedler.structures import matrix_algebra, trivial_algebra
from sweedler.zoo import cyclic_group_hopf, dual_numbers, involution_algebra


def census(name, a, b, dims):
    reps = []
    for n in dims:
        report = enumerate_measurings(a, b, n)
        sizes = sorted((size for _, size in report.orbits), reverse=True)
        reps.extend(rep for rep, _ in report.orbits)
        print(f"{name:<24} n={n}: total {report.total_count:>3}, "
              f"orbits {len(report.orbits)} {sizes}")
    stage = reconstruct(reps)
    print(f"{name:<24} generated coalgebra dim = {stage.d.dim} "
          f"(from {len(reps)} representatives)")
    print()


def main() -> None:
    f2, f3 = GF(2), GF(3)
    census("F2[C2] -> F2", involution_algebra(f2), trivial_algebra(f2), (1, 2, 3, 4))
    census("F2[C3] -> F2", cyclic_group_hopf(f2, 3).algebra, trivial_algebra(f2), (1, 2, 3))
    census("F3[C2] -> F3", cyclic_group_hopf(f3, 2).algebra, trivial_algebra(f3), (1, 2, 3))
    census("F2[C2] -> F2[y]/(y2)", involution_algebra(f2), dual_numbers(f2), (1, 2, 3))
    census("M2(F2) -> F2", matrix_algebra(trivial_algebra(f2), 2),
           trivial_algebra(f2), (1, 2))


if __name__ == "__main__":
    main()
