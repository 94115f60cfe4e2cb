"""A fixed amount of pure-Python work; prints how long it took.

Usage: python3 perfbench/calibrate.py

The benchmark runs this in its own fresh process between the measured
processes.  It does the kinds of work qhankel does (a small-int schoolbook
convolution, products and exact divisions of ~20,000-bit integers, Fraction
sums) and imports nothing from the program, so a change to the program
cannot change it.  Its time tracks how fast the machine is running at that
moment.
"""

import time
from fractions import Fraction


def work() -> None:
    a = [(i * 7919) % 1000003 - 500000 for i in range(120)]
    for _ in range(6):
        out = [0] * 240
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
    x = 3 ** 12000 + 1
    y = 7 ** 5000 + 3
    for _ in range(150):
        if divmod(x * y, y) != (x, 0):
            raise ArithmeticError("calibration arithmetic went wrong")
    f = Fraction(0)
    for k in range(1, 400):
        f += Fraction(k, k + 1)


if __name__ == "__main__":
    t = time.perf_counter()
    work()
    print(time.perf_counter() - t)
