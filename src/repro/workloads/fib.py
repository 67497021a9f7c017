"""The ``fib`` benchmark (paper Section 7).

"fib is the ubiquitous doubly recursive Fibonacci program with
`future's around each of its recursive calls."

The finest-grain workload of the four: each task is a handful of
instructions, so it maximally stresses task-creation overhead — the
reason its eager-futures overhead factor is ~14x on APRIL and ~28x on
the Encore (Table 3), and the showcase for lazy task creation (~1.5x).
"""

NAME = "fib"
DEFAULT_N = 10        # paper runs were larger; n=10 keeps simulation fast

SOURCE = """
(define (fib n)
  (if (< n 2)
      n
      (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main n) (fib n))
"""


def source():
    """Mul-T source text; ``main`` takes n."""
    return SOURCE


def reference(n=DEFAULT_N):
    """Expected result, computed natively."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def args(n=DEFAULT_N):
    """Argument tuple for ``main``."""
    return (n,)
