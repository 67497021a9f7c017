"""The ``factor`` benchmark (paper Section 7).

"factor finds the largest prime factor of each number in a range of
numbers and sums them up."

Each number is independent work of uneven size (trial division), so the
workload has a natural medium grain.  The range is split by recursive
bisection with a ``future`` on one half — the standard Mul-T idiom that
gives both parallel slack and logarithmic stack depth.
"""

NAME = "factor"
DEFAULT_LO = 10000
DEFAULT_COUNT = 24

SOURCE = """
(define (lpf-loop n d)
  (cond ((> (* d d) n) n)
        ((= (remainder n d) 0) (lpf-loop (quotient n d) d))
        (else (lpf-loop n (+ d 1)))))
(define (largest-prime-factor n) (lpf-loop n 2))
(define (factor-range lo hi)
  (if (= lo hi)
      (largest-prime-factor lo)
      (let ((mid (quotient (+ lo hi) 2)))
        (+ (future (factor-range lo mid))
           (factor-range (+ mid 1) hi)))))
(define (main lo hi) (factor-range lo hi))
"""


def source():
    """Mul-T source text; ``main`` takes (lo, hi) inclusive."""
    return SOURCE


def _lpf(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
        else:
            d += 1
    return n


def reference(lo=DEFAULT_LO, count=DEFAULT_COUNT):
    """Expected result: sum of largest prime factors over the range."""
    return sum(_lpf(n) for n in range(lo, lo + count))


def args(lo=DEFAULT_LO, count=DEFAULT_COUNT):
    """Argument tuple for ``main``: inclusive (lo, hi)."""
    return (lo, lo + count - 1)
