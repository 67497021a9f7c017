"""The ``queens`` benchmark (paper Section 7).

"queens finds all solutions to the n-queens chess problem" (n=8 in the
paper).  The search tree is explored with a ``future`` per subtree, the
classic Mul-T parallel backtracking idiom.  The board is a list of
already-placed column numbers shared read-only between tasks.

The default board is smaller than the paper's (8) to keep the
instruction-level simulation quick; the shape of the Table 3 columns
does not depend on the board size.
"""

NAME = "queens"
DEFAULT_N = 5

SOURCE = """
(define (safe? col placed dist)
  (if (null? placed)
      #t
      (let ((p (car placed)))
        (and (not (= p col))
             (not (= (- p col) dist))
             (not (= (- col p) dist))
             (safe? col (cdr placed) (+ dist 1))))))
(define (try-cols n col placed remaining)
  (if (> col n)
      0
      (+ (if (safe? col placed 1)
             (future (place n (cons col placed) (- remaining 1)))
             0)
         (try-cols n (+ col 1) placed remaining))))
(define (place n placed remaining)
  (if (= remaining 0)
      1
      (try-cols n 1 placed remaining)))
(define (main n) (place n '() n))
"""


def source():
    """Mul-T source text; ``main`` takes the board size."""
    return SOURCE


def reference(n=DEFAULT_N):
    """Number of n-queens solutions, computed natively."""
    solutions = 0
    placed = []

    def place(row):
        nonlocal solutions
        if row == n:
            solutions += 1
            return
        for col in range(n):
            if all(col != c and abs(col - c) != row - r
                   for r, c in enumerate(placed)):
                placed.append(col)
                place(row + 1)
                placed.pop()

    place(0)
    return solutions


def args(n=DEFAULT_N):
    """Argument tuple for ``main``."""
    return (n,)
