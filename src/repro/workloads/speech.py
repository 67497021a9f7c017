"""The ``speech`` benchmark (paper Section 7) — synthetic substitute.

The paper's ``speech`` is "a modified Viterbi graph search algorithm
used in a connected speech recognition system called SUMMIT".  SUMMIT's
lattices and acoustic scores are not available, so this module builds
the closest synthetic equivalent (see DESIGN.md substitutions): a
layered HMM-style lattice of ``layers`` x ``width`` nodes whose
transition costs come from a deterministic linear-congruential hash,
relaxed layer by layer with the Viterbi recurrence

    best[l][j] = min_k ( best[l-1][k] + cost(l, k, j) )

Each node relaxation is a ``future`` stored into the layer's vector —
word-level producer/consumer synchronization through futures in a data
structure, exactly the usage pattern Sections 2.2/3.3 motivate: the
next layer's tasks touch the previous layer's entries implicitly when
they do arithmetic on them.
"""

NAME = "speech"
DEFAULT_LAYERS = 5
DEFAULT_WIDTH = 10

#: LCG parameters: small enough that (x * MUL + INC) stays a fixnum.
_MUL = 1103
_INC = 12345
_MOD = 100003

SOURCE = """
; lj packs (layer, j) into one fixnum: lj = layer*1024 + j (width < 1024).
(define (hash-cost x)
  (remainder (+ (* x 1103) 12345) 100003))
(define (trans-cost lj k)
  (let ((layer (quotient lj 1024)) (j (remainder lj 1024)))
    (remainder (hash-cost (+ (* layer 919) (+ (* k 31) j))) 1000)))
(define (relax-loop prev width lj k)
  (if (= k width)
      999999
      (min2 (+ (vector-ref prev k) (trans-cost lj k))
            (relax-loop prev width lj (+ k 1)))))
(define (relax-node prev width lj)
  (relax-loop prev width lj 0))
(define (fill-layer v prev width lj)
  (if (= (remainder lj 1024) width)
      v
      (begin
        (vector-set! v (remainder lj 1024)
                     (future (relax-node prev width lj)))
        (fill-layer v prev width (+ lj 1)))))
(define (relax-layer prev width layer)
  (fill-layer (make-vector width 0) prev width (* layer 1024)))
(define (run-layers prev width layer layers)
  (if (= layer layers)
      prev
      (run-layers (relax-layer prev width layer) width (+ layer 1) layers)))
(define (vector-min v k n)
  (if (= k n)
      999999
      (min2 (vector-ref v k) (vector-min v (+ k 1) n))))
(define (main layers width)
  (let ((final (run-layers (make-vector width 0) width 1 (+ layers 1))))
    (vector-min final 0 width)))
"""


def source():
    """Mul-T source text; ``main`` takes (layers, width)."""
    return SOURCE


def _hash_cost(x):
    return (x * _MUL + _INC) % _MOD


def _trans_cost(layer, k, j):
    return _hash_cost(layer * 919 + k * 31 + j) % 1000


def reference(layers=DEFAULT_LAYERS, width=DEFAULT_WIDTH):
    """Expected best-path score, computed natively."""
    best = [0] * width
    for layer in range(1, layers + 1):
        best = [
            min(best[k] + _trans_cost(layer, k, j) for k in range(width))
            for j in range(width)
        ]
    return min(best)


def args(layers=DEFAULT_LAYERS, width=DEFAULT_WIDTH):
    """Argument tuple for ``main``."""
    return (layers, width)
