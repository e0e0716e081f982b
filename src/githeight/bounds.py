"""Lower bounds for the height of a semistable point, read from its input.

After Bost (Duke 1994) and Zhang (1996): an invariant that takes a nonzero
rational value c on the point bounds the quotient height below.  At every
place v the norm of each point of the orbit is at least |c|_v times a
local constant, the product formula sums log |c|_v to 0 over the places,
so the quotient height is at least the sum of the local constants.  At the
finite places the constant is 1, so only the one at oo is left.

* Torus.  For lam in the zero-sum polytope of the active weights
  (lam >= 0, sum lam_i = 1, sum lam_i m_i = 0) the monomial
  prod x_i^lam_i is invariant.  At p, max_i |x_i|_p >= prod |x_i|_p^lam_i;
  at oo, by Gibbs' inequality, sum x_i^2 >= prod (x_i^2 / lam_i)^lam_i.
  So the quotient height is at least (1/2) sum lam_i log(1/lam_i).
* Conjugation.  The product of the k nonzero eigenvalues is a nonzero
  rational up to sign.  At p the largest |lambda_i|_p is at least their
  geometric mean; at oo, by AM-GM, sum |lambda_i|^2 >= k prod
  |lambda_i|^(2/k).  So the quotient height is at least (1/2) log k.

Both read the record the height paths build, and neither reads a root or
runs a minimizer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import conjugation, torus
from .conjugation import MatrixQ
from .heights import ProjectivePointQ
from .places import LogValue, _log_ratio
from .torus import TorusAction


def lower_bound(action: TorusAction, x: ProjectivePointQ) -> LogValue:
    """(1/2) sum lam_i log(1/lam_i), a lower bound for the quotient height of x.

    lam is x_i^2 / sum x^2 when sum x_i^2 m_i = 0 exactly, which runs no
    LP, and otherwise the exact point of the zero-sum polytope, positive on
    the face of zero, that :meth:`~githeight.exactlp.ZeroSumPolytope.face_of_zero`
    stores; after :func:`~githeight.torus.quotient_height` on the same
    input that face is already solved.  An unstable point raises
    UnstableError.

    Examples:
        >>> bound = lower_bound(TorusAction(1, ((-1,), (1,))), ProjectivePointQ.parse("1:1"))
        >>> bound.arch == 0.5 * math.log(2)  # the quotient height itself
        True
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> bound = lower_bound(act, ProjectivePointQ.parse("2:2:1"))  # lam = (4, 4, 1) / 9
        >>> abs(bound.arch - (math.log(3) - 8 / 9 * math.log(2))) < 1e-15
        True
    """
    record = torus._semistable_record(action, x)
    if record.balanced:
        ints2 = record.squares[0]
        lam = [Fraction(w, sum(ints2)) for w in ints2]
    else:
        record.polytope.face_of_zero()  # solved once per polytope, which keeps its interior point
        lam = record.polytope._interior
    return LogValue.from_arch(0.5 * math.fsum(float(l) * _log_ratio(l.denominator, l.numerator)
                                              for l in lam if l))


def lower_bound_conj(phi: MatrixQ) -> LogValue:
    """(1/2) log k, k the number of nonzero eigenvalues of phi counted with
    multiplicity, a lower bound for the quotient height of [phi].

    k is the degree of the charpoly with its zero roots split off.  A
    nilpotent matrix raises NilpotentError.

    Examples:
        >>> lower_bound_conj(MatrixQ.identity(3)).arch == 0.5 * math.log(3)
        True
        >>> lower_bound_conj(MatrixQ.from_lists([[1, 1], [0, 0]])).is_exact_zero
        True
    """
    return LogValue.from_arch(0.5 * math.log(conjugation._semistable_record(phi).reduced[0].degree))
