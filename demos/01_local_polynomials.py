"""Local Siegel-series polynomials across the three splitting cases.

For a vector T in the hyperbolic plane over Z[omega], omega = (1+sqrt(-D))/2,
every prime p dividing <T, T> contributes a monic palindromic polynomial
Q_{T,p} of degree 2 v_p(<T,T>) whose odd coefficients carry a factor
sqrt(p).  This script computes a few and re-derives a few underlying series
terms with the exact lattice-count oracle.
"""

from qeis import (FieldE, Params, assemble_series, global_vector,
                  local_quadratic_data, norm, q_poly, sqrtp_eval_halfint)
from qeis.siegel import split_shape, term_closed, term_oracle

F = FieldE(3)
P = Params(n=2, ell=3)


def show(T, p):
    data = local_quadratic_data(T, F, p, P)
    q = q_poly(data, P)
    series = assemble_series(data.key)
    print(f"T = {T.as_list()}   <T,T> = {norm(T, F)}   p = {p} ({data.case.value})")
    print(f"  k = {data.k}, k1 = {data.k1}, k2 = {data.k2}")
    print(f"  local series in t = p^-s: {[str(c) for c in series.coeffs]}")
    print(f"  Q d-vector (coeff of X^i is d_i sqrt(p)^(i mod 2)): {list(q.d)}")
    print(f"  Q(p^(l - (n-1)/2)) = Q(p^(5/2)) = {sqrtp_eval_halfint(q, 2 * P.ell - P.n + 1)}")
    print()


# unit local norm: the series collapses to a single Euler factor and Q = 1
show(global_vector(1, 0, 1, 0), 5)

# inert prime with k = 1: the polynomial is forced to X^2 + 1
show(global_vector(1, 0, 1, 0), 2)

# odd ramified prime: odd-degree coefficients appear, graded by sqrt(p)
show(global_vector(1, 0, 1, 1), 3)

# deeper ramified datum with k = 2
show(global_vector(1, 0, 4, 1), 3)

# every closed-form term can be re-derived by counting lattice points
eta = (3, 0, 3, 0)
sh = split_shape(3, 2)
print("lattice-count oracle on the split rank-4 lattice at p = 3:")
for r in range(3):
    print(f"  r = {r}: closed form {term_closed(r, eta, sh):6d}"
          f"   lattice count {term_oracle(r, eta, sh):6d}")
