"""The bucketing information function I(P, lambda0, lambda1, mu).

I generalizes Shannon mutual information: at lambda0 = lambda1 = 1 and
mu = infinity it coincides with I(X;Y), while smaller mu trades the
divergence penalty K(Q||P) against the marginal rewards.  This script
evaluates the closed forms for a correlated Bernoulli coordinate pair next
to `info_numeric`, which answers lambda0 = lambda1 = 1 from the same exact
candidates without a solve, and then runs the optimizer where no closed
form is known.
"""

import math

from bucketing import (
    InfoQuery,
    bernoulli_matrix,
    info_closed_form,
    info_numeric,
    mutual_information,
)

P = bernoulli_matrix(0.9)
print("coordinate distribution P (agreement probability 0.9):")
print(P.entries, "\n")

print(f"mutual information: {mutual_information(P):.7f} nats\n")

print("  mu    closed form    optimizer      method")
for mu in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0, math.inf):
    closed = info_closed_form(P, mu)
    res = info_numeric(P, InfoQuery(1.0, 1.0, mu), n_starts=8)
    print(f"{mu!s:>5}   {closed:.8f}   {res.value:.8f}   {res.method}")

print("""
The value decreases as mu grows: a larger mu prices the divergence of the
block family from P more heavily, until only the mutual information
survives at mu = infinity.  Away from lambda0 = lambda1 = 1 no closed form
is known and the optimizer is the only tool:
""")
for l0, l1 in ((1.0, 0.5), (0.75, 0.75), (0.5556, 0.5556)):
    res = info_numeric(P, InfoQuery(l0, l1, 1.0), n_starts=16)
    print(f"I(P, {l0}, {l1}, 1) = {res.value:.6f}")

print("""
The last line is (numerically) zero: (0.5556, 0.5556) sits just inside the
sub-conjugacy frontier of P along the diagonal, which for the Bernoulli
family lies at lambda = 1/(2p).  Points with I(P, l0, l1, 1) = 0 are the
exponent pairs that work lower bounds are built from (see demo 03).
""")
