"""The two evaluations of the summation kernel agree.

``cosine_sum`` adds the cosines term by term and ``dirichlet_kernel`` uses
the closed form; they are independent implementations of one function.
"""

import math

import trigconv as tc


class TestVariantAgreement:
    def test_cosine_sum_variants_agree(self):
        for n in (0, 1, 17, 500):
            for t in (0.0, 0.3, -2.7, math.pi):
                direct = tc.cosine_sum(n, t)
                closed = tc.dirichlet_kernel(n, t)
                assert abs(direct - closed) < 1e-12, (n, t)
