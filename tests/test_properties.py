"""Property tests: two independent routes to the same answer."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcflab.pcf import Pcf, QuadPoly, e_matrix_continuant_form
from pcflab.ring import RingElem
from pcflab.variety import is_member

zw = st.builds(lambda a, b: RingElem(a, b, 2), st.integers(-9, 9), st.integers(-9, 9))
pcfs = st.builds(
    Pcf,
    st.lists(zw, max_size=3).map(tuple),
    st.lists(zw, min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(pcfs)
def test_family_membership_matches_continuant_form(P):
    # the continuant form never inverts a matrix, unlike the e_matrix that
    # variety_residuals reads, so the two routes share no code past continuants
    E = e_matrix_continuant_form(P)
    assume(not E.is_identity_multiple())
    A, B, C = E.e21, E.e22 - E.e11, -E.e12
    assert is_member(QuadPoly(A, B, C), P)
    if A:
        assert not is_member(QuadPoly(A, B, C + A), P)
