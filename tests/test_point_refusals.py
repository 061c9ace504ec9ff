"""The point functions behind the grid commands raise only KerrSteadyError.

The CLI turns a KerrSteadyError into one `error:` line and exit 1; any
other exception would reach the user as a traceback.  Parameters range
over many decades, where sums leave the double range.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrsteady.errors import KerrSteadyError
from kerrsteady.exact_linear import exact_drive_point
from kerrsteady.exact_twophoton import scan_point
from kerrsteady.meanfield import photon_number_branches
from kerrsteady.model import ModelParams


def magnitudes(low, high):
    """Floats whose base-10 exponent is uniform on [low, high]."""
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0**e)


def signed(low, high):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes(low, high)).map(
        lambda pair: pair[0] * pair[1])


coherent = st.builds(ModelParams, delta_c=signed(-3, 2), chi=signed(-3, 1),
                     omega=magnitudes(-4, 2), gamma=magnitudes(-3, 1))
pumped = st.builds(
    ModelParams, delta_c=signed(-3, 1.5), chi=signed(-2.5, 0.5), omega=magnitudes(-5, 1),
    gamma=magnitudes(-2, 0.5),
    lambda_2ph=st.builds(complex, signed(-2, 0.7), signed(-2, 0.3)),
    kappa=st.one_of(st.just(0.0), magnitudes(-3, 0)),
)

# Points whose Gauss-sum walk once raised OverflowError: (z)_m past the
# double range, and terms of a direct sum and of a connection form whose
# modulus overflows
POCHHAMMER_OVERFLOW = ModelParams(
    delta_c=3.9150705581924186, chi=-0.006784275261714434, omega=0.00024549076653519286,
    gamma=0.2370538519626042, lambda_2ph=complex(1.4867076425106687, 0.29838164714849136),
    kappa=0.005751176044218105)
TERM_OVERFLOW = ModelParams(
    delta_c=4.203067144811342, chi=-0.015275899991637587, omega=4.234191949842081e-05,
    gamma=0.06681322817388803, lambda_2ph=complex(4.1431172599413255, 1.1112467893763691))
CONNECTION_OVERFLOW = ModelParams(
    delta_c=-6.081453982619993, chi=0.004089232857269855, omega=0.0, gamma=0.42128067832539096,
    lambda_2ph=complex(1.932905460330087, -0.12593388825110785))


def refused_or_returned(call, *args):
    try:
        call(*args)
    except KerrSteadyError:
        pass


@given(p=coherent)
def test_exact_drive_point(p):
    refused_or_returned(exact_drive_point, p, p.omega)


@given(p=coherent)
def test_photon_number_branches(p):
    refused_or_returned(photon_number_branches, p)


@settings(max_examples=40)  # a deep state's Gauss sums cost O(M^2)
@given(p=pumped)
@example(p=POCHHAMMER_OVERFLOW)
@example(p=TERM_OVERFLOW)
@example(p=CONNECTION_OVERFLOW)
def test_scan_point(p):
    refused_or_returned(scan_point, p, p.delta_c)
