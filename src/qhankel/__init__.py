"""Exact q-series toolkit: Carlitz q-Euler/q-Bernoulli sequences, specialized
big q-Jacobi families, moment functionals, and Hankel determinant identities,
all over the exact field Q(q)."""

from .ratcore import (
    DeserializeError,
    DivisionByZeroError,
    PoleError,
    QPoly,
    RatFuncQ,
    Q,
    Q_ONE,
    Q_ZERO,
    const,
    deserialize,
    poly_gcd,
    qpow,
    serialize,
)
from .qkit import (
    VanishingPochhammerError,
    parity_sign,
    poch,
    q_binom,
    q_factorial,
    q_hyper_terminating,
    q_int,
    verify_q_chu_vandermonde,
)
from .carlitz import (
    q_bernoulli_explicit,
    q_bernoulli_recursive,
    q_euler_explicit,
    q_euler_recursive,
)
from .orthopoly import (
    JFraction,
    NotQuasiDefiniteError,
    ZPoly,
    affine_transform,
    build_j_via_phi2,
    build_jtilde_via_phi2,
    build_p_via_phi2,
    coeffs_ab,
    coeffs_monic,
    coeffs_p,
    three_term_build,
)
from .functionals import (
    SEQUENCES,
    apply_functional,
    favard_family,
    from_diagonal_basis,
    jfraction_for,
    moments_for,
    phi,
    phi_closed_m_n,
    phi_closed_n1_n,
    phi_via_basis,
    qbinom_basis,
    theta_moment,
    theta_moment_via_basis,
    theta_on_basis,
    to_diagonal_basis,
    verify_orthogonality,
    verify_phi_relation,
    xi_moment,
)
from .hankel import (
    InsufficientMomentsError,
    chapoton_zeng_quotients,
    favard_quotients,
    hankel_matrix,
    hankel_product,
    heilermann_quotients,
    jfraction_expand,
    jfraction_from_moments,
    minor_quotients,
    shift0_exponent,
    shift12_exponent,
    theorem1_quotients,
    theta_det_quotients,
    verify_exponent_integrality,
    xi_det_quotients,
)

__version__ = "0.1.0"
