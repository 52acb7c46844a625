"""Exact stability computations for sheaves on the plane and modules over
the Beilinson quiver: the character lattice and its hearts, the geometric
and algebraic central charges, King semistability with certified submodule
searches, tilts between the two relation algebras, and the wall-and-chamber
pictures attached to ideal-type classes.

All arithmetic is exact (rationals or prime fields); anything probabilistic
or potentially incomplete says so in its result object.
"""
from types import ModuleType as _ModuleType

from .io_utils import VERSION as __version__
from .errors import (
    P2StabError,
    InputError,
    VerificationError,
    IncompleteOracleError,
)
from .ktheory import (
    ChernCharacter,
    HeartBasis,
    A1,
    A0,
    A1P,
    euler_chi,
    mukai_pair,
    twist,
    bogomolov,
    expected_dim,
    dimvec,
    chern_of_dimvec,
    ch_o,
    ch_cotangent,
)
from .charge import (
    CentralCharge,
    z_geometric,
    z_cha_form,
    z_sigma_b,
    t_matrix_inv,
    verify_T_identity,
    geom_conditions_abc,
    theorem1_hypotheses,
)
from .modules import (
    QuiverRep,
    rep_to_json,
    rep_from_json,
    check_relations,
    simple,
    direct_sum,
    hom_space,
    iso_test,
    dualize,
    reverse_theta,
    tilt_B_to_Bprime,
    tilt_Bprime_to_B,
    theta_pair,
    theta_transform,
    random_rep,
)
from .quiver import (
    submodule_dimvecs,
    king_test,
    jh_factors,
    s_equiv,
    KingVerdict,
    SubmoduleSearch,
    DestabilizedError,
)
from .geometry import (
    PointConfig,
    module_point,
    bprime_module_points,
    module_ideal_A1,
    module_ideal_A0,
    collinear_test,
    wall_filtration_data,
    composite_lines,
    theta_b1,
    theta_b0,
    theta_family_r,
)
from .walls import (
    king_theta,
    family_theta,
    family_consistency,
    numerical_walls,
    chamber_membership,
    walls_json,
    hilbert_report,
    wall_svg,
)


#: every name imported above, the package's submodules excepted
__all__ = ["__version__"] + [name for name, value in list(globals().items())
                             if not name.startswith("_") and not isinstance(value, _ModuleType)]
