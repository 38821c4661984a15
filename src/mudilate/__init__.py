"""mudilate: numerical workbench for mu-quotient domains, defect operators
and block isometric dilations at finite truncation."""

from .opcore import herm_sqrt, kernel_basis, numerical_radius, op_norm, spectral_radius
from .spaces import ModelSpace, Window, block_assemble, hardy_shift, window
from .domains import (BlockStructure, Certificate, DomainPoint,
                      certificate_search, membership, mu_E, psi3_supnorm)
from .fundamentals import (DefectData, FundamentalSet, OperatorTuple, chain_report,
                           defect, rho, solve_fundamentals)
from .dilate import (DilationResult, egervary, pentablock_dilation,
                     pushforward, schaffer)
from .verify import (commutator_profile, is_commuting, isometry_check,
                     necessary_conditions)
from .gallery import GalleryCase, emit_report, run_example
from .report import CheckItem, CheckReport, MembershipReport

__all__ = [
    "herm_sqrt", "kernel_basis", "numerical_radius", "op_norm", "spectral_radius",
    "ModelSpace", "Window", "block_assemble", "hardy_shift", "window",
    "BlockStructure", "Certificate", "DomainPoint", "certificate_search",
    "membership", "mu_E", "psi3_supnorm",
    "DefectData", "FundamentalSet", "OperatorTuple", "chain_report", "defect",
    "rho", "solve_fundamentals",
    "DilationResult", "egervary", "pentablock_dilation", "pushforward",
    "schaffer",
    "commutator_profile", "is_commuting", "isometry_check",
    "necessary_conditions",
    "GalleryCase", "emit_report", "run_example",
    "CheckItem", "CheckReport", "MembershipReport",
]
