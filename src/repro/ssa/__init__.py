"""SSA construction and SSA-based analyses for jlang IR."""

from .cfg import reverse_postorder
from .constprop import BOTTOM, ConstantValues, TOP
from .construct import SSAInfo, program_to_ssa, to_ssa

__all__ = [
    "BOTTOM", "ConstantValues", "SSAInfo", "TOP",
    "program_to_ssa", "reverse_postorder", "to_ssa",
]
