"""Pattern rewrites on capped modules.

The paper uses pattern-rewrite optimizations to remove redundant frequency
caps (Sec. VII-A): a cap that is immediately overridden by another cap
before any kernel runs, or a cap equal to the frequency already in effect,
is dead and costs a driver call (~35us/21us) for nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.core import Module
from repro.ir.dialects.polyufc import SetUncoreCapOp


def remove_redundant_caps(module: Module) -> Module:
    """Drop shadowed and no-op cap markers (shares the surviving ops)."""
    result = module.clone_structure(module.name)
    pending: Optional[SetUncoreCapOp] = None
    active_freq: Optional[float] = None
    for op in module.ops:
        if isinstance(op, SetUncoreCapOp):
            pending = op  # shadows any earlier pending cap
            continue
        if pending is not None:
            if active_freq is None or abs(
                pending.freq_ghz - active_freq
            ) > 1e-9:
                result.append(pending)
                active_freq = pending.freq_ghz
            pending = None
        result.append(op)
    # A trailing cap with no kernel after it is dead; drop it silently.
    return result


def count_caps(module: Module) -> int:
    """Number of cap markers in the module."""
    return sum(1 for op in module.ops if isinstance(op, SetUncoreCapOp))
