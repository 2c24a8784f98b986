"""One call per question: :func:`verify` tests a matching for core
membership and :func:`solve` looks for a core matching, each routed to one
engine and answered as one :class:`Verdict`.

``couples`` takes games whose classes have at most two vertices, ``const``
a constant number of players, and ``oracle`` enumerates every matching;
``auto`` picks couples when it applies and const otherwise.  ``budget``
caps the work of const and oracle; couples ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import constant_players, couples, exhaustive
from .errors import InputError, MethodError
from .games import (
    BLOCK_KIND,
    DEFAULT_BUDGET,
    BlockCertificate,
    Instance,
    core_membership_by_enumeration,
    utility,
)
from .graphs import Matching

METHODS = ("auto", "couples", "const", "oracle")


@dataclass(frozen=True)
class Verdict:
    """The engine that ran, the core asked about, and the answer: from
    :func:`verify` a validated block, None when the matching is in the
    core; from :func:`solve` a core matching, None when the core is
    empty."""

    engine: str
    core: str
    certificate: Optional[BlockCertificate] = None
    matching: Optional[Matching] = None


def _engine(inst: Instance, core: str, method: str, budget: int) -> str:
    """The engine ``method`` picks for ``inst``, once the arguments pass."""
    if core not in BLOCK_KIND:
        raise InputError(f"core must be 'weak' or 'strong', got {core!r}")
    if method not in METHODS:
        raise InputError(f"method must be one of {', '.join(METHODS)}, got {method!r}")
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    if method == "auto":
        return "couples" if all(len(p) <= 2 for p in inst.players) else "const"
    if method == "couples" and any(len(p) > 2 for p in inst.players):
        raise MethodError("couples method needs all classes of size <= 2")
    return method


def verify(
    inst: Instance, matching: Matching, core: str, method: str = "auto", budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Whether ``matching`` lies in the ``core`` ("weak" or "strong") of
    ``inst``; a blocked matching's verdict carries the first block the
    engine finds."""
    matching.validate_for(inst.graph)
    engine = _engine(inst, core, method, budget)
    cert = None
    if engine == "couples":
        member = couples.weak_membership if core == "weak" else couples.strong_membership
        cert = member(couples.normalize(inst), matching).certificate
    elif engine == "const":
        cert = core_membership_by_enumeration(inst, matching, core, budget).certificate
    else:
        result = exhaustive.oracle_core(inst, core, cap=budget)
        u = utility(inst, matching)
        hit = result.blocking(u)
        if hit is not None:
            cert = BlockCertificate(hit[0], result.realize(hit[1]), BLOCK_KIND[core])
            cert.validate(inst, u)
    return Verdict(engine, core, certificate=cert)


def solve(
    inst: Instance, core: str, method: str = "auto", budget: int = DEFAULT_BUDGET
) -> Verdict:
    """A matching in the ``core`` ("weak" or "strong") of ``inst``, or a
    verdict without one when that core is empty."""
    engine = _engine(inst, core, method, budget)
    if engine == "couples":
        construct = couples.weak_construct if core == "weak" else couples.strong_core_solve
        found = construct(couples.normalize(inst))
    elif engine == "const":
        found = constant_players.core_empty(inst, core, budget=budget)
    else:
        result = exhaustive.oracle_core(inst, core, cap=budget)
        found = None if result.best is None else result.realize(result.best)
    return Verdict(engine, core, matching=found)
