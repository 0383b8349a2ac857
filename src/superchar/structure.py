"""Structural apparatus on top of a supercharacter theory.

S-normal subgroups (read off the group's normal-subgroup lattice), the
center Z(S) and commutator [H,S], supercharacter kernels, the upper and
lower central series, nilpotence, and hypercenter.
Cross-checkable identities (the kernel-intersection form of [G,S],
kernels as intersections of classical kernels) are verified on every
call; a mismatch raises ConsistencyError because it would falsify the
theory these constructions rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, GroupConstructionError
from .groups import (
    GroupTable,
    SubgroupSet,
    cached,
    conjugacy_classes,
    full_subgroup,
    generated_subgroup,
    quotient_group,
    trivial_subgroup,
)
from .supertheory import SuperCharacter, SuperTheory, deflation, require_s_normal


@cached
def normal_subgroups(G: GroupTable) -> tuple[SubgroupSet, ...]:
    """Every normal subgroup of G, smallest first, computed once per group.

    A normal subgroup is the product of the normal closures of the
    conjugacy classes it contains, so the lattice is the set of products
    of those closures, grown one closure at a time from {1}.
    """
    closures = {}
    for b in conjugacy_classes(G).blocks[1:]:
        C = generated_subgroup(G, b)
        closures.setdefault(C.members, C)
    found = {frozenset({0}): trivial_subgroup(G)}
    frontier = [trivial_subgroup(G)]
    while frontier:
        H = frontier.pop()
        for C in closures.values():
            if C.members <= H.members:
                continue
            members = frozenset(G.mul[h][c] for h in H.members for c in C.members)
            if members not in found:
                found[members] = SubgroupSet(G, members)
                frontier.append(found[members])
    return tuple(sorted(found.values(), key=lambda H: (len(H), H.sorted_members())))


@cached
def s_normal_subgroups(S: SuperTheory) -> tuple[SubgroupSet, ...]:
    """All subgroups that are unions of superclasses, smallest first.

    Such a subgroup is normal, since superclasses are unions of conjugacy
    classes (Diaconis-Isaacs, Trans. AMS 2008), so these are the members
    of the group's normal-subgroup lattice that the theory saturates.
    """
    return tuple(H for H in normal_subgroups(S.group) if S.is_s_normal(H))


@cached
def s_center(S: SuperTheory) -> SubgroupSet:
    """Z(S): the union of the singleton superclasses."""
    members = set()
    for b in S.yparts.blocks:
        if len(b) == 1:
            members |= b
    try:
        return SubgroupSet(S.group, members)
    except GroupConstructionError as exc:
        raise ConsistencyError("Z(S) is not a subgroup; the theory is invalid") from exc


def is_s_abelian(S: SuperTheory) -> bool:
    return len(s_center(S)) == S.group.order


@cached
def s_commutator(S: SuperTheory, H: SubgroupSet) -> SubgroupSet:
    """[H,S] = <g^-1 k : g in H, k in Cl_S(g)>.

    For H = G the result is cross-checked against the intersection of the
    kernels of the supercharacters that factor through G/[G,S].
    """
    G = S.group
    gens = set()
    for g in H.members:
        row = G.mul[G.inv[g]]
        gens.update(row[k] for k in S.superclass(g))
    W = generated_subgroup(G, gens)
    if len(H) == G.order:
        acc = set(range(G.order))
        for sigma in S.supercharacters():
            ker = super_kernel(sigma)
            if W.members <= ker.members:
                acc &= ker.members
        if frozenset(acc) != W.members:
            raise ConsistencyError("[G,S] disagrees with its kernel-intersection form")
    return W


def s_commutator_full(S: SuperTheory) -> SubgroupSet:
    """[G,S]."""
    return s_commutator(S, full_subgroup(S.group))


@cached
def super_kernel(sigma: SuperCharacter) -> SubgroupSet:
    """ker(sigma) = {g : sigma(g) = sigma(1)}; S-normal by construction and
    equal to the intersection of the classical kernels of its part."""
    S = sigma.theory
    degree = sigma.values[0]
    members = set()
    for yi, b in enumerate(S.yparts.blocks):
        if sigma.values[yi] == degree:
            members |= b
    try:
        ker = SubgroupSet(S.group, members)
    except GroupConstructionError as exc:
        raise ConsistencyError("supercharacter kernel is not a subgroup") from exc
    classical = set(range(S.group.order))
    for t in sigma.part:
        classical &= S.table.char_kernel(t).members
    if frozenset(classical) != ker.members:
        raise ConsistencyError(
            "supercharacter kernel disagrees with the classical kernel intersection"
        )
    return ker


@cached
def irr_over(S: SuperTheory, N: SubgroupSet) -> tuple[SuperCharacter, ...]:
    """Irr(S|N): supercharacters whose kernel does not contain N."""
    require_s_normal(S, N)
    return tuple(
        sigma for sigma in S.supercharacters() if not N.members <= super_kernel(sigma).members
    )


# ---------------------------------------------------------------------------
# series


@dataclass(frozen=True)
class SeriesResult:
    """A stabilized subgroup series; `term(i)` clamps past stabilization."""

    kind: str
    terms: tuple[SubgroupSet, ...]
    start_index: int
    class_index: int | None = None

    def term(self, i: int) -> SubgroupSet:
        idx = i - self.start_index
        if idx < 0:
            raise IndexError(f"{self.kind} series has no term {i}")
        return self.terms[min(idx, len(self.terms) - 1)]

    @property
    def last(self) -> SubgroupSet:
        return self.terms[-1]

    def to_json(self):
        return {
            "kind": self.kind,
            "start_index": self.start_index,
            "terms": [H.sorted_members() for H in self.terms],
            "class_index": self.class_index,
        }


@cached
def lower_series(S: SuperTheory) -> SeriesResult:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, S], until stabilization."""
    terms = [full_subgroup(S.group)]
    while True:
        nxt = s_commutator(S, terms[-1])
        if not nxt.members <= terms[-1].members:
            raise ConsistencyError("lower series failed to descend")
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return SeriesResult("lower", tuple(terms), 1)


@cached
def upper_series(S: SuperTheory) -> SeriesResult:
    """zeta_0 = 1 and zeta_i / zeta_{i-1} = Z(S^{G/zeta_{i-1}}), pulled back
    through the projection, until stabilization."""
    G = S.group
    terms = [trivial_subgroup(G)]
    while True:
        prev = terms[-1]
        defl = deflation(S, prev)
        _, proj = quotient_group(G, prev)
        zq = s_center(defl)
        nxt = SubgroupSet(G, {g for g in range(G.order) if proj[g] in zq.members})
        if not S.is_s_normal(nxt):
            raise ConsistencyError("upper series term is not S-normal")
        if nxt == prev:
            break
        terms.append(nxt)
    class_index = None
    if len(terms[-1]) == G.order:
        class_index = next(i for i, H in enumerate(terms) if len(H) == G.order)
    return SeriesResult("upper", tuple(terms), 0, class_index)


def hypercenter(S: SuperTheory) -> SubgroupSet:
    """The stabilized top of the upper series."""
    return upper_series(S).last


def s_nilpotence_class(S: SuperTheory) -> int | None:
    """Nilpotence class from the upper series, cross-checked against the
    lower series; None when the theory is not S-nilpotent."""
    up = upper_series(S)
    low = lower_series(S)
    upper_class = up.class_index
    lower_class = None
    if len(low.last) == 1:
        first_trivial = next(i for i, H in enumerate(low.terms) if len(H) == 1)
        lower_class = first_trivial + low.start_index - 1
    if S.group.order > 1 and upper_class != lower_class:
        raise ConsistencyError(
            f"upper and lower series disagree on the class: {upper_class} vs {lower_class}"
        )
    if S.group.order == 1:
        return 0
    return upper_class
