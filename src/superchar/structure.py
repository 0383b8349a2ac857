"""Structural apparatus on top of a supercharacter theory.

S-normal subgroups, the center Z(S) and commutator [H,S], supercharacter
kernels, the upper and lower central series, nilpotence, and hypercenter.
Every subgroup here is normal, so none is built: each is looked up in the
group's normal-subgroup lattice by its bitmask or as a closure.  The
identities relating these values are theorems (L-comker, L-superker,
L-nilclass), evaluated by their checkers in `verifier`.  ConsistencyError
is raised only where a value would not exist: Z(S) or a supercharacter
kernel that is not a subgroup, a commutator series that fails to descend
(it would never stop), or an upper series term that is not a subgroup.
"""

from __future__ import annotations

from .errors import ConsistencyError, GroupConstructionError
from .groups import (
    SubgroupSet,
    cached,
    element_mask,
    full_subgroup,
    normal_closure,
    normal_subgroup,
    normal_subgroups,
    trivial_subgroup,
)
from .supertheory import SuperCharacter, SuperTheory, require_s_normal


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
    mask = sum(m for m, b in zip(S.block_masks(), S.yparts.blocks) if len(b) == 1)
    try:
        return normal_subgroup(S.group, mask)
    except GroupConstructionError as exc:
        raise ConsistencyError("Z(S) is not a subgroup; the theory is invalid") from exc


def is_s_abelian(S: SuperTheory) -> bool:
    return len(s_center(S)) == S.group.order


@cached
def s_commutator(S: SuperTheory, H: SubgroupSet) -> SubgroupSet:
    """[H,S] = <g^-1 k : g in H, k in Cl_S(g)> for normal H, whose
    generators are then closed under conjugation.  That [G,S] is the
    intersection of the supercharacter kernels containing it is L-comker."""
    G = S.group
    gens = element_mask(G.mul[G.inv[g]][k] for g in H.members for k in S.superclass(g))
    return normal_closure(G, gens)


def s_commutator_full(S: SuperTheory) -> SubgroupSet:
    """[G,S]."""
    return s_commutator(S, full_subgroup(S.group))


@cached
def super_kernel(sigma: SuperCharacter) -> SubgroupSet:
    """ker(sigma) = {g : sigma(g) = sigma(1)}; S-normal by construction.
    That it is the intersection of the classical kernels of its part is
    L-superker."""
    S = sigma.theory
    degree = sigma.values[0]
    mask = sum(m for m, v in zip(S.block_masks(), sigma.values) if v == degree)
    try:
        return normal_subgroup(S.group, mask)
    except GroupConstructionError as exc:
        raise ConsistencyError("supercharacter kernel is not a subgroup") from exc


@cached
def _differences(S: SuperTheory) -> tuple[int, ...]:
    """The mask of g^-1 Cl_S(g) for each element g: the differences a
    transversal test needs, and gN is a singleton superclass of S^{G/N}
    exactly when N holds those of g."""
    G = S.group
    return tuple(element_mask(G.mul[G.inv[g]][y] for y in S.superclass(g)) for g in range(G.order))


@cached
def irr_over(S: SuperTheory, N: SubgroupSet) -> tuple[SuperCharacter, ...]:
    """Irr(S|N): supercharacters whose kernel does not contain N."""
    require_s_normal(S, N)
    return tuple(sigma for sigma in S.supercharacters() if N.mask & ~super_kernel(sigma).mask)


# ---------------------------------------------------------------------------
# series


class SeriesResult:
    """A stabilized subgroup series; `term(i)` clamps past stabilization."""

    __slots__ = ("kind", "terms", "start_index", "class_index")

    def __init__(self, kind: str, terms: tuple[SubgroupSet, ...], start_index: int,
                 class_index: int | None = None):
        self.kind, self.terms, self.start_index, self.class_index = kind, terms, start_index, class_index

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


def commutator_series(S: SuperTheory, first: SubgroupSet, kind: str) -> SeriesResult:
    """first, [first, S], [[first, S], S], ... until stabilization."""
    terms = [first]
    while True:
        nxt = s_commutator(S, terms[-1])
        if not nxt.members <= terms[-1].members:
            raise ConsistencyError(f"{kind} series failed to descend")
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return SeriesResult(kind, tuple(terms), 1)


@cached
def lower_series(S: SuperTheory) -> SeriesResult:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, S], until stabilization."""
    return commutator_series(S, full_subgroup(S.group), "lower")


@cached
def upper_series(S: SuperTheory) -> SeriesResult:
    """zeta_0 = 1 and zeta_i / zeta_{i-1} = Z(S^{G/zeta_{i-1}}), until
    stabilization.  gN is a singleton superclass of S^{G/N} exactly when
    Cl_S(g) lies in gN, so zeta_i = {g : g^-1 Cl_S(g) <= zeta_{i-1}},
    read off G with no quotient built."""
    G = S.group
    terms = [trivial_subgroup(G)]
    while True:
        prev = terms[-1]
        mask = element_mask(g for g, d in enumerate(_differences(S)) if not d & ~prev.mask)
        try:
            nxt = normal_subgroup(G, mask)
        except GroupConstructionError as exc:
            raise ConsistencyError("upper series term is not a subgroup") from exc
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
    """Nilpotence class: the first i with zeta_i = G, so 0 on the trivial
    group; None when the theory is not S-nilpotent.  That the lower series
    gives the same class is L-nilclass."""
    return upper_series(S).class_index
