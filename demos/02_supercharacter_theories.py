"""Enumerating supercharacter theories and moving them around.

A supercharacter theory is a pair of partitions: one of the irreducible
characters, one of the group elements, with the sigma-characters constant
on every element block.  Enumeration searches the partitions of the
conjugacy classes that form central Schur rings, which correspond one to
one with the theories; each one found is derived and validated exactly.
"""

from superchar import (
    catalog_group,
    character_table_of,
    deflation,
    enumerate_scts,
    generated_subgroup,
    SubgroupSet,
)

# --- enumeration ------------------------------------------------------------

for name in ("C2", "S3", "C4", "Q8"):
    table = character_table_of(catalog_group(name))
    theories = enumerate_scts(table)
    print(f"{name}: {len(theories)} supercharacter theories")
    for S in theories:
        shapes = sorted(len(p) for p in S.xparts)
        print(f"   parts {S.n_parts}, x-part sizes {shapes}")
print()

# --- a closer look at C4 ----------------------------------------------------

c4 = catalog_group("C4")
for S in enumerate_scts(character_table_of(c4)):
    print(S.to_text())

# --- induced theories -------------------------------------------------------

s3 = catalog_group("S3")
S = enumerate_scts(character_table_of(s3))[0]  # finest
a3 = generated_subgroup(s3, [3])

D = deflation(S, a3)
print("deflation to S3/A3:")
print(D.to_text())

q8 = catalog_group("Q8")
Sq = enumerate_scts(character_table_of(q8))[0]
center = SubgroupSet(q8, [0, 1])
print("deflation of the finest theory of Q8 by its center (a Klein four group):")
print(deflation(Sq, center).to_text())
