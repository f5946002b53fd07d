"""Cross-check the recursive engine against the expansion oracle.

The two computations share no code beyond the primitive layers: the
engine recurses on descent-cycling moves and cover sums, the oracle
eliminates against fixed-point restrictions.  They must agree on every
triple.

Run:  python3 demos/demo_engine_vs_oracle.py
"""

from schubertcalc import (
    lemma_cover_sweep,
    named,
    oracle_product,
    product_expansion,
    render,
    verify_sweep,
)

for label in ("A2", "B2", "G2", "A3"):
    rs = named(label)
    report = verify_sweep(rs)
    print("\n".join(report.text_lines()))
    cover = lemma_cover_sweep(rs)
    print("\n".join(cover.text_lines()))
    print()

print("A full product, via both engines:")
s3 = named("A2")
w = s3.elements()[1]
exp = product_expansion(w, w)
assert exp == oracle_product(w, w), "the engines disagree"
for u, c in exp.items():
    print(f"  S_{w.describe()} * S_{w.describe()}  has  {render(c, 'y')}  on  S_{u.describe()}")
