"""Invariant-indexed search for diffeomorphisms across families.

Profiles are indexed by (type, order, canonical s-triple), where the
canonical triple is the lexicographically smaller of the triple and its
negation — so one lookup finds matches in both orientations.  This
script enumerates the positively curved parameter spaces of small order,
matches them against a sphere-bundle grid, and then scans the circle
family at the catalog's own bounds.  Both searches go through
`find_matches`, which builds a profile only for the entries whose
s-triple (up to sign) occurs on both sides, found on integers first.

Run:  python3 demos/05_cross_family_search.py
"""

from kreckstolz import (
    circle_source,
    enumerate_positively_curved,
    eschenburg_descriptor,
    find_matches,
    fixture_source,
    invariants,
    load_fixtures,
    render_matches_text,
    sphere_source,
)

# ---------------------------------------------------------------------------
# Enumerate small positively curved parameter spaces.
# ---------------------------------------------------------------------------

spaces = enumerate_positively_curved(30)
print(f"positively curved parameter spaces with r < 30: {len(spaces)}")
for space in spaces:
    inv = invariants(space)
    print(f"  {eschenburg_descriptor(space)}  r={inv.r}  s={inv.s_signed}  p1={inv.p1}")
print()

# ---------------------------------------------------------------------------
# Match the catalog's order-3 entry against every sphere bundle in one
# period: the two residue classes of demo 03 reappear as match records.
# ---------------------------------------------------------------------------

fixtures = load_fixtures()
records = find_matches(fixture_source(fixtures), sphere_source(3, 0, 504))
print("catalog vs sphere grid of order 3 (one full period):")
print(render_matches_text(records))

# ---------------------------------------------------------------------------
# The circle-bundle scan at the catalog bounds: |a|, |b| <= 1000 over the
# four orders of table B.  The catalog lists the order-41 space twice (both
# tables mention it, with opposite orientations), so deduplicate by
# parameter descriptor first; each line would otherwise contribute its own
# copy of every match.  Exactly the five tabulated bundles then appear,
# each in four presentations (parameter swap and global sign).  A match
# needs equal orders, so each catalog space is searched against the grid
# of its own order only.
# ---------------------------------------------------------------------------

unique = {}
for fx in fixtures:
    unique.setdefault(eschenburg_descriptor(fx.space), fx)
print(f"catalog entries: {len(fixtures)}; distinct parameter sets: {len(unique)}")
grids = {r: circle_source(r, 1000) for r in (17, 25, 33, 41)}
print(f"circle-family grid size over orders 17/25/33/41: {sum(len(g.params) for g in grids.values())}")
records = []
for fx in unique.values():
    r = invariants(fx.space).r
    if r in grids:
        records.extend(find_matches(fixture_source([fx]), grids[r]))
print(render_matches_text(records))
print(f"{len(records)} match records = 5 tabulated bundles x 4 presentations")
