"""Level-N structure: relation ideals, eliminants, and ring degrees.

For each level N the kernel of the level-N genus is cut out by two
relations R_{N-1}, R_{N+1}; the script prints them in both coordinate
systems, eliminates A, and checks h0 = N^2 - 1.
"""

from ellgenus.level_n import (
    GradedIdealPresentation,
    compute_level_data,
    degree_h0,
    eliminant,
    eliminate,
)

for N in (2, 3, 4):
    data = compute_level_data(N)
    print(f"level N = {N}")
    print(f"  R_{N - 1} = {data.r_lower}")
    print(f"  R_{N + 1} = {data.r_upper}")
    print(f"  in quartic coordinates: {data.r_lower_q()}  ;  "
          f"{data.r_upper_q()}")
    print(f"  eliminant (A removed): {eliminate(data).monic()}")
    res_q = eliminant(data.r_lower_q(), data.r_upper_q())
    print(f"  eliminant (q-coords):  {res_q.monic()}")
    pres = GradedIdealPresentation((1, 2, 3, 4), (N - 1, N + 1))
    h0 = degree_h0(pres)
    print(f"  h0 = {h0} (expect N^2 - 1 = {N * N - 1})")
    assert h0 == N * N - 1
    print()
