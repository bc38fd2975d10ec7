"""Write the 7-vertex graphs of diameter at most 2 as a graph6 fixture.

    python3 tools/atlas7.py [OUT]

Takes the connected 7-vertex graphs from the networkx graph atlas (one
graph per isomorphism class), keeps those of diameter at most 2, and
writes them to OUT (default ``fixtures/atlas7_diam2.g6``), one graph6
line each, in atlas order.  Exits 1 unless there are 853 connected
graphs (OEIS A001349) and 374 of them have diameter at most 2.

networkx is used by this tool only; maghom and its tests read the file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import networkx as nx

CONNECTED = 853
SMALL_DIAMETER = 374
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "fixtures" / "atlas7_diam2.g6"


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else DEFAULT_OUT
    connected = [
        g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7 and nx.is_connected(g)
    ]
    small = [g for g in connected if nx.diameter(g) <= 2]
    if (len(connected), len(small)) != (CONNECTED, SMALL_DIAMETER):
        print(
            f"error: {len(connected)} connected graphs and {len(small)} of diameter <= 2, "
            f"expected {CONNECTED} and {SMALL_DIAMETER}",
            file=sys.stderr,
        )
        return 1
    out.write_bytes(b"".join(nx.to_graph6_bytes(g, header=False) for g in small))
    print(f"wrote {len(small)} of {len(connected)} connected graphs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
