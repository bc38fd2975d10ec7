"""Reference definitions that the tests check the library against.

They restate the magnitude-complex rules in the plainest form, one tuple
at a time; the library computes the same things inline and in bulk.
"""


def sequence_length(g, points):
    """Sum of consecutive distances along the tuple."""
    return sum(g.dist[points[i]][points[i + 1]] for i in range(len(points) - 1))


def is_smooth(g, points, i):
    """Deleting position i preserves the length (0 < i < len-1 assumed)."""
    d = g.dist
    return d[points[i - 1]][points[i + 1]] == (
        d[points[i - 1]][points[i]] + d[points[i]][points[i + 1]]
    )
