"""Flat tori with unit weights, and their closed-form Hodge spectra.

The torus is an nx-by-ny vertex grid with periodic wrap; every square
(i, j), (i+1, j), (i, j+1), (i+1, j+1) is cut along the diagonal from
(i, j) to (i+1, j+1).  Vertex (i, j) has id ``i * ny + j``.  Simplices are
listed as sorted vertex tuples in lexicographic order, the orientation and
order a JSON complex file fixes, so a cochain's entries line up with them.

Everything here is derived from the grid alone, never from hodgeheat.
"""

import cmath
import math
import random


def vertex(nx, ny, i, j):
    return (i % nx) * ny + (j % ny)


def simplices(nx, ny):
    """(vertices, edges, triangles) of the torus, each sorted."""
    edges, triangles = set(), set()
    for i in range(nx):
        for j in range(ny):
            a = vertex(nx, ny, i, j)
            b = vertex(nx, ny, i + 1, j)
            c = vertex(nx, ny, i, j + 1)
            d = vertex(nx, ny, i + 1, j + 1)
            edges.update(tuple(sorted(e)) for e in ((a, b), (a, c), (a, d)))
            triangles.update(tuple(sorted(t)) for t in ((a, b, d), (a, c, d)))
    return [(v,) for v in range(nx * ny)], sorted(edges), sorted(triangles)


def seeded_cochain(n, seed):
    """n standard normal values from the benchmark's own generator."""
    rng = random.Random(seed)
    return [rng.gauss(0.0, 1.0) for _ in range(n)]


def input_document(nx, ny, seed):
    """JSON complex document: the torus plus a seeded degree-1 cochain."""
    verts, edges, tris = simplices(nx, ny)
    return {
        "weights_default": 1.0,
        "simplices": {"0": [list(s) for s in verts],
                      "1": [list(s) for s in edges],
                      "2": [list(s) for s in tris]},
        "cochain": {"degree": 1, "values": seeded_cochain(len(edges), seed)},
    }


def degree1_spectrum(nx, ny):
    """Degree-1 Hodge spectrum, ascending, from the Fourier symbols.

    The nonzero spectrum of the degree-1 Laplacian is the union of the
    nonzero spectra of the degree-0 Laplacian (symbol
    6 - 2cos t1 - 2cos t2 - 2cos(t1 + t2)) and of the degree-2 Laplacian
    (symbol 3 -+ |1 + e^(i t1) + e^(i t2)|), with t1 = 2 pi j / nx and
    t2 = 2 pi k / ny.  Its kernel has the dimension b1 = 2.
    """
    values = [0.0, 0.0]
    for j in range(nx):
        for k in range(ny):
            t1, t2 = 2 * math.pi * j / nx, 2 * math.pi * k / ny
            m = abs(1 + cmath.exp(1j * t1) + cmath.exp(1j * t2))
            candidates = (6 - 2 * math.cos(t1) - 2 * math.cos(t2) - 2 * math.cos(t1 + t2),
                          3 - m, 3 + m)
            if j == 0 and k == 0:  # the constant modes are the kernels of degrees 0 and 2
                candidates = (3 + m,)
            values.extend(candidates)
    return sorted(values)


def incidence(faces, cofaces):
    """Signed incidence matrix d: C(faces) -> C(cofaces), as nested lists.

    The face of a sorted simplex that drops its i-th vertex has sign (-1)^i.
    """
    index = {s: n for n, s in enumerate(faces)}
    rows = []
    for s in cofaces:
        row = [0.0] * len(faces)
        for i in range(len(s)):
            row[index[s[:i] + s[i + 1:]]] = -1.0 if i % 2 else 1.0
        rows.append(row)
    return rows


# workload name -> (nx, ny, full report); the interval workload runs the
# pipeline with an empty p list, so only the stages that need no cochain run.
WORKLOADS = {
    "report-torus-12x12": (12, 12, True),
    "report-strip-48x3": (48, 3, True),
    "interval-torus-20x20": (20, 20, False),
}
