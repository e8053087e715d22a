"""Timing references for the in-process workloads: fixed stdlib code, no deltacomb.

Each op is timed between two runs of its workload's reference, and reported
as op time / mean reference time.  A shared VM slows different code by
different amounts (a tight float loop far less than code that calls small
functions, allocates tuples and formats floats), so each reference does the
same kind of work as its workload's ops, for half to all of an op's time:

* sweep-energy: this package's own Gauss-Legendre quadrature of the
  closed-form energy integrand for fixed couplings;
* bands-grid: a scan-and-bisect root search of the closed-form secular
  function of a fixed comb over a theta grid, written out as CSV.

The code here is identical on every commit of the library, so the ratio moves
only when deltacomb's own time does.
"""

from __future__ import annotations

import csv
import io
import math

from checks import reference_energy, secular


def reference_sweep() -> float:
    """Energies of five fixed combs by the stdlib reference quadrature."""
    return sum(reference_energy(gamma, omega, a)[0]
               for gamma, omega, a in ((0.5, -0.5, 1.0), (2.0, 0.3, 1.0), (1e-3, -1.0, 1.0),
                                       (4.0, 0.7, 0.3), (0.0, 0.0, 2.0)))


def reference_bands(n_theta: int = 100, n_roots: int = 8) -> int:
    """First n_roots zeros of a fixed comb's secular function on n_theta phases, as CSV."""
    gamma, omega, a = 1.7, -0.4, 1.0
    step = math.pi / (8.0 * a)
    rows = []
    for t in range(n_theta):
        theta = -math.pi + 2.0 * math.pi * t / (n_theta - 1)

        def g(k):
            return secular(k, theta, gamma, omega, a)

        lo, f_lo = 1e-9, g(1e-9)
        while len(rows) < (t + 1) * n_roots:
            hi = lo + step
            f_hi = g(hi)
            if (f_lo > 0) != (f_hi > 0):
                x0, x1, f0 = lo, hi, f_lo
                while x1 - x0 > 1e-12 * x1:
                    mid = 0.5 * (x0 + x1)
                    f_mid = g(mid)
                    if (f_mid > 0) == (f0 > 0):
                        x0, f0 = mid, f_mid
                    else:
                        x1 = mid
                rows.append((len(rows) % n_roots, theta, 0.5 * (x0 + x1)))
            lo, f_lo = hi, f_hi
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for band, theta, k in rows:
        writer.writerow([band, repr(theta), repr(k)])
    return len(buf.getvalue())


# cold-cli times its ops against a reference interpreter (workloads.REF_CODE);
# its in-process traced replay uses the sweep reference.
REFERENCES = {"cold-cli": reference_sweep, "sweep-energy": reference_sweep, "bands-grid": reference_bands}
