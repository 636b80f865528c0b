"""The 40-digit mpmath reference for the closed form, shared by the test files.

It evaluates log R = log(kappa / sinh kappa) + log(sin z / z), z^2 = w, from
the same double inputs the library sees, so a comparison measures the
library's arithmetic and dispatch, not input rounding. It shares no code with
the library.
"""

import mpmath as mp


def reference_log(cluster, d, wavelength):
    """40-digit log R from the cluster's angles and the double displacement."""
    with mp.workdps(40):
        phi, psi = mp.mpf(cluster.mu_phi), mp.mpf(cluster.mu_psi)
        mean = (mp.cos(phi) * mp.cos(psi), mp.sin(phi) * mp.cos(psi), mp.sin(psi))
        d = [mp.mpf(float(c)) for c in d]
        k0 = 2 * mp.pi / mp.mpf(wavelength)
        kappa = mp.mpf(cluster.kappa)
        w = (k0**2 * sum(c * c for c in d) - kappa**2
             - 2j * kappa * k0 * sum(m * c for m, c in zip(mean, d)))
        log_r = mp.mpc(0) if kappa == 0 else mp.mpc(mp.log(kappa / mp.sinh(kappa)))
        if w != 0:
            z = mp.sqrt(w)
            log_r += mp.log(mp.sin(z) / z)
        return log_r


def relative_error(value, cluster, d, wavelength) -> float:
    """|value - R| / |R| against the 40-digit R."""
    with mp.workdps(40):
        reference = mp.exp(reference_log(cluster, d, wavelength))
        return float(abs(mp.mpc(value) - reference) / abs(reference))
