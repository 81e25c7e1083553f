"""Reference pendulum angles from Jacobi elliptic functions (mpmath).

This is the benchmark's truth. It shares nothing with the package under
test: no series, no RK4, no period routine, no branch folding. The
closed forms, in the package's conventions (time in units of sqrt(L/g),
energy E = omega^2/2 + 1 - cos(theta), direction +1 counterclockwise):

  libration, E < 2:  theta = d * 2 asin(k sn(K - t | k^2)),  k = sqrt(E/2)
                     (d = +1 starts at +theta_max)
  rotation,  E > 2:  theta_cw = 2 am((T* - t)/k_r | k_r^2),  k_r = sqrt(2/E),
                     T* = k_r K(k_r^2); clockwise (d = -1) is theta_cw and
                     counterclockwise is 2 pi - theta_cw
  separatrix, E = 2: theta = d * (4 atan(e^t) - pi)

am(u | m) is atan2(sn, cn) plus 2 pi floor((u + 2K) / 4K), which unwinds
the branch of atan2 once per period 4K of sn.

The angular velocity follows from the same functions: -2 d k cn(K - t)
for libration, -(2/k_r) dn((T* - t)/k_r) for clockwise rotation, and
2 d sech(t) on the separatrix.

Run as a script it answers one request on standard input, a JSON object
{"orbits": [[energy, direction, [t, ...]], ...],
 "phase": [[energy, direction, t], ...]}, with
{"theta": [[theta, ...], ...], "phase": [[theta, omega], ...]} on
standard output. The benchmark runs it in a child process so that
mpmath never enters the measured process.
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

_DPS = 30


def theta_ref(energy: float, direction: int, times) -> list[float]:
    """theta(t) of the orbit (energy, direction) at each t, as floats."""
    with mp.workdps(_DPS):
        e = mp.mpf(energy)
        if energy == 2.0:
            return [float(direction * (4 * mp.atan(mp.exp(t)) - mp.pi)) for t in times]
        if energy < 2.0:
            m = e / 2
            k = mp.sqrt(m)
            big_k = mp.ellipk(m)
            return [float(direction * 2 * mp.asin(k * mp.ellipfun("sn", big_k - t, m=m)))
                    for t in times]
        m = 2 / e
        k_r = mp.sqrt(m)
        big_k = mp.ellipk(m)
        t_star = k_r * big_k
        out = []
        for t in times:
            u = (t_star - mp.mpf(t)) / k_r
            sn = mp.ellipfun("sn", u, m=m)
            cn = mp.ellipfun("cn", u, m=m)
            am = mp.atan2(sn, cn) + 2 * mp.pi * mp.floor((u + 2 * big_k) / (4 * big_k))
            theta_cw = 2 * am
            out.append(float(theta_cw if direction < 0 else 2 * mp.pi - theta_cw))
        return out


def phase_ref(energy: float, direction: int, t: float) -> tuple[float, float]:
    """(theta, omega) of the orbit (energy, direction) at time t."""
    theta = theta_ref(energy, direction, [t])[0]
    with mp.workdps(_DPS):
        e = mp.mpf(energy)
        if energy == 2.0:
            return theta, float(direction * 2 * mp.sech(t))
        if energy < 2.0:
            m = e / 2
            big_k = mp.ellipk(m)
            return theta, float(-direction * 2 * mp.sqrt(m) * mp.ellipfun("cn", big_k - t, m=m))
        m = 2 / e
        k_r = mp.sqrt(m)
        u = (k_r * mp.ellipk(m) - mp.mpf(t)) / k_r
        omega_cw = -2 * mp.ellipfun("dn", u, m=m) / k_r
        return theta, float(omega_cw if direction < 0 else -omega_cw)


def main() -> int:
    request = json.load(sys.stdin)
    theta = [theta_ref(e, d, ts) for e, d, ts in request.get("orbits", [])]
    phase = [phase_ref(e, d, t) for e, d, t in request.get("phase", [])]
    json.dump({"theta": theta, "phase": phase}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
