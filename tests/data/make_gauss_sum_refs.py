"""Write the reference values of tests/data/gauss_sum_refs.json.

    python tests/data/make_gauss_sum_refs.py CASES.json

CASES.json is any file shaped like gauss_sum_refs.json: a "cases" list
whose entries give a label, y and z as [float.hex(re), float.hex(im)],
and an order range m_from..m_to.  Only those fields are read; every
value is recomputed and the result is written to gauss_sum_refs.json
next to this script, one case per line.

For each order m the script stores either the class name of the
refusal the Gauss-sum walk must raise there -- "DenominatorPole" when some
(z)_n, n <= m, has magnitude below 1e-300 -- or three decimal strings:
the real and imaginary parts of 2F1(-m, y; z; 2) to 60 significant
digits, and mass_min to 6.  The value is the direct sum of the m + 1
exact terms, carried by mpmath at 60 digits plus the digits its
cancellation costs (mp.hyp2f1 is not used: it fails to converge where
the value is about 1e-15).  The connection form to argument -1 and both
Pfaff partners are summed at the same precision and must agree with it
to 50 digits, which checks the identities the kernel rests on.
mass_min is the least mass of the four forms the kernel may use: the
sum of the term magnitudes times the prefactor magnitude, with a
connection form left out where the kernel skips it, that is where
z - b lies within 1e-12 of one of 0, -1, ..., 1 - m.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

_POLE_GUARD = mp.mpf("1e-12")
_UNDERFLOW_FLOOR = mp.mpf("1e-300")
_DIGITS = 60


def _argument_two(m, b, z):
    term = total = mp.mpc(1)
    mass = mp.mpf(1)
    for n in range(m):
        term *= 2 * (n - m) * (b + n) / ((n + 1) * (z + n))
        total += term
        mass += abs(term)
    return mass, total


def _connection(m, b, z):
    zb = z - b
    nearest = int(mp.nint(zb.real))
    if -m < nearest <= 0 and abs(zb - nearest) < _POLE_GUARD:
        return mp.inf, None
    ratio = mp.mpc(1)
    for n in range(m):
        ratio *= (zb + n) / (z + n)
    term = total = mp.mpc(1)
    mass = mp.mpf(1)
    for j in range(m):
        term *= (m - j) * (b + j) / ((j + 1) * ((1 - m + j) - zb))
        total += term
        mass += abs(term)
    return mass * abs(ratio), ratio * total


def _refused(m, z) -> bool:
    poch = mp.mpc(1)
    for n in range(m):
        poch *= z + n
        if abs(poch) < _UNDERFLOW_FLOOR:
            return True
    return False


def reference(m: int, y: complex, z: complex):
    """[re, im, mass_min] strings of 2F1(-m, y; z; 2), or the refusal."""
    mp.mp.dps = 30
    y, z = mp.mpc(y), mp.mpc(z)
    if _refused(m, z):
        return "DenominatorPole"
    sign = -1 if m % 2 else 1
    # the term mass bounds the digits the direct sum cancels
    mass2 = _argument_two(m, y, z)[0]
    mp.mp.dps = _DIGITS + 20 + max(0, int(mp.log10(mass2)))
    y, z = mp.mpc(y), mp.mpc(z)
    w = z - y
    direct = _argument_two(m, y, z)
    pfaff = _argument_two(m, w, z)
    forms = [direct, (pfaff[0], sign * pfaff[1])]
    for b, s in ((y, 1), (w, sign)):
        mass, value = _connection(m, b, z)
        forms.append((mass, None if value is None else s * value))
    value = direct[1]
    for _, other in forms[1:]:
        if other is not None and abs(other - value) > mp.mpf(10) ** -50 * max(abs(value), 1):
            raise SystemExit(f"forms disagree at m={m}, y={y}, z={z}")
    mass_min = min(mass for mass, _ in forms)
    return [mp.nstr(value.real, _DIGITS), mp.nstr(value.imag, _DIGITS), mp.nstr(mass_min, 6)]


def main(path: str) -> None:
    cases = json.loads(Path(path).read_text())["cases"]
    lines = []
    for case in cases:
        y = complex(*map(float.fromhex, case["y"]))
        z = complex(*map(float.fromhex, case["z"]))
        values = [reference(m, y, z) for m in range(case["m_from"], case["m_to"] + 1)]
        out = {key: case[key] for key in ("label", "y", "z", "m_from", "m_to")}
        out["values"] = values
        lines.append(json.dumps(out))
    target = Path(__file__).with_name("gauss_sum_refs.json")
    target.write_text('{"cases": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    main(sys.argv[1])
