"""Independent oracles used to cross-check the library.

Every routine here deliberately takes a different algebraic route than the
package code:

* ``oracle_cg`` evaluates Racah's direct Clebsch-Gordan sum (the package
  computes the 3-j sum and bridges to CG).
* ``oracle_3j`` bridges from ``oracle_cg`` (the inverse direction).
* ``oracle_6j`` contracts four 3-j symbols over all magnetic quantum
  numbers, the defining sum (the package evaluates the closed Racah series).
* ``oracle_3j_exact`` / ``oracle_6j_exact`` sum the same Racah series as
  the package, but term by term in ``fractions.Fraction`` (the package sums
  integers over one common denominator and reduces once); they pin the
  exact ``(sign, radicand)`` forms, not the formulas.
* ``oracle_3j_classes`` / ``oracle_6j_classes`` count symmetry classes by
  enumerating every image of every argument tuple and collecting the
  orbits (the package maps each tuple to one canonical member).
* ``oracle_dipole`` expands hyperfine states over |m_I, m_J> products,
  coupling the nuclear spin first, and applies the electronic Wigner-Eckart
  theorem directly (the package uses the 6-j decomposition).
* ``oracle_entropy_bits`` / ``oracle_schmidt_sq`` use numpy's LAPACK SVD
  (the package solves each F block's 2 x 2 Gram eigenproblem in closed form).
* ``oracle_correlation`` enumerates projective outcome probabilities
  (the package contracts a Pauli correlation matrix).
* ``oracle_sampled_events`` replays the documented random stream in plain
  Python and inverts each trial's uniform with ``bisect`` (the package
  compares whole chunks against each cumulative bound);
  ``oracle_raw_stream_codes`` derives the same trials from the bit
  generator's raw 64-bit words alone, with no ``Generator`` method;
  ``events_csv_text``
  writes the events with the ``csv`` module from the labels (the package
  fills byte matrices from a padded tail table).
* ``wigner_d`` evaluates Wigner's closed formula for the rotation matrix
  D^j (the package never rotates a state; the rotation-covariance test uses
  it to rotate the condensate).
* ``scan_to_json_doc`` / ``oracle_scan_json`` / ``oracle_scan_csv`` build a
  scan's whole document as Python objects and serialize it with
  ``json.dumps`` and the ``csv`` module (the package formats each distinct
  number of a chunk once and joins the strings chunk by chunk).
* ``oracle_scan_rows`` writes a chunk's CSV lines and JSON arrays from a
  ``repr`` of every value of every column, one number at a time (the
  package formats each distinct bit pattern once and gathers the strings).

All angular-momentum arguments are doubled integers.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import io
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


@lru_cache(maxsize=200_000)
def oracle_cg(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    """<j1 m1 j2 m2 | J M> by Racah's direct summation formula."""
    if tm1 + tm2 != tm:
        return 0.0
    if (tj1 + tj2 + tj) % 2 != 0 or not (abs(tj1 - tj2) <= tj <= tj1 + tj2):
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0

    kmin = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    kmax = min(
        (tj1 + tj2 - tj) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
    )
    if kmin > kmax:
        return 0.0
    series = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            _fact(k)
            * _fact((tj1 + tj2 - tj) // 2 - k)
            * _fact((tj1 - tm1) // 2 - k)
            * _fact((tj2 + tm2) // 2 - k)
            * _fact((tj - tj2 + tm1) // 2 + k)
            * _fact((tj - tj1 - tm2) // 2 + k)
        )
        series += Fraction((-1) ** k, denom)
    if series == 0:
        return 0.0
    prefactor = Fraction(
        (tj + 1)
        * _fact((tj1 + tj2 - tj) // 2)
        * _fact((tj1 - tj2 + tj) // 2)
        * _fact((-tj1 + tj2 + tj) // 2),
        _fact((tj1 + tj2 + tj) // 2 + 1),
    ) * Fraction(
        _fact((tj + tm) // 2)
        * _fact((tj - tm) // 2)
        * _fact((tj1 - tm1) // 2)
        * _fact((tj1 + tm1) // 2)
        * _fact((tj2 - tm2) // 2)
        * _fact((tj2 + tm2) // 2)
    )
    sign = 1 if series > 0 else -1
    return sign * math.sqrt(float(prefactor * series**2))


def oracle_3j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    """3-j from the CG oracle through the inverse bridge identity."""
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    cg = oracle_cg(tj1, tm1, tj2, tm2, tj3, -tm3)
    if cg == 0.0:
        return 0.0
    phase = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    return phase * cg / math.sqrt(tj3 + 1.0)


def _oracle_triangle(ta: int, tb: int, tc: int) -> Fraction:
    return Fraction(
        _fact((ta + tb - tc) // 2) * _fact((ta - tb + tc) // 2) * _fact((-ta + tb + tc) // 2),
        _fact((ta + tb + tc) // 2 + 1),
    )


def oracle_3j_exact(
    tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int
) -> tuple[int, Fraction]:
    """(sign, radicand) of the 3-j symbol, the Racah series summed in Fractions."""
    if tm1 + tm2 + tm3 != 0:
        return 0, Fraction(0)
    if not (abs(tj1 - tj2) <= tj3 <= tj1 + tj2) or (tj1 + tj2 + tj3) % 2 != 0:
        return 0, Fraction(0)
    t1 = (tj2 - tj3 - tm1) // 2
    t2 = (tj1 - tj3 + tm2) // 2
    t3 = (tj1 + tj2 - tj3) // 2
    t4 = (tj1 - tm1) // 2
    t5 = (tj2 + tm2) // 2
    series = Fraction(0)
    for t in range(max(0, t1, t2), min(t3, t4, t5) + 1):
        denom = (
            _fact(t) * _fact(t - t1) * _fact(t - t2) * _fact(t3 - t) * _fact(t4 - t) * _fact(t5 - t)
        )
        series += Fraction(-1 if t % 2 else 1, denom)
    if series == 0:
        return 0, Fraction(0)
    radicand = series**2 * _oracle_triangle(tj1, tj2, tj3)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        radicand *= _fact((tj + tm) // 2) * _fact((tj - tm) // 2)
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return phase * (1 if series > 0 else -1), radicand


def oracle_6j_exact(
    tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int
) -> tuple[int, Fraction]:
    """(sign, radicand) of the 6-j symbol, the Racah series summed in Fractions."""
    triads = ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3))
    for ta, tb, tc in triads:
        if (ta + tb + tc) % 2 != 0 or not (abs(ta - tb) <= tc <= ta + tb):
            return 0, Fraction(0)
    s = [(ta + tb + tc) // 2 for ta, tb, tc in triads]
    p = [(tj1 + tj2 + tj4 + tj5) // 2, (tj2 + tj3 + tj5 + tj6) // 2, (tj3 + tj1 + tj6 + tj4) // 2]
    series = Fraction(0)
    for t in range(max(s), min(p) + 1):
        denom = math.prod(_fact(t - si) for si in s) * math.prod(_fact(pk - t) for pk in p)
        series += Fraction(-_fact(t + 1) if t % 2 else _fact(t + 1), denom)
    if series == 0:
        return 0, Fraction(0)
    radicand = series**2
    for triad in triads:
        radicand *= _oracle_triangle(*triad)
    return (1 if series > 0 else -1), radicand


def oracle_3j_classes(rows) -> int:
    """Number of classes among 3-j argument tuples (2j1, 2j2, 2j3, 2m1, 2m2,
    2m3) under the 12 classical symmetries: each orbit is every column
    permutation of the tuple and of its m-reversed image."""
    orbits = set()
    for tj1, tj2, tj3, tm1, tm2, tm3 in rows:
        orbits.add(
            frozenset(
                image
                for ms in ((tm1, tm2, tm3), (-tm1, -tm2, -tm3))
                for image in itertools.permutations(zip((tj1, tj2, tj3), ms))
            )
        )
    return len(orbits)


def oracle_6j_classes(rows) -> int:
    """Number of classes among 6-j argument tuples {2j1 2j2 2j3; 2j4 2j5 2j6}
    under the 24 classical symmetries: each orbit is every column
    permutation, with upper and lower exchanged in no column or in two."""
    orbits = set()
    for tj1, tj2, tj3, tj4, tj5, tj6 in rows:
        columns = ((tj1, tj4), (tj2, tj5), (tj3, tj6))
        orbits.add(
            frozenset(
                tuple(column[::-1] if flip else column for column, flip in zip(perm, flips))
                for perm in itertools.permutations(columns)
                for flips in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
            )
        )
    return len(orbits)


def oracle_6j(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int) -> float:
    """6-j as the defining contraction of four 3-j symbols over all m."""
    total = 0.0
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            f1 = oracle_3j(tj1, tj2, tj3, -tm1, -tm2, -tm3)
            if f1 == 0.0:
                continue
            for tm4 in range(-tj4, tj4 + 1, 2):
                tm5 = tm4 - tm3  # from the fourth symbol: -m4 + m5 + m3 = 0
                if abs(tm5) > tj5:
                    continue
                tm6 = tm5 - tm1  # from the second symbol: m1 - m5 + m6 = 0
                if abs(tm6) > tj6:
                    continue
                f2 = oracle_3j(tj1, tj5, tj6, tm1, -tm5, tm6)
                if f2 == 0.0:
                    continue
                f3 = oracle_3j(tj4, tj2, tj6, tm4, tm2, -tm6)
                if f3 == 0.0:
                    continue
                f4 = oracle_3j(tj4, tj5, tj3, -tm4, tm5, tm3)
                if f4 == 0.0:
                    continue
                exponent = (
                    (tj1 - tm1)
                    + (tj2 - tm2)
                    + (tj3 - tm3)
                    + (tj4 - tm4)
                    + (tj5 - tm5)
                    + (tj6 - tm6)
                ) // 2
                sign = -1.0 if exponent % 2 else 1.0
                total += sign * f1 * f2 * f3 * f4
    return total


def oracle_dipole(
    t_i: int,
    t_jg: int,
    t_je: int,
    t_fe: int,
    t_me: int,
    t_fg: int,
    t_mg: int,
    q: int,
    reduced: float = 1.0,
) -> float:
    """<F m|e r . eps_q|F' m'> by explicit |m_I, m_J> uncoupling.

    Hyperfine states couple the nuclear spin first, |(I J) F m>, and the
    electronic matrix element is <J_e mJ|er_q|J_g mJ'> = D <J_e mJ|J_g 1 mJ' q>.
    """
    total = 0.0
    for t_mi in range(-t_i, t_i + 1, 2):
        t_mj_e = t_me - t_mi
        t_mj_g = t_mg - t_mi
        if abs(t_mj_e) > t_je or abs(t_mj_g) > t_jg:
            continue
        a = oracle_cg(t_i, t_mi, t_je, t_mj_e, t_fe, t_me)
        if a == 0.0:
            continue
        b = oracle_cg(t_i, t_mi, t_jg, t_mj_g, t_fg, t_mg)
        if b == 0.0:
            continue
        el = oracle_cg(t_jg, t_mj_g, 2, 2 * q, t_je, t_mj_e)
        total += a * b * el
    return reduced * total


_ORACLE_SPHERICAL = {
    -1: np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0),
    0: np.array([0.0, 0.0, 1.0], dtype=complex),
    +1: np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0),
}


def oracle_branch_amplitudes(
    t_i: int,
    t_jg: int,
    t_je: int,
    deltas: dict[int, float],
    pol_out: np.ndarray,
    pol_pump: np.ndarray,
    phi0: dict[tuple[int, int], complex],
) -> dict[tuple[int, int], complex]:
    """Unnormalized scattered-atom amplitudes by direct summation.

    amp(F, m) = sum_(F'm') sum_(F''m'') sum_(q, q')
                conj((eps_q* . pol_out) dip(F''m'', Fm, q))
                (eps_q'* . pol_pump) dip(F''m'', F'm', q') / Delta(F')
                phi0(F'm')

    built entirely from ``oracle_dipole`` and explicit spherical overlaps;
    ``deltas`` maps each doubled ground F' to its detuning.
    """
    ground_fs = range(abs(t_i - t_jg), t_i + t_jg + 1, 2)
    excited_fs = range(abs(t_i - t_je), t_i + t_je + 1, 2)
    out_overlap = {
        q: complex(np.vdot(_ORACLE_SPHERICAL[q], pol_out)) for q in (-1, 0, +1)
    }
    pump_overlap = {
        q: complex(np.vdot(_ORACLE_SPHERICAL[q], pol_pump)) for q in (-1, 0, +1)
    }
    result: dict[tuple[int, int], complex] = {}
    for t_fg in ground_fs:
        for t_mg in range(-t_fg, t_fg + 1, 2):
            total = 0.0 + 0.0j
            for (t_fi, t_mi), amp0 in phi0.items():
                for t_fe in excited_fs:
                    for t_me in range(-t_fe, t_fe + 1, 2):
                        g_out = sum(
                            out_overlap[q]
                            * oracle_dipole(t_i, t_jg, t_je, t_fe, t_me, t_fg, t_mg, q)
                            for q in (-1, 0, +1)
                        )
                        if g_out == 0.0:
                            continue
                        g_in = sum(
                            pump_overlap[q]
                            * oracle_dipole(t_i, t_jg, t_je, t_fe, t_me, t_fi, t_mi, q)
                            for q in (-1, 0, +1)
                        )
                        if g_in == 0.0:
                            continue
                        total += np.conj(g_out) * g_in / deltas[t_fi] * amp0
            if total != 0.0:
                result[(t_fg, t_mg)] = complex(total)
    return result


def oracle_schmidt_sq(matrix: np.ndarray) -> np.ndarray:
    """Squared Schmidt coefficients via LAPACK, descending, zeros dropped."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    s = s[s > 1e-15]
    return s**2


def oracle_entropy_bits(matrix: np.ndarray) -> float:
    p = oracle_schmidt_sq(matrix)
    return float(-(p * np.log2(p)).sum())


# Outcome index -> (photon, atom) outcomes, and setting index -> (photon,
# atom) analyzer labels, as the events CSV spells them.
EVENT_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
EVENT_SETTINGS = (("a", "b"), ("a", "b_prime"), ("a_prime", "b"), ("a_prime", "b_prime"))


def oracle_outcome_probabilities(matrix: np.ndarray, a: float, b: float) -> list[float]:
    """The four projective outcome probabilities, in ``EVENT_OUTCOMES`` order."""
    u = {
        +1: np.array([math.cos(a), math.sin(a)]),
        -1: np.array([-math.sin(a), math.cos(a)]),
    }
    v = {
        +1: np.array([math.cos(b), math.sin(b)]),
        -1: np.array([-math.sin(b), math.cos(b)]),
    }
    matrix = np.asarray(matrix)
    return [float(abs(u[s_out] @ matrix @ v[t_out]) ** 2) for s_out, t_out in EVENT_OUTCOMES]


def oracle_correlation(matrix: np.ndarray, a: float, b: float) -> float:
    """E(a, b) by enumerating the four projective outcome probabilities."""
    total = 0.0
    for (s_out, t_out), p in zip(EVENT_OUTCOMES, oracle_outcome_probabilities(matrix, a, b)):
        total += s_out * t_out * p
    return total


def oracle_sampled_events(
    matrix: np.ndarray, settings, n: int, seed: int, chunk: int = 65536
) -> tuple[list[int], list[int]]:
    """Setting and outcome indices of ``n`` trials, drawn one trial at a time.

    The documented stream: ``SeedSequence(seed).spawn`` one child per chunk
    of trials; per chunk, a PCG64 generator draws the setting indices
    (``integers(0, 4)``) and then the uniforms (``random()``).  A trial's
    outcome is the inverse transform of its uniform, a ``bisect`` over its
    setting's cumulative outcome probabilities.
    """
    a, ap, b, bp = settings
    cumulative = [
        list(itertools.accumulate(oracle_outcome_probabilities(matrix, x, y)))
        for x, y in ((a, b), (a, bp), (ap, b), (ap, bp))
    ]
    setting_index, outcome_index = [], []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(-(-n // chunk))):
        size = min(chunk, n - k * chunk)
        rng = np.random.Generator(np.random.PCG64(child))
        drawn = rng.integers(0, 4, size=size).tolist()
        for setting, uniform in zip(drawn, rng.random(size).tolist()):
            setting_index.append(setting)
            outcome_index.append(bisect.bisect_right(cumulative[setting], uniform, hi=3))
    return setting_index, outcome_index


def oracle_raw_stream_codes(bounds, n: int, seed: int, chunk: int = 65536) -> list[int]:
    """The code ``4 * setting + outcome`` of each of ``n`` trials, from the raw
    words of chunk i's ``PCG64(SeedSequence(seed, spawn_key=(i,)))``.

    A chunk of ``size`` trials reads ``size // 2`` rounded up words for its
    settings: each setting is the top 2 bits of a 32-bit half of a word, low
    half first, and an odd chunk drops its last half-word.  Each of the next
    ``size`` words w gives the trial's uniform ``(w >> 11) * 2**-53``, and the
    outcome is how many of the setting's cumulative bounds ``bounds[setting]``
    it reaches.
    """
    codes = []
    for i, first in enumerate(range(0, n, chunk)):
        size = min(chunk, n - first)
        half = -(-size // 2)
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))
        words = bits.random_raw(half + size).tolist()
        halves = [w >> shift & 0xFFFFFFFF for w in words[:half] for shift in (0, 32)]
        for setting, w in zip((h >> 30 for h in halves[:size]), words[half:]):
            uniform = (w >> 11) * 2.0**-53
            codes.append(4 * setting + sum(uniform >= bound for bound in bounds[setting]))
    return codes


def events_csv_text(setting_index, outcome_index) -> str:
    """The events CSV through the csv module, each row from its trial's labels."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["trial", "setting_a_label", "setting_b_label", "photon_outcome", "atom_outcome"]
    )
    writer.writerows(
        [trial, *EVENT_SETTINGS[setting], *EVENT_OUTCOMES[outcome]]
        for trial, (setting, outcome) in enumerate(zip(setting_index, outcome_index))
    )
    return buf.getvalue()


def oracle_chsh(matrix: np.ndarray, a: float, ap: float, b: float, bp: float) -> float:
    return (
        oracle_correlation(matrix, a, b)
        - oracle_correlation(matrix, a, bp)
        + oracle_correlation(matrix, ap, b)
        + oracle_correlation(matrix, ap, bp)
    )


def wigner_d(tj: int, tm1: int, tm2: int, alpha: float, beta: float, gamma: float) -> complex:
    """D^j_{m1 m2}(alpha, beta, gamma) = exp(-i m1 alpha) d^j_{m1 m2}(beta) exp(-i m2 gamma).

    The matrix of the active rotation R_z(alpha) R_y(beta) R_z(gamma) on
    |j m>, so that U|j m2> = sum_m1 |j m1> D_{m1 m2}.  d^j is Wigner's closed
    formula, its factorial coefficients in exact integers:

        d_{m1 m2} = sum_k (-1)^(m1-m2+k) sqrt((j+m1)! (j-m1)! (j+m2)! (j-m2)!)
                    / ((j+m2-k)! k! (m1-m2+k)! (j-m1-k)!)
                    cos(beta/2)^(2j+m2-m1-2k) sin(beta/2)^(m1-m2+2k)
    """
    jp1, jm1 = (tj + tm1) // 2, (tj - tm1) // 2
    jp2, jm2 = (tj + tm2) // 2, (tj - tm2) // 2
    dm = (tm1 - tm2) // 2
    root = math.sqrt(_fact(jp1) * _fact(jm1) * _fact(jp2) * _fact(jm2))
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    d = 0.0
    for k in range(max(0, -dm), min(jp2, jm1) + 1):
        coefficient = Fraction(
            (-1) ** ((dm + k) % 2), _fact(jp2 - k) * _fact(k) * _fact(dm + k) * _fact(jm1 - k)
        )
        d += float(coefficient) * c ** (tj - dm - 2 * k) * s ** (dm + 2 * k)
    return cmath.exp(-0.5j * (tm1 * alpha + tm2 * gamma)) * root * d


def _scan_columns(levels) -> list[str]:
    columns = ["theta_rad", "phi_rad", "kx", "ky", "kz", "measure", "flag", "flag_reason"]
    columns += [f"omega_hz_2F{tf}" for tf in levels]
    return columns + [f"p_2F{tf}_lambda{lam}" for lam in (1, 2) for tf in levels]


def _scan_node_values(scan):
    """Each node's row of Python values in column order, and its flag reason name or None."""
    reasons = [None, "no_scattering", "empty_filter_channel", "undefined_overlap"]
    hz = scan.omega / (2.0 * math.pi)
    for n in range(len(scan.measures)):
        reason = reasons[int(scan.flag_reasons[n])]
        angles = [float(scan.thetas[n]), float(scan.phis[n]), *scan.directions[n].tolist()]
        rest = hz[n].tolist() + scan.channel_weights[n].tolist()
        yield [*angles, float(scan.measures[n]), int(reason is not None), reason, *rest]


def scan_to_json_doc(scan) -> dict:
    """A :class:`~raman_pairs.geometry_explorer.ScanMap` as the scan-map/2
    document: one list per node, ``None`` for a flagged node's measure and a
    scored node's reason."""
    nodes = []
    for row in _scan_node_values(scan):
        if row[6]:
            row[5] = None
        nodes.append(row)
    return {
        "columns": _scan_columns(scan.levels),
        "format": "raman-pairs/scan-map/2",
        "measure": scan.measure_name,
        "metadata": scan.metadata,
        "nodes": nodes,
        "resolution_rad": scan.resolution,
    }


def oracle_scan_json(doc: dict) -> str:
    """The scan document's text: ``json.dumps(indent=2, sort_keys=True)``
    layout, except that each node is the one-line ``json.dumps`` of its list."""
    nodes = ",\n".join(
        "    " + json.dumps(node, separators=(",", ":"), allow_nan=False) for node in doc["nodes"]
    )
    head = json.dumps({**doc, "nodes": []}, indent=2, sort_keys=True, allow_nan=False)
    return head.replace('"nodes": []', '"nodes": [\n' + nodes + "\n  ]") + "\n"


def oracle_scan_csv(scan) -> str:
    """A scan's CSV table through the csv module, which writes a float as its repr."""
    buf = io.StringIO()
    for key in sorted(scan.metadata):
        buf.write(f"# {key}={scan.metadata[key]}\n")
    buf.write(f"# measure={scan.measure_name}\n# resolution_rad={scan.resolution!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_scan_columns(scan.levels))
    writer.writerows([*row[:7], row[7] or "", *row[8:]] for row in _scan_node_values(scan))
    return buf.getvalue()


def oracle_scan_rows(scan) -> tuple[str, str]:
    """A chunk's CSV lines and JSON node arrays, joined as the scan files hold
    them, with every number formatted by its own ``repr``."""
    reasons = ["", "no_scattering", "empty_filter_channel", "undefined_overlap"]
    hz = scan.omega / (2.0 * math.pi)
    floats = [scan.thetas, scan.phis, *scan.directions.T, scan.measures]
    floats = [list(map(repr, c.tolist())) for c in [*floats, *hz.T, *scan.channel_weights.T]]
    csv_lines, json_arrays = [], []
    for n, reason in enumerate(scan.flag_reasons.tolist()):
        numbers = [column[n] for column in floats]
        flag = "1" if reason else "0"
        csv_lines.append(",".join([*numbers[:6], flag, reasons[reason], *numbers[6:]]) + "\n")
        measure, name = "null" if reason else numbers[5], json.dumps(reasons[reason] or None)
        json_arrays.append("    [" + ",".join([*numbers[:5], measure, flag, name, *numbers[6:]]) + "]")
    return "".join(csv_lines), ",\n".join(json_arrays)
