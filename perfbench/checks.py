"""Correctness checks of the CLI outputs, written apart from the program.

Nothing here imports ``cnotsteer``.  The paper's values are kept as a copy
of their own, the Makhlin invariants and the two-step gate time are computed
from their textbook formulas, and propagators come from ``scipy.linalg.expm``.
Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

# Paper values (Tables 1 and 2, and F at delta = 1.5g), in the units the CLI
# writes: delta/g, T2 in pi/4g, T1 in pi/2g, omega1/g.  Transcribed from the
# paper as the package's test suite also pins them (tests/reference_data.py).
TABLE1_T2 = {
    0.0: 1.0000, 0.1: 1.0003, 0.2: 1.0014, 0.3: 1.0031, 0.4: 1.0056,
    0.5: 1.0088, 0.6: 1.0128, 0.7: 1.0177, 0.8: 1.0235, 0.9: 1.0303,
    1.0: 1.0383, 1.1: 1.0476, 1.2: 1.0585, 1.3: 1.0713, 1.4: 1.0863,
    1.5: 1.1042, 1.6: 1.1261, 1.7: 1.1536, 1.8: 1.1901, 1.9: 1.2445,
    2.0: 1.4142,
}
TABLE1_SINGLE = {  # delta/g -> (T1, omega1/g), exact-CNOT range
    0.0: (1.0000, 3.8730), 0.1: (1.0009, 3.8724), 0.2: (1.0037, 3.8707),
    0.3: (1.0085, 3.8679), 0.4: (1.0155, 3.8638), 0.5: (1.0253, 3.8583),
    0.6: (1.0386, 3.8513), 0.7: (1.0568, 3.8422), 0.8: (1.0827, 3.8303),
    0.9: (1.1245, 3.8132), 1.0: (1.2753, 3.7781),
}
TABLE2 = {  # delta/g -> (T1, omega1/g, G1, G2), closest class
    1.0: (1.2753, 3.7781, 0.0000, 1.0000),
    1.1: (1.2330, 3.7470, 0.0030, 0.9994),
    1.2: (1.1945, 3.7323, 0.0106, 0.9978),
    1.3: (1.1590, 3.7250, 0.0214, 0.9955),
    1.4: (1.1262, 3.7203, 0.0340, 0.9927),
    1.5: (1.0961, 3.7152, 0.0476, 0.9898),
    1.6: (1.0686, 3.7074, 0.0614, 0.9867),
    1.7: (1.0438, 3.6952, 0.0749, 0.9837),
    1.8: (1.0216, 3.6772, 0.0879, 0.9808),
    1.9: (1.0019, 3.6519, 0.1003, 0.9780),
    2.0: (0.9849, 3.6179, 0.1118, 0.9754),
}
FIDELITY_AT_1_5 = 0.9448

TOL_UNITARY = 1e-10
TOL_PAPER_PARAMS = 5e-3
TOL_PAPER_INVARIANTS = 2e-3
TOL_T2_CLOSED_FORM = 1e-6
TOL_FIDELITY_PAPER = 1e-3
TOL_TWO_STEP_FIDELITY = 1e-6
# CSV cells carry six decimals (rounding 5e-7 in units of pi/2); invariants
# move by at most a few units per radian, so 1e-5 is the CSV's rounding.
TOL_CSV_INVARIANTS = 1e-5
TOL_CSV_CELL = 1e-6
# Invariant distance from the CNOT class of a table1 single-step row (the
# invariants are quadratic in the distance near the class point).
TOL_CNOT_CLASS = 1e-6

_S = [np.array(m, dtype=complex) for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
_I2, _SX, _SY, _SZ = _S
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2.0)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def makhlin(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Makhlin invariants (G1, G2) of a gate or a stack of gates.

    In the magic basis, m = U_B^T U_B; G1 = tr(m)^2 / (16 det U) and
    G2 = (tr(m)^2 - tr(m^2)) / (4 det U).  Makhlin, Quantum Inf. Process. 1,
    243 (2002).
    """
    ub = _MAGIC.conj().T @ u @ _MAGIC
    m = np.swapaxes(ub, -1, -2) @ ub
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr2 = np.trace(m @ m, axis1=-2, axis2=-1)
    det = np.linalg.det(u)
    return tr**2 / (16.0 * det), (tr**2 - tr2) / (4.0 * det)


def two_step_units(delta: float) -> float:
    """Closed-form two-step time t2 = (pi - arccos(d^2/4g^2)) / sqrt(d^2 + 4g^2), in pi/4g."""
    return (math.pi - math.acos(delta**2 / 4.0)) / math.sqrt(delta**2 + 4.0) / (math.pi / 4.0)


def frame1_generator(delta: float, omega1: float) -> np.ndarray:
    """-delta Z2 + omega1 X1 + g (XX + YY) with g = 1 and P = (i/2) sigma (qubit 2 first)."""
    h = -delta * np.kron(_SZ, _I2) + omega1 * np.kron(_I2, _SX) + np.kron(_SX, _SX) + np.kron(_SY, _SY)
    return 0.5j * h


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(4)))


def _close(name: str, got: float, want: float, tol: float, out: list[str]) -> None:
    if not abs(got - want) <= tol:
        out.append(f"{name}: {got!r} vs {want!r} (tol {tol:g})")


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_gate(argv: list[str], text: str) -> list[str]:
    """``gate`` JSON: unitarity, fidelity, invariants and paper values."""
    out: list[str] = []
    d = json.loads(text)
    mode = _option(argv, "--mode", "one-step")
    delta = float(_option(argv, "--delta"))
    gate = _matrix(d["gate_matrix"])
    segment = _matrix(d["entangling_matrix"])
    recipe = d["recipe"]
    for name, u in (("gate", gate), ("entangling", segment)):
        _close(f"{name} unitarity defect", _unitarity_defect(u), 0.0, TOL_UNITARY, out)
    if out:
        return out
    radicand = 1.0 - float(np.linalg.norm(gate - CNOT) ** 2)
    fid = math.sqrt(radicand) if radicand >= 0.0 else None
    if (fid is None) != (d["fidelity"] is None):
        out.append(f"fidelity {d['fidelity']!r}, recomputed {fid!r}")
    elif fid is not None:
        _close("fidelity vs gate matrix", d["fidelity"], fid, 1e-9, out)
    _close("recipe delta", recipe["delta_over_g"], delta, 0.0, out)

    if mode == "two-step":
        t = recipe["t_value"] * math.pi / 4.0
        _close("T2 vs closed form", recipe["t_value"], two_step_units(delta), 1e-9, out)
        if _option(argv, "--frame", "1") == "1":
            want = expm(-t * frame1_generator(delta, 0.0))
            _close("frame-1 segment vs expm", float(np.linalg.norm(segment - want)), 0.0, 1e-9, out)
        pi_pulse = -1j * np.kron(_I2, _SX)  # exp(-pi X1)
        entangler = segment @ pi_pulse @ segment
        _close("two-step fidelity", fid or 0.0, 1.0, TOL_TWO_STEP_FIDELITY, out)
        want_g1, want_g2 = 0.0, 1.0
        tol_paper = 1e-9
    else:
        t = recipe["t_value"] * math.pi / 2.0
        want = expm(-t * frame1_generator(delta, recipe["omega1_over_g"]))
        _close("one-step segment vs expm", float(np.linalg.norm(segment - want)), 0.0, 1e-9, out)
        entangler = segment
        t1, w1, want_g1, want_g2 = TABLE2[delta]
        tol_paper = TOL_PAPER_INVARIANTS
        _close("T1 vs Table 2", recipe["t_value"], t1, TOL_PAPER_PARAMS, out)
        _close("omega1 vs Table 2", recipe["omega1_over_g"], w1, TOL_PAPER_PARAMS, out)
        if fid is None or not fid < 1.0:
            out.append(f"closest-class fidelity {fid!r} is not below 1")
        if delta == 1.5:
            _close("F at 1.5g vs paper", fid or 0.0, FIDELITY_AT_1_5, TOL_FIDELITY_PAPER, out)

    g1_gate, g2_gate = makhlin(gate)
    g1_ent, g2_ent = makhlin(entangler)
    _close("G1 gate vs entangler", abs(g1_gate - g1_ent), 0.0, 1e-9, out)
    _close("G2 gate vs entangler", abs(g2_gate - g2_ent), 0.0, 1e-9, out)
    _close("G1 vs paper", g1_ent.real, want_g1, tol_paper, out)
    _close("G2 vs paper", g2_ent.real, want_g2, tol_paper, out)
    _close("Im G1", g1_ent.imag, 0.0, 1e-9, out)
    return out


def _csv(text: str, header: str) -> list[list[str]] | str:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[:1]!r}, want {header!r}"
    return [line.split(",") for line in lines[1:]]


def _single_step_invariants(delta: float, t1_units: float, omega1: float) -> tuple[complex, float]:
    g1, g2 = makhlin(expm(-t1_units * (math.pi / 2.0) * frame1_generator(delta, omega1)))
    return complex(g1), float(g2.real)


def check_table1(text: str) -> list[str]:
    """``table1`` CSV: T2 against the closed form and the paper; T1/omega1 against
    Table 1 and, through an independent propagation, against the CNOT class."""
    rows = _csv(text, "delta_over_g,T2,T1,omega1_over_g")
    if isinstance(rows, str):
        return [rows]
    out: list[str] = []
    if [r[0] for r in rows] != [f"{k / 10:.2f}" for k in range(21)]:
        out.append(f"detuning column {[r[0] for r in rows]!r}")
        return out
    for delta_s, t2, t1, w1 in rows:
        delta = float(delta_s)
        _close(f"T2({delta_s}) vs closed form", float(t2), two_step_units(delta), TOL_T2_CLOSED_FORM, out)
        _close(f"T2({delta_s}) vs Table 1", float(t2), TABLE1_T2[delta], TOL_PAPER_PARAMS, out)
        if delta <= 1.0:
            want_t1, want_w1 = TABLE1_SINGLE[delta]
            _close(f"T1({delta_s}) vs Table 1", float(t1), want_t1, TOL_PAPER_PARAMS, out)
            _close(f"omega1({delta_s}) vs Table 1", float(w1), want_w1, TOL_PAPER_PARAMS, out)
            g1, g2 = _single_step_invariants(delta, float(t1), float(w1))
            _close(f"|G1|({delta_s}) of the CNOT class", abs(g1), 0.0, TOL_CNOT_CLASS, out)
            _close(f"G2({delta_s}) of the CNOT class", g2, 1.0, TOL_CNOT_CLASS, out)
        elif t1 or w1:
            out.append(f"single-step cells beyond g at {delta_s}: {t1!r}, {w1!r}")
    return out


def check_table2(text: str) -> list[str]:
    """``table2`` CSV: parameters and invariants against Table 2, and the
    invariants against an independent propagation at the listed (T1, omega1)."""
    rows = _csv(text, "delta_over_g,T1,omega1_over_g,G1,G2")
    if isinstance(rows, str):
        return [rows]
    out: list[str] = []
    if [r[0] for r in rows] != [f"{1.0 + k / 10:.2f}" for k in range(11)]:
        return [f"detuning column {[r[0] for r in rows]!r}"]
    for delta_s, *cells in rows:
        want = TABLE2[float(delta_s)]
        tols = (TOL_PAPER_PARAMS, TOL_PAPER_PARAMS, TOL_PAPER_INVARIANTS, TOL_PAPER_INVARIANTS)
        for name, got, w, tol in zip(("T1", "omega1", "G1", "G2"), cells, want, tols):
            _close(f"{name}({delta_s}) vs Table 2", float(got), w, tol, out)
        t1, w1, g1_cell, g2_cell = map(float, cells)
        g1, g2 = _single_step_invariants(float(delta_s), t1, w1)
        _close(f"G1({delta_s}) vs propagation", g1.real, g1_cell, TOL_CSV_INVARIANTS, out)
        _close(f"G2({delta_s}) vs propagation", g2, g2_cell, TOL_CSV_INVARIANTS, out)
    return out


def check_verify(rc: int, stdout: str) -> list[str]:
    """``verify``: exit code 0 and every property line passing."""
    lines = stdout.strip().splitlines()
    out = [] if rc == 0 else [f"verify exit code {rc}"]
    if not lines or not lines[-1].startswith("all ") or any(line.startswith("FAIL") for line in lines):
        out.append(f"verify report: {lines[-1:]!r}")
    return out


def _single_step_paper(delta: float) -> tuple[float, float]:
    return TABLE1_SINGLE[delta] if delta <= 1.0 else TABLE2[delta][:2]


def _trajectory_invariants(delta: float, omega1: float, t: np.ndarray) -> np.ndarray:
    g1, g2 = makhlin(expm(-t[:, None, None] * frame1_generator(delta, omega1)))
    return np.stack([g1.real, g1.imag, g2.real], axis=1)


def check_trajectory(argv: list[str], text: str) -> list[str]:
    """``trajectory`` CSV against an independent propagation.

    The CSV does not carry omega1, so it is recovered by a one-dimensional
    fit of 32 spread rows, bracketed around the paper's value; every row must
    then agree with ``expm`` of the frame-1 generator within the CSV's
    rounding.
    """
    rows = _csv(text, "t,c1,c2,c3")
    if isinstance(rows, str):
        return [rows]
    delta = float(_option(argv, "--delta"))
    n = int(_option(argv, "--samples", "2048"))
    data = np.array(rows, dtype=float)
    out: list[str] = []
    if data.shape != (n, 4):
        return [f"trajectory shape {data.shape}, want ({n}, 4)"]
    t_units, c = data[:, 0], data[:, 1:]
    if np.any(data[0] != 0.0):
        out.append(f"first row {rows[0]!r} is not the origin")
    t1_paper, w1_paper = _single_step_paper(delta)
    _close("final t vs paper T1", t_units[-1], t1_paper, TOL_PAPER_PARAMS, out)
    grid = np.linspace(0.0, t_units[-1], n)
    _close("time grid", float(np.max(np.abs(t_units - grid))), 0.0, TOL_CSV_CELL, out)
    tol = TOL_CSV_CELL
    chamber = (c[:, 0] <= 1.0 + tol) & (c[:, 1] <= c[:, 0] + tol) & (c[:, 2] <= c[:, 1] + tol) & (np.abs(c[:, 2]) <= tol)
    if not chamber.all():
        out.append(f"{int((~chamber).sum())} rows off the c3 = 0 chamber face, first {rows[int(np.argmin(chamber))]!r}")
    if out:
        return out

    # Invariants of each CSV point, from its canonical gate exp(-(i/2) sum c_k sigma_k sigma_k).
    angles = c * (math.pi / 2.0)
    pauli2 = np.stack([np.kron(s, s) for s in (_SX, _SY, _SZ)])
    canonical = expm(-0.5j * np.einsum("nk,kij->nij", angles, pauli2))
    g1, g2 = makhlin(canonical)
    csv_inv = np.stack([g1.real, g1.imag, g2.real], axis=1)
    t = t_units * (math.pi / 2.0)
    fit_rows = np.linspace(0, n - 1, 32).astype(int)

    def misfit(w: float) -> float:
        return float(np.sum((_trajectory_invariants(delta, w, t[fit_rows]) - csv_inv[fit_rows]) ** 2))

    fit = minimize_scalar(misfit, bounds=(w1_paper - 0.02, w1_paper + 0.02), method="bounded",
                          options={"xatol": 1e-9})
    _close("recovered omega1 vs paper", fit.x, w1_paper, TOL_PAPER_PARAMS, out)
    err = np.max(np.abs(_trajectory_invariants(delta, fit.x, t) - csv_inv), axis=1)
    worst = int(np.argmax(err))
    _close(f"row {worst + 1} invariants vs expm", float(err[worst]), 0.0, TOL_CSV_INVARIANTS, out)
    return out


def check_operation(argv: list[str], rc: int, text: str, stdout: str) -> list[str]:
    """Dispatch one operation's output to its checker."""
    if argv[0] == "verify":
        return check_verify(rc, stdout)
    if rc != 0:
        return [f"exit code {rc}"]
    if argv[0] == "gate":
        return check_gate(argv, text)
    if argv[0] == "table1":
        return check_table1(text)
    if argv[0] == "table2":
        return check_table2(text)
    if argv[0] == "trajectory":
        return check_trajectory(argv, text)
    return [f"no checker for {argv[0]!r}"]
