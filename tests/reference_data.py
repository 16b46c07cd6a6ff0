"""Frozen reference values used across the test suite.

The matrices are the 4-decimal reference forms of the delta = g propagators
(in this package's basis ordering |q2 q1> with qubit 1 least significant);
the tables list the calibrated gate-time multiples, drive amplitudes, and
closest-class invariants over the detuning grid.
"""

from __future__ import annotations

import numpy as np

# Frame-1 entangling propagator at delta = g, t = T2 * pi/4g, T2 = 1.0383.
ENTANGLER_FRAME1_DELTA1 = np.array(
    [
        [0.9180 + 0.3965j, 0, 0, 0],
        [0, 0.6124 + 0.3536j, -0.7071j, 0],
        [0, -0.7071j, 0.6124 - 0.3536j, 0],
        [0, 0, 0, 0.9180 - 0.3965j],
    ],
    dtype=complex,
)

# Frame-2 entangling propagator at the same parameters.
ENTANGLER_FRAME2_DELTA1 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0.7024 + 0.0817j, -0.2804 - 0.6491j, 0],
        [0, 0.2804 - 0.6491j, 0.7024 - 0.0817j, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# Single-step propagator at delta = g, omega1 = 3.7781 g, t = 1.2753 pi/2g.
SINGLE_STEP_U_DELTA1 = np.array(
    [
        [-0.2553 - 0.4300j, -0.4821 + 0.1324j, 0.4821 - 0.1324j, 0.5001j],
        [-0.4821 + 0.1324j, -0.0001 - 0.5001j, 0.5001j, 0.4821 + 0.1324j],
        [0.4821 - 0.1324j, 0.5001j, -0.0001 + 0.5001j, 0.4821 + 0.1324j],
        [0.5001j, 0.4821 + 0.1324j, 0.4821 + 0.1324j, -0.2553 + 0.4300j],
    ],
    dtype=complex,
)

# Closest-to-CNOT single-step gate at delta = 1.5 g after rotation fitting.
OPTIMIZED_GATE_DELTA15 = np.array(
    [
        [0.9866, -0.1122j, 0.0258j, 0.1158],
        [-0.1122j, 0.9866, -0.1158, -0.0258j],
        [-0.1186, 0.0009j, 0.1122j, 0.9866],
        [-0.0009j, 0.1186, 0.9866, 0.1122j],
    ],
    dtype=complex,
)

# delta/g -> T2 (two-step gate time in units of pi/4g).
TABLE1_T2 = {
    0.0: 1.0000, 0.1: 1.0003, 0.2: 1.0014, 0.3: 1.0031, 0.4: 1.0056,
    0.5: 1.0088, 0.6: 1.0128, 0.7: 1.0177, 0.8: 1.0235, 0.9: 1.0303,
    1.0: 1.0383, 1.1: 1.0476, 1.2: 1.0585, 1.3: 1.0713, 1.4: 1.0863,
    1.5: 1.1042, 1.6: 1.1261, 1.7: 1.1536, 1.8: 1.1901, 1.9: 1.2445,
    2.0: 1.4142,
}

# delta/g -> (T1, omega1/g): calibrated single-step parameters, exact-CNOT range.
TABLE1_SINGLE = {
    0.0: (1.0000, 3.8730), 0.1: (1.0009, 3.8724), 0.2: (1.0037, 3.8707),
    0.3: (1.0085, 3.8679), 0.4: (1.0155, 3.8638), 0.5: (1.0253, 3.8583),
    0.6: (1.0386, 3.8513), 0.7: (1.0568, 3.8422), 0.8: (1.0827, 3.8303),
    0.9: (1.1245, 3.8132), 1.0: (1.2753, 3.7781),
}

# delta/g -> (T1, omega1/g, G1, G2): closest-class single-step parameters.
TABLE2 = {
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

# The paper's four-decimal dressing angles at delta = g: two-step frame 1
# (alpha2, alpha1), two-step frame 2 (beta_tilde, beta), single-step
# (alpha2, alpha1, gamma1).
TWO_STEP_ANGLES_FRAME1 = (0.5929, 0.2596)
TWO_STEP_ANGLES_FRAME2 = (-0.1858, 0.3333)
SINGLE_STEP_ANGLES = (0.8294, -0.1705, -0.9998)

# Intrinsic fidelity of the optimized delta = 1.5 g single-step gate.
FIDELITY_DELTA15 = 0.9448
