"""The tolerance policy: every numeric tolerance of the package, in one place.

Every other module imports its tolerances from here, and none defines its
own (``tests/test_tolerances.py`` enforces this on the source), so names
like ``grasschan.qubit.TP_ATOL`` are the policy's own values.
A validity rule accepts a value only when it lies within its tolerance
(``if not x <= TOL: raise``), so NaN fails every rule.

==========================  =======  ==========================================  ===============================================
name                        value    what it bounds                              where a report shows it
==========================  =======  ==========================================  ===============================================
``ISCLOSE_ATOL``            1e-12    default of every ``isclose`` method         (not in reports)
``STATE_ATOL``              1e-9     ``p`` range and ``|gamma|^2 <= p(1-p)``     (raises ``ValueError``)
                                     of a state
``KRAUS_TP_ATOL``           1e-10    ``max |sum A^dag A - I|`` of a Kraus list   (raises ``NotTracePreservingError``)
``DIAG_ATOL``               1e-10    first row and off-diagonal block entries    (raises ``NonDiagonalBlockError``)
                                     dropped by ``canonical_from_ptm``
``CHOI_EIG_FLOOR``          -1e-9    smallest Choi eigenvalue of a CPTP channel  ``cptp.ok``, ``cptp.min_choi_eigenvalue``
``TP_ATOL``                 1e-12    ``max |Tr_out Choi - I|`` of a CPTP channel ``cptp.ok``, ``cptp.tp_deviation``
``SCREEN_MARGIN``           1e-12    slack of the sampler's closed-form Choi     (none: the sampler decides each candidate
                                     pre-screen below ``CHOI_EIG_FLOOR``; band   as ``cptp.ok`` would)
                                     around the floor in which the sampler's
                                     closed-form decision (positivity of
                                     ``C - (floor +- margin) I`` from the
                                     invariants of the Bell-basis Choi
                                     operator) defers to the single-channel
                                     check
``NORMALIZATION_ATOL``      1e-10    ``|chi(0) - 1|`` of a characteristic        (raises ``NotNormalizedError``)
                                     function
``PHYSICALITY_ATOL``        1e-9     realness, conjugate symmetry and state      (raises ``NotPhysicalError``)
                                     bounds of a recovered state
``GAUSSIAN_ATOL``           1e-10    ``|t1|``, ``|t2|``, ``|lam3 - lam1 lam2|``  ``gaussian`` (null or not),
                                     of a frame: ``analyze`` decides in          ``gaussian_equivalent``
                                     canonical terms, by ``gaussian_equivalent``
                                     (``detect_gaussian`` holds each kernel
                                     coefficient to it instead)
``ANGLE_ATOL``              1e-9     realness and range of ``a``, ``b``; the     ``angles`` (null with a "no angle form" note)
                                     ``cos 2theta = cos 2phi`` degeneracy
``ANGLE_RATIO_ATOL``        1e-7     ``c / ((cos 2theta - cos 2phi)/4)``         ``angles.q``
                                     outside ``[-1, 1]``
``ANGLE_TIE_DIGITS``        12       ``round()`` digits of the keys that merge   ``angles`` (which of two tied candidates)
                                     and order candidate angles (about 1e-12)
``UNITARITY_ATOL``          1e-12    ``max |U^dag U - I|`` of a dilation         (raises ``ValueError``)
``ENV_ATOL``                1e-12    off-diagonal ``gamma`` of a dilation's      ``dilation.env_state.q``
                                     environment state, and the range of
                                     ``AngleParams.q``
``CERT_RESIDUAL_TOL``       1e-9     recomposition residual of an accepted       ``degradability.kind``, ``degradability.residual``
                                     witness (``analyze --tol``)
``BOUNDARY_ATOL``           1e-12    ``|cos 2phi|`` at the classification pole;  ``degradability.prediction.boundary``,
                                     ``q`` at a pure environment                 ``degradability.prediction.kind``
``CALIBRATION_TOL``         1e-14    characteristic function vs its closed form  ``verify``: ``checks[0].tolerance``
``ORACLE_TOL``              1e-12    Berezin convolution vs the dense Bloch map  ``verify``: ``checks[1].tolerance``
==========================  =======  ==========================================  ===============================================
"""

ISCLOSE_ATOL = 1e-12

# Qubit states and channels (qubit.py).
STATE_ATOL = 1e-9
KRAUS_TP_ATOL = 1e-10
DIAG_ATOL = 1e-10
CHOI_EIG_FLOOR = -1e-9
TP_ATOL = 1e-12
# The sampler's pre-screen tests Choi positivity against CHOI_EIG_FLOOR -
# SCREEN_MARGIN, and its closed-form decision accepts a survivor whose Choi
# operator is positive definite above CHOI_EIG_FLOOR + SCREEN_MARGIN and
# rejects one that is not positive semidefinite above CHOI_EIG_FLOOR -
# SCREEN_MARGIN.  The margin is far above the rounding of these few products
# of O(1) numbers and of the single-channel eigenvalue (about 1e-15), so
# both decide as the exact check does; a survivor in between is re-decided
# by the single-channel check.
SCREEN_MARGIN = 1e-12

# Characteristic functions (charfunc.py).
NORMALIZATION_ATOL = 1e-10
PHYSICALITY_ATOL = 1e-9

# Gaussian detection and the angle form (green.py).
GAUSSIAN_ATOL = 1e-10
ANGLE_ATOL = 1e-9
ANGLE_RATIO_ATOL = 1e-7
ANGLE_TIE_DIGITS = 12

# Dilations and degradability certificates (degradability.py).
UNITARITY_ATOL = 1e-12
ENV_ATOL = 1e-12
CERT_RESIDUAL_TOL = 1e-9
BOUNDARY_ATOL = 1e-12

# Self-verification suites (verify.py).
CALIBRATION_TOL = 1e-14
ORACLE_TOL = 1e-12
