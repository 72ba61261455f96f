import math

import hypothesis
import numpy as np

from su3char import TorusPoint

hypothesis.settings.register_profile(
    "su3char",
    deadline=None,
    derandomize=True,
    max_examples=60,
    print_blob=False,
)
hypothesis.settings.load_profile("su3char")

# One line per acceptance criterion, printed after the run so the summary
# survives pytest's output capture.  test_acceptance.py appends to this.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def random_alcove_point(rng, min_wall: float = 0.0) -> TorusPoint:
    while True:
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = rng.uniform(0.0, 2.0 * math.pi - t1)
        H = TorusPoint.from_alcove_coords(t1, t2)
        if min(H.wall_norms()) >= min_wall:
            return H


def acceptance3_points():
    """Acceptance 3's 100 regular points (walls >= 0.1) and 100 near-wall
    points (one wall in [2e-9, 2e-6], cycling over the walls, the others
    >= 0.1)."""
    rng = np.random.default_rng(314159)
    regular = [random_alcove_point(rng, min_wall=0.1) for _ in range(100)]
    near_wall = []
    while len(near_wall) < 100:
        j = len(near_wall) % 3
        eps = rng.uniform(2e-9, 2e-6)
        mid = rng.uniform(0.3, 2.0 * math.pi - 0.6)
        if j == 1:
            t1, t2 = eps, mid
        elif j == 2:
            t1, t2 = mid, eps
        else:
            t1, t2 = mid, 2.0 * math.pi - mid - eps
        H = TorusPoint.from_alcove_coords(t1, t2)
        walls = sorted(H.wall_norms())
        if walls[0] <= 1e-6 and walls[1] >= 0.1:
            near_wall.append(H)
    return regular, near_wall


def pattern_weights(a: int, b: int):
    """Weights (w1, w2, w3) of all GT patterns of shape (a+b, b, 0), lex order.

    Lex order is (m12, m22, m11) ascending.  w1 = m11, w2 = m12+m22-m11,
    w3 = a+2b - m12 - m22; one pattern per basis vector, so the number of
    rows equals dim.  The pattern-by-pattern oracle for chi_schur and
    multiplicities.
    """
    m12v = np.arange(b, a + b + 1, dtype=np.int64)
    m22v = np.arange(0, b + 1, dtype=np.int64)
    m12 = np.repeat(m12v, b + 1)
    m22 = np.tile(m22v, a + 1)
    counts = m12 - m22 + 1
    total = int(counts.sum())
    block = np.repeat(np.arange(m12.size), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - offsets[block]
    m11 = m22[block] + within
    return m11, m12[block] + m22[block] - m11, (a + 2 * b) - m12[block] - m22[block]
