"""Difference Bound Matrices: the zone representation for TA model checking.

A zone over clocks ``x_1..x_n`` (plus the reference clock ``x_0 = 0``) is a
conjunction of difference constraints ``x_i - x_j <= c`` / ``< c``. The DBM
stores one encoded bound per ordered pair; in canonical (all-pairs shortest
path) form, emptiness, inclusion and projection are trivial.

Encoding (the classic UPPAAL trick): a bound ``(c, <=)`` is the integer
``2c + 1``; a bound ``(c, <)`` is ``2c``; "no bound" is :data:`INF`. Bound
addition and comparison then reduce to integer arithmetic and ``min``.

All matrices are numpy ``int64``; rows index ``i`` of ``x_i - x_j <= b``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core._np import np
from ..core.errors import PylseError

#: "No bound" sentinel; large enough that encoded addition cannot overflow.
INF = np.int64(1) << 40

#: Any sum above this came from an INF operand: finite bounds stay far
#: below it, so a closure may add INF unguarded and clamp once at the end.
_INF_FLOOR = INF >> 1

#: Encoded bound (0, <=): the diagonal value of every consistent DBM.
LE_ZERO = np.int64(1)


def bound(value: int, strict: bool) -> int:
    """Encode a bound: ``(value, <)`` if strict else ``(value, <=)``."""
    return 2 * value + (0 if strict else 1)


def bound_value(encoded: int) -> int:
    """The numeric constant of an encoded bound."""
    return int(encoded) >> 1


def bound_is_strict(encoded: int) -> bool:
    return (int(encoded) & 1) == 0


def add_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized encoded-bound addition (with INF absorption).

    ``(c1, s1) + (c2, s2)`` is ``2(c1 + c2) + (s1 & s2)``, which equals
    ``a + b - ((a | b) & 1)``: the closures below use that form and keep
    INF sums out of the result without an ``np.where`` per step.
    """
    result = (np.right_shift(a, 1) + np.right_shift(b, 1)) * 2 + (a & 1) * (b & 1)
    return np.where((a >= INF) | (b >= INF), INF, result)


class DBM:
    """A zone over ``n`` real clocks, kept in canonical form.

    ``up``, ``reset``, ``constrain`` and ``gather`` (projection plus
    resets) map a canonical DBM to a canonical one (Bengtsson & Yi,
    "Timed Automata: Semantics, Algorithms and Tools", 2004); only an
    ``extrapolate`` that changed a bound needs a full ``canonicalize``.

    Index 0 is the reference clock; user clocks are 1..n. The matrix entry
    ``m[i, j]`` encodes the bound on ``x_i - x_j``.
    """

    __slots__ = ("m", "n")

    def __init__(self, n: int, matrix: Optional[np.ndarray] = None):
        self.n = n
        if matrix is not None:
            self.m = matrix
        else:
            # All clocks equal to zero.
            self.m = np.full((n + 1, n + 1), LE_ZERO, dtype=np.int64)

    def copy(self) -> "DBM":
        return DBM(self.n, self.m.copy())

    # ------------------------------------------------------------------
    # canonical form and emptiness
    # ------------------------------------------------------------------
    def canonicalize(self) -> "DBM":
        """Floyd–Warshall closure (in place); returns self.

        Sums through INF are not absorbed per pivot: they stay above
        ``INF >> 1`` through every later ``min`` and are set back to INF
        once, after the loop.
        """
        m = self.m
        for k in range(self.n + 1):
            col = m[:, k : k + 1]
            row = m[k : k + 1, :]
            via_k = col + row
            via_k -= (col | row) & 1
            np.minimum(m, via_k, out=m)
        m[m > _INF_FLOOR] = INF
        return self

    def is_empty(self) -> bool:
        """A canonical DBM is empty iff some diagonal entry is negative."""
        return bool((np.diagonal(self.m) < LE_ZERO).any())

    # ------------------------------------------------------------------
    # operations (in place; callers copy() first when needed)
    # ------------------------------------------------------------------
    def up(self) -> "DBM":
        """Delay: remove upper bounds on all clocks (future closure)."""
        self.m[1:, 0] = INF
        return self

    def reset(self, clock: int) -> "DBM":
        """Set clock ``clock`` to zero (matrix must be canonical)."""
        if not 1 <= clock <= self.n:
            raise PylseError(f"Clock index {clock} out of range 1..{self.n}")
        self.m[clock, :] = self.m[0, :]
        self.m[:, clock] = self.m[:, 0]
        self.m[clock, clock] = LE_ZERO
        return self

    def constrain(self, i: int, j: int, encoded: int) -> bool:
        """Intersect with ``x_i - x_j <= / < c``, keeping the DBM canonical.

        A new shortest path uses the tightened edge at most once, so one
        O(n²) pass ``m = min(m, m[:, i] + c + m[j, :])`` re-closes the
        matrix. If the bound closes a negative cycle with ``m[j, i]`` the
        zone is marked empty (a negative diagonal entry) instead. Returns
        False iff the zone is now empty (it must be non-empty before).
        """
        m = self.m
        if encoded >= m[i, j]:
            return True
        back = m[j, i]
        if back < INF:
            cycle = back + encoded - ((back | encoded) & 1)
            if cycle < LE_ZERO:
                m[i, i] = cycle
                return False
        # Paths through an INF entry are pushed to >= 2*INF so that the
        # ``min`` below discards them without a clamp over the matrix.
        to_i = m[:, i]
        col = to_i + encoded - ((to_i | encoded) & 1)
        col[to_i >= INF] = 2 * INF
        row = m[j, :].copy()
        row[row >= INF] = 2 * INF
        col = col[:, None]
        via = col + row
        via -= (col | row) & 1
        np.minimum(m, via, out=m)
        return True

    def gather(self, take: Sequence[int]) -> "DBM":
        """A new DBM whose clock ``k`` is this zone's clock ``take[k]``.

        ``take[0]`` must be 0. A clock taken from position 0 (the reference
        clock) is reset to zero, and clocks absent from ``take`` are
        projected away, so one gather performs a transition's resets and
        drops the clocks that die. A canonical zone stays canonical.
        Equals ``m[np.ix_(take, take)]``; two ``take`` calls are faster.
        """
        return DBM(len(take) - 1, self.m.take(take, 0).take(take, 1))

    def constrain_upper(self, clock: int, value: int, strict: bool) -> bool:
        """``x_clock <= value`` (or ``<``)."""
        return self.constrain(clock, 0, bound(value, strict))

    def constrain_lower(self, clock: int, value: int, strict: bool) -> bool:
        """``x_clock >= value`` (or ``>``), i.e. ``x_0 - x_clock <= -value``."""
        return self.constrain(0, clock, bound(-value, strict))

    # ------------------------------------------------------------------
    # queries (on canonical DBMs)
    # ------------------------------------------------------------------
    def includes(self, other: "DBM") -> bool:
        """True iff ``other``'s zone is a subset of this zone."""
        return bool((other.m <= self.m).all())

    def clock_bounds(self, clock: int) -> Tuple[int, Optional[int]]:
        """The (lower, upper) numeric range of a clock; upper None if unbounded."""
        lower = -bound_value(self.m[0, clock])
        upper_encoded = self.m[clock, 0]
        upper = None if upper_encoded >= INF else bound_value(upper_encoded)
        return lower, upper

    def clock_is_pinned(self, clock: int) -> bool:
        """True iff the zone fixes the clock to a single value."""
        lower, upper = self.clock_bounds(clock)
        return upper is not None and lower == upper

    # ------------------------------------------------------------------
    # extrapolation (termination)
    # ------------------------------------------------------------------
    def extrapolate(self, max_constants: Sequence[int]) -> bool:
        """Classic ExtraM abstraction with per-clock maximum constants.

        ``max_constants[i]`` is the largest constant clock ``i`` is ever
        compared against (index 0 must be 0). Bounds above ``M(i)`` are
        dropped to INF; lower bounds below ``-M(j)`` are relaxed. Returns
        True iff some bound changed: only then must the (non-empty,
        canonical) zone be re-canonicalized — the one full closure a
        successor can need.
        """
        m = self.m
        maxima = np.asarray(max_constants, dtype=np.int64)
        upper_limit = 2 * maxima[:, None] + 1          # (M(i), <=) per row
        lower_limit = -2 * maxima[None, :]             # (-M(j), <) per column
        too_high = (m > upper_limit) & (m < INF)
        too_low = m < lower_limit
        if not (too_high.any() or too_low.any()):
            return False
        m[too_high] = INF
        m[too_low] = np.broadcast_to(lower_limit, m.shape)[too_low]
        np.fill_diagonal(m, LE_ZERO)
        m[0, 1:] = np.minimum(m[0, 1:], LE_ZERO)       # clocks are nonnegative
        return True

    # ------------------------------------------------------------------
    def key(self) -> bytes:
        """Hashable canonical-form fingerprint."""
        return self.m.tobytes()

    def __repr__(self) -> str:
        ranges = ", ".join(
            f"x{i}:[{self.clock_bounds(i)[0]}, "
            f"{self.clock_bounds(i)[1] if self.clock_bounds(i)[1] is not None else 'inf'}]"
            for i in range(1, self.n + 1)
        )
        return f"DBM({ranges})"


def zero_zone(n: int) -> DBM:
    """The zone where every clock equals zero (already canonical)."""
    return DBM(n)
