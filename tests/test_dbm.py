"""Unit and property tests for Difference Bound Matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc.dbm import (
    DBM,
    INF,
    LE_ZERO,
    add_bounds,
    bound,
    bound_is_strict,
    bound_value,
    zero_zone,
)


class TestBoundEncoding:
    def test_roundtrip(self):
        assert bound_value(bound(5, False)) == 5
        assert bound_value(bound(5, True)) == 5
        assert bound_is_strict(bound(5, True))
        assert not bound_is_strict(bound(5, False))

    def test_negative_values(self):
        assert bound_value(bound(-3, False)) == -3
        assert bound_is_strict(bound(-3, True))

    def test_ordering_strict_below_nonstrict(self):
        assert bound(5, True) < bound(5, False)
        assert bound(4, False) < bound(5, True)

    def test_add_bounds_combines_strictness(self):
        a = np.array([bound(2, False)])
        b = np.array([bound(3, False)])
        assert add_bounds(a, b)[0] == bound(5, False)
        b_strict = np.array([bound(3, True)])
        assert add_bounds(a, b_strict)[0] == bound(5, True)

    def test_add_bounds_inf_absorbs(self):
        a = np.array([INF])
        b = np.array([bound(3, False)])
        assert add_bounds(a, b)[0] == INF


class TestZoneOperations:
    def test_zero_zone_pins_all_clocks(self):
        z = zero_zone(2)
        assert z.clock_bounds(1) == (0, 0)
        assert z.clock_is_pinned(2)
        assert not z.is_empty()

    def test_up_unbounds_upper(self):
        z = zero_zone(1).up()
        low, high = z.clock_bounds(1)
        assert low == 0 and high is None

    def test_constrain_upper_then_bounds(self):
        z = zero_zone(1).up()
        z.constrain_upper(1, 10, strict=False)
        z.canonicalize()
        assert z.clock_bounds(1) == (0, 10)

    def test_contradiction_is_empty(self):
        z = zero_zone(1).up()
        z.constrain_lower(1, 10, strict=False)
        z.constrain_upper(1, 5, strict=False)
        z.canonicalize()
        assert z.is_empty()

    def test_reset_after_delay(self):
        z = zero_zone(2).up()
        z.constrain_lower(1, 10, strict=False)
        z.canonicalize()
        z.reset(1)
        assert z.clock_bounds(1) == (0, 0)
        low2, high2 = z.clock_bounds(2)
        assert low2 == 10 and high2 is None

    def test_reset_preserves_other_differences(self):
        """After delay and reset of x1, x2 - x1 equals elapsed time."""
        z = zero_zone(2).up()
        z.constrain_lower(1, 7, strict=False)
        z.constrain_upper(1, 7, strict=False)
        z.canonicalize()
        z.reset(1)
        # x2 == 7, x1 == 0 -> difference pinned at 7.
        assert z.clock_bounds(2) == (7, 7)

    def test_reset_range_checked(self):
        from repro.core.errors import PylseError

        with pytest.raises(PylseError):
            zero_zone(1).reset(2)

    def test_inclusion_reflexive_and_monotone(self):
        z = zero_zone(2)
        assert z.includes(z)
        widened = z.copy().up()
        widened.canonicalize()
        assert widened.includes(z)
        assert not z.includes(widened)

    def test_key_is_canonical_fingerprint(self):
        a = zero_zone(2)
        b = zero_zone(2)
        assert a.key() == b.key()
        b.up()
        assert a.key() != b.key()


class TestExtrapolation:
    def test_extrapolation_drops_large_bounds(self):
        z = zero_zone(1).up()
        z.constrain_lower(1, 500, strict=False)
        z.constrain_upper(1, 600, strict=False)
        z.canonicalize()
        z.extrapolate([0, 10])
        z.canonicalize()
        low, high = z.clock_bounds(1)
        assert high is None           # upper bound above M dropped
        assert low <= 10              # lower bound relaxed to around M

    def test_extrapolation_keeps_small_bounds(self):
        z = zero_zone(1).up()
        z.constrain_upper(1, 5, strict=False)
        z.canonicalize()
        z.extrapolate([0, 10])
        z.canonicalize()
        assert z.clock_bounds(1) == (0, 5)

    def test_extrapolated_zone_includes_original(self):
        z = zero_zone(2).up()
        z.constrain_lower(1, 300, strict=False)
        z.constrain_upper(1, 300, strict=False)
        z.canonicalize()
        original = z.copy()
        z.extrapolate([0, 50, 50])
        z.canonicalize()
        assert z.includes(original)


# --------------------------------------------------------------------------
# property-based invariants
# --------------------------------------------------------------------------
constraint_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),     # clock
        st.sampled_from(["upper", "lower"]),
        st.integers(min_value=0, max_value=30),    # value
        st.booleans(),                             # strict
    ),
    max_size=6,
)


def build_zone(ops):
    z = zero_zone(3).up()
    for clock, kind, value, strict in ops:
        if kind == "upper":
            z.constrain_upper(clock, value, strict)
        else:
            z.constrain_lower(clock, value, strict)
    z.canonicalize()
    return z


class TestZoneProperties:
    @given(ops=constraint_lists)
    @settings(max_examples=80)
    def test_canonicalize_idempotent_on_nonempty(self, ops):
        # (Empty zones have no unique canonical form — negative cycles keep
        # shrinking under Floyd-Warshall — and are discarded on sight by the
        # explorer, so idempotence is only claimed for satisfiable zones.)
        z = build_zone(ops)
        if z.is_empty():
            return
        before = z.key()
        z.canonicalize()
        assert z.key() == before

    @given(ops=constraint_lists)
    @settings(max_examples=80)
    def test_nonempty_zone_includes_itself(self, ops):
        z = build_zone(ops)
        if not z.is_empty():
            assert z.includes(z)

    @given(ops=constraint_lists)
    @settings(max_examples=80)
    def test_up_is_superset(self, ops):
        z = build_zone(ops)
        if z.is_empty():
            return
        up = z.copy().up()
        up.canonicalize()
        assert up.includes(z)

    @given(ops=constraint_lists, clock=st.integers(1, 3))
    @settings(max_examples=80)
    def test_reset_pins_clock_to_zero(self, ops, clock):
        z = build_zone(ops)
        if z.is_empty():
            return
        z.reset(clock)
        assert z.clock_bounds(clock) == (0, 0)

    @given(ops=constraint_lists)
    @settings(max_examples=60)
    def test_extrapolation_only_widens(self, ops):
        z = build_zone(ops)
        if z.is_empty():
            return
        original = z.copy()
        z.extrapolate([0, 10, 10, 10])
        z.canonicalize()
        assert z.includes(original)


# --------------------------------------------------------------------------
# the O(n²) constrain and the fused closure against plain Floyd–Warshall
# --------------------------------------------------------------------------
def reference_close(m):
    """Textbook Floyd–Warshall over ``add_bounds`` (INF absorbed per step)."""
    m = m.copy()
    for k in range(m.shape[0]):
        np.minimum(m, add_bounds(m[:, k : k + 1], m[k : k + 1, :]), out=m)
    return m


def reference_is_empty(m):
    return bool((np.diagonal(m) < LE_ZERO).any())


@st.composite
def canonical_zones(draw):
    """A closed, non-empty DBM over 1..8 clocks with INF and strict entries.

    Every bound is loosened from one valuation ``v`` by a nonnegative
    slack (positive when strict), so ``v`` lies in the zone. Half the
    zones are then delay-closed, which leaves INF upper bounds the way the
    explorer's zones have them.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    v = [0] + draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    m = np.full((n + 1, n + 1), LE_ZERO, dtype=np.int64)
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            if draw(st.booleans()):
                m[i, j] = INF
                continue
            strict = draw(st.booleans())
            slack = draw(st.integers(1 if strict else 0, 6))
            m[i, j] = bound(v[i] - v[j] + slack, strict)
    zone = DBM(n, reference_close(m))
    assert not zone.is_empty()
    if draw(st.booleans()):
        zone.up()
    return zone


@st.composite
def raw_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    entries = st.one_of(
        st.just(int(INF)),
        st.builds(bound, st.integers(-20, 20), st.booleans()),
    )
    cells = draw(st.lists(entries, min_size=(n + 1) ** 2,
                          max_size=(n + 1) ** 2))
    return np.array(cells, dtype=np.int64).reshape(n + 1, n + 1)


class TestIncrementalClosure:
    @given(zone=canonical_zones(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_constrain_equals_constrain_then_full_close(self, zone, data):
        i = data.draw(st.integers(0, zone.n))
        j = data.draw(st.integers(0, zone.n).filter(lambda k: k != i))
        encoded = bound(data.draw(st.integers(-25, 25)), data.draw(st.booleans()))
        expected = zone.m.copy()
        expected[i, j] = min(expected[i, j], encoded)
        expected = reference_close(expected)
        nonempty = zone.constrain(i, j, encoded)
        assert nonempty == (not zone.is_empty())
        assert zone.is_empty() == reference_is_empty(expected)
        if nonempty:
            assert np.array_equal(zone.m, expected)

    @given(m=raw_matrices())
    @settings(max_examples=300, deadline=None)
    def test_fused_canonicalize_equals_reference(self, m):
        fused = DBM(m.shape[0] - 1, m.copy()).canonicalize()
        assert np.array_equal(fused.m, reference_close(m))

    def test_constrain_without_tightening_is_a_no_op(self):
        z = zero_zone(2).up()
        z.constrain_lower(1, 5, strict=False)
        before = z.m.copy()
        z.constrain_lower(1, 3, strict=False)   # implied by x1 >= 5
        z.constrain(1, 0, INF)                  # no bound at all
        assert np.array_equal(z.m, before)

    def test_contradiction_marks_empty_without_full_close(self):
        z = zero_zone(1).up()
        assert z.constrain_lower(1, 10, strict=False)
        assert not z.is_empty()
        assert not z.constrain_upper(1, 10, strict=True)   # 10 <= x1 < 10
        assert z.is_empty()


# --------------------------------------------------------------------------
# active-clock frames: the explorer's gather transfer and closure skip
# --------------------------------------------------------------------------
class TestFrameTransfer:
    @given(zone=canonical_zones(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_gather_equals_reset_then_projection(self, zone, data):
        """``gather`` = full-dimension resets, then projection.

        ``take`` maps each target clock to its source position, or to the
        reference clock 0 when the edge resets it (as ``ModelChecker._fire``
        builds it); the gathered matrix must also still be canonical.
        """
        clocks = st.sets(st.integers(1, zone.n))
        kept, resets = data.draw(clocks), data.draw(clocks)
        target = sorted(kept | resets)
        take = [0] + [0 if c in resets else c for c in target]
        gathered = zone.gather(take)
        assert np.array_equal(gathered.m, zone.m[np.ix_(take, take)])

        full = zone.copy()
        for clock in sorted(resets):
            full.reset(clock)
        frame = [0] + target
        assert np.array_equal(gathered.m, full.m[np.ix_(frame, frame)])
        assert np.array_equal(gathered.m,
                              reference_close(gathered.m.copy()))

    @given(zone=canonical_zones(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_extrapolation_reports_every_change(self, zone, data):
        """ExtraM returns True iff it changed a bound; a no-op (False)
        leaves the canonical matrix untouched, so the closure the explorer
        then skips would not have changed it either."""
        maxima = [0] + data.draw(st.lists(
            st.integers(0, 40), min_size=zone.n, max_size=zone.n))
        before = zone.m.copy()
        changed = zone.extrapolate(maxima)
        assert changed == (not np.array_equal(zone.m, before))
        if not changed:
            assert np.array_equal(zone.canonicalize().m, before)

    def test_extrapolation_no_op_and_change(self):
        z = zero_zone(2).up()
        z.constrain_upper(1, 5, strict=False)
        before = z.m.copy()
        assert not z.extrapolate([0, 10, 10])
        assert np.array_equal(z.m, before)
        assert z.extrapolate([0, 3, 10])         # x1 <= 5 exceeds M(x1) = 3
        assert z.clock_bounds(1) == (0, None)
