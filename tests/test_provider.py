"""Dispatchable units: RT dispatch, shift payoffs, incremental risk moments."""

import dataclasses
import itertools
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsim import provider
from brsim.provider import (
    ContractInfeasibleError,
    DispatchableUnit,
    ScenarioModel,
    ScenarioSet,
    UnitKind,
)
from oracles import JointScenario, joined, revenue_unit, revenue_unit_with_brs, whole_scenarios


def base_unit(schedule=200.0):
    return DispatchableUnit(
        kind=UnitKind.BASE_LOAD,
        p_min=150.0,
        p_max=250.0,
        marginal_cost=15.0,
        da_schedule=schedule,
    )


def marginal_unit(schedule=200.0, cost=35.0):
    return DispatchableUnit(
        kind=UnitKind.MARGINAL,
        p_min=150.0,
        p_max=250.0,
        marginal_cost=cost,
        da_schedule=schedule,
    )


class TestUnitValidation:
    def test_range_checks(self):
        with pytest.raises(ValueError):
            DispatchableUnit(UnitKind.BASE_LOAD, -1.0, 100.0, 10.0, 50.0)
        with pytest.raises(ValueError):
            DispatchableUnit(UnitKind.BASE_LOAD, 100.0, 50.0, 10.0, 75.0)
        with pytest.raises(ValueError):
            DispatchableUnit(UnitKind.BASE_LOAD, 50.0, 100.0, 10.0, 120.0)
        with pytest.raises(ValueError, match="marginal_cost must be finite"):
            DispatchableUnit(UnitKind.BASE_LOAD, 50.0, 100.0, math.inf, 75.0)

    def test_kind_is_coerced(self):
        # A kind given as its value dispatches as that kind; another is refused.
        u = DispatchableUnit("base_load", 150.0, 250.0, 15.0, 200.0)
        assert u.kind is UnitKind.BASE_LOAD
        assert provider.rt_dispatch(u, 40.0) == 200.0
        assert provider.rt_dispatch(DispatchableUnit("marginal", 150.0, 250.0, 15.0, 200.0),
                                    40.0) == 250.0
        with pytest.raises(ValueError, match="nuclear"):
            DispatchableUnit("nuclear", 150.0, 250.0, 15.0, 200.0)

    def test_scenario_checks(self):
        with pytest.raises(ValueError):
            JointScenario(da_price=0.0, rt_price=20.0, executed=0.0)
        with pytest.raises(ValueError):
            JointScenario(da_price=30.0, rt_price=float("nan"), executed=0.0)


class TestRtDispatch:
    def test_base_load_holds_schedule(self):
        u = base_unit()
        assert provider.rt_dispatch(u, 500.0) == 200.0
        assert provider.rt_dispatch(u, -50.0) == 200.0

    def test_marginal_chases_price(self):
        u = marginal_unit()
        assert provider.rt_dispatch(u, 40.0) == 250.0
        assert provider.rt_dispatch(u, 20.0) == 150.0

    def test_price_at_cost_holds_schedule(self):
        u = marginal_unit()
        assert provider.rt_dispatch(u, 35.0) == 200.0

    # Above, below and at the cost, NaN, both infinities, negative prices.
    PRICES = [40.0, 20.0, 35.0, math.nan, math.inf, -math.inf, -50.0, 0.0, -0.0, 1e-300]

    @staticmethod
    def nested(u, rt):
        cost = u.marginal_cost
        return np.where(rt > cost, u.p_max, np.where(rt < cost, u.p_min, u.da_schedule))

    @pytest.mark.parametrize("schedule", [200.0, np.linspace(150.0, 250.0, 10)])
    def test_selects_what_the_nested_form_selects(self, schedule):
        # Bit for bit, against the two nested np.where it replaced. An integer
        # range with a float schedule selects floats, ties or no ties.
        ranges = ((150.0, 250.0), (150, 250))
        for cost, (p_min, p_max) in itertools.product((35.0, 0.0, -50.0), ranges):
            u = dataclasses.replace(marginal_unit(schedule, cost), p_min=p_min, p_max=p_max)
            for rt in (np.array(self.PRICES), np.array(self.PRICES)[::-1], np.full(10, cost),
                       np.array([[cost], [math.nan], [99.0]]), np.array(99.0),
                       np.resize([99.0, -99.0], 10)):
                got, want = provider.rt_dispatch(u, rt), self.nested(u, rt)
                assert np.shape(got) == want.shape
                assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("price", PRICES)
    def test_scalar_call_returns_float(self, price):
        u = marginal_unit()
        got = provider.rt_dispatch(u, price)
        assert type(got) is float
        assert got == self.nested(u, np.array(price)).item()


class TestRevenues:
    def test_base_load_flat(self):
        sc = JointScenario(da_price=30.0, rt_price=25.0, executed=0.0)
        assert revenue_unit(base_unit(), sc) == pytest.approx(6000.0)

    def test_marginal_backs_down_when_rt_cheap(self):
        sc = JointScenario(da_price=30.0, rt_price=25.0, executed=0.0)
        # Output at p_min 150: 6000 + (150-200)*25.
        assert revenue_unit(marginal_unit(), sc) == pytest.approx(4750.0)

    def test_marginal_ramps_when_rt_rich(self):
        sc = JointScenario(da_price=30.0, rt_price=40.0, executed=0.0)
        assert revenue_unit(marginal_unit(), sc) == pytest.approx(8000.0)

    def test_shift_worth_price_gap(self):
        sc = JointScenario(da_price=30.0, rt_price=25.0, executed=10.0)
        u = base_unit()
        assert revenue_unit_with_brs(u, sc) == pytest.approx(6050.0)

    def test_shift_must_stay_in_range(self):
        sc = JointScenario(da_price=30.0, rt_price=25.0, executed=60.0)
        with pytest.raises(ContractInfeasibleError):
            revenue_unit_with_brs(base_unit(), sc)

    def test_rt_output_override(self):
        sc = JointScenario(da_price=30.0, rt_price=25.0, executed=0.0)
        got = revenue_unit(base_unit(), sc, rt_output=220.0)
        assert got == pytest.approx(6000.0 + 20.0 * 25.0)


def report(u, scs):
    """u's risk report over the one set scs."""
    return provider.risk_report([u], [scs])[0]


def scenario_set(rows, exhaustive=False):
    """A ScenarioSet from (da, rt, executed) rows at one DA price."""
    da, rt, ex = zip(*rows)
    assert len(set(da)) == 1
    return ScenarioSet(da=da[0], rt=rt, executed=ex, exhaustive=exhaustive)


class TestScenarioSet:
    def test_fields_are_read_only_float_arrays(self):
        scs = scenario_set([(30, 25, 0), (30, 35, 1)], exhaustive=True)
        assert len(scs) == 2
        assert type(scs.da) is float and scs.da == 30.0 and scs.exhaustive
        for arr in (scs.rt, scs.executed):
            assert arr.dtype == np.float64 and arr.shape == (2,)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_does_not_alias_its_inputs(self):
        rt = np.array([25.0, 35.0])
        scs = ScenarioSet(da=30.0, rt=rt, executed=[0.0, 1.0])
        rt[0] = -1.0
        assert rt.flags.writeable
        assert scs.rt[0] == 25.0

    def test_copies_read_only_arrays_too(self):
        owned = np.array([25.0, 35.0])
        owned.flags.writeable = False
        single = np.array([0.0, 1.0], dtype=np.float32)
        single.flags.writeable = False
        scs = ScenarioSet(da=30.0, rt=owned, executed=single)
        assert not np.shares_memory(scs.rt, owned)
        assert scs.executed.dtype == np.float64 and not np.shares_memory(scs.executed, single)

    def test_copies_a_read_only_view_of_a_writeable_array(self):
        base = np.array([30.0, 31.0, 32.0])
        view = base[:]
        view.flags.writeable = False
        scs = ScenarioSet(da=30.0, rt=view, executed=view)
        base[0] = -1.0
        assert scs.rt[0] == 30.0 and scs.executed[0] == 30.0
        assert not np.shares_memory(scs.rt, base)

    def test_copies_a_read_only_array_over_foreign_memory(self):
        memory = bytearray(np.array([25.0, 35.0]).tobytes())
        rt = np.frombuffer(memory)
        rt.flags.writeable = False
        scs = ScenarioSet(da=30.0, rt=rt, executed=[0.0, 1.0])
        memory[:8] = np.array([-1.0]).tobytes()
        assert scs.rt[0] == 25.0

    def test_generated_chunks_are_read_only_copies(self, monkeypatch):
        given = []

        def spy(da, rt, executed):
            given.append((rt, executed))
            return ScenarioSet(da, rt, executed)

        monkeypatch.setattr(provider, "ScenarioSet", spy)
        chunks = list(provider.generate_scenarios(ScenarioModel(), C + 1, seed=1))
        assert len(chunks) == len(given) == 2
        for scs, arrays in zip(chunks, given):
            for arr, passed in zip((scs.rt, scs.executed), arrays):
                assert not np.shares_memory(arr, passed)
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_da(self, bad):
        with pytest.raises(ValueError, match=f"^da price must be positive and finite, got {bad}$"):
            ScenarioSet(da=bad, rt=[25.0] * 3, executed=[0.0] * 3)

    @pytest.mark.parametrize("field", ["rt", "executed"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_rt_and_executed(self, field, bad):
        values = {"da": 30.0, "rt": [25.0] * 3, "executed": [0.0] * 3}
        values[field][1] = bad
        with pytest.raises(ValueError, match=f"scenario 1: {field}"):
            ScenarioSet(**values)

    def test_names_the_first_bad_index(self):
        with pytest.raises(ValueError, match="scenario 1: rt"):
            ScenarioSet(da=30.0, rt=[1.0, np.nan, 2.0, np.inf], executed=[0.0] * 4)

    @pytest.mark.parametrize("field", ["rt", "executed"])
    def test_rejects_mismatched_lengths(self, field):
        values = {"rt": [25.0] * 3, "executed": [0.0] * 3}
        values[field] = values[field][:2]
        rt, executed = map(len, (values["rt"], values["executed"]))
        with pytest.raises(ValueError, match=f"executed has {executed} entries, rt has {rt}"):
            ScenarioSet(da=30.0, **values)

    def test_rejects_non_vector_fields(self):
        with pytest.raises(ValueError, match="1-d"):
            ScenarioSet(da=30.0, rt=[[25.0, 25.0]], executed=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="1-d"):
            ScenarioSet(da=30.0, rt=25.0, executed=0.0)


class TestRiskReport:
    def test_needs_two_scenarios(self):
        with pytest.raises(ValueError):
            report(base_unit(), scenario_set([(30.0, 25.0, 0.0)]))

    def test_infeasible_scenario_is_named(self):
        scs = scenario_set([(30.0, 25.0, 0.0), (30.0, 25.0, -80.0)])
        with pytest.raises(ContractInfeasibleError, match="scenario 1"):
            report(base_unit(), scs)

    def test_unweighted_uses_sample_variance(self):
        scs = scenario_set([(30.0, 28.0, 5.0), (30.0, 32.0, -5.0), (30.0, 30.0, 0.0)])
        rep = report(base_unit(), scs)
        # Deltas are (da-rt)*shift: 10, 10, 0. Base revenue without cover is
        # flat, so the with-cover variance is the n-1 variance of the deltas.
        deltas = [10.0, 10.0, 0.0]
        mean = sum(deltas) / 3
        var = sum((x - mean) ** 2 for x in deltas) / 2
        assert rep.expected_delta == pytest.approx(mean)
        assert rep.variance_without == 0.0
        assert rep.variance_with == pytest.approx(var)
        assert rep.incremental_variance == pytest.approx(var)

    def test_weighted_moments_are_exact(self):
        # Outcomes of probability 1/2, 1/4 and 1/4: the first is listed twice.
        w = [0.25] * 4
        scs = scenario_set([(30.0, 25.0, 10.0), (30.0, 25.0, 10.0), (30.0, 35.0, 10.0),
                            (30.0, 25.0, -10.0)], exhaustive=True)
        rep = report(base_unit(), scs)
        deltas = [50.0, 50.0, -50.0, -50.0]
        mean = sum(p * x for p, x in zip(w, deltas))
        var = sum(p * (x - mean) ** 2 for p, x in zip(w, deltas))
        assert rep.expected_delta == pytest.approx(mean)
        assert rep.incremental_variance == pytest.approx(var)


class TestEnumeratedLaw:
    def test_two_point_enumeration_is_exact(self):
        model = ScenarioModel(da_price_mean=30.0, gap_std=5.0, execution_std=10.0)
        scs = provider.exhaustive_scenarios(model)
        assert len(scs) == 4
        assert scs.exhaustive
        assert scs.da == 30.0
        # Every (gap, shift) sign pair appears once.
        pairs = sorted(zip(scs.da - scs.rt, scs.executed))
        assert pairs == [(-5.0, -10.0), (-5.0, 10.0), (5.0, -10.0), (5.0, 10.0)]
        rep = report(base_unit(), scs)
        # Payoff is gap*shift = +-50 with equal probability: mean 0, second
        # moment 2500, both exact in binary floating point.
        assert rep.expected_delta == 0.0
        assert rep.variance_without == 0.0
        assert rep.variance_with == 2500.0
        assert rep.incremental_variance == 2500.0

    def test_enumeration_indifferent_without_correlation(self):
        model = ScenarioModel(da_price_mean=30.0, gap_std=5.0, execution_std=10.0)
        scs = provider.exhaustive_scenarios(model)
        base = report(base_unit(), scs)
        marginal = report(marginal_unit(), scs)
        assert base.incremental_variance == 2500.0
        assert marginal.incremental_variance == 2500.0
        assert not marginal.incremental_variance < base.incremental_variance


C = provider._RISK_CHUNK
RISK_MODEL = ScenarioModel(
    da_price_mean=30.0, gap_std=5.0, execution_std=10.0, correlation=0.4,
    execution_limit=provider.RISK_HEADROOM,
)
UNITS = [provider.RISK_UNITS["base_load"], provider.RISK_UNITS["marginal"]]
# Draw counts at and next to chunk boundaries: walks of one to nine chunks.
BOUNDARY_SIZES = [2, C - 1, C, C + 1, 2 * C + 1, 4 * C - 1, 4 * C, 4 * C + 1, 8 * C + 1]


def chunk_test_sets(n):
    """A generated set of n draws, and the same draws as an exhaustive set."""
    scs = joined(provider.generate_scenarios(RISK_MODEL, n, seed=n))
    return scs, ScenarioSet(scs.da, scs.rt, scs.executed, exhaustive=True)


def whole_set_revenues(u, scs):
    """Each draw's revenue without and with cover, over the whole set at once."""
    da, rt = scs.da, scs.rt
    shifted = u.da_schedule + scs.executed
    if u.kind is UnitKind.BASE_LOAD:
        out = np.full_like(rt, u.da_schedule)
    else:
        out = np.where(rt > u.marginal_cost, u.p_max,
                       np.where(rt < u.marginal_cost, u.p_min, u.da_schedule))
    rev0 = da * u.da_schedule + (out - u.da_schedule) * rt
    rev1 = da * shifted + (out - shifted) * rt
    return rev0, rev1


def whole_set_report(u, scs):
    """risk_report's moments as taken over the whole set at once, before it
    walked the set in chunks."""
    rev0, rev1 = whole_set_revenues(u, scs)
    ddof = 0 if scs.exhaustive else 1
    return (float(np.mean(rev1 - rev0)), float(np.var(rev0, ddof=ddof)),
            float(np.var(rev1, ddof=ddof)))


def fsum_moments(xs, exhaustive=False):
    """Mean and variance by exact summation: the variance divides by n for
    an exhaustive set and by n - 1 for a sample."""
    n = len(xs)
    mean = math.fsum(xs) / n
    return mean, math.fsum((x - mean) ** 2 for x in xs) / (n if exhaustive else n - 1)


class TestChunkedMoments:
    # One draw is an error: TestRiskReport.test_needs_two_scenarios.
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_matches_scalar_oracle_across_chunk_boundaries(self, n):
        # Same oracle and tolerances as test_risk_report_matches_scalar_oracle.
        sets = chunk_test_sets(n)
        draws = [JointScenario(sets[0].da, *row) for row in zip(sets[0].rt.tolist(),
                                                                 sets[0].executed.tolist())]
        for u in UNITS:
            rev0 = [revenue_unit(u, sc) for sc in draws]
            rev1 = [revenue_unit_with_brs(u, sc) for sc in draws]
            delta = [b - a for a, b in zip(rev0, rev1)]
            scale = max(1.0, *map(abs, rev0), *map(abs, rev1))
            tol = 1e-12 * scale**2
            for scs in sets:
                mean = fsum_moments(delta, scs.exhaustive)[0]
                var0 = fsum_moments(rev0, scs.exhaustive)[1]
                var1 = fsum_moments(rev1, scs.exhaustive)[1]
                rep = report(u, scs)
                assert rep.expected_delta == pytest.approx(mean, rel=1e-9, abs=1e-12 * scale)
                assert rep.variance_without == pytest.approx(var0, rel=1e-9, abs=tol)
                assert rep.variance_with == pytest.approx(var1, rel=1e-9, abs=tol)
                assert rep.incremental_variance == pytest.approx(var1 - var0, rel=1e-9,
                                                                 abs=2 * tol)

    @pytest.mark.parametrize("n", [2, C - 1, C])
    def test_one_chunk_is_bit_for_bit_the_whole_set(self, n):
        for scs in chunk_test_sets(n):
            for u in UNITS:
                rep = report(u, scs)
                mean, var0, var1 = whole_set_report(u, scs)
                assert rep.expected_delta == mean
                assert rep.variance_without == var0
                assert rep.variance_with == var1
                assert rep.incremental_variance == var1 - var0

    def test_chunk_sums_are_added_exactly(self):
        # Base-load deltas (da - rt) * shift of 2^56 / C fill the first chunk,
        # 4 / C the second, and one draw of -2^56 the third. The chunk sums
        # 2^56, 4 and -2^56 cancel to 4, which a plain float sum rounds away.
        # A power-of-two C keeps every delta and chunk sum exact.
        assert C & (C - 1) == 0
        rt = np.concatenate([np.full(C, 30.0 - 2.0**56 / (32 * C)), np.full(C, 30.0 - 4.0 / C),
                             [30.0 - 2.0**51]])
        executed = np.concatenate([np.full(C, 32.0), np.ones(C), [-32.0]])
        rep = report(UNITS[0], ScenarioSet(30.0, rt, executed))
        assert rep.expected_delta == 4.0 / (2 * C + 1)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_large_offset_small_spread_across_chunks(self, exhaustive):
        # Prices near 1e5 with a spread of 0.01: revenues near 2.5e7 whose
        # variance is about 1e-14 of their squared mean, which a one-pass
        # sum of squares less n * mean**2 loses.
        n = 2 * C + 1
        z = np.random.default_rng(11).standard_normal((2, n))
        rt = 1e5 + 0.01 * z[0]
        executed = 10.0 + 0.01 * z[1]
        scs = ScenarioSet(1e5, rt, executed, exhaustive=exhaustive)
        for u in UNITS:
            rev0, rev1 = (rev.tolist() for rev in whole_set_revenues(u, scs))
            rep = report(u, scs)
            assert rep.variance_without == pytest.approx(fsum_moments(rev0, exhaustive)[1],
                                                         rel=1e-9)
            assert rep.variance_with == pytest.approx(fsum_moments(rev1, exhaustive)[1],
                                                      rel=1e-9)

    @pytest.mark.parametrize("u", UNITS, ids=lambda u: u.kind.value)
    def test_infeasible_draw_is_named_by_its_index_in_the_set(self, u):
        scs = joined(provider.generate_scenarios(RISK_MODEL, 2 * C + 1, seed=3))
        executed = scs.executed.copy()
        executed[C + 3] = -80.0
        executed[2 * C] = 80.0
        bad = ScenarioSet(scs.da, scs.rt, executed)
        with pytest.raises(ContractInfeasibleError, match=f"^scenario {C + 3}: "):
            report(u, bad)
        # Split across sets, a draw keeps its index in the walk.
        parts = [ScenarioSet(bad.da, bad.rt[sl], bad.executed[sl])
                 for sl in (slice(0, C + 1), slice(C + 1, None))]
        with pytest.raises(ContractInfeasibleError, match=f"^scenario {C + 3}: "):
            provider.risk_report([u], parts)

    def test_sets_must_agree_on_exhaustive(self):
        rows = [(30.0, 25.0, 0.0), (30.0, 35.0, 1.0)]
        for first in (False, True):
            sets = [scenario_set(rows, first), scenario_set(rows, not first)]
            with pytest.raises(ValueError, match="^scenario sets disagree on exhaustive$"):
                provider.risk_report(UNITS, sets)


# The risk units with room for any unclipped shift the tests draw.
WIDE_UNITS = [dataclasses.replace(u, p_min=0.0, p_max=400.0) for u in UNITS]


def bits(reports):
    return [tuple(map(float.hex, dataclasses.astuple(r))) for r in reports]


class TestStreamedDraws:
    @pytest.mark.parametrize("limit", [None, provider.RISK_HEADROOM])
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_chunks_are_the_whole_buffer_draws(self, n, limit):
        # Bit for bit against both normal rows drawn at once: the draws, and
        # both kinds' reports from one walk and from one walk each.
        model = dataclasses.replace(RISK_MODEL, execution_limit=limit)
        chunks = list(provider.generate_scenarios(model, n, seed=n))
        assert [len(scs) for scs in chunks] == [min(C, n - lo) for lo in range(0, n, C)]
        assert all(scs.da == model.da_price_mean and not scs.exhaustive for scs in chunks)
        whole = whole_scenarios(model, n, seed=n)
        for name in ("rt", "executed"):
            got = np.concatenate([getattr(scs, name) for scs in chunks])
            assert got.tobytes() == getattr(whole, name).tobytes()
        want = bits(report(u, whole) for u in WIDE_UNITS)
        assert bits(provider.risk_report(WIDE_UNITS, chunks)) == want
        assert bits(provider.risk_report(WIDE_UNITS, [whole])) == want
        streamed = provider.risk_report(WIDE_UNITS, provider.generate_scenarios(model, n, seed=n))
        assert bits(streamed) == want


def traced_peak(fn):
    """fn()'s result and its peak of traced memory above what was held."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


def risk_peak(n):
    """The traced peak of drawing n draws and both kinds' reports in one walk."""
    model = ScenarioModel(correlation=0.4, execution_limit=provider.RISK_HEADROOM)
    return traced_peak(
        lambda: provider.risk_report(UNITS, provider.generate_scenarios(model, n, seed=7)))[1]


def test_risk_memory_stays_below_both_normal_rows():
    # Both reports walk the draws as they are made, a chunk at a time, far
    # below the 16n bytes of both rows of normals.
    n = 1_000_000
    assert risk_peak(n) < 16 * n


def test_risk_memory_does_not_grow_with_the_draws():
    # A chunk's arrays are 8C bytes each: the draws, their revenues and the
    # walk's temporaries hold about ten of them at any n.
    peak = risk_peak(1_000_000)
    assert peak < 16 * 8 * C
    assert peak == pytest.approx(risk_peak(4 * C), rel=0.1)


def same_draws(a, b):
    return a.da == b.da and all(np.array_equal(x, y) for x, y in
                                ((a.rt, b.rt), (a.executed, b.executed)))


class TestScenarioGeneration:
    def test_seeded_and_reproducible(self):
        model = ScenarioModel()
        a = joined(provider.generate_scenarios(model, 50, seed=3))
        b = joined(provider.generate_scenarios(model, 50, seed=3))
        c = joined(provider.generate_scenarios(model, 50, seed=4))
        assert not a.exhaustive
        assert same_draws(a, b)
        assert not np.array_equal(a.rt, c.rt)
        assert not np.array_equal(a.executed, c.executed)

    @pytest.mark.parametrize("limit", [None, 12.0])
    def test_matches_recomputation_from_the_normals(self, limit):
        model = ScenarioModel(
            da_price_mean=40.0, gap_std=6.0, execution_std=9.0, correlation=-0.35,
            execution_limit=limit,
        )
        n, seed = 1000, 23
        # The first 2n normals of a (3, n) draw, the layout that once drew a
        # DA price too: the draws did not move when it went.
        z = np.random.default_rng(seed).standard_normal((3, n))[:2]
        rt = 40.0 - 6.0 * z[0]
        rho = -0.35
        ex = 9.0 * (rho * -z[0] + math.sqrt(1.0 - rho**2) * z[1])
        if limit is not None:
            assert np.abs(ex).max() > limit
            ex = np.minimum(np.maximum(ex, -limit), limit)
        scs = joined(provider.generate_scenarios(model, n, seed))
        assert len(scs) == n
        assert same_draws(scs, ScenarioSet(40.0, rt, ex))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            provider.generate_scenarios(ScenarioModel(), 0, seed=1)

    def test_correlation_is_respected(self):
        model = ScenarioModel(correlation=0.7)
        scs = joined(provider.generate_scenarios(model, 50_000, seed=11))
        got = float(np.corrcoef(scs.rt, scs.executed)[0, 1])
        assert got == pytest.approx(0.7, abs=0.05)

    def test_execution_limit_clips(self):
        model = ScenarioModel(execution_std=10.0, execution_limit=25.0)
        scs = joined(provider.generate_scenarios(model, 20_000, seed=5))
        assert np.abs(scs.executed).max() <= 25.0

    def test_nonpositive_da_price_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^da_price_mean must be finite and > 0, got {bad}$"):
                ScenarioModel(da_price_mean=bad)

    @pytest.mark.parametrize("field, op", [("da_price_mean", ">"), ("gap_std", ">="),
                                           ("execution_std", ">="), ("execution_limit", ">")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_names_a_non_finite_field(self, field, op, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite and {op} 0, got {bad}$"):
            ScenarioModel(**{field: bad})


class TestKindComparison:
    def test_shortage_correlation_favors_marginal(self):
        # When upward execution coincides with high RT prices, the shift
        # payoff hedges the marginal unit's own RT exposure.
        model = ScenarioModel(
            da_price_mean=30.0,
            gap_std=5.0,
            execution_std=10.0,
            correlation=0.5,
            execution_limit=45.0,
        )
        draws = provider.generate_scenarios(model, 20_000, seed=17)
        base, marginal = provider.risk_report([base_unit(), marginal_unit()], draws)
        assert marginal.incremental_variance < base.incremental_variance


def draw_unit(draw):
    p_min = draw(st.floats(min_value=0.0, max_value=100.0))
    width = draw(st.floats(min_value=10.0, max_value=300.0))
    p_max = p_min + width
    sched = p_min + draw(st.floats(min_value=0.0, max_value=1.0)) * width
    kind = draw(st.sampled_from([UnitKind.BASE_LOAD, UnitKind.MARGINAL]))
    cost = draw(st.floats(min_value=5.0, max_value=60.0))
    return DispatchableUnit(kind, p_min, p_max, cost, sched)


DA_PRICES = st.floats(min_value=1.0, max_value=100.0)


def draw_scenario(draw, u, da):
    """A draw at DA price da whose shift keeps u in range; the RT price may
    equal u's marginal cost, where dispatch holds the schedule."""
    rt = draw(st.just(u.marginal_cost) | st.floats(min_value=-20.0, max_value=120.0))
    lo = u.p_min - u.da_schedule
    hi = u.p_max - u.da_schedule
    executed = lo + draw(st.floats(min_value=0.0, max_value=1.0)) * (hi - lo)
    executed = min(max(executed, lo), hi)
    return JointScenario(da_price=da, rt_price=rt, executed=executed)


def feasible_cases(draw):
    u = draw_unit(draw)
    return u, draw_scenario(draw, u, draw(DA_PRICES))


feasible_case = st.composite(feasible_cases)()


@given(case=feasible_case)
@settings(max_examples=80, deadline=None)
def test_shift_payoff_identity(case):
    u, sc = case
    with_cover = revenue_unit_with_brs(u, sc)
    without = revenue_unit(u, sc)
    expected = (sc.da_price - sc.rt_price) * sc.executed
    assert with_cover - without == pytest.approx(expected, abs=1e-6)


@given(case=feasible_case, rt_out=st.floats(0.0, 400.0))
@settings(max_examples=80, deadline=None)
def test_shift_payoff_identity_any_rt_output(case, rt_out):
    # The identity holds whatever output the unit actually runs at.
    u, sc = case
    with_cover = revenue_unit_with_brs(u, sc, rt_output=rt_out)
    without = revenue_unit(u, sc, rt_output=rt_out)
    expected = (sc.da_price - sc.rt_price) * sc.executed
    assert with_cover - without == pytest.approx(expected, abs=1e-6)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_zero_shift_means_zero_incremental_risk(seed, n):
    model = ScenarioModel(execution_std=0.0, gap_std=8.0)
    [rep] = provider.risk_report([marginal_unit()], provider.generate_scenarios(model, n, seed=seed))
    assert rep.expected_delta == 0.0
    assert rep.incremental_variance == 0.0
    assert math.isfinite(rep.variance_without)


def feasible_sets(draw):
    """A unit and feasible draws at one DA price: a sample, or the equally
    likely outcomes of a discrete law, each draw listed as often as its count."""
    u = draw_unit(draw)
    da = draw(DA_PRICES)
    draws = [draw_scenario(draw, u, da) for _ in range(draw(st.integers(2, 8)))]
    counts = draw(st.none() | st.lists(st.integers(0, 10), min_size=len(draws),
                                       max_size=len(draws)).filter(lambda c: sum(c) >= 2))
    if counts is None:
        return u, draws, False
    return u, [sc for sc, k in zip(draws, counts) for _ in range(k)], True


@given(case=st.composite(feasible_sets)())
@settings(max_examples=80, deadline=None)
def test_risk_report_matches_scalar_oracle(case):
    # Per-draw revenues from the scalar functions, moments by exact
    # summation: sample moments, or exact ones for an exhaustive set.
    u, draws, exhaustive = case
    rev0 = [revenue_unit(u, sc) for sc in draws]
    rev1 = [revenue_unit_with_brs(u, sc) for sc in draws]
    delta = [b - a for a, b in zip(rev0, rev1)]
    variance = statistics.pvariance if exhaustive else statistics.variance
    mean, var0, var1 = statistics.fmean(delta), variance(rev0), variance(rev1)
    scs = scenario_set([(sc.da_price, sc.rt_price, sc.executed) for sc in draws], exhaustive)
    rep = report(u, scs)
    scale = max(1.0, *map(abs, rev0), *map(abs, rev1))
    assert rep.expected_delta == pytest.approx(mean, rel=1e-9, abs=1e-12 * scale)
    tol = 1e-12 * scale**2
    assert rep.variance_without == pytest.approx(var0, rel=1e-9, abs=tol)
    assert rep.variance_with == pytest.approx(var1, rel=1e-9, abs=tol)
    assert rep.incremental_variance == pytest.approx(var1 - var0, rel=1e-9, abs=2 * tol)
