import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankrelax import bench, solver
from rankrelax import (
    AdmmConfig,
    ExperimentSpec,
    MaskedObservations,
    datafit,
    gen_instance,
    instance_weights,
    mask_tracking,
    mask_uniform,
    normalized_distance,
    run_sweep,
    svd,
    write_results_csv,
)

from oracles import mask_tracking_loop


ROOT = Path(__file__).resolve().parent.parent


def load_benchmark_module(name):
    """A module of benchmarks/, which is not a package, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_spec(**kw):
    base = dict(
        rows=8,
        cols=24,
        rank=2,
        noise_sigma=0.1,
        pattern="uniform",
        missing_fractions=(0.0, 0.25),
        instances=2,
        mu_grid=(0.1, 1.0),
        seed=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_defaults_valid(self):
        spec = ExperimentSpec()
        assert spec.rows == 32 and spec.cols == 512 and spec.rank == 4

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ExperimentSpec(rows=2, cols=2, rank=3)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ExperimentSpec(missing_fractions=(0.5, 1.0))

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            ExperimentSpec(pattern="checkerboard")

    @pytest.mark.parametrize("field", ["rows", "cols", "rank", "instances"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_rejects_non_integer_counts(self, field, offset):
        # a float count, integral or not, fails only later, in numpy
        value = getattr(ExperimentSpec(), field)
        with pytest.raises(ValueError):
            ExperimentSpec(**{field: value + offset})
        assert getattr(ExperimentSpec(**{field: np.int64(value)}), field) == value

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_noise_sigma(self, value):
        with pytest.raises(ValueError):
            ExperimentSpec(noise_sigma=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_mu(self, value):
        with pytest.raises(ValueError):
            ExperimentSpec(mu_grid=(1.0, value))


class TestGenInstance:
    def test_noiseless_rank_one(self):
        spec = tiny_spec(rows=2, cols=2, rank=1, noise_sigma=0.0)
        m0, m = gen_instance(spec, 0)
        assert svd(m).spectrum[1] <= 1e-10
        assert np.array_equal(m0, m)

    def test_deterministic(self):
        spec = tiny_spec()
        a0, a1 = gen_instance(spec, 5)
        b0, b1 = gen_instance(spec, 5)
        assert np.array_equal(a0, b0) and np.array_equal(a1, b1)

    def test_distinct_instances(self):
        spec = tiny_spec()
        a0, _ = gen_instance(spec, 0)
        b0, _ = gen_instance(spec, 1)
        assert not np.array_equal(a0, b0)

    def test_full_scale_rank(self):
        spec = ExperimentSpec(noise_sigma=0.0)
        m0, m = gen_instance(spec, 0)
        s = svd(m).spectrum
        assert np.sum(s > 1e-8) == 4


class TestMaskUniform:
    def test_zero_fraction_all_ones(self):
        assert np.all(mask_uniform(4, 4, 0.0, 0) == 1.0)

    def test_exact_count(self):
        mask = mask_uniform(4, 4, 0.5, 1)
        assert int((mask == 0).sum()) == 8

    def test_deterministic(self):
        assert np.array_equal(mask_uniform(6, 9, 0.3, 42), mask_uniform(6, 9, 0.3, 42))

    def test_binary(self):
        mask = mask_uniform(5, 7, 0.4, 2)
        assert set(np.unique(mask)) <= {0.0, 1.0}


class TestMaskTracking:
    def test_zero_fraction_all_ones(self):
        assert np.all(mask_tracking(6, 10, 0.0, 0) == 1.0)

    def test_columns_contiguous(self):
        mask = mask_tracking(32, 40, 0.4, 7)
        for j in range(40):
            rows = np.flatnonzero(mask[:, j])
            assert rows.size >= 1
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))

    def test_realized_fraction(self):
        mask = mask_tracking(32, 512, 0.5, 3)
        realized = 1.0 - mask.mean()
        assert abs(realized - 0.5) <= 0.01

    def test_rejects_emptying_fraction(self):
        with pytest.raises(ValueError):
            mask_tracking(4, 10, 0.9, 0)

    def test_deterministic(self):
        assert np.array_equal(
            mask_tracking(16, 20, 0.3, 9), mask_tracking(16, 20, 0.3, 9)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 160),
        cols=st.integers(1, 700),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(rows=128, cols=2048, share=0.3 / (1 - 0.5 / 128), seed=7)
    @example(rows=2, cols=700, share=0.0, seed=1)
    @example(rows=1, cols=5, share=0.0, seed=0)
    def test_byte_identical_to_one_draw_at_a_time(self, rows, cols, share, seed):
        # fractions up to half a row past the empty-column limit 1 - 1/rows,
        # so both sides of the ValueError are drawn
        fraction = share * (1.0 - 0.5 / rows)
        try:
            expected = mask_tracking_loop(rows, cols, fraction, seed)
        except ValueError:
            with pytest.raises(ValueError):
                mask_tracking(rows, cols, fraction, seed)
            return
        mask = mask_tracking(rows, cols, fraction, seed)
        assert (mask.shape, mask.dtype) == (expected.shape, expected.dtype)
        assert mask.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        highs=st.lists(st.integers(1, 2**40), min_size=1, max_size=50),
        lead=st.integers(0, 3),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_array_draws_follow_scalar_draws(self, highs, lead, seed):
        """The premise of mask_tracking's whole-array calls: an array
        `high`, or a `size`, draws element by element from the stream that
        one scalar call per element reads, leaving the same state. An odd
        `lead` of 32-bit draws first leaves half a 64-bit word buffered."""
        whole, single = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (whole, single):
            rng.integers(3, size=lead)
        drawn = whole.integers(np.array(highs))
        assert drawn.tolist() == [int(single.integers(h)) for h in highs]
        drawn = whole.integers(highs[0], size=len(highs))
        assert drawn.tolist() == [int(single.integers(highs[0])) for _ in highs]
        assert whole.bit_generator.state == single.bit_generator.state


class TestMetrics:
    def test_distance_at_truth(self):
        m0 = np.ones((2, 2))
        assert normalized_distance(m0, m0) == 0.0

    def test_distance_ratio_cases(self):
        rng = np.random.default_rng(0)
        m0 = rng.standard_normal((3, 4))
        assert normalized_distance(np.zeros_like(m0), m0) == pytest.approx(1.0)
        assert normalized_distance(2 * m0, m0) == pytest.approx(1.0)

    def test_distance_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            normalized_distance(np.ones((2, 2)), np.zeros((2, 2)))

    def test_datafit_zero_on_agreement(self):
        m = np.arange(6.0).reshape(2, 3)
        obs = MaskedObservations(m, np.ones((2, 3)))
        assert datafit(m, obs) == 0.0

    def test_datafit_single_entry(self):
        mask = np.zeros((2, 2))
        mask[0, 0] = 1.0
        obs = MaskedObservations(np.zeros((2, 2)), mask)
        x = np.full((2, 2), 3.0)
        assert datafit(x, obs) == pytest.approx(3.0)

    def test_datafit_recomposition(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 5))
        mask = (rng.uniform(size=(3, 5)) < 0.5).astype(float)
        obs = MaskedObservations(m, mask)
        x = rng.standard_normal((3, 5))
        expected = np.sqrt(np.sum((mask * (x - m)) ** 2))
        assert datafit(x, obs) == pytest.approx(expected, abs=1e-12)


class TestInstanceWeights:
    def test_formula(self):
        m = np.diag([2.0, 1.0])
        w = instance_weights(m, 4.0)
        s = np.array([2.0, 1.0]) + bench.WEIGHT_EPS
        assert np.allclose(w.a, 2.0 / s)
        assert np.allclose(w.b, 4.0 / s)

    def test_always_valid_on_random_data(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((4, 7))
            w = instance_weights(m, float(rng.uniform(0.01, 10)))
            assert np.all(np.diff(w.a) >= 0)
            assert np.all(np.diff(w.b) >= 0)


class TestRunSweep:
    def test_records_well_formed(self):
        spec = tiny_spec()
        cfg = AdmmConfig(rho=1.5, max_iters=60, primal_tol=1e-5, rel_obj_tol=1e-8)
        records = run_sweep(spec, cfg)
        assert len(records) == len(spec.missing_fractions) * len(spec.mu_grid)
        for r in records:
            assert r.method == "rh"
            assert r.pattern == "uniform"
            assert r.mean_norm_dist >= 0
            assert r.mean_datafit >= 0
            assert r.instances == spec.instances
        # exactly one best flag per fraction, on the lowest distance
        for f in spec.missing_fractions:
            group = [r for r in records if r.missing_fraction == f]
            flagged = [r for r in group if r.best]
            assert len(flagged) == 1
            assert flagged[0].mean_norm_dist == min(r.mean_norm_dist for r in group)

    def test_bit_identical_reruns(self):
        spec = tiny_spec(instances=1, mu_grid=(0.3,))
        cfg = AdmmConfig(rho=1.5, max_iters=40, primal_tol=1e-5, rel_obj_tol=1e-8)
        r1 = run_sweep(spec, cfg)
        r2 = run_sweep(spec, cfg)
        assert r1 == r2
        assert all(a.mean_norm_dist == b.mean_norm_dist for a, b in zip(r1, r2))

    def test_records_carry_per_instance_convergence(self):
        spec = tiny_spec(missing_fractions=(0.25,), mu_grid=(0.3,))
        cfg = AdmmConfig(rho=1.5, max_iters=40, primal_tol=1e-5, rel_obj_tol=1e-8)
        (record,) = run_sweep(spec, cfg)
        assert spec.instances == 2
        assert len(record.iterations) == len(record.stop_reasons) == 2
        for iters, reason in zip(record.iterations, record.stop_reasons):
            assert 1 <= iters <= cfg.max_iters
            assert reason in ("primal", "stall", "cap")
            if reason == "cap":
                assert iters == cfg.max_iters

    def test_tracking_pattern_runs(self):
        spec = tiny_spec(pattern="tracking", missing_fractions=(0.25,), mu_grid=(0.3,))
        cfg = AdmmConfig(rho=1.5, max_iters=40, primal_tol=1e-5, rel_obj_tol=1e-8)
        records = run_sweep(spec, cfg)
        assert records[0].pattern == "tracking"

    def test_tracking_records_equal_with_the_reference_masks(self, monkeypatch):
        spec = tiny_spec(pattern="tracking", missing_fractions=(0.0, 0.3, 0.6), mu_grid=(0.3, 3.0))
        cfg = AdmmConfig(rho=1.5, max_iters=40, primal_tol=1e-5, rel_obj_tol=1e-8)
        records = run_sweep(spec, cfg)
        monkeypatch.setattr(bench, "mask_tracking", mask_tracking_loop)
        reference = run_sweep(spec, cfg)
        assert records == reference
        assert [r.best for r in records] == [r.best for r in reference]


class TestWriteResultsCsv:
    def test_header_and_rows(self, tmp_path):
        spec = tiny_spec(instances=1, mu_grid=(0.3,), missing_fractions=(0.0,))
        cfg = AdmmConfig(rho=1.5, max_iters=40, primal_tol=1e-5, rel_obj_tol=1e-8)
        records = run_sweep(spec, cfg)
        out = tmp_path / "results.csv"
        write_results_csv(records, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "method,pattern,missing_fraction,mu,instances,mean_norm_dist,mean_datafit"
        )
        assert len(lines) == 1 + len(records)
        cells = lines[1].split(",")
        assert cells[0] == "rh"
        assert cells[1] == "uniform"
        assert float(cells[3]) == pytest.approx(0.3)
        assert int(cells[4]) == 1


class TestTracedLayers:
    """Every layer the benchmark reports per-layer metrics for is reached
    through the binding its tracer wraps, so a refactor that routes
    around one fails here instead of reading as a zero in the benchmark."""

    def test_each_traced_layer_is_called(self):
        tracing = load_benchmark_module("tracing")
        metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        spans = {
            m["name"].rsplit(".", 1)[0]
            for m in metrics
            if m["name"].endswith((".calls", ".self_ms"))
        }
        assert "blockmax.piece_argmax" in spans

        cfg = AdmmConfig(max_iters=20)
        tracer = tracing.Tracer()
        with tracer.installed():
            bench.run_sweep(tiny_spec(instances=1), cfg)
            m0, m = gen_instance(tiny_spec(), 0)
            obs = MaskedObservations(m=m, w=mask_tracking(8, 24, 0.3, 0))
            solver.admm_complete(obs, instance_weights(m, 3.0), cfg)
        calls = {name: row[0] for name, row in tracer.layers().items()}
        assert {name: calls.get(name, 0) for name in spans if calls.get(name, 0) == 0} == {}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: at the 300-iteration cap both mu solves of this 60%-missing "
    "unit miss the check's limit (best distance 0.0749 and 0.0753 against 0.0699); "
    "the change that makes them pass flips this test",
)
@pytest.mark.parametrize("seed, unit", [(4, 140), (5, 152)])
def test_study_uniform_capped_units_pass_their_check(seed, unit):
    """The study_uniform units that a fast enough 50 s run reaches and fails."""
    workloads = load_benchmark_module("workloads")
    ops = workloads.StudyUniform(seed, "full").unit(unit)
    assert ops and all(op.ok for op in ops)
