import numpy as np
import pytest

from rankrelax.cli import load_matrix, run, save_matrix


class TestMatrixIO:
    def test_parse_small(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        p = tmp_path / "m.csv"
        save_matrix(x, p)
        assert np.array_equal(load_matrix(p), x)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError):
            load_matrix(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,apple\n")
        with pytest.raises(ValueError):
            load_matrix(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("\n")
        with pytest.raises(ValueError):
            load_matrix(p)


class TestSynth:
    def test_writes_both_outputs(self, tmp_path):
        m_path = tmp_path / "m.csv"
        gt_path = tmp_path / "m0.csv"
        code = run(
            [
                "synth",
                "--rows", "6", "--cols", "10", "--rank", "2",
                "--sigma", "0.1", "--seed", "7",
                "--out", str(m_path), "--gt", str(gt_path),
            ]
        )
        assert code == 0
        m = load_matrix(m_path)
        m0 = load_matrix(gt_path)
        assert m.shape == (6, 10) and m0.shape == (6, 10)
        assert np.linalg.matrix_rank(m0) == 2

    def test_seed_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            run(["synth", "--rows", "4", "--cols", "5", "--rank", "1",
                 "--seed", "3", "--out", str(p)])
            outs.append(load_matrix(p))
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_rejected(self, tmp_path, sigma):
        out_path = tmp_path / "m.csv"
        code = run(["synth", "--rows", "3", "--cols", "4", "--rank", "1",
                    "--sigma", sigma, "--out", str(out_path)])
        assert code == 2
        assert not out_path.exists()


class TestComplete:
    def test_full_mask_nuclear(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6))
        m_path = tmp_path / "m.csv"
        out_path = tmp_path / "x.csv"
        save_matrix(m, m_path)
        code = run(
            [
                "complete", "--matrix", str(m_path),
                "--penalty", "nuclear", "--mu", "0.5",
                "--max-iters", "2000", "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "objective" in capsys.readouterr().out
        x = load_matrix(out_path)
        assert x.shape == (4, 6)

    def test_with_mask_file(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4))
        mask = (rng.uniform(size=(4, 4)) < 0.8).astype(float)
        m_path, w_path, out_path = (
            tmp_path / "m.csv", tmp_path / "w.csv", tmp_path / "x.csv"
        )
        save_matrix(m, m_path)
        save_matrix(mask, w_path)
        code = run(
            [
                "complete", "--matrix", str(m_path), "--mask", str(w_path),
                "--penalty", "rmu", "--mu", "0.1",
                "--max-iters", "500", "--out", str(out_path),
            ]
        )
        assert code == 0

    def test_missing_mu_is_numeric_failure(self, tmp_path):
        m_path = tmp_path / "m.csv"
        save_matrix(np.eye(2), m_path)
        code = run(
            ["complete", "--matrix", str(m_path), "--penalty", "nuclear",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_bad_mask_values(self, tmp_path):
        m_path, w_path = tmp_path / "m.csv", tmp_path / "w.csv"
        save_matrix(np.eye(2), m_path)
        (w_path).write_text("1,0.5\n0,1\n")
        code = run(
            ["complete", "--matrix", str(m_path), "--mask", str(w_path),
             "--penalty", "nuclear", "--mu", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestProx:
    def test_hardrank_projection(self, tmp_path):
        m_path, out_path = tmp_path / "m.csv", tmp_path / "x.csv"
        save_matrix(np.diag([3.0, 1.0, 0.2]), m_path)
        code = run(
            ["prox", "--matrix", str(m_path), "--tau", "1.01",
             "--penalty", "hardrank", "--rank", "1", "--out", str(out_path)]
        )
        assert code == 0
        x = load_matrix(out_path)
        assert np.linalg.matrix_rank(x, tol=1e-6) == 1

    def test_weak_tau_rejected(self, tmp_path):
        m_path = tmp_path / "m.csv"
        save_matrix(np.eye(2), m_path)
        code = run(
            ["prox", "--matrix", str(m_path), "--tau", "0.5",
             "--penalty", "nuclear", "--mu", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_rejected(self, tmp_path, tau):
        m_path, out_path = tmp_path / "m.csv", tmp_path / "x.csv"
        save_matrix(np.eye(2), m_path)
        code = run(
            ["prox", "--matrix", str(m_path), "--tau", tau,
             "--penalty", "nuclear", "--mu", "1", "--out", str(out_path)]
        )
        assert code == 2
        assert not out_path.exists()

    def test_missing_file_io_failure(self, tmp_path):
        code = run(
            ["prox", "--matrix", str(tmp_path / "absent.csv"), "--tau", "2",
             "--penalty", "nuclear", "--mu", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestSweep:
    def sweep_args(self, out):
        return [
            "sweep", "--pattern", "uniform", "--fractions", "0,0.25",
            "--rows", "8", "--cols", "24", "--rank", "2", "--sigma", "0.1",
            "--instances", "1", "--mu-grid", "0.3,1", "--seed", "5",
            "--out", str(out),
        ]

    def test_writes_table(self, tmp_path):
        out = tmp_path / "results.csv"
        assert run(self.sweep_args(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method,pattern,missing_fraction")
        assert len(lines) == 5  # header + 2 fractions x 2 mus

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(self.sweep_args(a))
        run(self.sweep_args(b))
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run(["synth", "--bogus", "1", "--out", "x.csv"]) == 1

    def test_unknown_command(self):
        assert run(["transmogrify"]) == 1

    def test_bad_penalty_choice(self, tmp_path):
        m_path = tmp_path / "m.csv"
        save_matrix(np.eye(2), m_path)
        code = run(
            ["complete", "--matrix", str(m_path), "--penalty", "l1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
