"""Command-line interface: config resolution, exit codes, reproducibility."""

import json
import os
from itertools import product

import pytest

from kdvlab.cli import ConfigError, _experiment_config, main, parse_config
from kdvlab.experiments import ExperimentConfig
from kdvlab.resonance import p_n, prefactor, q_n


def run_cli(*args):
    return main(list(args))


class TestParseConfig:
    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j = 3\nK = 16\ndt = 0.001\nT = 0.1\n")
        resolved = parse_config("solve", str(cfg), {"j": "2"})
        assert resolved["j"] == 2
        assert resolved["K"] == 16

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jj = 2\n")
        with pytest.raises(ConfigError, match="'jj'"):
            parse_config("solve", str(cfg), {})
        cfg.write_text("j = 2\nK = 8\nN_list = 4\nthreads = 2\n")
        with pytest.raises(ConfigError, match="unknown configuration key 'threads'"):
            parse_config("approx-sweep", str(cfg), {})

    def test_missing_required_named(self):
        with pytest.raises(ConfigError, match="'K'"):
            parse_config("solve", None, {"j": "2", "dt": "0.001", "T": "0.1"})

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="'K'"):
            parse_config("solve", None, {"j": "2", "K": "many", "dt": "1e-3", "T": "0.1"})

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\n\nj = 1  # inline\nK = 8\ndt = 1e-3\nT = 0.01\n")
        resolved = parse_config("solve", str(cfg), {})
        assert resolved["j"] == 1 and resolved["K"] == 8

    def test_n_list_parsing(self):
        resolved = parse_config(
            "almost-cons", None, {"j": "1", "K": "8", "N_list": "2,4,8", "s": "-0.5"}
        )
        assert resolved["N_list"] == (2, 4, 8)
        # N_list holds frequencies, which need not be integers
        resolved = parse_config(
            "almost-cons", None, {"j": "1", "K": "8", "N_list": "2.5,5", "s": "-0.5"}
        )
        assert resolved["N_list"] == (2.5, 5.0)

    # ExperimentConfig owns the defaults of its fields: a command given only
    # its required keys configures the experiment the dataclass's defaults do.
    @pytest.mark.parametrize("command, required", [
        ("approx-sweep", {"j": 2, "K": 32, "N_list": (2, 4)}),
        ("tail-sweep", {"j": 2, "K": 32, "N_list": (2, 4)}),
        ("almost-cons", {"j": 1, "K": 8, "N_list": (2, 4), "s": -1.5}),
        ("squeeze", {"j": 2, "K": 8, "N_list": (4,), "k0": 2, "radius": 0.5}),
        ("scaling-check", {"j": 2, "K": 16, "s": -1.5}),
    ])
    def test_experiment_defaults_are_the_dataclass_defaults(self, command, required):
        raw = {k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
               for k, v in required.items()}
        ecfg = _experiment_config(parse_config(command, None, raw))
        assert ecfg == ExperimentConfig(**required)


class TestExitCodes:
    def test_resonance_check_success(self, tmp_path, capsys):
        status = run_cli("resonance-check", "--j", "1", "--K", "16", "--out", str(tmp_path))
        assert status == 0
        out = capsys.readouterr().out
        assert "ratio in [3, 3]" in out

    def test_resonance_csv_matches_scalar_api(self, tmp_path):
        j, K, K4 = 2, 8, 6
        status = run_cli(
            "resonance-check", "--j", str(j), "--K", str(K), "--K4", str(K4),
            "--csv", "tuples.csv", "--out", str(tmp_path),
        )
        assert status == 0
        lines = ["tuple,P_n,Q_n,ratio"]
        for arity, cutoff in ((3, K), (4, K4)):
            rng = [k for k in range(-cutoff, cutoff + 1) if k != 0]
            for free in product(rng, repeat=arity - 1):
                t = free + (-sum(free),)
                if t[-1] == 0 or abs(t[-1]) > cutoff or prefactor(t, j) == 0:
                    continue
                q = q_n(t, j)
                ratio = float(abs(q) / max(abs(e) for e in t) ** (2 * j - 2))
                lines.append(f"{' '.join(map(str, t))},{p_n(t, j)},{q},{ratio!r}")
        expected = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "tuples.csv").read_bytes() == expected

    def test_solve_bad_dt_is_config_error(self, tmp_path):
        status = run_cli(
            "solve", "--j", "2", "--K", "8", "--dt", "-0.1", "--T", "0.1",
            "--out", str(tmp_path),
        )
        assert status == 2

    # Each invalid value is refused when the run's grid, FlowSpec,
    # IMultiplier, experiment configuration, sweep band or snapshot is
    # checked, before anything runs: exit 2 with the offending key named.
    @pytest.mark.parametrize("argv, key", [
        (["solve", "--j", "2", "--K", "8", "--N", "9", "--dt", "1e-3", "--T", "0.01"],
         "N=9.0 exceeds"),
        (["solve", "--j", "2", "--K", "0", "--dt", "1e-3", "--T", "0.01"], "cutoff K"),
        (["tail-sweep", "--j", "2", "--K", "0", "--N_list", "4", "--T", "0.01"], "cutoff K"),
        (["energies", "--j", "2", "--K", "8", "--s", "0.5", "--N", "4", "--dt", "1e-3",
          "--T", "0.01"], "index s"),
        (["almost-cons", "--j", "1", "--K", "8", "--s", "0.5", "--N_list", "4",
          "--T", "0.01"], "index s"),
        (["squeeze", "--j", "2", "--K", "8", "--N_list", "4", "--k0", "5",
          "--radius", "0.5"], "|k0|=5 exceeds N=4"),
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--scheme", "rk45"],
         "scheme 'rk45'"),
        (["approx-sweep", "--j", "2", "--K", "64", "--N_list", "4", "--T", "0.01",
          "--scheme", "rk45"], "scheme 'rk45'"),
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01",
          "--input", "missing.json"], "key 'input': no such file"),
        (["energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4", "--dt", "0",
          "--T", "0.01"], "dt must be positive"),
        (["approx-sweep", "--j", "2", "--K", "16", "--N_list", "8", "--T", "0.01"],
         "K/mu=16 under-resolved: need K/mu >= 4 max(N_list)=32"),
        (["approx-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16", "--mu", "4",
          "--T", "0.01"], "4 max(N_list)=64"),
        (["tail-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16", "--mu", "4",
          "--T", "0.01"], "4 max(N_list)=64"),
        (["almost-cons", "--j", "1", "--K", "8", "--s", "-0.5", "--N_list", ",",
          "--T", "0.01"], "needs N_list"),
        (["squeeze", "--j", "2", "--K", "16", "--mu", "0.5", "--N_list", "4", "--k0", "3",
          "--radius", "0.7", "--T", "0"], "|k0|=3 exceeds N=4"),
        (["resonance-check", "--j", "1", "--K", "1"], "key 'K': 1"),
        (["resonance-check", "--j", "1", "--K", "4", "--K4", "1"], "key 'K4': 1"),
        (["resonance-check", "--j", "0", "--K", "4"], "key 'j': 0"),
        (["resonance-check", "--j", "-1", "--K", "4"], "key 'j': -1"),
        (["almost-cons", "--j", "1", "--K", "8", "--s", "-0.5", "--N_list", "4",
          "--data_kmax", "0", "--T", "0.01"], "data_kmax=0.0 is below"),
        (["squeeze", "--j", "2", "--K", "8", "--N_list", "4", "--k0", "2",
          "--radius", "0.5", "--z_re", "nan"], "key 'z_re'"),
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--samples", "0"],
         "key 'samples': 0"),
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--samples", "-3"],
         "key 'samples': -3"),
        (["energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4", "--dt", "1e-3",
          "--T", "0.01", "--samples", "0"], "key 'samples': 0"),
        (["almost-cons", "--j", "1", "--K", "8", "--s", "-0.5", "--N_list", "4",
          "--amplitude", "0", "--T", "0.01"], "amplitude must be positive"),
        (["tail-sweep", "--j", "2", "--K", "64", "--N_list", "4,8", "--tail_size", "0",
          "--T", "0.01"], "tail_size must be positive"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, monkeypatch, capsys, argv, key):
        monkeypatch.chdir(tmp_path)
        status = run_cli(*argv, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("configuration error:") and key in err
        assert not (tmp_path / "manifest.json").exists()

    def test_malformed_snapshot_is_config_error(self, tmp_path, capsys):
        snap = tmp_path / "bad.json"
        snap.write_text('{"schema_version": 1}')
        status = run_cli(
            "solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01",
            "--input", str(snap), "--out", str(tmp_path),
        )
        assert status == 2
        assert "key 'input': snapshot missing key 'j'" in capsys.readouterr().err

    def test_missing_required_is_config_error(self, tmp_path):
        status = run_cli("solve", "--j", "2", "--out", str(tmp_path))
        assert status == 2

    def test_nonmonotone_almost_cons_is_run_failure(self, tmp_path, capsys):
        # both thresholds sit above the grid band, so the two rows are the
        # identical bare L2 drift: the strict-decrease assertion must trip
        # (exit 1) and name the offending pair
        status = run_cli(
            "almost-cons", "--j", "1", "--K", "8", "--N_list", "8,16",
            "--s", "-0.5", "--dt", "1e-3", "--T", "0.05", "--out", str(tmp_path),
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "not strictly decreasing" in err


class TestSolveOutputs:
    def test_snapshots_and_csv(self, tmp_path):
        status = run_cli(
            "solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.02",
            "--samples", "4", "--seed", "3", "--out", str(tmp_path),
        )
        assert status == 0
        files = sorted(os.listdir(tmp_path))
        assert "manifest.json" in files
        assert "run_conserved.csv" in files
        assert any(f.startswith("run_0") and f.endswith(".json") for f in files)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["finished"] is not None

    def test_snapshot_input_round_trip(self, tmp_path):
        s1 = run_cli(
            "solve", "--j", "1", "--K", "8", "--dt", "1e-3", "--T", "0.01",
            "--samples", "1", "--seed", "5", "--out", str(tmp_path / "a"),
        )
        assert s1 == 0
        snap = str(tmp_path / "a" / "run_0000.json")
        s2 = run_cli(
            "solve", "--j", "1", "--K", "8", "--dt", "1e-3", "--T", "0.01",
            "--input", snap, "--out", str(tmp_path / "b"),
        )
        assert s2 == 0

    def test_mismatched_snapshot_grid_rejected(self, tmp_path, capsys):
        run_cli(
            "solve", "--j", "1", "--K", "8", "--dt", "1e-3", "--T", "0.01",
            "--samples", "1", "--out", str(tmp_path / "a"),
        )
        status = run_cli(
            "solve", "--j", "2", "--K", "16", "--dt", "1e-3", "--T", "0.01",
            "--input", str(tmp_path / "a" / "run_0000.json"), "--out", str(tmp_path / "b"),
        )
        assert status == 2
        assert "key 'input': grid (j=1, K=8, mu=1.0) does not match" in capsys.readouterr().err


class TestReproducibility:
    def test_byte_identical_csv_rerun(self, tmp_path):
        args = [
            "scaling-check", "--j", "1", "--K", "8", "--mu", "2", "--s", "-1.5",
            "--dt", "1e-3", "--T", "0.02", "--seed", "7",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "r1")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "r2")) == 0
        csv1 = (tmp_path / "r1" / "scaling-check.csv").read_bytes()
        csv2 = (tmp_path / "r2" / "scaling-check.csv").read_bytes()
        assert csv1 == csv2

    def test_config_hash_stable_under_reordering(self, tmp_path):
        c1 = tmp_path / "a.cfg"
        c2 = tmp_path / "b.cfg"
        c1.write_text("j = 1\nK = 8\ndt = 1e-3\nT = 0.01\n")
        c2.write_text("T = 0.01\ndt = 1e-3\nK = 8\nj = 1\n")
        assert run_cli("solve", "--config", str(c1), "--out", str(tmp_path / "o1")) == 0
        assert run_cli("solve", "--config", str(c2), "--out", str(tmp_path / "o2")) == 0
        h1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())["config_hash"]
        h2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())["config_hash"]
        assert h1 == h2


class TestEnergiesCommand:
    def test_csv_columns(self, tmp_path):
        status = run_cli(
            "energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4",
            "--dt", "1e-3", "--T", "0.01", "--samples", "4", "--out", str(tmp_path),
        )
        assert status == 0
        header = (tmp_path / "energies.csv").read_text().splitlines()[0]
        assert header == "t,E2,E3,E4,Lambda5M5"

    def test_quintic_cap_skips_column(self, tmp_path, capsys):
        status = run_cli(
            "energies", "--j", "1", "--K", "20", "--s", "-0.5", "--N", "4",
            "--dt", "1e-3", "--T", "0.01", "--samples", "2", "--out", str(tmp_path),
        )
        assert status == 0
        assert "quintic cap" in capsys.readouterr().out
        body = (tmp_path / "energies.csv").read_text().splitlines()[1]
        assert body.endswith("nan")


class TestSqueezeCommand:
    def test_witness_artifacts(self, tmp_path):
        status = run_cli(
            "squeeze", "--j", "2", "--K", "8", "--N_list", "8", "--k0", "2",
            "--radius", "0.5", "--r", "0.1", "--T", "0", "--samples", "8",
            "--n_ascent", "20", "--seed", "1", "--out", str(tmp_path),
        )
        assert status == 0
        assert (tmp_path / "witness.json").exists()
        assert (tmp_path / "squeeze.csv").exists()

    def test_k0_is_an_index_at_mu2(self, tmp_path):
        # mode 6 has frequency 3 <= N=4 at mu=2, and mode 5 frequency 2.5 <= N=2.5
        for n_list, k0 in (("4", "6"), ("2.5", "5")):
            status = run_cli(
                "squeeze", "--j", "2", "--K", "16", "--mu", "2", "--N_list", n_list,
                "--k0", k0, "--radius", "0.7", "--r", "0.2", "--T", "0", "--samples", "4",
                "--n_ascent", "8", "--out", str(tmp_path),
            )
            assert status == 0
            row = (tmp_path / "squeeze.csv").read_text().splitlines()[1]
            assert row.startswith(f"{k0},0.7,")
