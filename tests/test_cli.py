"""Command-line interface: config resolution, exit codes, reproducibility."""

import csv
import hashlib
import io
import json
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kdvlab import cli, experiments, imethod, resonance, spectral
from kdvlab.cli import (
    ConfigError, _column_text, _experiment_config, _joined, _write_csv, main, parse_config,
)
from kdvlab.experiments import ExperimentConfig
from kdvlab.imethod import constant_form
from kdvlab.resonance import verify_factorization
from lattice_reference import nested_loop_rows


README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_readme_examples_parse(self, tmp_path, monkeypatch):
        # every kdvlab line of the README's command-line block names a
        # command and keys of the command table, with values its parsers
        # take, sweep.cfg written from the README's own heredoc; no flow runs
        text = README.read_text()
        block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "kdvlab " in b)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.cfg").write_text(
            re.search(r"cat > sweep\.cfg <<'EOF'\n(.*?\n)EOF\n", block, re.S)[1])
        lines = [line for line in block.splitlines() if line.startswith("kdvlab ")]
        assert len(lines) == 9
        for line in lines:
            args = cli._build_parser().parse_args(shlex.split(line)[1:])
            keys = cli._COMMANDS[args.command][1]
            parse_config(args.command, args.config, {k: getattr(args, k) for k in keys})

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

    def test_least_gamma4_bound(self, tmp_path, capsys):
        # K4=3 is the least bound at which Gamma_4 has non-resonant rows
        argv = ("--j", "2", "--K", "2", "--K4", "3", "--out", str(tmp_path))
        assert run_cli("resonance-check", *argv) == 0
        assert "Gamma4 K=3 count=32 " in capsys.readouterr().out

    def test_resonance_csv_matches_scalar_api(self, tmp_path):
        # at j=6, K=16 the Gamma3 entries reach 3*16^13 > 2^53, so Gamma3 runs
        # on Python ints (an object column) while Gamma4 at K4=6 stays int64
        for j, K, K4 in ((2, 8, 6), (6, 16, 6)):
            out = tmp_path / f"j{j}"
            status = run_cli(
                "resonance-check", "--j", str(j), "--K", str(K), "--K4", str(K4),
                "--csv", "tuples.csv", "--out", str(out),
            )
            assert status == 0
            lines = ["tuple,P_n,Q_n,ratio"] + [
                f"{' '.join(map(str, t))},{p},{q},{float(ratio)!r}"
                for arity, cutoff in ((3, K), (4, K4))
                for t, p, q, ratio in nested_loop_rows(j, cutoff, arity)
            ]
            expected = ("\n".join(lines) + "\n").encode()
            assert (out / "tuples.csv").read_bytes() == expected

    # the README example's CSV, and Gamma3 on Python ints (j=6)
    @pytest.mark.parametrize("j, K, K4", [(2, 64, 24), (6, 16, 6)])
    def test_resonance_csv_in_pieces(self, tmp_path, monkeypatch, j, K, K4):
        # pieces of 1 and 7 rows, the default size, and one piece for all
        # rows give the same bytes; pieces of 1 row on the small lattice
        # only, as the README lattice would write 76,864 of them
        def csv_at(piece):
            if piece is not None:
                monkeypatch.setattr(resonance, "PIECE_TUPLES", piece)
            out = tmp_path / f"p{piece}"
            argv = ("--j", str(j), "--K", str(K), "--K4", str(K4), "--csv", "t.csv")
            assert run_cli("resonance-check", *argv, "--out", str(out)) == 0
            return (out / "t.csv").read_bytes()

        whole = csv_at(10**9)
        assert whole.count(b"\n") - 1 == sum(
            verify_factorization(j, k, arity).count for k, arity in ((K, 3), (K4, 4))
        )
        for piece in (1, 7, None) if K < 64 else (7, None):
            assert csv_at(piece) == whole, piece

    def test_resonance_csv_digest(self, tmp_path):
        # the README example's tuple CSV, byte for byte
        argv = ("--j", "2", "--K", "64", "--K4", "24", "--csv", "t.csv")
        assert run_cli("resonance-check", *argv, "--out", str(tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest()
        assert digest == "291deb9582650693fd047d656efc4546e2fb722dc4994a1284d82e3009f886a3"

    def test_resonance_csv_write_peak(self, tmp_path, monkeypatch):
        # the README example's 3.2 MB CSV: the whole-file write held the
        # text of every row at once and peaked at about 18 MiB above what was
        # held before it, and the write in pieces at 3.53 MiB (tracemalloc).
        # Each piece is now formatted and written by the sink of the walk
        # that verified it: a piece's cells are dropped once they are joined
        # into its byte matrix, whose compacted text is written without a
        # copy, and one piece peaks at 2.14 MiB
        peaks = []
        true_verify = cli.verify_factorization

        def traced(*args, sink):
            def traced_sink(piece):
                tracemalloc.start()
                try:
                    sink(piece)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

            return true_verify(*args, sink=traced_sink)

        monkeypatch.setattr(cli, "verify_factorization", traced)
        argv = ("--j", "2", "--K", "64", "--K4", "24", "--csv", "t.csv")
        assert run_cli("resonance-check", *argv, "--out", str(tmp_path)) == 0
        assert len(peaks) > 1 and max(peaks) < 2.5 * 2**20

    def test_resonance_check_peak_does_not_grow_with_the_lattice(self, tmp_path):
        # the check holds one walk piece, not the rows it has verified:
        # Gamma_4 at K4=48 has 8.5 times the rows of the README example at
        # K4=24, and the two runs peak within 1.5 MiB of each other
        # (tracemalloc: 5.28 and 5.94 MiB; holding the rows, 7.41 and 33.8)
        peaks = []
        for K4 in (24, 48):
            argv = ("--j", "2", "--K", "64", "--K4", str(K4), "--csv", "t.csv")
            tracemalloc.start()
            try:
                assert run_cli("resonance-check", *argv, "--out", str(tmp_path)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1.5 * 2**20 and max(peaks) < 7 * 2**20

    def test_failed_factorization_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        # an off-hyperplane probe, (1, 2, 4): P = 73 and prefactor 8. The
        # row before it in the piece, (1, 1, 1), is written to the CSV's
        # temporary file by the walk's sink; the failure is raised inside the
        # writer's scope, so the run exits 1 and leaves no CSV
        fake = (np.array([1, 1]), np.array([1, 2]), np.array([1, 4]))
        monkeypatch.setattr(resonance, "_hyperplane_chunks", lambda n, K: iter([fake]))
        argv = ("--j", "1", "--K", "4", "--csv", "t.csv", "--out", str(tmp_path))
        assert run_cli("resonance-check", *argv) == 1
        err = capsys.readouterr().err
        assert err == "run failed: factorization failed on Gamma_3 at (1, 2, 4)\n"
        assert os.listdir(tmp_path) == ["manifest.json"]

    @pytest.mark.parametrize("argv, key, bound", [
        # the walk's 2K values: 32 TB with their two ranges
        (("--K", "1000000000000"), "key 'K': K=1000000000000 needs Gamma_3 values", 2**20),
        # Gamma_4's second level of heads, 141 GB; the first, 40,000 heads
        # of 10 int64 arrays, is admitted and formed (3.36 MiB)
        (("--K", "16", "--K4", "20000"), "key 'K4': K=20000 needs Gamma_4 heads", 4 * 2**20),
    ], ids=["K", "K4"])
    def test_oversized_resonance_check_refused_before_the_walk(
        self, tmp_path, capsys, argv, key, bound
    ):
        # refused by the walk's own admission, naming the key, before it
        # forms the arrays that would exceed BUDGET_BYTES: exit 2, no
        # manifest, and no CSV, also where Gamma_3's rows were written
        # before Gamma_4 was refused
        tracemalloc.start()
        try:
            status = run_cli("resonance-check", "--j", "1", *argv, "--csv", "t.csv",
                             "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"configuration error: bad value for {key} of ")
        assert os.listdir(tmp_path) == []
        assert peak < bound

    def test_both_walks_admitted_before_either_verifies(self, tmp_path, monkeypatch, capsys):
        # Gamma_3 at K=1000 fits the budget, and its 3.0M rows take seconds
        # to verify and write; Gamma_4 at K4=20000 does not. Both walks are
        # admitted first, so no row of Gamma_3 reaches the CSV's writer
        pieces = []
        monkeypatch.setattr(cli, "_write_rows", lambda fh, cols: pieces.append(cols))
        argv = ("--j", "1", "--K", "1000", "--K4", "20000", "--csv", "t.csv")
        assert run_cli("resonance-check", *argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad value for key 'K4': K=20000 needs Gamma_4 heads")
        assert pieces == [] and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, name, argv", [
        ("approx-sweep", "approx_truncated_sweep", ()),
        ("tail-sweep", "high_freq_insensitivity", ()),
        ("almost-cons", "almost_conservation_sweep", ("--s", "-0.5")),
    ])
    def test_sweep_refuses_its_configuration_once(
        self, tmp_path, monkeypatch, capsys, command, name, argv
    ):
        # the sweep itself refuses an empty N_list: it is called once, and
        # no other check refuses the configuration before it
        calls = []
        sweep = getattr(cli, name)

        def counted(cfg):
            calls.append(cfg)
            return sweep(cfg)

        monkeypatch.setattr(cli, name, counted)
        status = run_cli(command, "--j", "1", "--K", "8", "--N_list", ",", *argv,
                         "--T", "0.01", "--out", str(tmp_path))
        assert status == 2
        assert capsys.readouterr().err == "configuration error: the sweep needs N_list\n"
        assert len(calls) == 1
        assert not (tmp_path / "manifest.json").exists()

    def test_oversize_grid_refused_before_any_array(self, tmp_path, capsys):
        # K=10^12 needs 3e12 physical points, 48 TB of samples: exit 2 naming
        # K before the grid, the datum or the flow allocates
        tracemalloc.start()
        try:
            status = run_cli("solve", "--j", "2", "--K", "1000000000000", "--dt", "1e-3",
                             "--T", "0.01", "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("configuration error: mode cutoff K=1000000000000 needs ")
        assert not (tmp_path / "manifest.json").exists()
        assert peak < 2**20

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
        # the flow has one step, so no command takes a scheme key
        (["solve", "--config", "scheme.cfg", "--j", "2", "--K", "8", "--dt", "1e-3",
          "--T", "0.01"], "unknown configuration key 'scheme'"),
        (["approx-sweep", "--config", "scheme.cfg", "--j", "2", "--K", "64", "--N_list", "4",
          "--T", "0.01"], "unknown configuration key 'scheme'"),
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
        # an output path in a missing directory is refused before the run
        (["resonance-check", "--j", "1", "--K", "4", "--csv", "sub/t.csv"],
         "key 'csv': no such directory"),
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--output",
          "sub/run"], "key 'output': no such directory"),
        # the CSV path names a file, so an existing directory is refused
        (["resonance-check", "--j", "1", "--K", "4", "--csv", "."], "key 'csv': directory"),
        # a negative seed is refused before any draw
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--seed", "-1"],
         "key 'seed': -1"),
        (["energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4", "--dt", "1e-3",
          "--T", "0.01", "--seed", "-1"], "key 'seed': -1"),
        (["squeeze", "--j", "2", "--K", "8", "--N_list", "4", "--k0", "2", "--radius", "0.5",
          "--seed", "-1"], "seed must be >= 0, got -1"),
        (["approx-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16", "--T", "0.01",
          "--seed", "-1"], "seed must be >= 0, got -1"),
        # a physical grid over the budget is refused before any array
        (["solve", "--j", "2", "--K", "1000000000000000000000", "--dt", "1e-3", "--T", "0.01"],
         "K=1000000000000000000000 needs 3001892705939982420000 physical points"),
        # a negative ascent length is refused, not run as none
        (["squeeze", "--j", "2", "--K", "8", "--N_list", "8", "--k0", "1", "--radius", "0.5",
          "--n_ascent", "-3", "--T", "0.01", "--samples", "2"], "n_ascent must be >= 0, got -3"),
        # a decay whose field underflows to 0 is refused, naming decay
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--decay", "1000"],
         "decay=1000 zeroes every kept mode"),
        (["energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4", "--dt", "1e-3",
          "--T", "0.01", "--decay", "1000"], "decay=1000 zeroes every kept mode"),
        (["approx-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16", "--T", "0.01",
          "--decay", "1000"], "decay=1000 zeroes every kept mode"),
        # a sweep's datum needs a stored mode up to min(N_list)
        (["approx-sweep", "--j", "2", "--K", "64", "--N_list", "0.5,8,16", "--dt", "1e-3",
          "--T", "0.01"], "min(N_list)=0.5 is below the first stored frequency 1/mu=1"),
        # a truncated flow at N <= 0 would run on a zero field
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--N", "0"],
         "truncated N=0.0 is not > 0"),
        (["solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01", "--N", "-1"],
         "truncated N=-1.0 is not > 0"),
        # at |k| <= 2 every zero-sum 4-tuple is two cancelling pairs, so
        # Gamma_4 would have no non-resonant row: its bound, K4 or else K
        (["resonance-check", "--j", "1", "--K", "16", "--K4", "2"], "key 'K4': 2"),
        (["resonance-check", "--j", "2", "--K", "2"], "key 'K': 2"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, monkeypatch, capsys, argv, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scheme.cfg").write_text("scheme = etdrk4\n")
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

    @pytest.mark.parametrize("payload, what", [
        ("7", "not a JSON object"),
        ('{"schema_version": 1, "j": 2, "mu": 1.0, "K": 8, "coeffs": 5}', "not a list"),
        ('{"schema_version": 1, "j": 2, "mu": 1.0, "K": 8, "coeffs": [1]}', "malformed coeff"),
        ('{"schema_version": 1, "j": 2, "mu": 1.0, "K": 8, "coeffs": [[1, "x", 0.0]]}',
         "not a number: 'x'"),
        # an index is a finite integer: 1.5 is not mode 1, 8.7 not K=8
        ('{"schema_version": 1, "j": 2, "mu": 1.0, "K": 8, "coeffs": [[1.5, 1.0, 0.0]]}',
         "coeff entry is not an integer: 1.5"),
        ('{"schema_version": 1, "j": 2, "mu": 1.0, "K": 8.7, "coeffs": []}',
         "K is not an integer: 8.7"),
        ('{"schema_version": 1, "j": 2, "mu": 1.0, "K": 1e400, "coeffs": []}',
         "K is not an integer: inf"),
    ], ids=["int", "int-coeffs", "int-entry", "str-value", "frac-index", "frac-K", "inf-K"])
    def test_malformed_snapshot_payload_is_config_error(self, tmp_path, capsys, payload, what):
        snap = tmp_path / "bad.json"
        snap.write_text(payload)
        status = run_cli(
            "solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.01",
            "--input", str(snap), "--out", str(tmp_path),
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("configuration error: bad value for key 'input'") and what in err
        assert not (tmp_path / "manifest.json").exists()

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

    def test_almost_cons_below_the_cylinder_mode_runs(self, tmp_path, capsys):
        # max(N_list)=0.75 is below mode 1, the default cylinder mode, which
        # only the witness search reads: the sweep runs and ends on its result
        status = run_cli(
            "almost-cons", "--j", "2", "--K", "16", "--N_list", "0.25,0.5,0.75",
            "--s", "-0.5", "--dt", "1e-3", "--T", "0.01", "--out", str(tmp_path),
        )
        err = capsys.readouterr().err
        assert status == 1 and "not strictly decreasing" in err and "k0" not in err
        assert (tmp_path / "almost-cons.csv").exists()

    # At T = 0 each trajectory is its one datum sample: every sweep row is
    # 0.0, which the strict-decrease check refuses, and the scaling
    # mismatch is 0.0. Each run ends through main's own exit statuses.
    @pytest.mark.parametrize("argv, expected", [
        (["approx-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16"], 1),
        (["tail-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16"], 1),
        (["almost-cons", "--j", "1", "--K", "8", "--s", "-0.5", "--N_list", "2,4"], 1),
        (["scaling-check", "--j", "1", "--K", "8", "--mu", "2", "--s", "-1.5"], 0),
    ])
    def test_zero_horizon_sweeps_exit_through_main(self, tmp_path, capsys, argv, expected):
        assert run_cli(*argv, "--T", "0", "--out", str(tmp_path)) == expected
        if expected:
            assert "not strictly decreasing: N=" in capsys.readouterr().err

    def test_imaginary_quintic_energy_is_run_failure(self, tmp_path, monkeypatch, capsys):
        # Lambda_5 of a real field against an imaginary weight is imaginary:
        # the residue check must refuse it rather than write its real part
        true_hierarchy = cli._hierarchy
        monkeypatch.setattr(
            cli, "_hierarchy", lambda *args: (true_hierarchy(*args)[0], constant_form(5, 1j))
        )
        status = run_cli(
            "energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4",
            "--dt", "1e-3", "--T", "0.01", "--samples", "2", "--out", str(tmp_path),
        )
        assert status == 1
        assert "Lambda5M5: imaginary residue" in capsys.readouterr().err


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

    def test_conserved_csv_cells_are_plain_numbers(self, tmp_path):
        # every cell parses as a float: an np.float64 once printed as np.float64(0.005)
        run_cli("solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.02",
                "--samples", "4", "--seed", "3", "--out", str(tmp_path))
        header, *rows = (tmp_path / "run_conserved.csv").read_text().splitlines()
        assert header == "t,mass,l2_energy,hamiltonian" and len(rows) == 5
        for row in rows:
            assert [repr(float(cell)) for cell in row.split(",")] == row.split(",")

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

    @staticmethod
    def assert_quintic_column(tmp_path, monkeypatch, *argv):
        """The energies run's Lambda5M5 column is finite and, bit for bit,
        the quintic series of the trajectory the command integrated."""
        trajs = []

        def recording(*args):
            trajs.append(integrate(*args))
            return trajs[-1]

        integrate = cli.integrate
        monkeypatch.setattr(cli, "integrate", recording)
        assert run_cli("energies", *argv, "--out", str(tmp_path)) == 0
        rows = (tmp_path / "energies.csv").read_text().splitlines()[1:]
        column = np.array([float(row.split(",")[-1]) for row in rows])
        grid = trajs[0].spec.grid
        m5 = imethod.big_m5(imethod.IMultiplier(s=-0.5, N=4.0), grid, lattice_cutoff=grid.K)
        expected = imethod._real_lambda(m5, grid, trajs[0].coeffs, "M5")
        assert np.all(np.isfinite(column)) and column.tobytes() == expected.tobytes()

    def test_quintic_column_above_16(self, tmp_path, monkeypatch):
        self.assert_quintic_column(
            tmp_path, monkeypatch, "--j", "1", "--K", "20", "--s", "-0.5", "--N", "4",
            "--dt", "1e-3", "--T", "0.01", "--samples", "2",
        )

    def test_quintic_column_at_45(self, tmp_path, monkeypatch):
        # the dense size 16 * 91^4 bytes of Gamma_5 is over the budget, but
        # nothing of that size is held: sigma4's table, 16 * 91^3 bytes, fits
        self.assert_quintic_column(
            tmp_path, monkeypatch, "--j", "2", "--K", "45", "--s", "-0.5", "--N", "4",
            "--dt", "1e-4", "--T", "0.002",
        )

    def test_quintic_column_over_the_byte_bound(self, tmp_path, monkeypatch, capsys):
        # under a budget the K=8 sigma4 table meets, 16 * 17^3 bytes, and the
        # dense size of Gamma_5, 16 * 17^4, exceeds, the run writes the bytes
        # it writes under the default budget, every Lambda5M5 cell finite
        argv = ("energies", "--j", "2", "--K", "8", "--s", "-0.5", "--N", "4", "--dt", "1e-3",
                "--T", "0.01", "--samples", "4")
        assert run_cli(*argv, "--out", str(tmp_path / "a")) == 0
        monkeypatch.setattr(spectral, "BUDGET_BYTES", 16 * 17**3)
        assert run_cli(*argv, "--out", str(tmp_path / "b")) == 0
        assert capsys.readouterr().out == ""
        full, bounded = ((tmp_path / d / "energies.csv").read_bytes() for d in "ab")
        assert bounded == full
        assert all(np.isfinite(float(r.rsplit(b",", 1)[1])) for r in full.splitlines()[1:])

    @pytest.mark.parametrize("argv, table", [
        (("energies", "--j", "2", "--K", "512", "--s", "-0.5", "--N", "4", "--dt", "1e-4",
          "--T", "1e-3"), "K=512 needs a Gamma_4 table"),
        (("almost-cons", "--j", "2", "--K", "4096", "--s", "-0.5", "--N_list", "4",
          "--dt", "1e-4", "--T", "1e-3"), "K=4096 needs a Gamma_3 table"),
    ], ids=["energies", "almost-cons"])
    def test_sigma4_table_over_the_bound_refused_before_the_flow(
        self, tmp_path, monkeypatch, capsys, argv, table
    ):
        # the sigma4 table that Lambda5M5 reads would take 17 GB at K=512,
        # and the sigma3 table, the one E4 reads, just over 1 GiB at K=4096:
        # refused, naming K, before the flow runs and before any table is
        # allocated
        def refuse(*args):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(cli, "integrate", refuse)
        monkeypatch.setattr(experiments, "integrate", refuse)
        tracemalloc.start()
        try:
            status = run_cli(*argv, "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"configuration error: {table}")
        assert not (tmp_path / "manifest.json").exists()
        assert peak < 4 * 2**20

    def test_orders_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "energies.cfg"
        cfg.write_text("j = 2\nK = 8\ns = -0.5\nN = 4\norders = 2,3\n")
        status = run_cli("energies", "--config", str(cfg), "--out", str(tmp_path))
        assert status == 2
        assert "unknown configuration key 'orders'" in capsys.readouterr().err

    def test_each_form_evaluated_once(self, tmp_path, monkeypatch):
        # M5, sigma3 and sigma4, each once over the whole trajectory
        tags = []

        def counting(form, *args):
            tags.append(form.tag)
            return real_lambda(form, *args)

        real_lambda = imethod._real_lambda
        monkeypatch.setattr(imethod, "_real_lambda", counting)
        monkeypatch.setattr(cli, "_real_lambda", counting)
        status = run_cli(
            "energies", "--j", "2", "--K", "16", "--s", "-0.5", "--N", "4",
            "--dt", "1e-3", "--T", "0.01", "--samples", "4", "--out", str(tmp_path),
        )
        assert status == 0
        assert sorted(tags) == ["M5", "sigma3", "sigma4"]


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


class TestWriteCsv:
    """_write_csv writes the bytes csv.writer writes for the same rows."""

    @staticmethod
    def oracle(header, columns) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
        return buf.getvalue().encode()

    HEADER = ("f64", "py_float", "int64", "big_int", "flag")

    @staticmethod
    def mixed_columns():
        floats = np.array(
            [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e16, 1e-05, 5e-324, 0.1, -0.0, 1e16, 0.1]
        )
        n = len(floats)
        return [
            floats,
            [float(x) for x in floats[::-1]],
            np.arange(n, dtype=np.int64) % 3 - 1,
            np.array([2**64 + 3 * (i % 2) for i in range(n)], dtype=object),
            np.arange(n) % 2 == 0,
        ]

    def test_matches_csv_writer(self, tmp_path):
        columns, header = self.mixed_columns(), self.HEADER
        path = tmp_path / "t.csv"
        _write_csv(str(path), header, [columns])
        assert path.read_bytes() == self.oracle(header, columns)
        # -0.0 and 0.0 are distinct values: the sign is kept
        assert [row.split(b",")[0] for row in path.read_bytes().split(b"\n")[1:3]] == [
            b"-0.0", b"0.0"
        ]

    @pytest.mark.parametrize("column", [
        np.array([0, -2**70, 0, 7, -2**70], dtype=object),
        np.array([0.0, -1.7976931348623157e308, 0.0, 5.0, -1.7976931348623157e308]),
    ], ids=["object", "float64"])
    def test_short_and_long_cells_in_one_column(self, tmp_path, column):
        # a column's width is its longest cell's: the short cells ("0",
        # "0.0") are padded with NUL bytes, which the written text drops
        columns = [column, np.arange(5, dtype=np.int64)]
        path = tmp_path / "t.csv"
        _write_csv(str(path), ("wide", "i"), [columns])
        assert path.read_bytes() == self.oracle(("wide", "i"), columns)
        assert b"\0" not in path.read_bytes()

    def test_joined_tuple_column(self, tmp_path):
        # a pre-joined bytes column, its entries of 1 to 3 characters
        # joined by spaces, is written as it is next to computed columns
        tuples = np.array([[1, -1, 0], [-10, 2, 8], [100, -50, -50]], dtype=np.int64)
        tuple_text = _joined([_column_text(e) for e in tuples.T], b" ")
        ratio = np.array([0.5, 1.0, 0.5])
        path = tmp_path / "t.csv"
        _write_csv(str(path), ("tuple", "ratio"), [[tuple_text, ratio]])
        expected = [[" ".join(map(str, t)) for t in tuples.tolist()], ratio]
        assert path.read_bytes() == self.oracle(("tuple", "ratio"), expected)

    def test_all_equal_columns(self, tmp_path):
        columns = [np.full(6, 0.1), np.full(6, 2**64, dtype=object), [True] * 6]
        path = tmp_path / "t.csv"
        _write_csv(str(path), ("a", "b", "c"), [columns])
        assert path.read_bytes() == self.oracle(("a", "b", "c"), columns)

    def test_no_nul_byte_written(self, tmp_path):
        tuples = np.array([[1, -1], [-100, 100], [3, -3]] * 4, dtype=np.int64)
        columns = [_joined([_column_text(e) for e in tuples.T], b" "), *self.mixed_columns()]
        path = tmp_path / "t.csv"
        _write_csv(str(path), ("tuple", *self.HEADER), [columns])
        assert b"\0" not in path.read_bytes()
        assert path.read_bytes().count(b"\n") == 1 + len(tuples)

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = [np.zeros(0), np.zeros(0, dtype=np.int64)]
        _write_csv(str(path), ("a", "b"), [columns])
        assert path.read_bytes() == self.oracle(("a", "b"), columns) == b"a,b\n"

    def test_unequal_columns_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            _write_csv(str(tmp_path / "t.csv"), ("a", "b"), [[np.zeros(3), np.zeros(2)]])

    @pytest.mark.parametrize("size", [1, 5, 12, 13])
    def test_pieces_give_the_one_piece_bytes(self, tmp_path, size):
        # rows split into pieces of size rows (the last one shorter, and
        # empty pieces between them) give the bytes of one piece
        columns, header = self.mixed_columns(), self.HEADER
        pieces = []
        for i in range(0, len(columns[0]), size):
            pieces += [[c[i : i + size] for c in columns], [c[:0] for c in columns]]
        path = tmp_path / "t.csv"
        _write_csv(str(path), header, iter(pieces))
        assert path.read_bytes() == self.oracle(header, columns)

    def test_failure_in_a_later_piece_keeps_the_old_file(self, tmp_path):
        # the first piece is written to the temporary file before the second
        # is formatted; the second fails, so the temporary file is removed
        # and the file it would have replaced keeps its bytes
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")
        pieces = [[np.zeros(2), np.ones(2)], [np.zeros(3), np.zeros(2)]]
        with pytest.raises(ValueError, match="unequal length"):
            _write_csv(str(path), ("a", "b"), iter(pieces))
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["t.csv"]
