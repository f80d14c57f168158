"""The one memory budget: spectral.BUDGET_BYTES, read by every layer at call time."""

import pytest

from kdvlab import imethod, spectral
from kdvlab.cli import main
from kdvlab.flow import FlowSpec, flow_jacobian, integrate
from kdvlab.imethod import IMultiplier, constant_form, lambda_n
from kdvlab.spectral import harmonic, make_grid


def test_one_budget_moves_every_layer(tmp_path, monkeypatch, capsys):
    # each request below fits the default budget and exceeds 4096 bytes:
    # one monkeypatch of spectral.BUDGET_BYTES refuses every one of them, so
    # no layer holds a copy of the constant
    g = make_grid(2, 8)
    u = harmonic(g, 1, 0.1)
    mult = IMultiplier(s=-0.5, N=2.0)
    refusals = {
        # 320 physical points, 16 bytes each
        "K=100 needs 320 physical points": lambda: make_grid(1, 100),
        # a run of 33 samples of 8 modes, with its step arrays (flow._run_bytes)
        "needs a run of 42120 bytes": lambda: integrate(
            u, FlowSpec(grid=g, dt=1e-3, T=0.032)),
        # 32 probes of 8 modes, and their run at 2 samples
        "needs 32 Jacobian probes at K=8 and their run of 121234 bytes": lambda: flow_jacobian(
            u, FlowSpec(grid=g, dt=1e-3, T=1e-3, flavor="truncated", N=8.0), 1e-6),
        # sigma3's pair-term table at bound 8, 16 * 17^2 bytes, which M4 reads
        "needs a Gamma_3 table of 4624 bytes": lambda: imethod._cascade(4, mult, g, 8),
        # the walk's second level of Gamma_5 heads at K=16: 164 sorted heads,
        # 11 int64 arrays of them
        "K=16 needs Gamma_5 heads of 14432 bytes": lambda: lambda_n(
            constant_form(5), [harmonic(make_grid(2, 16), 1, 0.1)] * 5),
    }
    solve = ("solve", "--j", "2", "--K", "8", "--dt", "1e-3", "--T", "0.032", "--samples", "32")
    # the reference and three truncated flows at 33 samples of 64 modes
    sweep = ("approx-sweep", "--j", "2", "--K", "64", "--N_list", "4,8,16", "--T", "0.01")
    # the walk of Gamma_4 at K=4: its second level of heads, the 64 heads of
    # the first two entries, 11 int64 arrays of them
    check = ("resonance-check", "--j", "1", "--K", "4")

    for call in refusals.values():
        call()
    assert main([*solve, "--out", str(tmp_path / "a")]) == 0
    assert main([*sweep, "--out", str(tmp_path / "a")]) in (0, 1)
    assert main([*check, "--out", str(tmp_path / "a")]) == 0

    monkeypatch.setattr(spectral, "BUDGET_BYTES", 4096)
    for match, call in refusals.items():
        with pytest.raises(ValueError, match=match):
            call()
    capsys.readouterr()
    assert main([*solve, "--out", str(tmp_path / "b")]) == 2
    assert main([*sweep, "--out", str(tmp_path / "b")]) == 2
    assert main([*check, "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "needs a run of 42120 bytes > BUDGET_BYTES (4096)" in err
    assert "K=64 in 33 samples of 4 members needs a run of 250281 bytes" in err
    assert "key 'K': K=4 needs Gamma_4 heads of 5632 bytes > BUDGET_BYTES (4096)" in err
    assert not (tmp_path / "b" / "manifest.json").exists()
