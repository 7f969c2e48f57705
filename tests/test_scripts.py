"""The helper scripts under scripts/: they run and report what they wrote."""

import csv
import importlib
from fractions import Fraction
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_delay_profile_reports_its_peak(capsys, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    delay_profile = importlib.import_module("delay_profile")
    out = tmp_path / "profile.csv"
    delay_profile.main(["--distances", "2", "--tau-max", "3",
                        "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# runspec=")
    rows = list(csv.DictReader(lines[1:]))
    assert [(r["D"], r["tau"]) for r in rows] == \
        [("2", "0"), ("2", "1"), ("2", "2"), ("2", "3")]

    # the peak, recomputed from the CSV alone
    peak = max(rows, key=lambda r: Fraction(
        int(r["t_rdv"]), int(r["D"]) * int(r["logstar_lmin"])))
    ratio = Fraction(int(peak["t_rdv"]),
                     int(peak["D"]) * int(peak["logstar_lmin"]))
    assert capsys.readouterr().out.splitlines() == [
        f"4 cells -> {out}",
        f"peak normalized time {float(ratio):.2f} at D={peak['D']} "
        f"tau={peak['tau']} (t={peak['t_rdv']})",
    ]
