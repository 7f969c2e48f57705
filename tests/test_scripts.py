"""The helper scripts under scripts/: they run and report what they wrote."""

import csv
import importlib
from fractions import Fraction
from pathlib import Path

from linemeet import ruling

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


def test_locality_profile_certifies_a_tiny_sample(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    locality_profile = importlib.import_module("locality_profile")
    # one window per class at R = 1: class 3's two planted labels lie
    # apart, so its run grows to the whole window, class 4's run of nine
    # certifies its first step, and classes 5 and 6 are cut and certified
    # at their first step, or at a later one when the first color cone is
    # one hop
    for certified in ([1, 0, 0, 0], [0, 1, 0, 0]):
        if certified[1]:
            monkeypatch.setattr(ruling, "_first_color_radius",
                                lambda R, c: 9 * R - 1)
        assert locality_profile.main(["--windows", "1", "--spacings", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:6] == ["class", "R", "first", "rebuilt",
                                        "whole", "uncut"]
        rows = {int(line.split()[0]): line.split() for line in lines[1:-1]}
        assert sorted(rows) == [3, 4, 5, 6]
        want = {3: [0, 0, 1, 0], 4: [1, 0, 0, 0], 5: certified, 6: certified}
        for c, row in rows.items():
            assert [int(x) for x in row[2:6]] == want[c]
        assert lines[-1] == ("every taint-certified state serves its "
                             "whole-window records")
