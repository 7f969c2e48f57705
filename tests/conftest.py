"""Broken ruling-set constructions that the locality oracle must reject."""

import dataclasses

import pytest

from linemeet.ruling import EsColState


@pytest.fixture
def leaky_records(monkeypatch):
    """Records that change once the processed window reaches below -150.

    Such a record depends on labels outside its own termination radius.
    """
    honest = EsColState.output_for

    def leaky(self, position):
        out = honest(self, position)
        if self.coords[0] < -150:
            out = dataclasses.replace(out, label=out.label + 1)
        return out

    monkeypatch.setattr(EsColState, "output_for", leaky)


@pytest.fixture
def peeking_construction(monkeypatch):
    """A construction that reads the label one past its window's right end."""
    honest = EsColState._run

    def peeking(self, debug):
        honest(self, debug)
        self.host.label(int(self.coords[-1]) + 1)

    monkeypatch.setattr(EsColState, "_run", peeking)
