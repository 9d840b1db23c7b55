"""Tests for the population-scale workload benchmark (``tests/population.py``).

:class:`TestPopulationGates` pins :func:`gate_failures` on hand-made rows;
:func:`test_population_gates_and_digest` runs the benchmark once at its
committed operating point and holds it to every gate and to its
committed workload digest.
"""

from __future__ import annotations

import pytest

from tests.population import gate_failures, run_population

#: SHA-256 over every schedulable field of every request the committed
#: population config generates (see ``population.request_digest``).
POPULATION_DIGEST = "sha256:4cdefd9254f558e53fd967782514c505accfb5d276164eb8ab207fc5c1e1a878"


def test_population_gates_and_digest():
    """>= 100k concurrent sessions, <= 192 MB peak, >= 5x, byte identity."""
    row = run_population()
    bounds = {name: g.get("min", g.get("max")) for name, g in row["gates"].items()}
    assert bounds == {
        "concurrent_sessions": 100_000,
        "peak_memory_mb": 192.0,
        "speedup": 5.0,
        "byte_identity": None,
    }
    assert gate_failures(row) == []
    assert row["digest"] == POPULATION_DIGEST, (
        "fixed-seed population workload generation changed"
    )


class TestPopulationGates:
    """:func:`gate_failures` is empty only when every gate ran and passed."""

    @staticmethod
    def _row(**gates):
        return {"name": "population-100k", "gates": gates}

    def test_clean_row_passes(self):
        row = self._row(
            speedup={"min": 2.0, "value": 3.1, "ok": True},
            byte_identity={"value": True, "ok": True},
        )
        assert gate_failures(row) == []

    def test_failed_gate_is_an_error(self):
        row = self._row(
            peak_memory_mb={"max": 150, "value": 180.5, "ok": False},
            byte_identity={"value": False, "ok": False},
        )
        failures = gate_failures(row)
        assert len(failures) == 2
        assert "'peak_memory_mb'" in failures[0] and "<= 150" in failures[0]
        assert "== scalar" in failures[1]

    @pytest.mark.parametrize("row", [None, {}])
    def test_missing_row_is_an_error(self, row):
        (failure,) = gate_failures(row)
        assert failure.startswith("error:") and "missing" in failure

    def test_skipped_row_is_an_error(self):
        row = {
            "name": "population-100k",
            "skipped": "numpy unavailable; columnar substrate disabled",
        }
        (failure,) = gate_failures(row)
        assert failure.startswith("error:") and "numpy unavailable" in failure

    def test_row_without_gates_is_an_error(self):
        (failure,) = gate_failures({"name": "population-100k"})
        assert failure.startswith("error:")
