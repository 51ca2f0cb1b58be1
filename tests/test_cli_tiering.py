"""CLI surface of the adaptive-tiering subsystem.

``funtal tiers`` (receipt/state inspection), the ``--tiering`` knobs on
``batch``, and the tiering section of ``funtal stats``.
"""

import json

import pytest

from repro.cli import main
from repro.serve.executor import execute_job
from repro.serve.protocol import Job, JobOptions
from repro.tiering.policy import TieringPolicy, set_active_policy


@pytest.fixture(autouse=True)
def _clean_policy():
    set_active_policy(None)
    yield
    set_active_policy(None)


def earn_receipt(source, store):
    """Promote ``source`` directly via the executor, filling ``store``."""
    set_active_policy(TieringPolicy(mode="auto", store=store))
    result = execute_job(Job("promote", id="p", source=source,
                             options=JobOptions(store=store)))
    assert result.ok, result.error
    set_active_policy(None)
    return result.output["digest"]


class TestTiersCommand:
    def test_empty_store(self, tmp_path, capsys):
        assert main(["tiers", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(no tiering receipts or controller state found)" in out

    def test_lists_receipts(self, tmp_path, capsys):
        digest = earn_receipt("((lam (x: int). ((x * x) + 1)) (20))",
                              str(tmp_path))
        assert main(["tiers", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert digest in out
        assert "ok" in out
        assert "expression" in out

    def test_json_output(self, tmp_path, capsys):
        digest = earn_receipt("(7 + 8)", str(tmp_path))
        assert main(["tiers", "--store", str(tmp_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["store"] == str(tmp_path)
        assert data["policy"]["mode"] in ("off", "auto", "aggressive")
        rows = {row["digest"]: row for row in data["tiers"]}
        assert rows[digest]["receipt"] == "ok"
        assert rows[digest]["kind"] == "expression"

    def test_state_file_adds_controller_columns(self, tmp_path, capsys):
        from repro.tiering.controller import TieringController

        policy = TieringPolicy(mode="auto", promote_threshold=10,
                               store=str(tmp_path))
        controller = TieringController(policy)
        controller.record_steps("feeddeadbeef0001", 50)
        state_path = tmp_path / "tiering.json"
        controller.save(str(state_path))

        assert main(["tiers", "--store", str(tmp_path),
                     "--state", str(state_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        rows = {row["digest"]: row for row in data["tiers"]}
        row = rows["feeddeadbeef0001"]
        assert row["receipt"] is None       # hot but not yet validated
        assert row["state"] == "promoting"
        assert row["steps"] == 50
        assert row["runs"] == 1

    def test_unreadable_state_file(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert main(["tiers", "--store", str(tmp_path),
                     "--state", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestBatchTiering:
    def test_batch_summary_reports_tiering(self, tmp_path, capsys):
        code = main(["batch", "--examples", "--workers", "2",
                     "--no-cache", "--tiering", "auto",
                     "--tiering-threshold", "40",
                     "--tiering-store", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        summary = json.loads(err.split("batch: ", 1)[1])
        tiering = summary["tiering"]
        assert tiering["mode"] == "auto"
        assert tiering["threshold"] == 40
        assert sum(tiering["states"].values()) >= 1

    def test_batch_without_tiering_flag_stays_off(self, capsys,
                                                  monkeypatch):
        monkeypatch.delenv("FUNTAL_TIERING", raising=False)
        assert main(["batch", "--examples", "--workers", "2"]) == 0
        err = capsys.readouterr().err
        summary = json.loads(err.split("batch: ", 1)[1])
        assert "tiering" not in summary


class TestStatsTiering:
    @pytest.fixture(autouse=True)
    def _no_live_coordinator(self):
        """Pin the fallback path: another test's pool may have left a
        live coordinator behind the weakref."""
        import sys

        mod = sys.modules.get("repro.tiering.coordinator")
        if mod is not None:
            saved, mod._LAST = mod._LAST, None
            yield
            mod._LAST = saved
        else:
            yield

    def test_stats_reports_active_policy(self, capsys):
        set_active_policy(TieringPolicy(mode="aggressive",
                                        promote_threshold=1000))
        assert main(["stats", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        tiering = data["tiering"]
        assert tiering["mode"] == "aggressive"
        assert tiering["threshold"] == 100      # aggressive: tenth

    def test_stats_table_has_tiering_line(self, capsys):
        set_active_policy(TieringPolicy(mode="auto"))
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "tiering  mode=auto" in out
