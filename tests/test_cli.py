"""Tests for the repro CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.social.io import save_corpus
from repro.social.records import Corpus

from .conftest import pub


@pytest.fixture
def small_corpus_file(tmp_path):
    """A tiny but pipeline-viable corpus on disk."""
    pubs = []
    for y in (2009, 2010, 2011):
        pubs += [
            pub(f"l{y}", y, "a", "b", "c"),
            pub(f"r{y}", y, "c", "d", "e"),
            pub(f"s{y}", y, "a", "b"),
        ]
    path = tmp_path / "corpus.json"
    save_corpus(Corpus(pubs), path)
    return str(path)


class TestGenerate:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["generate", "--out", str(out), "--seed", "3"]) == 0
        assert out.exists()
        assert "publications" in capsys.readouterr().out


class TestTable1:
    def test_synthetic(self, capsys):
        # use a tiny synthetic corpus via --corpus to stay fast? synthetic
        # default is heavier; run against a file instead (below)
        pass

    def test_from_corpus_file(self, small_corpus_file, capsys):
        rc = main(
            ["table1", "--corpus", small_corpus_file, "--seed-author", "a", "--hops", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "number-of-authors" in out

    def test_corpus_requires_seed_author(self, small_corpus_file):
        with pytest.raises(SystemExit):
            main(["table1", "--corpus", small_corpus_file])

    def test_unknown_seed_author_rejected(self, small_corpus_file):
        with pytest.raises(SystemExit):
            main(["table1", "--corpus", small_corpus_file, "--seed-author", "zz"])


class TestFig2:
    def test_from_corpus_file(self, small_corpus_file, capsys):
        rc = main(["fig2", "--corpus", small_corpus_file, "--seed-author", "a"])
        assert rc == 0
        assert "islands" in capsys.readouterr().out


class TestFig3:
    def test_from_corpus_file(self, small_corpus_file, capsys):
        rc = main(
            [
                "fig3",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--runs", "3",
                "--hops", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "community-node-degree" in out


class TestSimulate:
    def test_from_corpus_file(self, small_corpus_file, capsys):
        rc = main(
            [
                "simulate",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "4",
                "--days", "0.1",
            ]
        )
        assert rc == 0
        assert "availability" in capsys.readouterr().out


class TestObs:
    def test_report_and_json_export(self, small_corpus_file, tmp_path, capsys):
        import json

        out = tmp_path / "obs.json"
        rc = main(
            [
                "obs",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "4",
                "--days", "0.05",
                "--trace", "3",
                "--json", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "== counters ==" in text
        assert "alloc.resolve.latency_s" in text
        assert "alloc.resolve.hops" in text
        snapshot = json.loads(out.read_text())
        assert snapshot["schema"] == "repro-obs/1"
        assert snapshot["counters"]["alloc.resolve.total"]["value"] > 0

    def test_unwritable_json_path_exits_cleanly(self, small_corpus_file, capsys):
        rc = main(
            [
                "obs",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "4",
                "--days", "0.05",
                "--json", "/nonexistent-dir/x.json",
            ]
        )
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_report_without_export(self, small_corpus_file, capsys):
        rc = main(
            [
                "obs",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "4",
                "--days", "0.05",
                "--trace", "0",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "hop-cache hit rate" in text
        assert "== trace" not in text


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["simulate", "obs", "chaos", "scrub"])
    def test_hops_only_where_it_is_read(self, command, capsys):
        # these commands always build a 2-hop ego network; an accepted but
        # ignored --hops would silently run something else than asked
        with pytest.raises(SystemExit) as exc:
            main([command, "--hops", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --hops 3" in capsys.readouterr().err


class TestErrorHandling:
    def test_library_errors_exit_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["table1", "--corpus", str(bad), "--seed-author", "a"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestChaosCommand:
    def test_corruption_campaign_smoke(self, small_corpus_file, capsys):
        rc = main(
            [
                "chaos",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "5",
                "--horizon", "600",
                "--chaos-seed", "7",
                "--corruption-rate", "4e-3",
                "--scrub-interval", "120",
                "--min-redundancy", "0.0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "corrupt reads served" in out
        assert "corrupt_servable_after_repair=0" in out

    def test_no_scrub_flag_accepted(self, small_corpus_file, capsys):
        # rot with the scrubber disabled: the campaign must still complete
        # (exit status may flag leftover corruption; that's the point)
        rc = main(
            [
                "chaos",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "5",
                "--horizon", "600",
                "--chaos-seed", "7",
                "--corruption-rate", "4e-3",
                "--no-scrub",
                "--min-redundancy", "0.0",
            ]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "corruption:" in out


class TestScrubCommand:
    def test_detects_and_repairs(self, small_corpus_file, capsys):
        rc = main(
            [
                "scrub",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "5",
                "--corrupt", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("corrupted ") == 2
        assert "quarantined 2" in out
        assert "corrupt servable after repair: 0" in out

    def test_deterministic_per_seed(self, small_corpus_file, capsys):
        argv = [
            "scrub",
            "--corpus", small_corpus_file,
            "--seed-author", "a",
            "--members", "5",
            "--corrupt", "2",
            "--scrub-seed", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_zero_corruptions_is_a_clean_pass(self, small_corpus_file, capsys):
        rc = main(
            [
                "scrub",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--members", "5",
                "--corrupt", "0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "quarantined 0" in out
        assert "corrupt servable after repair: 0" in out

    def test_negative_corrupt_is_a_clean_error(self, small_corpus_file, capsys):
        rc = main(
            [
                "scrub",
                "--corpus", small_corpus_file,
                "--seed-author", "a",
                "--corrupt", "-1",
            ]
        )
        assert rc == 2
        assert "error: --corrupt must be >= 0" in capsys.readouterr().err


class TestMigrateCommand:
    def test_acceptance_smoke_passes(self, capsys):
        assert main(["migrate"]) == 0
        out = capsys.readouterr().out
        assert "migration off" in out and "migration on" in out
        assert "trust swap evicts" in out
        assert "reduced by" in out

    def test_json_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "migrate.json"
        assert main(["migrate", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["on"]["post_shift_mean_s"] < payload["off"]["post_shift_mean_s"]
        assert payload["on"]["untrusted_leftover"] == 0
        assert payload["off"]["untrusted_leftover"] > 0
        assert payload["on"]["min_mid_move_redundancy"] >= 1.0

    def test_deterministic_per_seed(self, capsys):
        argv = ["migrate", "--migrate-seed", "11"]
        rc_first = main(argv)
        first = capsys.readouterr().out
        rc_second = main(argv)
        assert rc_first == rc_second
        assert capsys.readouterr().out == first

    def test_unwritable_json_path_exits_cleanly(self, capsys):
        rc = main(["migrate", "--json", "/no/such/dir/migrate.json"])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err


class TestPerfCommand:
    def test_campaign_divergence_fails_through_gate_printer(
        self, monkeypatch, capsys
    ):
        import repro.perf
        from repro.perf import CampaignBenchResult

        diverged = CampaignBenchResult(
            seeds=1,
            workers=1,
            serial_s=1.0,
            parallel_s=1.0,
            spinup_s=0.0,
            identical=False,
            start_method="fork",
            chunk_size=1,
            cores=1,
            worker_rebuilds=0,
        )
        monkeypatch.setattr(repro.perf, "campaign_speedup", lambda *_, **__: diverged)
        assert main(["perf"]) == 1
        captured = capsys.readouterr()
        assert "reports bit-identical: False" in captured.out
        assert captured.err == "FAIL: campaign_identical (False)\n"

    def test_real_run_writes_campaign_and_env(self, tmp_path, capsys):
        import json

        out = tmp_path / "perf.json"
        argv = ["perf", "--seeds", "2", "--workers", "1", "--horizon", "60",
                "--json", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["campaign"]["seeds"] == 2
        assert payload["campaign"]["identical"] is True
        assert payload["env"]["commit"]
        assert "wrote perf report" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--quick"], ["--shards", "4"]])
    def test_retired_resolve_and_shard_flags_rejected(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["perf", *flags])
        assert exc.value.code == 2
