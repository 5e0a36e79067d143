"""Tests for the command-line interface."""

import json

import pytest

from repro.bench import regression
from repro.bench.studies import STUDIES
from repro.cli import build_parser, main

SCALE = ["--scale", "0.05"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "2"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(SCALE + ["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "routing" in out

    def test_summary(self, capsys):
        assert main(SCALE + ["summary", "routing", "trips.lat"]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out
        assert "index size" in out

    def test_print(self, capsys):
        assert main(SCALE + ["print", "cnet", "cnet.attr18", "--lines", "6"]) == 0
        out = capsys.readouterr().out
        assert "E = " in out
        assert set(out.splitlines()[1]) <= {"x", "."}

    def test_entropy(self, capsys):
        assert main(SCALE + ["entropy", "routing"]) == 0
        out = capsys.readouterr().out
        assert "trips.lat" in out
        assert "imprints %" in out

    def test_query_all_methods_agree(self, capsys):
        code = main(SCALE + ["query", "tpch", "part.p_retailprice", "950", "1250"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("True") == 4
        assert "False" not in out

    def test_unknown_column_is_an_error(self):
        code = main(SCALE + ["summary", "routing", "trips.nope"])
        assert code == 2

    @pytest.mark.parametrize("number", ["4", "6"])
    def test_figures_without_sweep(self, capsys, number):
        assert main(SCALE + ["figure", number]) == 0
        assert f"Figure {number}" in capsys.readouterr().out


class TestStudyCommands:
    def test_every_study_has_the_same_three_options(self):
        parser = build_parser()
        for name in STUDIES:
            args = parser.parse_args(
                [name, "--rows", "7", "--smoke", "--json", "out.json"]
            )
            assert (args.rows, args.smoke, args.json) == (7, True, "out.json")
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--queries", "7"])

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_every_study_runs_and_passes_its_gate(self, name, tmp_path, capsys):
        artifact = tmp_path / f"BENCH_{name}.json"
        assert main(SCALE + [
            name, "--smoke", "--rows", "20000", "--json", str(artifact),
        ]) == 0
        result = json.loads(artifact.read_text())
        assert result["config"]["smoke"] is True
        assert result["config"]["n_rows"] <= 20_000
        assert regression.gate(name, result) == []
        assert regression.main([str(tmp_path)]) == 0


class TestReplicationCommands:
    def test_replication_study_smoke(self, capsys):
        assert main(SCALE + ["replication", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "replication study" in out
        assert "verified bit-identical: True" in out

    def test_replicate_bad_follow_address(self, tmp_path):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main([
                "replicate", "--follow", "nonsense", "--root",
                str(tmp_path), "--table", "t", "--once",
            ])

    def test_replicate_once_then_promote(self, capsys, tmp_path):
        import asyncio
        import json
        import threading

        import numpy as np

        from repro.engine import QueryExecutor
        from repro.serving import (
            ImprintService,
            ServingConfig,
            ServingHTTPServer,
        )
        from repro.storage.durability import DurableStore
        from repro.storage.durability.replication import ReplicationPrimary

        store = DurableStore(
            tmp_path / "primary", "t", group_window=0.0,
            checkpoint_threshold=10.0**9,
        )
        store.create_column("x", np.arange(64, dtype=np.int32))
        store.append("x", np.asarray([100, 101], dtype=np.int32))
        store.sync()
        primary = ReplicationPrimary(store)

        ready = threading.Event()
        address = {}

        def serve():
            async def run():
                executor = QueryExecutor({"x": store.index("x")})
                service = ImprintService(executor, ServingConfig())
                service.attach_replication(primary)
                try:
                    async with ServingHTTPServer(service) as server:
                        address["addr"] = server.address
                        address["loop"] = asyncio.get_running_loop()
                        address["stop"] = asyncio.Event()
                        ready.set()
                        await address["stop"].wait()
                finally:
                    await service.close()

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        host, port = address["addr"]
        follower_root = str(tmp_path / "follower")
        try:
            code = main([
                "replicate", "--follow", f"{host}:{port}",
                "--root", follower_root, "--table", "t", "--once", "--json",
            ])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["role"] == "follower"
            assert payload["applied_seq"] == 1
            assert payload["lag"] == 0
            assert payload["last_pass"]["bootstrapped"] is True

            code = main([
                "replicate", "--follow", f"{host}:{port}",
                "--root", follower_root, "--table", "t", "--promote",
                "--json",
            ])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["role"] == "primary"
            assert payload["epoch"] > primary.epoch
        finally:
            address["loop"].call_soon_threadsafe(address["stop"].set)
            thread.join(timeout=5.0)
            store.close()
