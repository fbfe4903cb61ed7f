"""Tests for report formatting and the CLI argument layer."""

import pytest

from repro.cli import build_parser, config_from_args
from repro.experiments.config import QUICK_CONFIG, ExperimentConfig
from repro.experiments.reporting import format_series, format_table, percent


class TestFormatTable:
    def test_basic(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "22" in lines[4]  # title, header, separator, row1, row2

    def test_missing_cells(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_float_formatting(self):
        text = format_table([{"v": 0.123456}, {"v": 12345.6}, {"v": 0.0}])
        assert "0.1235" in text
        assert "1.23e+04" in text or "12345" in text.replace(",", "")

    def test_column_order_preserved(self):
        text = format_table([{"z": 1, "a": 2}])
        header = text.splitlines()[0]
        assert header.index("z") < header.index("a")


class TestFormatSeries:
    def test_layout(self):
        text = format_series(
            {"MGP": [(10, 0.5), (100, 0.6)], "MPP": [(10, 0.4)]},
            x_label="|Omega|",
            y_label="NDCG",
            title="Fig",
        )
        assert "|Omega|" in text
        assert "MGP" in text and "MPP" in text
        assert "NDCG" in text

    def test_percent(self):
        assert percent(0.153) == "+15.3%"
        assert percent(-0.5) == "-50.0%"


class TestCli:
    def test_default_config(self):
        args = build_parser().parse_args(["table2"])
        config = config_from_args(args)
        assert config == ExperimentConfig()

    def test_quick_flag(self):
        args = build_parser().parse_args(["table2", "--quick"])
        assert config_from_args(args) == QUICK_CONFIG

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig8", "--quick", "--scale", "medium", "--splits", "7", "--seed", "9"]
        )
        config = config_from_args(args)
        assert config.scale == "medium"
        assert config.num_splits == 7
        assert config.seed == 9
        # non-overridden quick fields survive
        assert config.max_nodes == QUICK_CONFIG.max_nodes

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_main_runs_table2_quick(self, capsys):
        from repro.cli import main

        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "completed in" in out


class TestServe:
    def test_serve_quick_compiled(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quick", "--num-queries", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "compiled backend" in out
        assert "ms/query" in out

    def test_serve_unknown_class(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quick", "--class", "nope"]) == 2
        assert "unknown class" in capsys.readouterr().err

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--dataset", "facebook", "--queries", "u1,u2", "--k", "7"]
        )
        assert args.dataset == "facebook"
        assert args.queries == "u1,u2"
        assert args.k == 7

    def test_serve_empty_queries_rejected(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quick", "--queries", " , ,"]) == 2
        assert "contains no query ids" in capsys.readouterr().err
        # an explicitly empty value must error too, not silently fall
        # back to the sampled default batch
        assert main(["serve", "--quick", "--queries", ""]) == 2
        assert "contains no query ids" in capsys.readouterr().err

    def test_serve_flags_rejected_on_experiments(self, capsys):
        from repro.cli import main

        assert main(["table2", "--quick", "--k", "3", "--mmap"]) == 2
        err = capsys.readouterr().err
        assert "--k" in err and "--mmap" in err and "'table2'" in err

    def test_serve_negative_num_queries_rejected(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quick", "--num-queries", "-2"]) == 2
        assert "--num-queries must be >= 0" in capsys.readouterr().err

    def test_serve_nonpositive_k_rejected(self, capsys):
        from repro.cli import main

        for bad_k in ("0", "-3"):
            assert main(["serve", "--quick", "--k", bad_k]) == 2
            assert "--k must be >= 1" in capsys.readouterr().err

    def test_serve_unknown_query_rejected(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quick", "--queries", "ghost"]) == 2
        err = capsys.readouterr().err
        assert "cannot serve this batch" in err
        assert "'ghost' is not in graph" in err

    def test_serve_off_anchor_query_rejected(self, capsys):
        from repro.cli import main

        # college0 is a college node on the linkedin graph, not a 'user'
        assert main(["serve", "--quick", "--queries", "college0"]) == 2
        err = capsys.readouterr().err
        assert "cannot serve this batch" in err
        assert "anchored on 'user'" in err

    def test_serve_sharded_matches_unsharded_output(self, capsys, tmp_path):
        from repro.cli import main

        def rankings(out):
            return [l for l in out.splitlines() if l.startswith("  ")]

        argv = ["serve", "--quick", "--num-queries", "3", "--k", "3"]
        assert main(argv) == 0
        unsharded = capsys.readouterr().out
        assert len(rankings(unsharded)) == 3
        assert main(argv + ["--shards", "2", "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "sharded (2 shards, 2 workers)" in sharded
        # every ranking line must be identical to the unsharded run,
        # however the engine was obtained and wherever shards score
        assert rankings(sharded) == rankings(unsharded)
        snapshot = str(tmp_path / "idx")
        assert main(["index", "build", "--out", snapshot]) == 0
        capsys.readouterr()
        for extra in (
            ["--snapshot", snapshot],
            ["--snapshot", snapshot, "--mmap"],
            ["--backend", "process", "--shards", "2"],
        ):
            assert main(argv + extra) == 0
            assert rankings(capsys.readouterr().out) == rankings(unsharded)

    def test_serve_sharded_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quick", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err
        assert main(["serve", "--quick", "--shards", "2", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_serve_queries_stripped(self, capsys):
        from repro.cli import main

        # whitespace around commas must not produce phantom query ids
        assert main(["serve", "--quick", "--queries", " u0 , u1 ", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "  u0 ->" in out and "  u1 ->" in out
        assert " u0  ->" not in out


class TestIndexBuild:
    def test_printed_size_is_bytes_on_disk(self, tmp_path, capsys):
        # the compiled/ directory's members count, not its directory entry
        import re

        from repro.cli import main

        target = tmp_path / "snapshot"
        assert main(["index", "build", "--scale", "tiny", "--out", str(target)]) == 0
        printed = re.search(r"\(([\d.]+) KiB\)", capsys.readouterr().out).group(1)
        on_disk = sum(f.stat().st_size for f in target.rglob("*") if f.is_file())
        assert any((target / "compiled").iterdir())
        assert printed == f"{on_disk / 1024:.1f}"


class TestIndexUpdate:
    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        from repro.cli import main

        target = tmp_path_factory.mktemp("cli") / "snapshot"
        assert (
            main(["index", "build", "--dataset", "linkedin", "--out", str(target)])
            == 0
        )
        return target

    def test_toggle_edges_round_trip(self, snapshot, capsys):
        from repro.cli import main

        assert (
            main(["index", "update", str(snapshot), "--toggle-edges", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "applied 4 edit(s)" in out
        # a second update replays the first one's log onto the base graph
        assert (
            main(
                [
                    "index", "update", str(snapshot),
                    "--toggle-edges", "1", "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replayed 4 logged edit(s)" in out
        assert main(["index", "info", str(snapshot)]) == 0

    def test_toggle_edges_preserves_edge_kinds(self, tmp_path, capsys):
        # a toggled kinded edge must come back with its label and
        # orientation, so the retired instances all return (+N == -N)
        import re

        from repro.cli import main

        target = tmp_path / "reactions-snapshot"
        assert (
            main(
                [
                    "index", "build", "--dataset", "reactions",
                    "--min-support", "2", "--out", str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["index", "update", str(target), "--toggle-edges", "3"]) == 0
        )
        out = capsys.readouterr().out
        match = re.search(r"-(\d+)/\+(\d+) instances", out)
        assert match is not None, out
        retired, restored = match.groups()
        assert retired == restored and int(retired) > 0
        assert main(["index", "info", str(target)]) == 0

    def test_edits_file(self, snapshot, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.datasets import load_dataset

        graph = load_dataset("linkedin", scale="tiny").graph
        u, v = next(iter(graph.edges()))
        edits = [
            {"op": "remove_edge", "u": u, "v": v},
            {"op": "add_edge", "u": u, "v": v},
        ]
        edits_file = tmp_path / "edits.json"
        edits_file.write_text(json.dumps(edits), encoding="utf-8")
        assert (
            main(["index", "update", str(snapshot), "--edits", str(edits_file)])
            == 0
        )
        out = capsys.readouterr().out
        assert "applied 2 edit(s)" in out

    def test_toggle_edges_out_of_range_rejected(self, snapshot, capsys):
        from repro.cli import main

        assert (
            main(["index", "update", str(snapshot), "--toggle-edges", "0"]) == 2
        )
        assert "--toggle-edges must be between" in capsys.readouterr().err
        assert (
            main(
                ["index", "update", str(snapshot), "--toggle-edges", "999999"]
            )
            == 2
        )

    def test_update_leaves_no_staging_dirs(self, snapshot):
        from repro.cli import main

        assert (
            main(["index", "update", str(snapshot), "--toggle-edges", "1"]) == 0
        )
        assert not snapshot.with_name(snapshot.name + ".updating").exists()
        assert not snapshot.with_name(snapshot.name + ".bak").exists()

    def test_unreadable_edits_file_rejected(self, snapshot, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert (
            main(["index", "update", str(snapshot), "--edits", str(bad)]) == 2
        )
        assert "unreadable edits file" in capsys.readouterr().err

    def test_update_snapshot_without_instance_totals(self, tmp_path, capsys):
        # a snapshot saved with index=None has no |I(M)| totals; the
        # update must patch the vectors and keep the snapshot totals-free
        # instead of driving reconstructed zero totals negative
        from repro.cli import main
        from repro.datasets import load_dataset
        from repro.index import save_index
        from repro.index.parallel import build_index
        from repro.mining import MinerConfig, mine_catalog

        ds = load_dataset("linkedin", scale="tiny")
        catalog = mine_catalog(
            ds.graph,
            MinerConfig(max_nodes=3, min_support=3),
            anchor_type=ds.anchor_type,
        )
        vectors, _index = build_index(ds.graph, catalog)
        target = tmp_path / "no-totals"
        save_index(target, vectors, catalog, graph=ds.graph)
        assert (
            main(["index", "update", str(target), "--toggle-edges", "1"]) == 0
        )
        assert "applied 2 edit(s)" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def resaved(self, tmp_path_factory):
        """A ``repro index build`` snapshot re-saved by a facade engine
        with every facebook class fitted."""
        from repro.cli import main
        from repro.datasets import load_dataset
        from repro.learning.trainer import TrainerConfig
        from repro.search import SemanticProximitySearch

        target = tmp_path_factory.mktemp("cli") / "facebook"
        assert (
            main(
                [
                    "index", "build", "--dataset", "facebook",
                    "--scale", "tiny", "--out", str(target),
                ]
            )
            == 0
        )
        dataset = load_dataset("facebook", scale="tiny")
        engine = SemanticProximitySearch.from_index(
            target,
            dataset.graph,
            trainer_config=TrainerConfig(restarts=1, max_iterations=50, seed=0),
        )
        for name in dataset.classes:
            engine.fit(name, dataset.class_labels(name), num_examples=50)
        engine.save_index(target)
        return target

    @pytest.fixture(scope="class")
    def removal(self, resaved, tmp_path_factory):
        """One ``--edits`` edge removal on a copy of ``resaved``: the
        snapshot before and after, and the mutated base graph."""
        import json
        import shutil

        from repro.cli import main
        from repro.datasets import load_dataset
        from repro.index import load_index

        work = tmp_path_factory.mktemp("removal")
        target = work / "snapshot"
        shutil.copytree(resaved, target)
        graph = load_dataset("facebook", scale="tiny").graph
        u, v = sorted(graph.edges(), key=repr)[0]
        edits_file = work / "edits.json"
        edits_file.write_text(
            json.dumps([{"op": "remove_edge", "u": u, "v": v}]), encoding="utf-8"
        )
        before = load_index(target, mmap=False)
        assert (
            main(
                [
                    "index", "update", str(target), "--dataset", "facebook",
                    "--scale", "tiny", "--edits", str(edits_file),
                ]
            )
            == 0
        )
        graph.remove_edge(u, v)
        return before, load_index(target, graph=graph, mmap=False), graph

    def test_update_facade_resaved_snapshot_without_flags(
        self, resaved, tmp_path, capsys
    ):
        # the facade's re-save keeps `index build`'s dataset/scale
        # provenance, so the update needs no --dataset/--scale
        import shutil

        from repro.cli import main

        target = tmp_path / "snapshot"
        shutil.copytree(resaved, target)
        assert main(["index", "update", str(target), "--toggle-edges", "1"]) == 0
        assert "applied 2 edit(s)" in capsys.readouterr().out

    def test_edits_removal_matches_cold_build(self, removal):
        from repro.index.parallel import build_index

        before, after, graph = removal
        assert len(after.manifest["update_log"]) == 1
        assert (
            after.vectors.compile().content_digest()
            != before.vectors.compile().content_digest()
        )
        vectors, index = build_index(graph, after.catalog)
        assert (
            after.vectors.compile().content_digest()
            == vectors.compile().content_digest()
        )
        assert after.instance_totals == {
            mg_id: index.num_instances(mg_id) for mg_id in index.matched_ids()
        }

    def test_edits_removal_keeps_fitted_weights(self, removal):
        before, after, _graph = removal
        assert before.models and sorted(after.models) == sorted(before.models)
        for name, weights in before.models.items():
            assert after.models[name].dtype == weights.dtype
            assert after.models[name].tobytes() == weights.tobytes()

    def test_update_missing_snapshot_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "index", "update", str(tmp_path / "nope"),
                    "--toggle-edges", "1",
                ]
            )
            == 1
        )
        assert "cannot update" in capsys.readouterr().err
