import json
import os
import shutil
import subprocess
import sys
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import numpy as np
import pytest

from coldsim import store
from coldsim.cli import _load_dataset, main
from coldsim.config import default_config, load_config
from coldsim.content import VectorCache, mock_embed
from coldsim.synthetic import make_two_cluster_dataset

from conftest import (http_server, write_citeulike_fixture,
                      write_movielens_fixture)


def write_corpus_from_planted(root, seed=0):
    """Planted toy rendered in the CiteULike input format."""
    data = make_two_cluster_dataset(n_users=40, n_warm=18, n_cold=0,
                                    groups_per_cluster=1, seed=seed)
    per_user = [list(data.log.user_items[u]) for u in range(data.log.n_users)]
    metadata = [(i, data.catalog.titles[i], f"notes on {data.catalog.titles[i]}")
                for i in range(data.log.n_items)]
    return write_citeulike_fixture(root, per_user, metadata)


def fast_config(tmp_path) -> Path:
    cfg = {
        "data": {"cold_frac": 0.2},
        "backbone": {"dim": 8, "lr": 0.3, "max_epochs": 10, "patience": 10,
                     "batch_size": 64, "eval_users": 50},
        "content": {"dim": 32},
        "filter": {"hidden": 10, "out": 8, "lr": 3e-3, "batch_size": 32,
                   "max_epochs": 3, "patience": 3, "label_pairs": 40,
                   "eval_users": 50},
        "refiner": {"oracle": "mock-threshold", "tau": 0.1, "k": 6,
                    "context_len": 4, "finetune_positives": 12},
        "warmup": {"lr": 0.1, "steps": 25},
        "eval": {"k": 6, "users": 50},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


CHAIN = [
    ["split"],
    ["train-backbone"],
    ["cache-content"],
    ["train-filter", "--variant", "B"],
    ["train-filter", "--variant", "L"],
    ["export-finetune"],
    ["simulate"],
    ["warmup"],
    ["evaluate", "--task", "overall"],
    ["evaluate", "--task", "warm"],
    ["evaluate", "--task", "cold"],
    ["ablate", "--variant", "no-r"],
    ["sweep", "--param", "K", "--values", "4,6"],
]


def run_chain(corpus, out, config, seed="7"):
    base = ["--config", str(config), "--seed", seed, "--out", str(out)]
    rc = main(base + ["ingest", "--dataset", "citeulike",
                      "--path", str(corpus)])
    assert rc == 0
    for command in CHAIN:
        rc = main(base + command)
        assert rc == 0, command


class TestDefaultConfig:
    def test_prints_protocol_constants(self, capsys):
        assert main(["default-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["filter"]["lr"] == 1e-5
        assert doc["filter"]["batch_size"] == 128
        assert doc["eval"]["k"] == 20
        assert doc["eval"]["users"] == 2000
        assert doc["data"]["cold_frac"] == 0.2
        assert doc["backbone"]["dim"] == 200
        assert doc["refiner"]["k"] == 20

    def test_writes_config_file(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "w"), "default-config"]) == 0
        doc = json.loads((tmp_path / "w" / "config.json").read_text())
        assert doc["warmup"]["steps"] == 100


class TestExitCodes:
    def test_bad_subcommand_is_validation_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value(self):
        assert main(["evaluate", "--task", "tepid"]) == 1

    def test_missing_artifacts(self, tmp_path):
        assert main(["--out", str(tmp_path / "empty"), "split"]) == 1

    def test_missing_corpus_path(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "ingest",
                     "--dataset", "citeulike", "--path",
                     str(tmp_path / "nowhere")]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command,code", [(["default-config"], 0),
                                              (["frobnicate"], 1)])
    def test_module_entry_point_exits_with_main_status(self, command, code):
        # ``python -m coldsim.cli`` runs main() and exits with its status
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "coldsim.cli"] + command,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert json.loads(done.stdout) == default_config()

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": {"no_such_knob": 1}}', encoding="utf-8")
        assert main(["--config", str(bad), "default-config"]) == 1

    @pytest.mark.parametrize("section,value", [("backbone", "adam"),
                                               ("filter", "sgd")])
    def test_optimizer_keys_are_gone(self, tmp_path, caplog, section, value):
        # SGD for the backbone and Adam for the filters are not configurable
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {"optimizer": value}}),
                       encoding="utf-8")
        assert main(["--config", str(bad), "default-config"]) == 1
        assert f"unknown config key: {section}.optimizer" in caplog.text
        with pytest.raises(ValueError,
                           match=rf"^unknown config key: {section}\.optimizer$"):
            load_config(bad)
        assert "optimizer" not in default_config()[section]

    @pytest.mark.parametrize("section,key,value", [
        ("backbone", "l2", 0.0), ("backbone", "eval_k", 20),
        ("filter", "weight_decay", 0.0), ("filter", "eval_k", 20),
        ("refiner", "finetune_mode", "offline")])
    def test_unset_training_keys_are_gone(self, tmp_path, caplog, section,
                                          key, value):
        # keys that no caller set: even their old default is now rejected
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        assert main(["--config", str(bad), "default-config"]) == 1
        assert f"unknown config key: {section}.{key}" in caplog.text
        assert key not in default_config()[section]

    def test_diverging_backbone_is_a_runtime_failure(self, tmp_path, caplog):
        # the backbone's weights overflow: exit 2, naming the divergence
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = tmp_path / "diverge.json"
        config.write_text(json.dumps({"backbone": {"lr": 1e150}}),
                          encoding="utf-8")
        base = ["--config", str(config), "--out", str(tmp_path / "run")]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        assert main(base + ["split"]) == 0
        caplog.clear()
        assert main(base + ["train-backbone"]) == 2
        assert "runtime failure: backbone diverged at epoch" in caplog.text

    def test_backbone_beyond_float32_is_not_saved(self, tmp_path, caplog):
        # finite in float64, so training ends; the float32 tables would not be
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps({"backbone": {"lr": 1e150, "dim": 8}}),
                          encoding="utf-8")
        out = tmp_path / "run"
        base = ["--config", str(config), "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        assert main(base + ["split"]) == 0
        caplog.clear()
        assert main(base + ["train-backbone"]) == 1
        assert "backbone_user.cemb: row " in caplog.text
        assert "is not finite as float32" in caplog.text
        assert not list(out.glob("backbone*"))


@pytest.fixture(scope="module")
def simulated_run(tmp_path_factory):
    """The CHAIN corpus (seed 7) run up to and including ``simulate``."""
    root = tmp_path_factory.mktemp("simulated")
    config = fast_config(root)
    out = root / "run"
    base = ["--config", str(config), "--seed", "7", "--out", str(out)]
    assert main(base + ["ingest", "--dataset", "citeulike", "--path",
                        str(write_corpus_from_planted(root / "corpus"))]) == 0
    for command in CHAIN[:CHAIN.index(["simulate"]) + 1]:
        assert main(base + command) == 0, command
    return config, out


class TestWarmupChecksSimulations:
    @pytest.mark.parametrize("users,extra", [
        ([1000000], None), ([-1], None), ([1.5], None), ([True], None),
        (["3"], None), (None, "999999"), (None, "x")])
    def test_bad_simulations_are_validation_errors(self, tmp_path, caplog,
                                                   simulated_run, users,
                                                   extra):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        doc = json.loads((out / "simulated.json").read_text())
        item = min(doc, key=int)
        if extra is None:
            doc[item]["users"] = users
        else:
            item = extra
            doc[extra] = {"users": [0], "fallback_used": False}
        (out / "simulated.json").write_text(json.dumps(doc))
        caplog.clear()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out), "warmup"]) == 1
        assert f"simulated.json: item {item} " in caplog.text
        assert not (out / "warmed_item.cemb").exists()


def without(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def first_body_a_list(doc):
    doc[min(doc, key=int)] = [0]
    return doc


class TestMalformedJson:
    """A JSON artifact that does not parse, or lacks what its reader reads,
    exits 1 naming the file, before ``warmup`` writes anything."""

    @pytest.mark.parametrize("name,edit,error", [
        ("dataset.json", without("n_items"), "KeyError: 'n_items'"),
        ("split.json", without("warm_items"), "KeyError: 'warm_items'"),
        ("split.json", None, "JSONDecodeError: "),
        ("content_cache.json", lambda doc: [1], "TypeError: "),
        ("filter_B/manifest.json", without("hidden"), "KeyError: 'hidden'"),
        ("simulated.json", first_body_a_list, "TypeError: "),
    ], ids=["dataset", "split", "split-not-json", "content-sidecar",
            "manifest", "simulated"])
    def test_named(self, tmp_path, caplog, simulated_run, name, edit, error):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        path = out / name
        if edit is None:
            path.write_text(path.read_text(encoding="utf-8")[:-9],
                            encoding="utf-8")
        else:
            doc = edit(json.loads(path.read_text(encoding="utf-8")))
            path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(p.name for p in out.rglob("*"))
        caplog.clear()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out), "warmup"]) == 1
        assert any(m.startswith(f"{path}: malformed ({error}")
                   for m in caplog.messages), caplog.messages
        assert sorted(p.name for p in out.rglob("*")) == before


class TestChain:
    def test_full_chain_and_artifacts(self, tmp_path, capsys):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        out = tmp_path / "run"
        run_chain(corpus, out, fast_config(tmp_path))
        expected = ["dataset.json", "idmap.json", "split.json",
                    "backbone_user.cemb", "backbone_item.cemb",
                    "content_cache.cemb", "content_cache.json",
                    "filter_B/manifest.json", "filter_L/manifest.json",
                    "finetune.jsonl", "simulated.json", "decisions.jsonl",
                    "warmed_item.cemb", "warmup_report.json",
                    "eval_overall.json", "eval_cold.txt",
                    "ablation_no-r.json", "sweep_K.csv"]
        for name in expected:
            assert (out / name).exists(), name

    def test_finetune_lines_balanced(self, tmp_path):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        out = tmp_path / "run"
        config = fast_config(tmp_path)
        base = ["--config", str(config), "--seed", "3", "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        for cmd in (["split"], ["train-backbone"], ["cache-content"],
                    ["train-filter", "--variant", "B"], ["export-finetune"]):
            assert main(base + cmd) == 0
        lines = [json.loads(l) for l in
                 (out / "finetune.jsonl").read_text().splitlines()]
        yes = sum(1 for l in lines if l["completion"] == "Yes")
        assert yes * 2 == len(lines)
        assert all("by answering Yes or No." in l["prompt"] for l in lines)

    def test_reports_are_valid(self, tmp_path):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        out = tmp_path / "run"
        run_chain(corpus, out, fast_config(tmp_path))
        for task in ("overall", "warm", "cold"):
            doc = json.loads((out / f"eval_{task}.json").read_text())
            assert doc["task"] == task
            assert 0.0 <= doc["recall"] <= 1.0
            assert 0.0 <= doc["ndcg"] <= 1.0
        sweep_lines = (out / "sweep_K.csv").read_text().splitlines()
        assert len(sweep_lines) == 3  # header + 2 values


class TestCommandErrors:
    """A bad config value or argument exits 1 with a message naming it."""

    @pytest.mark.parametrize("sections,command,message", [
        ({"content": {"provider": "file"}}, ["cache-content"],
         "file provider needs content.endpoint (path to a vector table)"),
        ({"content": {"provider": "http"}}, ["cache-content"],
         "http provider needs content.endpoint"),
        ({"content": {"provider": "telepathy"}}, ["cache-content"],
         "unknown content provider 'telepathy'"),
        ({"refiner": {"oracle": "crystal-ball"}}, ["simulate"],
         "unknown oracle kind 'crystal-ball'"),
        ({}, ["sweep", "--param", "K", "--values", "4,six"],
         "could not parse sweep values: '4,six'"),
        ({"backbone": {"eval_users": 0}}, ["train-backbone"],
         "backbone.eval_users must be at least 1, got 0"),
        ({"filter": {"eval_users": 0}}, ["train-filter", "--variant", "B"],
         "filter.eval_users must be at least 1, got 0"),
        ({"filter": {"eval_users": 0}}, ["train-filter", "--variant", "L"],
         "filter.eval_users must be at least 1, got 0"),
        ({"eval": {"users": -1}}, ["evaluate", "--task", "cold"],
         "evaluation needs a user sample of at least 1, got n_users=-1"),
    ], ids=["file-provider", "http-provider", "unknown-provider",
            "unknown-oracle", "sweep-values", "backbone-eval-users",
            "filter-b-eval-users", "filter-l-eval-users", "eval-users"])
    def test_config_and_argument_errors(self, tmp_path, caplog, simulated_run,
                                        sections, command, message):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        config = changed_config(config, tmp_path / "changed.json", **sections)
        before = sorted(p.name for p in out.iterdir())
        caplog.clear()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out)] + command) == 1
        assert message in caplog.messages
        assert sorted(p.name for p in out.iterdir()) == before

    def test_simulate_without_a_trained_filter(self, tmp_path, caplog,
                                               simulated_run):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        for variant in "BL":
            shutil.rmtree(out / f"filter_{variant}")
        caplog.clear()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out), "simulate"]) == 1
        assert "no trained filters found; run `train-filter` first" \
            in caplog.messages

    @pytest.mark.parametrize("variant,named", [("L", "coupled"),
                                               ("B", "behavior")])
    def test_sweep_names_the_missing_filter(self, tmp_path, caplog,
                                            simulated_run, variant, named):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        shutil.rmtree(out / f"filter_{variant}")
        caplog.clear()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out), "sweep", "--param", "K", "--values", "4"]) == 1
        assert f"variant 'full' needs the {named} filter" in caplog.messages
        assert not (out / "sweep_K.csv").exists()

    @pytest.mark.parametrize("data,args,message", [
        ({}, ["--dataset", "citeulike"],
         "ingest needs --path (or data.path in the config)"),
        ({"dataset": "netflix"}, ["--path", "corpus"],
         "unknown dataset 'netflix'"),
    ], ids=["no-path", "unknown-dataset"])
    def test_ingest_errors(self, tmp_path, caplog, data, args, message):
        config = changed_config(fast_config(tmp_path), tmp_path / "c.json",
                                data=data)
        caplog.clear()
        assert main(["--config", str(config), "--out", str(tmp_path / "run"),
                     "ingest"] + args) == 1
        assert message in caplog.messages
        assert not (tmp_path / "run" / "dataset.json").exists()


class _MockEmbedHandler(BaseHTTPRequestHandler):
    """An embedding service answering each text with its 32-wide mock vector."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        payload = json.dumps({"vector": mock_embed(body["text"], 32).tolist()})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


class TestCacheContentProviders:
    """``cache-content`` with a ``file`` or ``http`` provider at
    ``content.endpoint`` caches every catalog item's vector."""

    def cache_content(self, config, out, capsys, **content):
        config = changed_config(config, out.parent / "provider.json",
                                content=content)
        capsys.readouterr()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out), "cache-content"]) == 0
        return capsys.readouterr().out

    def test_file_provider_serves_a_saved_cache(self, tmp_path, capsys,
                                                simulated_run):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        saved = tmp_path / "vectors.cemb"
        for suffix in (".cemb", ".json"):
            (out / "content_cache.cemb").with_suffix(suffix).rename(
                saved.with_suffix(suffix))
        stdout = self.cache_content(config, out, capsys, provider="file",
                                    endpoint=str(saved))
        assert stdout == "content cache: 18 vectors, dim 32\n"
        want, got = VectorCache.load(saved), VectorCache.load(
            out / "content_cache.cemb")
        assert got.provider_kind == "file" and got.dim == 32
        assert sorted(got.vectors) == sorted(want.vectors) == list(range(18))
        assert all(got.vectors[i].tobytes() == want.vectors[i].tobytes()
                   for i in want.vectors)

    def test_http_provider_embeds_through_the_service(self, tmp_path, capsys,
                                                      simulated_run):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        for suffix in (".cemb", ".json"):
            (out / "content_cache.cemb").with_suffix(suffix).unlink()
        with http_server(_MockEmbedHandler) as server:
            stdout = self.cache_content(config, out, capsys, provider="http",
                                        endpoint=f"{server.base_url}/embed")
        assert stdout == "content cache: 18 vectors, dim 32\n"
        _, catalog = _load_dataset(out)
        got = VectorCache.load(out / "content_cache.cemb")
        assert got.provider_kind == "http" and sorted(got.vectors) == \
            sorted(catalog.content)
        for item, text in catalog.content.items():
            assert got.vectors[item].tobytes() == \
                mock_embed(text, 32).astype(np.float32).tobytes()


class TestRetrainFilter:
    def test_filter_l_rerun_byte_identical(self, tmp_path):
        # filter L's oracle labels take contexts from filter B, never from
        # the filter L a first run left on disk
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        doc = json.loads(config.read_text())
        doc["refiner"]["context_len"] = 1
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        base = ["--config", str(config), "--seed", "7", "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        for cmd in (["split"], ["train-backbone"], ["cache-content"]):
            assert main(base + cmd) == 0
        assert main(base + ["train-filter", "--variant", "L"]) == 1
        for variant in ("B", "L"):
            assert main(base + ["train-filter", "--variant", variant]) == 0
        first = {p.name: p.read_bytes() for p in (out / "filter_L").iterdir()}
        assert main(base + ["train-filter", "--variant", "L"]) == 0
        again = {p.name: p.read_bytes() for p in (out / "filter_L").iterdir()}
        assert sorted(again) == sorted(first)
        for name, data in first.items():
            assert again[name] == data, name


class TestOracleOnlyWhereQueried:
    def test_http_oracle_without_endpoint(self, tmp_path, caplog):
        # only commands that query the oracle build it, and need its endpoint
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        mock = fast_config(tmp_path)
        doc = json.loads(mock.read_text())
        doc["refiner"]["oracle"] = "http"
        http = tmp_path / "http.json"
        http.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"

        def run(config, *cmd):
            caplog.clear()
            return main(["--config", str(config), "--seed", "7",
                         "--out", str(out), *cmd])

        assert run(http, "ingest", "--dataset", "citeulike",
                   "--path", str(corpus)) == 0
        for cmd in (["split"], ["train-backbone"], ["cache-content"],
                    ["train-filter", "--variant", "B"]):
            assert run(http, *cmd) == 0, cmd
        for cmd in (["train-filter", "--variant", "L"], ["simulate"]):
            assert run(http, *cmd) == 1, cmd
            assert "refiner.endpoint" in caplog.text, cmd
        assert run(mock, "simulate") == 0
        assert run(http, "warmup") == 0
        assert (out / "warmed_item.cemb").exists()


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_chain(corpus, out_a, config)
        run_chain(corpus, out_b, config)
        artifacts = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                           if p.is_file())
        assert artifacts
        for rel in artifacts:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


class TestNoColdItems:
    def test_simulate_and_warmup_exit_zero(self, tmp_path, capsys):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["data"]["cold_frac"] = 0.0
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "run"
        base = ["--config", str(config), "--seed", "7", "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        for command in CHAIN[:CHAIN.index(["simulate"])]:
            assert main(base + command) == 0, command
        assert json.loads((out / "split.json").read_text())["cold_items"] == []
        capsys.readouterr()
        assert main(base + ["simulate"]) == 0
        assert capsys.readouterr().out == \
            "simulated 0 cold items; no oracle decision was made\n"
        assert json.loads((out / "simulated.json").read_text()) == {}
        assert (out / "decisions.jsonl").read_text() == ""
        assert main(base + ["warmup"]) == 0
        assert "warmed 0 cold items" in capsys.readouterr().out


class TestStaleCache:
    def test_simulate_over_cache_missing_an_item(self, tmp_path, caplog):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        out = tmp_path / "run"
        base = ["--config", str(config), "--seed", "7", "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        for cmd in (["split"], ["train-backbone"], ["cache-content"],
                    ["train-filter", "--variant", "B"]):
            assert main(base + cmd) == 0, cmd
        cache = VectorCache.load(out / "content_cache.cemb")
        del cache.vectors[5]
        cache.save(out / "content_cache.cemb")
        caplog.clear()
        assert main(base + ["simulate"]) == 1
        assert "lacks item 5 " in caplog.text
        assert not (out / "simulated.json").exists()

    def test_simulate_over_truncated_decision_log(self, tmp_path, caplog):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        out = tmp_path / "run"
        base = ["--config", str(config), "--seed", "7", "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        for cmd in (["split"], ["train-backbone"], ["cache-content"],
                    ["train-filter", "--variant", "B"], ["simulate"]):
            assert main(base + cmd) == 0, cmd
        decisions = out / "decisions.jsonl"
        lines = decisions.read_text(encoding="utf-8").splitlines(keepends=True)
        decisions.write_text("".join(lines[:2]) + lines[2][:20],
                             encoding="utf-8")
        caplog.clear()
        assert main(base + ["simulate"]) == 1
        assert f"{decisions}, line 3: not a decision record" in caplog.text


    @pytest.mark.parametrize("name,widen", [
        ("content_cache.cemb", 1), ("filter_L/item_w2.cemb", 2),
        ("backbone_item.cemb", 1)])
    def test_simulate_over_table_of_wrong_width(self, tmp_path, caplog,
                                                simulated_run, name, widen):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        table = store.load_table(out / name, (None, None))
        store.save_table(out / name, np.ones((len(table),
                                              table.shape[1] + widen)))
        caplog.clear()
        assert main(["--config", str(config), "--seed", "7", "--out",
                     str(out), "simulate"]) == 1
        assert f"{out / name}: " in caplog.text


def changed_config(config, path, **sections):
    """``config`` with the keys in ``sections`` replaced, written to ``path``."""
    doc = json.loads(config.read_text(encoding="utf-8"))
    for section, keys in sections.items():
        doc[section].update(keys)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def cut_rows(out, name, rows):
    table = store.load_table(out / name, (None, None))
    store.save_table(out / name, table[:-rows])


def widen(out, name):
    table = store.load_table(out / name, (None, None))
    store.save_table(out / name, np.ones((len(table), table.shape[1] + 1)))


RETRAINED_BACKBONE = ({"backbone": {"dim": 12}}, ["train-backbone"])
RECACHED_CONTENT = ({"content": {"dim": 16}}, ["cache-content"])


class TestStaleArtifacts:
    """A table that no longer fits the run reading it exits 1 naming it."""

    @pytest.mark.parametrize("rerun,edit,command,name", [
        (None, lambda out: cut_rows(out, "warmed_item.cemb", 3),
         ["evaluate", "--task", "warm"], "warmed_item.cemb"),
        (None, lambda out: widen(out, "warmed_item.cemb"),
         ["evaluate", "--task", "cold"], "warmed_item.cemb"),
        (RETRAINED_BACKBONE, None, ["simulate"], "filter_B/user_w1.cemb"),
        (RETRAINED_BACKBONE, None, ["ablate", "--variant", "no-r"],
         "filter_B/user_w1.cemb"),
        (RETRAINED_BACKBONE, None, ["train-filter", "--variant", "L"],
         "filter_B/user_w1.cemb"),
        (RETRAINED_BACKBONE, None, ["warmup"], "filter_B/user_w1.cemb"),
        (RECACHED_CONTENT, None, ["simulate"], "filter_B/user_w1.cemb"),
        (RECACHED_CONTENT, None, ["export-finetune"], "filter_B/user_w1.cemb"),
        (RECACHED_CONTENT, None, ["train-filter", "--variant", "L"],
         "filter_B/user_w1.cemb"),
        (None, lambda out: cut_rows(out, "backbone_user.cemb", 2),
         ["simulate"], "backbone_user.cemb"),
    ], ids=["warmed-short", "warmed-wide", "dim-simulate", "dim-ablate",
            "dim-filter-L", "dim-warmup", "content-simulate",
            "content-export", "content-filter-L", "users-short"])
    def test_stale_table_named(self, tmp_path, caplog, simulated_run, rerun,
                               edit, command, name):
        config, run = simulated_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        base = ["--out", str(out), "--seed", "7", "--config"]
        assert main(base + [str(config), "warmup"]) == 0
        if rerun is not None:
            sections, stage = rerun
            config = changed_config(config, tmp_path / "changed.json",
                                    **sections)
            assert main(base + [str(config)] + stage) == 0
        if edit is not None:
            edit(out)
        caplog.clear()
        assert main(base + [str(config)] + command) == 1
        assert f"{out / name}: table shape (" in caplog.text

    def test_rerun_after_changing_dims(self, tmp_path):
        # every stage replaces its own stale output, so the whole CHAIN
        # reruns over the outputs of other backbone and content widths
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        out = tmp_path / "run"
        run_chain(corpus, out, config)
        changed = changed_config(config, tmp_path / "changed.json",
                                 backbone={"dim": 12}, content={"dim": 16})
        base = ["--config", str(changed), "--seed", "7", "--out", str(out)]
        for command in CHAIN[CHAIN.index(["train-backbone"]):]:
            assert main(base + command) == 0, command
        assert store.load_table(out / "warmed_item.cemb", (None, None)).shape[1] == 12
        assert VectorCache.load(out / "content_cache.cemb").dim == 16


def simulate_output(config, out, capsys) -> str:
    """The stdout of a ``simulate`` run under ``config`` in ``out``."""
    capsys.readouterr()
    assert main(["--config", str(config), "--seed", "7", "--out", str(out),
                 "simulate"]) == 0
    return capsys.readouterr().out


class TestAdoptionOverThePass:
    """``simulate`` rates this pass's decisions, answers served from
    ``decisions.jsonl`` included, not every decision the file holds."""

    def test_rerun_over_changed_prompts_prints_the_fresh_figure(
            self, tmp_path, capsys, simulated_run):
        config, run = simulated_run
        changed = changed_config(config, tmp_path / "changed.json",
                                 content={"dim": 16})
        outputs, grown = [], []
        for name, keep_log in (("rerun", True), ("fresh", False)):
            out = tmp_path / name
            shutil.copytree(run, out)
            if not keep_log:
                (out / "decisions.jsonl").unlink()
            base = ["--config", str(changed), "--seed", "7", "--out", str(out)]
            for command in (["cache-content"],
                            ["train-filter", "--variant", "B"],
                            ["train-filter", "--variant", "L"]):
                assert main(base + command) == 0, command
            outputs.append(simulate_output(changed, out, capsys))
            grown.append(len((out / "decisions.jsonl").read_text().splitlines()))
        # every prompt changed, so the rerun asked every pair again and its
        # log holds both passes
        first = len((run / "decisions.jsonl").read_text().splitlines())
        assert grown == [first + grown[1], grown[1]]
        fresh = f"({grown[1]}/{grown[1]})"
        assert outputs[0] == outputs[1] == \
            f"simulated 3 cold items; adoption rate 100.00% {fresh}\n"

    def test_plain_rerun_prints_the_first_figure(self, tmp_path, capsys):
        # tau 0.94 rejects every candidate of this corpus, so each cold item
        # falls back to its top candidate, which counts as no acceptance
        config = changed_config(fast_config(tmp_path), tmp_path / "c.json",
                                refiner={"tau": 0.94})
        out = tmp_path / "run"
        base = ["--config", str(config), "--seed", "7", "--out", str(out)]
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        assert main(base + ["ingest", "--dataset", "citeulike", "--path",
                            str(corpus)]) == 0
        for command in CHAIN[:CHAIN.index(["simulate"])]:
            assert main(base + command) == 0, command
        first = simulate_output(config, out, capsys)
        logged = (out / "decisions.jsonl").read_bytes()
        assert first == "simulated 3 cold items; adoption rate 0.00% (0/18)\n"
        assert simulate_output(config, out, capsys) == first
        assert (out / "decisions.jsonl").read_bytes() == logged


def test_unrated_movies_are_cold_and_the_chain_runs(tmp_path, capsys):
    # MovieLens keeps movies nobody rated in the catalog; the split makes
    # them cold, with no val/test pairs, and every stage runs over them
    data = make_two_cluster_dataset(n_users=40, n_warm=18, n_cold=0,
                                    groups_per_cluster=1, seed=0)
    ratings = [(u + 1, i + 1, 5, 0) for u, i in data.log.pairs.tolist()]
    movies = [(i + 1, data.catalog.titles[i], "Drama")
              for i in range(data.log.n_items)]
    unrated = [(data.log.n_items + j + 1, f"Unseen {j}", "Horror")
               for j in range(5)]
    corpus = write_movielens_fixture(tmp_path / "ml", ratings, movies + unrated)
    out = tmp_path / "run"
    base = ["--config", str(fast_config(tmp_path)), "--seed", "7",
            "--out", str(out)]
    assert main(base + ["ingest", "--dataset", "movielens",
                        "--path", str(corpus)]) == 0
    for command in CHAIN[:CHAIN.index(["simulate"])] + [
            ["simulate"], ["warmup"], ["evaluate", "--task", "cold"]]:
        assert main(base + command) == 0, command
    split = json.loads((out / "split.json").read_text())
    unrated_ids = list(range(data.log.n_items, data.log.n_items + 5))
    assert set(unrated_ids) <= set(split["cold_items"])
    assert not {i for _, i in split["cold_test"] + split["cold_val"]} \
        & set(unrated_ids)
    assert set(unrated_ids) <= set(map(int, json.loads(
        (out / "simulated.json").read_text())))


class _DeadItemHandler(BaseHTTPRequestHandler):
    """Answers Yes, but 503 to every prompt about ``server.dead_title``."""

    def do_POST(self):
        prompt = json.loads(self.rfile.read(
            int(self.headers["Content-Length"])))["prompt"]
        self.server.prompts.append(prompt)
        if self.server.dead_title and \
                f"the [{self.server.dead_title}] by" in prompt:
            self.send_response(503)
            self.end_headers()
            return
        payload = json.dumps({"answer": "Yes"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def dead_item_server():
    with http_server(_DeadItemHandler) as srv:
        srv.prompts, srv.dead_title = [], None
        yield srv


class TestFailedSimulateKeepsAnswers:
    def test_rerun_asks_only_the_missing_pairs(self, tmp_path, caplog,
                                               dead_item_server):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        doc = json.loads(fast_config(tmp_path).read_text())
        doc["refiner"].update(oracle="http", retries=1, endpoint=(
            f"{dead_item_server.base_url}/decide"))
        config = tmp_path / "http.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        base = ["--config", str(config), "--seed", "7", "--out", str(out)]
        assert main(base + ["ingest", "--dataset", "citeulike",
                            "--path", str(corpus)]) == 0
        for cmd in (["split"], ["train-backbone"], ["cache-content"],
                    ["train-filter", "--variant", "B"]):
            assert main(base + cmd) == 0, cmd
        cold = sorted(json.loads((out / "split.json").read_text())
                      ["cold_items"])
        assert len(cold) >= 3
        _, catalog = _load_dataset(out)
        dead = cold[1]
        dead_item_server.dead_title = catalog.title(dead)

        caplog.clear()
        assert main(base + ["simulate"]) == 2
        assert f"every oracle call failed for item {dead}" in caplog.text
        kept = [json.loads(line) for line in
                (out / "decisions.jsonl").read_text().splitlines()]
        assert {r["item"] for r in kept} == set(cold) - {dead}
        assert not (out / "simulated.json").exists()

        dead_item_server.dead_title = None
        asked_before = len(dead_item_server.prompts)
        assert main(base + ["simulate"]) == 0
        rerun = dead_item_server.prompts[asked_before:]
        final = [json.loads(line) for line in
                 (out / "decisions.jsonl").read_text().splitlines()]
        assert final[:len(kept)] == kept
        assert {r["item"] for r in final[len(kept):]} == {dead}
        assert len(rerun) == len(final) - len(kept)
        assert all(f"the [{catalog.title(dead)}] by" in p for p in rerun)
