"""End-to-end runs of every subcommand through main()."""

import csv
import json
import math

import numpy as np
import pytest

from focuscvae.cli import main
from focuscvae.corpus import (EOS_ID, GrammarConfig, Vocabulary, generate_synthetic, load_jsonl,
                              save_jsonl, split_records)
from focuscvae.evaluation import generate_samples
from focuscvae.training import load_checkpoint, restore_model, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus plus one short training run, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["make-corpus", "--seed", "7", "--n-pairs", "120",
                 "--holdout", "10", "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(run), "--variant", "focconstrain",
                 "--steps", "6", "--seed", "3"]) == 0
    return root


def test_make_corpus_writes_split_and_vocab(workspace):
    data = workspace / "data"
    assert (data / "vocab.json").exists()
    train = (data / "corpus.jsonl").read_text().splitlines()
    test = (data / "test.jsonl").read_text().splitlines()
    assert len(test) == 10
    pairs = sum(len(json.loads(l)["responses"]) for l in train + test)
    assert pairs == 120


@pytest.mark.parametrize("holdout", ["-1", "120"])
def test_a_refused_holdout_writes_nothing(tmp_path, capsys, holdout):
    out = tmp_path / "data"
    assert main(["make-corpus", "--seed", "7", "--n-pairs", "120", "--holdout", holdout,
                 "--out", str(out)]) == 1
    assert "cannot hold out" in capsys.readouterr().err
    assert not out.exists()


def test_training_on_an_empty_corpus_writes_nothing(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--vocab", str(workspace / "data" / "vocab.json"),
                 "--out", str(out), "--steps", "2"]) == 1
    assert "at least one pair" in capsys.readouterr().err
    assert not out.exists()


def test_train_persists_resolved_config_and_outputs(workspace):
    run = workspace / "run"
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["variant"] == "focconstrain" and cfg["total_steps"] == 6
    assert cfg["seed"] == 3
    log = (run / "loss_log.csv").read_text().splitlines()
    assert log[0].startswith("step,") and len(log) == 7
    assert load_checkpoint(run / "checkpoint.bin").step == 6


def test_resume_only_allows_step_extension(workspace, capsys):
    data, run = workspace / "data", workspace / "run"
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(run), "--checkpoint", str(run / "checkpoint.bin"),
                 "--steps", "6", "--seed", "9"])
    assert code == 1
    assert "config from the checkpoint" in capsys.readouterr().err


def test_resume_extends_the_run(workspace, tmp_path):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "extended"
    out.mkdir()
    for name in ("checkpoint.bin", "loss_log.csv"):
        (out / name).write_bytes((run / name).read_bytes())
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
                 "--steps", "9"])
    assert code == 0
    assert load_checkpoint(out / "checkpoint.bin").step == 9
    assert len((out / "loss_log.csv").read_text().splitlines()) == 10


def test_resume_refuses_paper_init(workspace, tmp_path, capsys):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "resumed"
    out.mkdir()
    for name in ("checkpoint.bin", "loss_log.csv"):
        (out / name).write_bytes((run / name).read_bytes())
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
                 "--steps", "8", "--paper-init"])
    assert code == 1
    assert "config from the checkpoint" in capsys.readouterr().err
    assert load_checkpoint(out / "checkpoint.bin").config.init_scale == 0.08
    assert load_checkpoint(out / "checkpoint.bin").step == 6


def test_resume_refuses_a_misshapen_optimizer_moment(workspace, tmp_path, capsys):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "misshapen"
    out.mkdir()
    (out / "loss_log.csv").write_bytes((run / "loss_log.csv").read_bytes())
    state = load_checkpoint(run / "checkpoint.bin")
    state.adam_m["decoder.out.W"] = np.zeros(1)
    save_checkpoint(out / "checkpoint.bin", state)
    before = (out / "checkpoint.bin").read_bytes()
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
                 "--steps", "9"])
    assert code == 1
    assert "decoder.out.W" in capsys.readouterr().err
    assert (out / "checkpoint.bin").read_bytes() == before
    assert sorted(f.name for f in out.iterdir()) == ["checkpoint.bin", "config.json",
                                                     "loss_log.csv"]


@pytest.mark.parametrize("steps", ["2", "0"])
def test_a_refused_resume_leaves_config_json_alone(workspace, tmp_path, capsys, steps):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "resumed"
    out.mkdir()
    for name in ("checkpoint.bin", "loss_log.csv", "config.json"):
        (out / name).write_bytes((run / name).read_bytes())
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
                 "--steps", steps])
    assert code == 1
    assert ("at step 6 of" if steps != "0" else "total_steps") in capsys.readouterr().err
    for name in ("checkpoint.bin", "loss_log.csv", "config.json"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name


def test_generate_layout(workspace, tmp_path):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "gen"
    code = main(["generate", "--checkpoint", str(run / "checkpoint.bin"),
                 "--vocab", str(data / "vocab.json"),
                 "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(out), "--n-samples", "2", "--seed", "5"])
    assert code == 0
    lines = (out / "generations.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    assert set(first) == {"post", "samples"} and len(first["samples"]) == 2
    sample = first["samples"][0]
    assert set(sample) == {"tokens", "focus", "coverage_over_len"}
    assert len(sample["focus"]) == len(first["post"])
    assert abs(sum(sample["focus"]) - 1.0) < 1e-9
    csv_files = sorted((out / "alignment").glob("*.csv"))
    assert len(csv_files) == len(lines) * 2
    header = csv_files[0].read_text().splitlines()[0]
    assert header == "position,token,focus,coverage_over_len"


def test_eval_prints_canonical_report(workspace, tmp_path, capsys):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--vocab", str(data / "vocab.json"),
                 "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(out), "--n-samples", "2", "--seed", "5"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed == (out / "report.json").read_text().strip()
    report = json.loads(printed)
    assert report["n_samples"] == 2 and 0.0 <= report["bleu_1"] <= 1.0
    assert (out / "samples.csv").exists()


def test_eval_without_ngrams_still_writes_its_report(workspace, tmp_path, capsys):
    data, run = workspace / "data", workspace / "run"
    state = load_checkpoint(run / "checkpoint.bin")
    state.params["decoder.out.b"][EOS_ID] = 100.0  # every sample is EOS alone
    save_checkpoint(tmp_path / "eos.bin", state)
    out = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(tmp_path / "eos.bin"),
                 "--corpus", str(data / "test.jsonl"), "--out", str(out),
                 "--n-samples", "2", "--seed", "5"])
    assert code == 0, capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["mean_length"] == 0.0
    assert report["bleu_1"] == report["bleu_2"] == 0.0
    for name in ("intra_dist_1", "intra_dist_2", "inter_dist_1", "inter_dist_2"):
        assert report[name] is None
    assert report["mean_alignment_gap"] is not None


@pytest.fixture(scope="module")
def sampled(workspace):
    """generate and eval at one seed on one checkpoint, vocabulary by default."""
    data, run = workspace / "data", workspace / "run"
    out = workspace / "sampled"
    codes = [main([command, "--checkpoint", str(run / "checkpoint.bin"),
                   "--corpus", str(data / "test.jsonl"), "--out", str(out / command),
                   "--n-samples", "3", "--seed", "5"])
             for command in ("generate", "eval")]
    return out, codes


def test_vocab_defaults_to_the_corpus_directory(sampled):
    _, codes = sampled
    assert codes == [0, 0]


def test_generate_and_eval_draw_the_same_samples(sampled):
    out, _ = sampled
    posts = [json.loads(l) for l in (out / "generate" / "generations.jsonl").read_text().splitlines()]
    with open(out / "eval" / "samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(posts) * 3
    for row in rows:
        sample = posts[int(row["post_id"])]["samples"][int(row["sample_id"])]
        assert " ".join(sample["tokens"]) == row["tokens"]
        total = 0.0
        for c, f in zip(sample["coverage_over_len"], sample["focus"]):
            total += (c - f) * (c - f)
        assert math.sqrt(total) == float(row["alignment_gap"])


def test_alignment_csvs_hold_each_samples_focus_and_coverage_over_len(workspace, sampled):
    data, run = workspace / "data", workspace / "run"
    out = sampled[0] / "generate"
    state = load_checkpoint(run / "checkpoint.bin")
    model, _ = restore_model(state)
    vocab = Vocabulary.load(data / "vocab.json")
    records = load_jsonl(data / "test.jsonl")
    generated = generate_samples(model, [vocab.encode(r.post) for r in records], 3, 5,
                                 2 * state.meta["max_train_resp_len"])
    posts = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
    for (i, j), res in generated.items():
        post = records[i].post
        with open(out / "alignment" / f"post{i:04d}_s{j}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["position", "token", "focus", "coverage_over_len"]
        over_len = [repr(float(res.coverage[p] / res.length)) for p in range(len(post))]
        assert rows[1:] == [[str(p), tok, repr(float(res.focus[p])), over_len[p]]
                            for p, tok in enumerate(post)]
        assert [repr(v) for v in posts[i]["samples"][j]["coverage_over_len"]] == over_len


@pytest.mark.parametrize("command", ["make-corpus", "generate", "eval"])
def test_a_negative_seed_is_refused(workspace, tmp_path, capsys, command):
    data, run = workspace / "data", workspace / "run"
    out = tmp_path / "out"
    args = [command, "--seed", "-1", "--out", str(out)]
    if command != "make-corpus":
        args += ["--checkpoint", str(run / "checkpoint.bin"),
                 "--corpus", str(data / "test.jsonl")]
    assert main(args) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_generate_checks_its_sizes(workspace, tmp_path, capsys):
    data, run = workspace / "data", workspace / "run"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = ["generate", "--checkpoint", str(run / "checkpoint.bin"),
            "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "gen")]
    assert main(args + ["--corpus", str(data / "test.jsonl"), "--n-samples", "0"]) == 1
    assert "n_samples" in capsys.readouterr().err
    assert main(args + ["--corpus", str(empty)]) == 0
    assert (tmp_path / "gen" / "generations.jsonl").read_text() == ""


def test_make_corpus_writes_the_desk_grammar(tmp_path):
    assert main(["make-corpus", "--seed", "7", "--n-pairs", "120", "--holdout", "5",
                 "--out", str(tmp_path / "cli")]) == 0
    records, _ = generate_synthetic(7, 120, GrammarConfig(post_len=14, n_keywords=20))
    train, test = split_records(records, 5, 7)
    save_jsonl(train, tmp_path / "corpus.jsonl")
    save_jsonl(test, tmp_path / "test.jsonl")
    for name in ("corpus.jsonl", "test.jsonl"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_gradcheck_exits_zero_on_pass(capsys):
    assert main(["gradcheck", "--variant", "s2s", "--seed", "1"]) == 0
    assert "pass" in capsys.readouterr().out.lower()


def test_config_file_with_flag_overrides(workspace, tmp_path):
    data = workspace / "data"
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"variant": "foc", "total_steps": 4,
                                    "warmup_steps": 2, "d_h": 8, "d_z": 4,
                                    "batch_size": 4}))
    out = tmp_path / "run"
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--config", str(cfg_path), "--out", str(out), "--seed", "11"])
    assert code == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["variant"] == "foc"      # from the file
    assert resolved["seed"] == 11            # flag wins
    assert resolved["d_h"] == 8


def test_unknown_config_keys_are_rejected(workspace, tmp_path, capsys):
    data = workspace / "data"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err


def test_conflicting_vocab_size_is_rejected(workspace, tmp_path, capsys):
    data = workspace / "data"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"vocab_size": 999}))
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "999" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"paper_init": "no"}, {"batch_size": True}, {"d_h": 8.0}, {"d_h": "64"},
    {"peak_lr": "0.1"}, {"seed": -1},
    {"w_bow": -1}, {"w_foc": -5.0}, {"init_scale": 0.0}, {"init_scale": -0.5},
    {"init_scale": math.inf}, {"w_foc": math.nan}, {"vocab_size": "64"},
])
def test_config_values_of_the_wrong_type_are_rejected(workspace, tmp_path, capsys, payload):
    data = workspace / "data"
    cfg_path = tmp_path / "bad.json"
    # a short run, so a payload that gets through fails fast
    cfg_path.write_text(json.dumps({**payload, "total_steps": 2}))
    out = tmp_path / "x"
    code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                 "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert next(iter(payload)) in err
    if payload == {"vocab_size": "64"}:
        assert "vocab_size must be int, got '64'" in err
    assert not (out / "config.json").exists()


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_files_exit_one(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no corpus" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--corpus", "--checkpoint", "--config"])
def test_a_directory_is_no_input_file(workspace, tmp_path, capsys, flag):
    data, run = workspace / "data", workspace / "run"
    given = {"--corpus": str(data / "corpus.jsonl"), "--out": str(tmp_path / "o")}
    command = "generate" if flag == "--checkpoint" else "train"
    if command == "generate":
        given["--checkpoint"] = str(run / "checkpoint.bin")
    given[flag] = str(tmp_path)
    assert main([command] + [v for kv in given.items() for v in kv]) == 1
    assert f"no {flag[2:]} file at {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["corpus", "vocab", "config"])
def test_input_files_that_are_not_utf8_exit_one(workspace, tmp_path, capsys, which):
    data = workspace / "data"
    files = {"corpus": tmp_path / "corpus.jsonl", "vocab": tmp_path / "vocab.json",
             "config": tmp_path / "train.json"}
    files["corpus"].write_bytes((data / "corpus.jsonl").read_bytes())
    files["vocab"].write_bytes((data / "vocab.json").read_bytes())
    files["config"].write_text(json.dumps({"total_steps": 2}))
    files[which].write_bytes(b"\xff" + files[which].read_bytes())
    out = tmp_path / "o"
    code = main(["train", "--corpus", str(files["corpus"]), "--config", str(files["config"]),
                 "--out", str(out)])
    assert code == 1
    assert f"{files[which]}: not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "make-corpus" in capsys.readouterr().out
