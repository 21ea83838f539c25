"""Command line entry point.

Subcommands cover the whole workflow: synthesize a corpus, train a variant,
generate responses with alignment traces, score a held-out set, and run the
whole-model gradient check.  Exit codes: 0 on success, 1 for anything the
package validates (bad flags, bad config, incompatible files), 2 for an
unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import evaluation, training
from .config import TrainConfig, VARIANTS, uses_latent
from .corpus import (Vocabulary, generate_synthetic, load_jsonl, read_json, save_jsonl,
                     split_records, to_pairs)
from .errors import CompatibilityError, ConfigError, FocusCVAEError
from .model import FocusCVAE
from .training import load_checkpoint, restore_model


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focuscvae",
        description="Latent-variable response generation with focus-guided attention.")
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-corpus", help="synthesize a corpus plus its vocabulary")
    mk.add_argument("--seed", type=int, default=7)
    mk.add_argument("--n-pairs", type=int, default=20_000)
    mk.add_argument("--holdout", type=int, default=500,
                    help="posts split off into test.jsonl (0 keeps everything together)")
    mk.add_argument("--out", type=Path, required=True)

    tn = sub.add_parser("train", help="train one variant on a corpus")
    tn.add_argument("--corpus", type=Path, required=True, help="corpus JSONL")
    tn.add_argument("--vocab", type=Path, default=None,
                    help="vocabulary JSON (default: vocab.json next to the corpus)")
    tn.add_argument("--out", type=Path, required=True)
    tn.add_argument("--config", type=Path, default=None, help="training config JSON")
    tn.add_argument("--checkpoint", type=Path, default=None,
                    help="resume from this checkpoint")
    tn.add_argument("--seed", type=int, default=None)
    tn.add_argument("--variant", choices=VARIANTS, default=None)
    tn.add_argument("--steps", type=int, default=None, help="override total_steps")
    tn.add_argument("--paper-init", action="store_true",
                    help="the paper's uniform(-1, 1) parameter init (sets init_scale 1.0)")

    # generate and eval take the same flags
    infer = argparse.ArgumentParser(add_help=False)
    infer.add_argument("--checkpoint", type=Path, required=True)
    infer.add_argument("--corpus", type=Path, required=True, help="posts to respond to")
    infer.add_argument("--vocab", type=Path, default=None,
                       help="vocabulary JSON (default: vocab.json next to the corpus)")
    infer.add_argument("--out", type=Path, required=True)
    infer.add_argument("--n-samples", type=int, default=3)
    infer.add_argument("--max-len", type=int, default=None,
                       help="default: twice the longest training response")
    infer.add_argument("--seed", type=int, default=0)
    sub.add_parser("generate", parents=[infer],
                   help="sample responses for every post in a corpus")
    sub.add_parser("eval", parents=[infer], help="generate for a held-out corpus and score it")

    gc = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    gc.add_argument("--variant", choices=VARIANTS, default="focconstrain")
    gc.add_argument("--seed", type=int, default=1)
    return parser


def _require(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"no {what} file at {path}")
    return path


def _check_out(out: Path, *subdirs: str) -> None:
    """Refuse an --out, or a directory to be made in it, that exists and is
    not a directory, before any work is done."""
    for path in (out, *(out / d for d in subdirs)):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out: {path} exists and is not a directory")


def _load_vocab(explicit: Path | None, near: Path) -> Vocabulary:
    path = explicit if explicit is not None else near.parent / "vocab.json"
    if not path.is_file():
        raise ConfigError(f"no vocabulary file at {path}; pass --vocab")
    return Vocabulary.load(path)


def _resolved_train_config(args, vocab_len: int) -> TrainConfig:
    raw: dict = {}
    if args.config is not None:
        raw = read_json(_require(args.config, "config"))
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
    cfg = TrainConfig.from_dict({"vocab_size": vocab_len, **raw})
    if cfg.vocab_size != vocab_len:
        raise CompatibilityError(
            f"config says vocab_size {cfg.vocab_size} but the vocabulary has {vocab_len}")
    # flags beat the file
    if args.seed is not None:
        cfg.seed = args.seed
    if args.variant is not None:
        cfg.variant = args.variant
    if args.steps is not None:
        cfg.total_steps = args.steps
    if args.paper_init:
        cfg.init_scale = 1.0
    return cfg.validate()


def cmd_make_corpus(args) -> int:
    _check_out(args.out)
    records, vocab = generate_synthetic(seed=args.seed, n_pairs=args.n_pairs)
    # split before anything is written, so a refused --holdout leaves no --out
    train, test = (split_records(records, args.holdout, seed=args.seed) if args.holdout
                   else (records, None))
    args.out.mkdir(parents=True, exist_ok=True)
    if test is not None:
        save_jsonl(test, args.out / "test.jsonl")
    save_jsonl(train, args.out / "corpus.jsonl")
    vocab.save(args.out / "vocab.json")
    held = f", {args.holdout} posts held out" if args.holdout else ""
    print(f"wrote {len(records)} posts "
          f"({sum(len(r.responses) for r in records)} pairs) to {args.out}{held}")
    return 0


def cmd_train(args) -> int:
    _check_out(args.out)
    _require(args.corpus, "corpus")
    vocab = _load_vocab(args.vocab, args.corpus)
    records = load_jsonl(args.corpus)
    pairs = to_pairs(records, vocab)

    resume = None
    if args.checkpoint is not None:
        resume = load_checkpoint(_require(args.checkpoint, "checkpoint"))
        cfg = TrainConfig.from_dict(resume.config.to_dict())
        if args.steps is not None:
            cfg.total_steps = args.steps
        if (args.config is not None or args.variant is not None or args.seed is not None
                or args.paper_init):
            raise ConfigError("a resumed run takes its config from the checkpoint; "
                              "only --steps may change")
        training.check_resume(cfg.validate(), resume)  # before config.json is rewritten
    else:
        cfg = _resolved_train_config(args, len(vocab))
    training.check_pairs(cfg, pairs)  # before --out is made

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "config.json").write_text(cfg.canonical_json() + "\n")
    result = training.train(cfg, pairs, out_dir=args.out, resume=resume)
    last = result.rows[-1] if result.rows else "(no steps ran)"
    print(f"trained {cfg.variant} to step {cfg.total_steps}; last row: {last}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _model_for_inference(args) -> tuple[FocusCVAE, Vocabulary, int]:
    state = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    _require(args.corpus, "corpus")
    vocab = _load_vocab(args.vocab, args.corpus)
    if len(vocab) != state.config.vocab_size:
        raise CompatibilityError(
            f"vocabulary of {len(vocab)} vs checkpoint trained for {state.config.vocab_size}")
    model, _ = restore_model(state)
    max_len = args.max_len
    if max_len is None:
        trained = state.meta.get("max_train_resp_len")
        if trained is None:
            raise ConfigError("checkpoint lacks a response-length record; pass --max-len")
        max_len = 2 * int(trained)
    return model, vocab, max_len


def cmd_generate(args) -> int:
    _check_out(args.out, "alignment")
    model, vocab, max_len = _model_for_inference(args)
    records = load_jsonl(args.corpus)
    posts = [vocab.encode(r.post) for r in records]
    generated = evaluation.generate_samples(model, posts, args.n_samples, args.seed, max_len)
    args.out.mkdir(parents=True, exist_ok=True)
    align_dir = args.out / "alignment"
    align_dir.mkdir(exist_ok=True)

    with open(args.out / "generations.jsonl", "w") as fh:
        for i, record in enumerate(records):
            samples = []
            for j in range(args.n_samples):
                res = generated[(i, j)]
                focus = over_len = None
                if res.focus is not None:
                    focus = res.focus.tolist()
                    over_len = (res.coverage / float(res.length)).tolist()
                    with open(align_dir / f"post{i:04d}_s{j}.csv", "w", newline="") as csv_fh:
                        writer = csv.writer(csv_fh)
                        writer.writerow(["position", "token", "focus", "coverage_over_len"])
                        for pos, tok in enumerate(record.post):
                            writer.writerow([pos, tok, repr(focus[pos]), repr(over_len[pos])])
                samples.append({
                    "tokens": vocab.decode(list(evaluation.strip_terminals(res.token_ids))),
                    "focus": focus,
                    "coverage_over_len": over_len,
                })
            fh.write(json.dumps({"post": record.post, "samples": samples}) + "\n")
    kind = "prior draws" if uses_latent(model.cfg.variant) else "deterministic decoding"
    print(f"wrote {len(records)} posts x {args.n_samples} samples ({kind}) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    _check_out(args.out)
    model, vocab, max_len = _model_for_inference(args)
    records = load_jsonl(args.corpus)
    report = evaluation.evaluate(model, vocab, records, n_samples=args.n_samples,
                                 seed=args.seed, max_len=max_len, out_dir=args.out)
    print(report.canonical_json())
    return 0


def cmd_gradcheck(args) -> int:
    report = training.micro_gradcheck(args.variant, seed=args.seed)
    print(report.format())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; fold usage into 1
        return 0 if e.code in (0, None) else 1
    handlers = {
        "make-corpus": cmd_make_corpus,
        "train": cmd_train,
        "generate": cmd_generate,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except FocusCVAEError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"unexpected error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
