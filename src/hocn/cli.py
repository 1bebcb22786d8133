"""Command-line entry point.

Subcommands cover the whole pipeline: prepare (load and split an edge list),
score (heuristic or structural-feature scores over a split), train (fit the
pair-scoring model), eval (ranking metrics), diagnose (redundancy and
concentration reports), theory (Monte-Carlo validation of the latent-space
distance bounds), bounds (the closed-form latent or Barabasi-Albert bounds
over a grid of orders k), bench (timing sweep with a linear fit).

score, train, eval and bench build structural features through the two
stages in ``hocn.scoring``, ``batch_features`` (per-order CN features
normalized by the running walk-participation estimate) and
``basis_matrices`` (Gram-Schmidt or the polynomial filter); all but bench
run them in ``basis_batches``, the one batch loop. diagnose normalizes by
the exact participation instead, then calls ``basis_matrices``.

Every subcommand takes ``--seed``, ``--config``, ``--json`` and ``--output``;
any other flag belongs only to the subcommands that read it, and no flag
may be abbreviated. bounds fills the flags of its chosen --model from that
model's defaults, and rejects a flag that only the other model reads. eval
takes the feature settings (the whole ``FeatureConfig`` train used, its
node-feature seed included) and the frozen running statistics from the one
model file that train wrote; eval's own ``--seed`` draws the split and the
negatives.

Outputs are CSV with a commented header carrying version, seed, and the
effective configuration; ``--json`` mirrors the same rows as a JSON array.
Config files are plain key=value lines naming flags of the subcommand, each
value parsed with its flag's type; a flag given on the command line wins
over the config file, which wins over the flag's default. Exit codes: 0 ok,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .diagnostics import coefficient_of_variation, edge_jsd, order_correlation
from .errors import ConfigError, HocnError, InputError
from .features import cn_order_features_all
from .graph import (EDGE_LIST_FORMATS, Graph, PairBatch, _draw_distinct_pairs,
                    load_edge_list, merged_graph, sample_negatives, split_edges)
from .metrics import evaluate
from .normalize import apply_normalization, exact_walk_participation, normalized_cn_scores
from .ortho import RunningState
from .scoring import (FeatureConfig, ScoreModel, TrainConfig, basis_batches,
                      basis_matrices, batch_features, default_node_features,
                      heuristic_scores, model_scores, propagate_features, train_model)
from .theory import (BoundInputs, LatentModelParams, ba_bound_normalized,
                     ba_bound_unnormalized, bound_normalized,
                     bound_unnormalized, sample_ba_graph, validate_bound)

def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def load_config(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys use flag spelling."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = body.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``: options given on the command line win, then the config
    file, then the defaults. A config value is parsed with its option's type
    and choices; a key that names no option of the subcommand is an error."""
    args = parser.parse_args(argv)
    if args.config:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[args.command]
        options = {a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS}
        values = {}
        for key, raw in load_config(args.config).items():
            if key not in options:
                raise ConfigError(f"unknown config key: {key}")
            values[key] = _config_value(options[key], key, raw)
        sub.set_defaults(**values)
        args = parser.parse_args(argv)
    return args


def _config_value(option: argparse.Action, key: str, raw: str):
    if option.nargs == 0:
        value = _parse_bool(raw)
    elif option.type is not None:
        value = _numbers(raw, key, 1, kind=option.type, error=ConfigError)[0]
    else:
        value = raw
    if option.choices is not None and value not in option.choices:
        raise ConfigError(f"{key}: expected one of {', '.join(option.choices)}, got {raw!r}")
    return value


def _effective_config(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "config", "output", "json"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None and not callable(v)}


def emit(args, fieldnames, rows) -> None:
    """Write rows as commented-header CSV, or as JSON with --json, to
    --output or else standard output."""
    stream = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.json:
            payload = [dict(zip(fieldnames, row)) for row in rows]
            json.dump({"version": __version__, "config": _effective_config(args),
                       "rows": payload}, stream, indent=1, default=str)
            stream.write("\n")
            return
        stream.write(f"# version={__version__}\n")
        stream.write(f"# seed={args.seed}\n")
        pairs = " ".join(f"{k}={v}" for k, v in _effective_config(args).items())
        stream.write(f"# config: {pairs}\n")
        stream.write(",".join(fieldnames) + "\n")
        for row in rows:
            stream.write(",".join("" if v is None else str(v) for v in row) + "\n")
    finally:
        if args.output:
            stream.close()


def _numbers(text, name: str, count: int | None = None, kind=int, error=InputError) -> list:
    """Comma-separated values of ``kind``, exactly ``count`` of them if given."""
    try:
        values = [kind(p) for p in str(text).split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise error(f"{name}: expected {count or 'a list of'} {kind.__name__}(s), got {text!r}")
    return values


def _feature_config(args, **fields) -> FeatureConfig:
    """Pipeline settings from --k-max, --exclude-endpoints and --seed;
    ``fields`` override them."""
    return FeatureConfig(**{"k_max": args.k_max,
                            "exclude_endpoints": args.exclude_endpoints,
                            "seed": args.seed, **fields})


def _load_split(args):
    with open(args.input) as fh:
        g, _report = load_edge_list(fh, format=args.format)
    return g, split_edges(g, _numbers(args.ratios, "ratios", 3, float), args.seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args) -> int:
    g, split = _load_split(args)
    rows = []
    for name in ("train", "valid", "test"):
        for u, v in getattr(split, name).pairs:
            rows.append((int(u), int(v), name))
    emit(args, ("u", "v", "split"), rows)
    return 0


def _structural_scores(g: Graph, pairs: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Row sums of the per-order absolute basis matrices of ``basis_batches``
    times their batch's scale, with the running statistics accumulated over
    the scored pairs. The scale only approximates scores independent of the
    size of a pair's batch (ROADMAP item 5)."""
    state = RunningState()
    scores = np.zeros(pairs.shape[0])
    for start, scale, mats in basis_batches(g, pairs, cfg, state, training=True):
        rowsum = scale * sum(np.asarray(np.abs(m).sum(axis=1)).ravel() for m in mats)
        scores[start:start + len(rowsum)] = rowsum
    return scores


def cmd_score(args) -> int:
    g, split = _load_split(args)
    base = merged_graph(split, args.use_valid_as_input)
    batch = getattr(split, args.split)
    if args.kind in ("cn", "aa", "ra"):
        scores = heuristic_scores(base, batch.pairs, args.kind)
    elif args.kind == "normalized-cn":
        scores = normalized_cn_scores(base, batch.pairs, args.k_max)
    elif args.kind in ("ocn", "ocnp"):
        scores = _structural_scores(base, batch.pairs,
                                    _feature_config(args, variant=args.kind))
    else:
        raise InputError(f"unknown score kind {args.kind!r}")
    rows = [(int(u), int(v), repr(float(s)))
            for (u, v), s in zip(batch.pairs, scores)]
    emit(args, ("u", "v", "score"), rows)
    return 0


def cmd_train(args) -> int:
    g, split = _load_split(args)
    tc = TrainConfig(features=_feature_config(args, variant=args.variant),
                     learning_rate=float(args.learning_rate),
                     epochs=int(args.epochs))
    result = train_model(split, tc)
    with open(args.model_out, "w") as fh:
        result.model.save(fh, result.state)
    rows = [(i, repr(loss)) for i, loss in enumerate(result.losses)]
    emit(args, ("step", "loss"), rows)
    return 0


def cmd_eval(args) -> int:
    g, split = _load_split(args)
    base = merged_graph(split, args.use_valid_as_input)
    batch = getattr(split, args.split)
    exclude = np.concatenate([split.train.pairs, split.valid.pairs, split.test.pairs])
    n_neg = max(len(batch), 200) if args.negatives is None else args.negatives
    negatives = sample_negatives(base, n_neg, args.seed + 7, exclude=exclude)
    ks = tuple(_numbers(args.ks, "--ks"))
    if args.kind in ("cn", "aa", "ra"):
        score_fn = lambda pairs: heuristic_scores(base, pairs, args.kind)
    elif args.kind == "model":
        if args.model is None:
            raise InputError("--kind model needs --model, the file train --model-out wrote")
        with open(args.model) as fh:
            model, state = ScoreModel.load(fh)
        fc = model.features
        x = default_node_features(base, dim=fc.feature_dim, seed=fc.seed)
        h = propagate_features(base, x, fc.depth)
        score_fn = lambda pairs: model_scores(base, pairs, model, state, h, fc)
    else:
        raise InputError(f"unknown eval kind {args.kind!r}")
    report = evaluate(score_fn, batch, negatives, ks=ks)
    rows = [("hits", k, repr(report.hits[k]), report.n_pos, report.n_neg)
            for k in sorted(report.hits)]
    rows.append(("mrr", None, repr(report.mrr), report.n_pos, report.n_neg))
    emit(args, ("metric", "K", "value", "n_pos", "n_neg"), rows)
    return 0


def _diagnose_graph(args) -> Graph:
    if args.input:
        with open(args.input) as fh:
            g, _ = load_edge_list(fh, format=args.format)
        return g
    n, m = _numbers(args.synthetic, "--synthetic", 2)
    return sample_ba_graph(n, m, seed=args.seed)


def cmd_diagnose(args) -> int:
    g = _diagnose_graph(args)
    batch = PairBatch(_draw_distinct_pairs(g.n, args.pairs, args.seed))
    cfg = _feature_config(args, variant="ocn")
    feats = cn_order_features_all(g, batch, cfg.k_max, exclude_endpoints=cfg.exclude_endpoints)
    normalized = [apply_normalization(f, exact_walk_participation(g, f.order,
                                                                  cfg.exclude_endpoints))
                  for f in feats]
    raw = [f.combined for f in feats]
    ortho = basis_matrices(g, normalized, cfg, RunningState(), training=True)
    corr_raw = order_correlation(raw)
    corr_ortho = order_correlation(ortho)
    jsd = edge_jsd(raw[0], raw[-1])
    jsd_after = edge_jsd(ortho[0], ortho[-1])
    rows = []
    for a in range(args.k_max):
        for b in range(args.k_max):
            rows.append(("corr_raw", a + 1, b + 1, repr(float(corr_raw[a, b]))))
            rows.append(("corr_ortho", a + 1, b + 1, repr(float(corr_ortho[a, b]))))
    for k in range(1, args.k_max + 1):
        rows.append(("cv_raw", k, None, repr(coefficient_of_variation(raw[k - 1]))))
        rows.append(("cv_normalized", k, None,
                     repr(coefficient_of_variation(normalized[k - 1].combined))))
    rows.append(("jsd_mean_raw", None, None, repr(float(np.nanmean(jsd)))))
    rows.append(("jsd_mean_ortho", None, None, repr(float(np.nanmean(jsd_after)))))
    emit(args, ("quantity", "a", "b", "value"), rows)
    return 0


# Defaults of the bounds flags whose meaning depends on --model; a flag
# listed for one model only is one that the other model does not read.
_BOUNDS_DEFAULTS = {
    "latent": {"eta": 0.3, "rho": 0.98, "r_sum": 0.1, "r_m_max": 5.0},
    # BA's normalized bound is vacuous (an empty cell) below a walk count
    # of about 5e5 at the default --n 500.
    "ba": {"eta": 1e6, "m": 3, "steepness": 1.0, "max_degree": 1, "n_inner": 4},
}


def cmd_bounds(args) -> int:
    own = _BOUNDS_DEFAULTS[args.model]
    for flags in _BOUNDS_DEFAULTS.values():
        for name in flags:
            if name not in own and getattr(args, name) is not None:
                raise InputError(f"--{name.replace('_', '-')} is not read by "
                                 f"bounds --model {args.model}")
    for name, value in own.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    rows = []
    for k in range(2, args.k_grid_max + 1):
        if args.model == "latent":
            b = BoundInputs(n=args.n, delta=args.delta, k=k, dim=args.dim,
                            r_sum=args.r_sum, r_m_max=args.r_m_max, eta_2k=args.eta,
                            zeta=args.zeta, rho=args.rho)
            values = bound_unnormalized(b), bound_normalized(b)
        else:
            b = BoundInputs(n=args.n, delta=args.delta, k=k, dim=args.dim, m=args.m,
                            steepness=args.steepness, zeta=args.zeta, eta_2k=args.eta,
                            max_degree=args.max_degree)
            values = ba_bound_unnormalized(b), ba_bound_normalized(b, args.n_inner)
        rows.append((k, *(None if x is None else repr(x) for x in values)))
    emit(args, ("k", "unnormalized", "normalized"), rows)
    return 0


def cmd_theory(args) -> int:
    params = LatentModelParams(n=args.n, dim=args.dim, radius=args.radius, seed=args.seed)
    report = validate_bound("latent", params, args.bound, args.k, args.delta,
                            args.trials, args.seed, threads=args.threads)
    rows = [(report.model, report.bound, report.k, report.delta,
             report.trials, report.eligible, report.violations,
             repr(report.violation_fraction), repr(report.mean_slack))]
    emit(args, ("model", "bound", "k", "delta", "trials", "eligible",
                "violations", "violation_fraction", "mean_slack"), rows)
    if report.eligible == 0:
        print(f"warning: eligible=0: none of the {report.trials} trials gave a usable bound, "
              "so nothing was checked; a larger --radius makes the graph denser "
              "(the README example uses --radius 0.15)", file=sys.stderr)
    return 0


def _r_squared(t: np.ndarray, y: np.ndarray, fit: np.ndarray) -> float:
    pred = fit[0] * t + fit[1]
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def cmd_bench(args) -> int:
    sizes = _numbers(args.batch_sizes, "--batch-sizes")
    for flag, size in [*(("--batch-sizes", s) for s in sizes), ("--probe-size", args.probe_size)]:
        if size < 1:
            raise InputError(f"{flag}: a batch needs at least 1 pair, got {size}")
    g = sample_ba_graph(args.nodes, 3, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)

    def batch(size):
        u = rng.integers(0, g.n, size=size)
        v = (u + 1 + rng.integers(0, g.n - 1, size=size)) % g.n
        return PairBatch(np.stack([u, v], axis=1))

    def run_once(pb, k_max, with_ortho):
        cfg = _feature_config(args, k_max=k_max, variant="ocn")
        state = RunningState()
        normalized = batch_features(g, pb, cfg, state, training=True)
        if with_ortho:
            basis_matrices(g, normalized, cfg, state, training=True)

    rows = []
    times = []
    for size in sizes:
        pb = batch(size)
        run_once(batch(min(size, 256)), args.k_max, True)  # warm caches
        start = time.perf_counter()
        run_once(pb, args.k_max, True)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        rows.append(("sweep", size, args.k_max, repr(elapsed)))
    t = np.array(sizes, dtype=np.float64)
    y = np.array(times)
    fit = np.polyfit(t, y, 1)
    rows.append(("fit_C", None, args.k_max, repr(float(fit[0]))))
    rows.append(("fit_B", None, args.k_max, repr(float(fit[1]))))
    rows.append(("fit_r2", None, args.k_max, repr(_r_squared(t, y, fit))))
    probe = batch(args.probe_size)
    for k in range(1, args.k_max + 1):
        start = time.perf_counter()
        run_once(probe, k, False)
        rows.append(("per_k", args.probe_size, k,
                     repr(time.perf_counter() - start)))
    start = time.perf_counter()
    run_once(probe, args.k_max, False)
    base_t = time.perf_counter() - start
    start = time.perf_counter()
    run_once(probe, args.k_max, True)
    rows.append(("ortho_overhead", args.probe_size, args.k_max,
                 repr(max(time.perf_counter() - start - base_t, 0.0))))
    emit(args, ("section", "t", "k", "seconds"), rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", default=None)
    common.add_argument("--json", action="store_true")
    common.add_argument("--output", default=None)

    edges = argparse.ArgumentParser(add_help=False)
    edges.add_argument("--input", required=True)
    edges.add_argument("--format", choices=EDGE_LIST_FORMATS, default="tsv")
    edges.add_argument("--ratios", default="0.7,0.1,0.2")

    features = argparse.ArgumentParser(add_help=False)
    features.add_argument("--k-max", dest="k_max", type=int, default=2)
    features.add_argument("--exclude-endpoints", dest="exclude_endpoints",
                          action="store_true")

    valid_input = argparse.ArgumentParser(add_help=False)
    valid_input.add_argument("--use-valid-as-input", dest="use_valid_as_input",
                             action="store_true")

    parser = argparse.ArgumentParser(prog="hocn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[common, edges])
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("score", parents=[common, edges, features, valid_input])
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--kind", default="cn",
                   choices=("cn", "aa", "ra", "normalized-cn", "ocn", "ocnp"))
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", parents=[common, edges, features])
    p.add_argument("--variant", choices=("ocn", "ocnp"), default="ocn")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=0.5)
    p.add_argument("--model-out", dest="model_out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common, edges, valid_input])
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--kind", default="cn", choices=("cn", "aa", "ra", "model"))
    p.add_argument("--model", default=None)
    p.add_argument("--negatives", type=int, default=None)
    p.add_argument("--ks", default="20,50,100")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", parents=[common, features])
    p.add_argument("--input", default=None)
    p.add_argument("--format", choices=EDGE_LIST_FORMATS, default="tsv")
    p.add_argument("--synthetic", default="200,3",
                   help="n,m for a preferential-attachment graph")
    p.add_argument("--pairs", type=int, default=256)
    p.set_defaults(func=cmd_diagnose)

    models = argparse.ArgumentParser(add_help=False)
    models.add_argument("--n", type=int, default=500)
    models.add_argument("--dim", type=int, default=2)
    models.add_argument("--delta", type=float, default=0.1)

    p = sub.add_parser("theory", parents=[common, models])
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--bound", choices=("unnormalized", "normalized"),
                   default="unnormalized")
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("bounds", parents=[common, models])
    p.add_argument("--model", choices=tuple(_BOUNDS_DEFAULTS), default="latent")
    p.add_argument("--k-grid-max", dest="k_grid_max", type=int, default=6)
    p.add_argument("--zeta", type=int, default=2)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--r-sum", dest="r_sum", type=float, default=None)
    p.add_argument("--r-m-max", dest="r_m_max", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--steepness", type=float, default=None)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    p.add_argument("--n-inner", dest="n_inner", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", parents=[common, features])
    p.add_argument("--batch-sizes", dest="batch_sizes",
                   default="1024,4096,16384,65536")
    p.add_argument("--nodes", type=int, default=100000)
    p.add_argument("--probe-size", dest="probe_size", type=int, default=1024)
    p.set_defaults(func=cmd_bench)
    for p in sub.choices.values():
        p.allow_abbrev = False  # so --k is not read as bounds' --k-grid-max
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = resolve(parser, argv)
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except HocnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
