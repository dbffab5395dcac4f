"""Per-layer tracing of hmlc from outside the program.

Each traced function is replaced, in every ``hmlc`` module that binds it
(``forward`` lives in both ``hmlc.model`` and ``hmlc.cli``), by a wrapper
that records its calls and wall time. Spans are aggregated in
memory under the key (root, parent, name): the outermost traced call on the
stack, the nearest traced caller and the function itself. Nothing in
``src/`` knows about the trace; leaving ``Tracer.installed()`` restores every
binding.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

ANY = object()  # a query filter that matches every root or parent


class CoverageError(RuntimeError):
    """A traced function is gone from the program or recorded no call."""


@contextmanager
def patched(target: str, make_wrapper):
    """Replace ``hmlc.<target>`` by ``make_wrapper(original)`` in every hmlc
    module that binds it, or on its class for ``"module.Class.method"``."""
    module_name, _, attr = target.partition(".")
    module = sys.modules.get(f"hmlc.{module_name}")
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = vars(owner).get(method) if owner is not None else None
    if original is None:
        raise CoverageError(f"hmlc.{target} no longer exists; the trace cannot wrap it")
    wrapper = make_wrapper(original)
    if owner_name:
        bindings = [(owner, method)]
    else:
        bindings = [(mod, key) for name, mod in list(sys.modules.items())
                    if name == "hmlc" or name.startswith("hmlc.")
                    for key, value in vars(mod).items() if value is original]
    for obj, key in bindings:
        setattr(obj, key, wrapper)
    try:
        yield
    finally:
        for obj, key in bindings:
            setattr(obj, key, original)


def _count_nodes(counts, args, result):
    counts["tape_nodes"] += len(args[0].nodes)


def _count_tokens(counts, args, result):
    counts["tokens"] += len(result)
    counts["tokens_field_max"] = max(counts["tokens_field_max"], len(result))


def _count_params(counts, args, result):
    counts["params"] += len(args[0])


def _note_diagnostics(counts, args, result):
    counts["alignment_after"] = result.after.alignment
    counts["uniformity_after"] = result.after.uniformity


def _count_draws(counts, args, batch):
    levels = [ld for per_anchor in batch.draws for ld in per_anchor]
    negatives = sum(len(ld.negatives) for ld in levels)
    draws = negatives + sum(len(ld.positives) for ld in levels)
    skipped = batch.skipped_empty_space + batch.skipped_unsatisfiable
    counts["draws"] += draws
    counts["referenced"] += len(batch.anchors) + draws
    counts["distinct"] += len(batch.record_indices())
    counts["skipped"] += skipped
    counts["negative_attempts"] += negatives + skipped


# Traced functions, by module, each with an optional observer of
# (counts, args, result) that records a work count at the same boundary.
TARGETS = {
    "autodiff.Tape.backward": _count_nodes,
    "nn.multihead_attention": None,
    "nn.mlp_forward": None,
    "optim.adam_step": _count_params,
    "encoder.encode_record": None,
    "encoder.tokenize": _count_tokens,
    "model.train": None,
    "model.forward": None,
    "model.focal_loss": None,
    "model.path_regularization": None,
    "model.count_violations": None,
    "model.predict_proba": None,
    "model.predict_labels": None,
    "hierarchy.validate_assignment": None,
    "sampling.build_batch": _count_draws,
    "contrastive.pretrain": _note_diagnostics,
    "contrastive.contrastive_loss": None,
    "contrastive.encode_batch": None,
    "contrastive.project_corpus": None,
    "metrics.embedding_diagnostics": None,
    "checkpoint.load_checkpoint": None,
    "cli.main": None,
    "cli.cmd_infer": None,
}


class Tracer:
    """In-memory spans and counts of the traced functions."""

    def __init__(self):
        # (root, parent, name) -> [calls, wall seconds]
        self.spans = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self._stack = []  # open spans as (name, root)

    def _wrap(self, name, fn, observe):
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else (None, name)
            stack.append((name, caller[1]))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                span = spans[(caller[1], caller[0], name)]
                span[0] += 1
                span[1] += took
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for target, observe in TARGETS.items():
                stack.enter_context(
                    patched(target, functools.partial(self._wrap, target, observe=observe)))
            yield self

    def _sum(self, field, name, root, parent):
        return sum(v[field] for (r, p, n), v in self.spans.items()
                   if n == name and root in (ANY, r) and parent in (ANY, p))

    def calls(self, name, root=ANY, parent=ANY) -> int:
        return self._sum(0, name, root, parent)

    def wall(self, name, root=ANY, parent=ANY) -> float:
        return self._sum(1, name, root, parent)

    def require(self, names) -> None:
        """The span-coverage guard: every named span recorded a call."""
        silent = [n for n in names if self.calls(n) == 0]
        if silent:
            raise CoverageError(f"traced functions recorded no call: {', '.join(silent)}")


def _per(x, n):
    return x / n if n else 0.0


def layer_metrics(t: Tracer, traced_s: float, untraced_s: float, steps: int,
                  step_encodes: int) -> dict[str, float]:
    """The per-layer metrics of traced rounds lasting ``traced_s`` seconds in
    all, against ``untraced_s`` for the same number of untraced rounds.
    ``steps`` counts the workload's blocking units of work and
    ``step_encodes`` the records encoded inside them."""
    ms = 1000.0
    c = t.counts
    backward = t.calls("autodiff.Tape.backward")
    encoded = t.calls("encoder.encode_record")
    attention = t.calls("nn.multihead_attention")
    mlp = t.calls("nn.mlp_forward")
    forward = t.calls("model.forward")
    adam = t.calls("optim.adam_step")
    batches = t.calls("sampling.build_batch")
    losses = t.calls("contrastive.contrastive_loss")
    infer_records = t.calls("model.forward", parent="cli.cmd_infer")
    in_pretrain = dict(parent="contrastive.pretrain")
    diagnostics_s = (t.wall("contrastive.project_corpus", **in_pretrain)
                     + t.wall("metrics.embedding_diagnostics", **in_pretrain))
    cli_self_s = (t.wall("cli.cmd_infer") - t.wall("model.forward", parent="cli.cmd_infer")
                  - t.wall("checkpoint.load_checkpoint", parent="cli.cmd_infer"))
    return {
        "autodiff.nodes_per_step": _per(c["tape_nodes"], backward),
        "autodiff.backward_ms_per_step": ms * _per(t.wall("autodiff.Tape.backward"), backward),
        "autodiff.backward_share": t.wall("autodiff.Tape.backward") / traced_s,
        "encoder.encode_ms_per_record": ms * _per(t.wall("encoder.encode_record"), encoded),
        "encoder.share": t.wall("encoder.encode_record") / traced_s,
        "encoder.records_encoded_per_step": _per(step_encodes, steps),
        "encoder.tokens_per_record_mean": _per(c["tokens"], encoded),
        "encoder.tokens_per_field_max": c["tokens_field_max"],
        "nn.attention_calls_per_record": _per(attention, encoded),
        "nn.attention_ms_per_call": ms * _per(t.wall("nn.multihead_attention"), attention),
        "nn.mlp_calls_per_record": _per(mlp, encoded),
        "nn.mlp_ms_per_call": ms * _per(t.wall("nn.mlp_forward"), mlp),
        "model.forward_ms_per_record": ms * _per(t.wall("model.forward"), forward),
        "model.heads_self_ms_per_record": ms * _per(
            t.wall("model.forward") - t.wall("encoder.encode_record", parent="model.forward"),
            forward),
        "model.loss_ms_per_record": ms * _per(
            t.wall("model.focal_loss") + t.wall("model.path_regularization"),
            t.calls("model.focal_loss")),
        "model.count_violations_ms": ms * _per(t.wall("model.count_violations"),
                                               t.calls("model.count_violations")),
        "optim.adam_ms_per_step": ms * _per(t.wall("optim.adam_step"), adam),
        "optim.params_per_step": _per(c["params"], adam),
        "hierarchy.validate_ms_per_row": ms * _per(t.wall("hierarchy.validate_assignment"),
                                                   t.calls("hierarchy.validate_assignment")),
        "sampling.build_batch_ms_per_step": ms * _per(t.wall("sampling.build_batch"), batches),
        "sampling.draws_per_step": _per(c["draws"], batches),
        "sampling.distinct_share": _per(c["distinct"], c["referenced"]),
        "sampling.skipped_share": _per(c["skipped"], c["negative_attempts"]),
        "contrastive.encode_batch_ms_per_step": ms * _per(t.wall("contrastive.encode_batch"),
                                                          t.calls("contrastive.encode_batch")),
        "contrastive.loss_self_ms_per_step": ms * _per(
            t.wall("contrastive.contrastive_loss")
            - t.wall("contrastive.encode_batch", parent="contrastive.contrastive_loss"),
            losses),
        "contrastive.diagnostics_s": _per(diagnostics_s, t.calls("contrastive.pretrain")),
        "contrastive.alignment_after": float(c["alignment_after"]),
        "contrastive.uniformity_after": float(c["uniformity_after"]),
        "metrics.embedding_diagnostics_ms": ms * _per(
            t.wall("metrics.embedding_diagnostics"), t.calls("metrics.embedding_diagnostics")),
        "checkpoint.load_ms": ms * _per(t.wall("checkpoint.load_checkpoint"),
                                        t.calls("checkpoint.load_checkpoint")),
        "cli.self_ms_per_record": ms * _per(cli_self_s, infer_records),
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    }
