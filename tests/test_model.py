"""Global/local classifier: shapes, losses, thresholding, training loop."""

from __future__ import annotations

import json

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc import model as hm
from hmlc.corpus import Corpus, CorpusError
from hmlc.encoder import EncoderConfig
from hmlc.hierarchy import LengthMismatch, parse_hierarchy, validate_assignment
from hmlc.metrics import micro_macro_f1
from hmlc.model import (
    CLAMP_EPS,
    EpochStats,
    HmcnModel,
    LossConfig,
    ModelConfig,
    TrainConfig,
    count_violations,
    evaluate,
    focal_loss,
    forward,
    init_model,
    local_embeddings,
    path_regularization,
    predict_labels,
    predict_proba,
    total_loss,
    train,
)
from hmlc.optim import NonFiniteLoss
from hmlc.synthetic import make_synthetic_corpus

from per_record import integrate, z_global, z_local

SMALL_ENC = EncoderConfig(vocab_buckets=64, d=8, heads=2, max_tokens=8)
SMALL_CFG = ModelConfig(encoder=SMALL_ENC, head_hidden=8, cross_heads=2)


@pytest.fixture()
def demo_model(demo):
    return init_model(np.random.default_rng(0), demo, SMALL_CFG)


def _demo_z(demo, values: dict[str, float]) -> np.ndarray:
    z = np.zeros(demo.m)
    for name, val in values.items():
        z[demo.index[name]] = val
    return z


# -------------------------------------------------------------- structure


def test_local_embedding_count_and_shapes(demo, demo_model, demo_corpus):
    from hmlc.encoder import encode_record

    h0 = encode_record(demo_corpus.records[0], demo_model.encoder)
    levels = local_embeddings(h0, demo_model)
    assert len(levels) == demo.depth == 3
    assert all(lv.shape == h0.shape == (3, SMALL_ENC.d) for lv in levels)


def test_single_level_hierarchy_has_no_cross_attention():
    h = parse_hierarchy([("ROOT", "A"), ("ROOT", "B")])
    model = init_model(np.random.default_rng(0), h, SMALL_CFG)
    assert model.cross_attn == []
    assert len(model.level_heads) == 1


def test_head_widths_match_level_sizes(demo, demo_model):
    widths = [p.weights[-1].shape[1] for p in demo_model.level_heads]
    assert widths == [3, 5, 2]
    assert demo_model.global_head.weights[-1].shape[1] == demo.m == 10
    assert demo_model.integration.weights[0].shape == (20, 20)
    assert demo_model.integration.weights[-1].shape == (20, 10)


def test_forward_outputs(demo, demo_model, demo_corpus):
    pred = forward(demo_corpus.records[0], demo_model)
    for z in (z_local(pred), z_global(pred), pred.z_final):
        assert z.shape == (demo.m,)
        assert np.all((z.data > 0) & (z.data < 1))


def test_zeroed_heads_give_half(demo, demo_model, demo_corpus):
    for head in [*demo_model.level_heads, demo_model.global_head]:
        for t in [*head.weights, *head.biases]:
            t.data[:] = 0.0
    pred = forward(demo_corpus.records[0], demo_model)
    assert np.allclose(z_local(pred).data, 0.5, atol=1e-6)
    assert np.allclose(z_global(pred).data, 0.5, atol=1e-6)


def test_integrate_averages_logits(demo, demo_model):
    # rig the integration MLP to compute the mean of the two logit vectors:
    # identity first layer (inputs kept positive so relu passes them through)
    # and an averaging second layer
    m = demo.m
    demo_model.integration.weights[0].data[:] = np.eye(2 * m)
    demo_model.integration.biases[0].data[:] = 0.0
    demo_model.integration.weights[1].data[:] = 0.5 * np.vstack([np.eye(m), np.eye(m)])
    demo_model.integration.biases[1].data[:] = 0.0
    rng = np.random.default_rng(1)
    z_local = rng.uniform(0.55, 0.95, size=m)   # positive logits
    z_global = rng.uniform(0.55, 0.95, size=m)
    out = integrate(ad.tensor(z_local), ad.tensor(z_global), demo_model)
    lo = np.minimum(z_local, z_global)
    hi = np.maximum(z_local, z_global)
    assert np.all(out.data >= lo - 1e-6)
    assert np.all(out.data <= hi + 1e-6)
    expected = 1.0 / (1.0 + np.exp(-0.5 * (np.log(z_local / (1 - z_local))
                                           + np.log(z_global / (1 - z_global)))))
    assert np.allclose(out.data, expected, atol=1e-5)


def test_integrate_shape_check(demo, demo_model):
    with pytest.raises(ad.ShapeMismatch):
        integrate(ad.tensor(np.full(3, 0.5)), ad.tensor(np.full(demo.m, 0.5)), demo_model)


def test_gradient_reaches_both_branches(demo, demo_model, demo_corpus):
    params = demo_model.named()
    ad.zero_grads(params)
    record = demo_corpus.records[0]
    with ad.Tape() as tape:
        loss = focal_loss(forward(record, demo_model).z_final, record.labels, LossConfig())
        tape.backward(loss)
    assert np.any(demo_model.level_heads[0].weights[0].grad != 0)
    assert np.any(demo_model.global_head.weights[0].grad != 0)
    assert np.any(demo_model.encoder.table.grad != 0)


def test_tape_node_counts(demo, demo_model, demo_corpus):
    # one record: 7 encoder nodes, 2 cross-attentions, one dense node per
    # MLP layer (prior, three level heads, global head, integration: 12),
    # 4 flattening reshapes, 2 concats and the final sigmoid
    with ad.Tape() as tape:
        forward(demo_corpus.records[0], demo_model)
    assert len(tape.nodes) == 28
    # a train step: the batch's forward pass (no reshape to one record: 27
    # nodes), the focal and hinge ops, λ's scale and the sum
    with ad.Tape() as tape:
        total_loss(demo_corpus.records[:8], demo_model, LossConfig())
    assert len(tape.nodes) == 32


# ------------------------------------------------------- path regularization


def test_path_reg_worked_example(demo):
    # one violated edge: Credit Loan at 0.8 over Finance-Loan at 0.3 -> R = 0.5
    z = _demo_z(demo, {
        "Finance": 0.9, "Video": 0.5, "Game": 0.5,
        "Finance-Investment": 0.3, "Finance-Loan": 0.3,
        "Game-Moba": 0.4, "Game-RPG": 0.4, "Game-Strategy": 0.4,
        "Finance-Loan-Credit Loan": 0.8, "Finance-Loan-Mortgage Loan": 0.1,
    })
    r = path_regularization(ad.tensor(z), demo)
    assert r.item() == pytest.approx(0.5, abs=1e-6)


def test_path_reg_zero_cases(demo):
    assert path_regularization(ad.tensor(np.full(demo.m, 0.4)), demo).item() == 0.0
    z = _demo_z(demo, {
        "Finance": 0.9, "Video": 0.1, "Game": 0.2,
        "Finance-Investment": 0.8, "Finance-Loan": 0.7,
        "Game-Moba": 0.1, "Game-RPG": 0.0, "Game-Strategy": 0.1,
        "Finance-Loan-Credit Loan": 0.7, "Finance-Loan-Mortgage Loan": 0.0,
    })
    assert path_regularization(ad.tensor(z), demo).item() == 0.0


def test_path_reg_matches_brute_force(demo):
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.uniform(size=demo.m)
        expected = sum(
            max(0.0, z[demo.index[v]] - z[demo.index[u]])
            for u, v in demo.edges()
        )
        got = path_regularization(ad.tensor(z), demo).item()
        assert got == pytest.approx(expected, abs=1e-5)


def test_path_reg_length_check(demo):
    with pytest.raises(LengthMismatch):
        path_regularization(ad.tensor(np.zeros(demo.m + 1)), demo)


# ------------------------------------------------------------------- losses


def test_focal_loss_single_value(f64):
    # [DERIVED] y=1, z=0.5: -0.25 * 0.25 * log(0.5)
    loss = focal_loss(ad.tensor(np.array([0.5])), np.array([1.0]), LossConfig())
    assert loss.item() == pytest.approx(0.04332169878499658, abs=1e-12)


def test_focal_gamma_zero_is_alpha_bce(f64):
    rng = np.random.default_rng(3)
    z = rng.uniform(0.05, 0.95, size=16)
    y = (rng.uniform(size=16) < 0.5).astype(float)
    cfg = LossConfig(focal_gamma=0.0)
    got = focal_loss(ad.tensor(z), y, cfg).item()
    zc = np.clip(z, CLAMP_EPS, 1 - CLAMP_EPS)
    expected = -cfg.focal_alpha * np.sum(y * np.log(zc) + (1 - y) * np.log(1 - zc))
    assert got == pytest.approx(expected, abs=1e-10)


def test_focal_confident_correct_is_tiny(f64):
    z = np.array([1.0 - 1e-6, 1e-6])
    y = np.array([1.0, 0.0])
    assert focal_loss(ad.tensor(z), y, LossConfig()).item() < 1e-8


def test_focal_nonnegative_and_length_check(demo):
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.uniform(size=demo.m)
        y = (rng.uniform(size=demo.m) < 0.5).astype(float)
        assert focal_loss(ad.tensor(z), y, LossConfig()).item() >= 0.0
    with pytest.raises(LengthMismatch):
        focal_loss(ad.tensor(np.zeros((2, 3))), np.zeros((2, 3)), LossConfig())
    with pytest.raises(LengthMismatch):
        focal_loss(ad.tensor(np.full(3, 0.5)), np.array([1.0, 0.0]), LossConfig())


def test_total_loss_lambda_zero_is_focal_sum(demo, demo_model, demo_corpus, f64):
    model = init_model(np.random.default_rng(0), demo, SMALL_CFG)
    batch = list(demo_corpus.records[:3])
    cfg = LossConfig(lambda_reg=0.0)
    total = total_loss(batch, model, cfg).item()
    parts = sum(
        focal_loss(forward(r, model).z_final, r.labels, cfg).item() for r in batch
    )
    assert total == pytest.approx(parts, rel=1e-9)


def test_total_loss_includes_regularizer(demo, demo_corpus, f64):
    model = init_model(np.random.default_rng(0), demo, SMALL_CFG)
    batch = list(demo_corpus.records[:3])
    base = total_loss(batch, model, LossConfig(lambda_reg=0.0)).item()
    reg = sum(
        path_regularization(forward(r, model).z_final, demo).item() for r in batch
    )
    full = total_loss(batch, model, LossConfig(lambda_reg=1.0)).item()
    assert full == pytest.approx(base + reg, rel=1e-9)


def test_total_loss_empty_batch(demo_model):
    with pytest.raises(ValueError):
        total_loss([], demo_model, LossConfig())


def test_train_on_no_records_raises_corpus_error(demo, demo_model, monkeypatch):
    # once a bare "not enough values to unpack" from the epoch loop
    def no_work(*args):
        raise AssertionError("train did work before rejecting the corpus")

    monkeypatch.setattr("hmlc.model.token_ids", no_work)
    monkeypatch.setattr("hmlc.model.descend", no_work)
    with pytest.raises(CorpusError, match="no records"):
        train(Corpus(demo, []), demo_model, TrainConfig(epochs=1))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(focal_alpha=0.0)
    with pytest.raises(ValueError):
        LossConfig(focal_gamma=-1.0)
    with pytest.raises(ValueError):
        LossConfig(lambda_reg=-0.5)
    with pytest.raises(ValueError):
        LossConfig(threshold=1.0)


def test_model_config_validation():
    for bad in (0, 3):  # d = 16
        with pytest.raises(ValueError, match="cross_heads"):
            ModelConfig(cross_heads=bad)
    assert ModelConfig(cross_heads=4).cross_heads == 4


# -------------------------------------------------------------- thresholding


def _rig_constant_output(model: HmcnModel, logits: np.ndarray) -> None:
    """Zero the integration MLP so z_final is sigmoid(logits) regardless of
    the record."""
    model.integration.weights[0].data[:] = 0.0
    model.integration.biases[0].data[:] = 0.0
    model.integration.weights[1].data[:] = 0.0
    model.integration.biases[1].data[:] = logits


def test_threshold_boundary_is_active(demo, demo_model, demo_corpus):
    _rig_constant_output(demo_model, np.zeros(demo.m))  # sigmoid(0) = 0.5
    bits = predict_labels(demo_corpus.records[0], demo_model, LossConfig())
    assert np.all(bits == 1)
    strict = predict_labels(demo_corpus.records[0], demo_model,
                            LossConfig(threshold=0.51))
    assert np.all(strict == 0)


def test_repair_deactivates_orphans(demo, demo_model, demo_corpus):
    logits = np.full(demo.m, -1.0)
    logits[demo.index["Finance-Loan"]] = 1.0
    logits[demo.index["Finance-Loan-Credit Loan"]] = 1.0
    _rig_constant_output(demo_model, logits)
    record = demo_corpus.records[0]
    raw = predict_labels(record, demo_model, LossConfig())
    assert raw.sum() == 2
    assert len(validate_assignment(demo, raw)) > 0
    repaired = predict_labels(record, demo_model, LossConfig(), repair=True)
    # Finance is off, so Finance-Loan drops, and Credit Loan drops with it
    assert repaired.sum() == 0
    assert validate_assignment(demo, repaired) == []


def test_repair_keeps_consistent_paths(demo, demo_model, demo_corpus):
    logits = np.full(demo.m, -1.0)
    for name in ("Finance", "Finance-Loan", "Finance-Loan-Credit Loan"):
        logits[demo.index[name]] = 1.0
    _rig_constant_output(demo_model, logits)
    repaired = predict_labels(demo_corpus.records[0], demo_model, LossConfig(),
                              repair=True)
    active = {demo.labels[i] for i in np.flatnonzero(repaired)}
    assert active == {"Finance", "Finance-Loan", "Finance-Loan-Credit Loan"}


def test_count_violations(demo):
    bits = np.zeros((2, demo.m), dtype=np.uint8)
    bits[0, demo.index["Finance-Loan"]] = 1          # parent Finance inactive
    bits[1, demo.index["Finance"]] = 1               # consistent
    assert count_violations(demo, bits) == 1
    assert count_violations(demo, bits[0]) == 1      # 1D accepted


# ----------------------------------------------------------------- training


def _tiny(demo):
    corpus = make_synthetic_corpus(demo, 24, seed=5)
    model = init_model(np.random.default_rng(1), demo, SMALL_CFG)
    return corpus, model


def test_train_zero_lr_keeps_params(demo):
    corpus, model = _tiny(demo)
    before = {k: v.data.copy() for k, v in model.named().items()}
    history = train(corpus, model, TrainConfig(epochs=1, lr=0.0, seed=0))
    assert len(history) == 1
    for k, v in model.named().items():
        assert np.array_equal(before[k], v.data), k


def test_train_deterministic(demo):
    histories = []
    finals = []
    for _ in range(2):
        corpus, model = _tiny(demo)
        histories.append(train(corpus, model, TrainConfig(epochs=2, seed=3)))
        finals.append(np.concatenate(
            [v.data.ravel() for _, v in sorted(model.named().items())]))
    assert [s.loss for s in histories[0]] == [s.loss for s in histories[1]]
    assert np.array_equal(finals[0], finals[1])


def test_train_reduces_loss(demo):
    corpus, model = _tiny(demo)
    history = train(corpus, model, TrainConfig(epochs=4, lr=5e-3, seed=0))
    assert history[-1].loss < history[0].loss


def test_train_lr_decay_schedule(demo):
    corpus, model = _tiny(demo)
    history = train(corpus, model,
                    TrainConfig(epochs=4, lr=1e-3, lr_decay=0.5,
                                decay_every_epochs=2, seed=0))
    assert [s.lr for s in history] == [1e-3, 1e-3, 5e-4, 5e-4]


def test_train_early_stop(demo):
    corpus, model = _tiny(demo)
    history = train(corpus, model,
                    TrainConfig(epochs=10, lr=5e-3, seed=0, early_stop_f1=0.0))
    assert len(history) == 1  # any epoch meets a zero bar


def test_train_nonfinite_raises(demo):
    corpus, model = _tiny(demo)
    model.encoder.table.data[0, 0] = np.nan
    # embed is the first op that reads the NaN
    with pytest.raises(NonFiniteLoss, match="epoch 1, step 1: embed produced NaN or Inf$"):
        train(corpus, model, TrainConfig(epochs=1, seed=0))


def test_evaluate_reports(demo, monkeypatch):
    corpus, model = _tiny(demo)
    cfg = LossConfig()
    for chunk in (hm.SCORE_CHUNK, 5):  # one chunk; then 24 records in chunks of 5
        monkeypatch.setattr(hm, "SCORE_CHUNK", chunk)
        result = evaluate(corpus, model, cfg)
        assert set(result) == {"raw", "repaired"}
        for name, repair in (("raw", False), ("repaired", True)):
            report, violations = result[name]
            preds = np.stack([predict_labels(r, model, cfg, repair=repair)
                              for r in corpus.records])
            assert report.to_dict() == micro_macro_f1(corpus.label_matrix, preds).to_dict()
            assert violations == count_violations(demo, preds)
        assert result["repaired"][1] == 0


def test_evaluate_on_no_records_raises_corpus_error(demo, demo_model):
    # once numpy's "need at least one array to stack"
    with pytest.raises(CorpusError, match="no records"):
        evaluate(Corpus(demo, []), demo_model, LossConfig())


def test_epoch_stats_json_round_trip():
    stats = EpochStats(epoch=2, loss=0.5, micro_f1=0.75, macro_f1=0.5,
                       violations=3, lr=1e-3)
    payload = json.loads(stats.to_json())
    assert payload == {"epoch": 2, "loss": 0.5, "micro_f1": 0.75,
                       "macro_f1": 0.5, "violations": 3, "lr": 1e-3}


def test_predict_proba_matches_forward(demo, demo_model, demo_corpus):
    record = demo_corpus.records[0]
    assert np.array_equal(predict_proba(record, demo_model),
                          forward(record, demo_model).z_final.data)
