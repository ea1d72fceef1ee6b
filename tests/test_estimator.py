import json

import numpy as np
import pytest

from deepsolve import OpfPredictor, build_dataset, decode
from deepsolve.estimator import NotFittedError

from conftest import kind_swap_misses


@pytest.fixture(scope="module")
def sets(case30):
    return build_dataset(case30, 16, 4, seed=51)


@pytest.fixture(scope="module")
def fitted(case30, sets):
    train_ds, _ = sets
    est = OpfPredictor(case=case30, hidden_layer_sizes=(16, 8), epochs=3, w2=0.0, seed=2)
    return est.fit(train_ds)


def _reconstruct(fitted, loads):
    """The batched second stage on the fitted predictor's parts."""
    from deepsolve.trainer import reconstruct

    return reconstruct(
        fitted.case, fitted.adm_, fitted.spec_, fitted.pf_init_, fitted.predict(loads), loads
    )


def test_train_options_land_in_config(case30):
    from deepsolve.trainer import TrainConfig

    est = OpfPredictor(case=case30, epochs=7, w2=0.3)
    assert est.case is case30
    assert est.config == TrainConfig(epochs=7, w2=0.3)
    default = OpfPredictor()
    assert (default.case, default.hidden_layer_sizes) == (None, (64, 32))
    assert default.config == TrainConfig()
    with pytest.raises(TypeError):
        OpfPredictor(nonsense=1)


def test_unfitted_predict_raises(case30):
    with pytest.raises(NotFittedError):
        OpfPredictor(case=case30).predict(np.zeros(60))


def test_fit_without_a_case_raises_value_error(sets):
    train_ds, _ = sets
    other = OpfPredictor(case=None)
    with pytest.raises(ValueError):
        other.fit(train_ds)


def test_fit_on_a_dataset_of_another_case_raises_training_error(case30, case118):
    from deepsolve.trainer import TrainingError

    train118, _ = build_dataset(case118, 2, 0, seed=3)
    with pytest.raises(TrainingError, match="'case118', case is 'case30'"):
        OpfPredictor(case=case30, hidden_layer_sizes=(8,), epochs=1).fit(train118)


def test_predict_shapes_and_range(fitted, sets):
    _, test_ds = sets
    s = fitted.predict(test_ds.loads_matrix)
    assert s.shape == (len(test_ds), test_ds.spec.dimension)
    assert np.all((s > 0) & (s < 1))
    phys = decode(test_ds.spec, s)
    assert np.all(phys >= test_ds.spec.x_min - 1e-12)
    assert np.all(phys <= test_ds.spec.x_max + 1e-12)


def test_reconstruct_returns_solutions(fitted, sets, case30):
    _, test_ds = sets
    batch = _reconstruct(fitted, test_ds.loads_matrix[:2])
    assert batch.converged.tolist() == [True, True]
    assert batch.v_mag.shape == batch.v_ang.shape == (2, case30.n_bus)
    assert batch.row(1).v_mag.shape == (case30.n_bus,)


def test_score_improves_with_training(case30, sets):
    from deepsolve.trainer import pred_loss

    train_ds, test_ds = sets
    short = OpfPredictor(case=case30, hidden_layer_sizes=(16, 8), epochs=1, w2=0.0, seed=2).fit(train_ds)
    longer = OpfPredictor(case=case30, hidden_layer_sizes=(16, 8), epochs=12, w2=0.0, seed=2).fit(train_ds)

    def held_out_loss(est):  # the mean of pred_loss over the test rows
        return pred_loss(est.predict(test_ds.loads_matrix), test_ds.s_matrix).mean()

    assert held_out_loss(longer) < held_out_loss(short)


def test_reconstruct_keeps_rows_after_singular_row(fitted, sets, monkeypatch):
    from deepsolve import trainer

    _, test_ds = sets
    loads = test_ds.loads_matrix[:3]
    real_solve_pf_batch = trainer.solve_pf_batch

    def singular_on_row_1(case, adm, indep, p_load, q_load, **kw):
        batch = real_solve_pf_batch(case, adm, indep, p_load, q_load, **kw)
        row_1 = (p_load == loads[1, : case.n_bus]).all(axis=1)
        batch.singular[row_1], batch.converged[row_1] = True, False
        return batch

    monkeypatch.setattr(trainer, "solve_pf_batch", singular_on_row_1)
    batch = _reconstruct(fitted, loads)
    assert batch.singular.tolist() == [False, True, False]
    assert batch.converged.tolist() == [True, False, True]


def test_reconstruct_rows_match_lone_solves(fitted, case30):
    """64 rows take the sparse Newton path; each matches the model path's
    lone dense solve."""
    from deepsolve import sample_loads

    loads = sample_loads(case30, (0.85, 1.15), 64, seed=17)
    batch = _reconstruct(fitted, loads)
    assert batch.converged.shape == (64,)
    for k, row in enumerate(loads):
        _, lone = fitted.solve(row)
        if lone is None:
            assert batch.singular[k]
            continue
        sol = batch.row(k)
        assert sol.iterations == lone.iterations and sol.converged == lone.converged
        assert np.max(np.abs(sol.v_mag - lone.v_mag)) <= 1e-10
        assert np.max(np.abs(sol.v_ang - lone.v_ang)) <= 1e-10
    assert np.count_nonzero(batch.converged) >= 60


def test_save_load_round_trip(tmp_path, fitted, sets):
    _, test_ds = sets
    path = tmp_path / "m.ckpt"
    fitted.save(path)
    again = OpfPredictor.load(path)
    assert again.case.name == fitted.case.name
    assert again.config.seed == fitted.config.seed
    assert again.hidden_layer_sizes == (16, 8)
    np.testing.assert_array_equal(
        again.predict(test_ds.loads_matrix), fitted.predict(test_ds.loads_matrix)
    )
    again.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_load_rejects_other_case(tmp_path, fitted, case118):
    path = tmp_path / "m.ckpt"
    fitted.save(path)
    from deepsolve.dataio import DataError

    with pytest.raises(DataError, match="'case30'.*'case118'"):
        OpfPredictor.load(path, case118)


def test_load_rejects_header_without_pipeline_key(tmp_path, fitted):
    from deepsolve.dataio import DataError

    path = tmp_path / "m.ckpt"
    fitted.save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["meta"]["normalizer"]
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(DataError, match="normalizer"):
        OpfPredictor.load(path)


def test_load_rejects_checkpoint_of_the_earlier_format(tmp_path, fitted, case30):
    """A checkpoint whose header carries the Newton start as the earlier
    mean dependent-state vector must be retrained."""
    from deepsolve.dataio import DataError

    path = tmp_path / "m.ckpt"
    fitted.save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    start = header["meta"].pop("pf_init")
    nonslack, pq = np.delete(np.arange(case30.n_bus), case30.slack_index), case30.pq_indices
    header["meta"]["pf_init_dependent_mean"] = (
        np.array(start["v_ang"])[nonslack].tolist() + np.array(start["v_mag"])[pq].tolist()
    )
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(DataError) as err:
        OpfPredictor.load(path)
    assert str(err.value) == f"{path}: checkpoint header has no 'pf_init'"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta["normalizer"].pop("std"), "'normalizer' has no 'std'"),
        (lambda meta: meta["scaling_spec"][2].pop("max"), "'scaling_spec' entry 2 has no 'max'"),
    ],
    ids=["normalizer_without_std", "scaling_entry_without_max"],
)
def test_load_rejects_pipeline_entry_without_key(tmp_path, fitted, edit, message):
    from deepsolve.dataio import DataError

    path = tmp_path / "m.ckpt"
    fitted.save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header["meta"])
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(DataError) as err:
        OpfPredictor.load(path)
    assert str(err.value) == f"{path}: {message}"


def test_every_checkpoint_header_key_of_another_kind_raises(fitted, tmp_path):
    path = tmp_path / "m.ckpt"
    fitted.save(path)
    header, *records = path.read_text().splitlines()

    def load(path, doc):
        path.write_text("\n".join([json.dumps(doc), *records]) + "\n")
        OpfPredictor.load(path)

    assert kind_swap_misses(json.loads(header), path, load) == []
