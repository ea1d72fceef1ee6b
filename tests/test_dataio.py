import gc
import json
import weakref

import numpy as np
import pytest

from deepsolve import load_case, solve_opf, solve_pf
from deepsolve.dataio import (
    DATASET_FORMAT_VERSION,
    CodecError,
    DataError,
    Normalizer,
    ScalingEntry,
    ScalingSpec,
    build_dataset,
    decode,
    encode,
    independent_values,
    load_dataset,
    sample_loads,
    save_dataset,
)
from deepsolve.opfref import BATCH_ROWS, generation_cost
from deepsolve.powerflow import IndependentVars

from conftest import kind_swap_misses


@pytest.fixture(scope="module")
def spec30(case30):
    return ScalingSpec.from_case(case30)


def test_spec_dimension_and_order(case30, spec30):
    assert spec30.dimension == 2 * len(case30.pv_indices) + 1 == 11
    assert spec30.entries[0].var_id == "vm:1"
    assert spec30.entries[1].var_id == "pg:2"
    assert spec30.entries[2].var_id == "vm:2"


def test_encode_endpoints_and_midpoint(spec30):
    s = encode(spec30, spec30.x_min)
    assert np.allclose(s, 0.0)
    s = encode(spec30, spec30.x_max)
    assert np.allclose(s, 1.0)
    mid = 0.5 * (spec30.x_min + spec30.x_max)
    assert np.allclose(encode(spec30, mid), 0.5)
    assert np.allclose(decode(spec30, np.full(spec30.dimension, 0.5)), mid)


def test_round_trip_random_vectors(spec30):
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = spec30.x_min + rng.random(spec30.dimension) * (spec30.x_max - spec30.x_min)
        assert np.max(np.abs(decode(spec30, encode(spec30, x)) - x)) < 1e-12


def test_encode_out_of_bounds_names_variable(spec30):
    x = spec30.x_min.copy()
    x[3] = spec30.x_max[3] + 0.5
    with pytest.raises(CodecError) as err:
        encode(spec30, x)
    assert err.value.var_id == spec30.entries[3].var_id


def test_decode_rejects_outside_unit_interval(spec30):
    s = np.full(spec30.dimension, 0.5)
    s[0] = 1.5
    with pytest.raises(CodecError):
        decode(spec30, s)


def test_decode_rejects_nan(spec30):
    """A NaN factor fails every comparison, so it must not pass the unit
    interval test: a model's NaN output is not a physical value."""
    s = np.full((2, spec30.dimension), 0.5)
    s[1, 4] = np.nan
    with pytest.raises(CodecError) as err:
        decode(spec30, s)
    assert err.value.var_id == spec30.entries[4].var_id
    assert str(err.value).endswith("scaling factor nan outside [0, 1]")
    with pytest.raises(CodecError):
        decode(spec30, s[1])


def test_decode_stack_matches_rows_and_names_variable(spec30):
    s = np.random.default_rng(4).random((3, 2, spec30.dimension))
    x = decode(spec30, s)
    assert x.shape == s.shape
    for idx in np.ndindex(s.shape[:-1]):
        assert np.array_equal(x[idx], decode(spec30, s[idx]))
    s[2, 1, 3] = -0.25
    with pytest.raises(CodecError) as err:
        decode(spec30, s)
    assert err.value.var_id == spec30.entries[3].var_id
    with pytest.raises(DataError):
        decode(spec30, s[..., :-1])


def test_encode_stack_matches_rows_and_names_variable(spec30):
    x = decode(spec30, np.random.default_rng(5).random((3, 2, spec30.dimension)))
    s = encode(spec30, x)
    assert s.shape == x.shape
    for idx in np.ndindex(x.shape[:-1]):
        row = [(v - e.x_min) / (e.x_max - e.x_min) for v, e in zip(x[idx], spec30.entries)]
        assert np.array_equal(s[idx], row)
    x[2, 1, 3] = spec30.x_max[3] + 0.25
    with pytest.raises(CodecError) as err:
        encode(spec30, x)
    assert err.value.var_id == spec30.entries[3].var_id
    with pytest.raises(DataError):
        encode(spec30, x[..., :-1])


@pytest.mark.parametrize("fixed", [False, True], ids=["box", "fixed"])
def test_encode_rejects_nan(spec30, fixed):
    """A NaN entry fails every comparison, so it must not pass the box test."""
    spec = ScalingSpec(entries=(ScalingEntry("pg:9", 0.42, 0.42),)) if fixed else spec30
    x = np.tile((spec.x_min + spec.x_max) / 2, (2, 1))
    x[1, -1] = np.nan
    with pytest.raises(CodecError) as err:
        encode(spec, x)
    assert err.value.var_id == spec.entries[-1].var_id
    with pytest.raises(CodecError):
        encode(spec, x[1])


def test_degenerate_bounds_encode_half_decode_exact():
    spec = ScalingSpec(entries=(ScalingEntry("pg:9", 0.42, 0.42),))
    assert encode(spec, np.array([0.42]))[0] == 0.5
    assert decode(spec, np.array([0.77]))[0] == 0.42
    with pytest.raises(CodecError):
        encode(spec, np.array([0.43]))


def test_sample_loads_degenerate_range(case30):
    loads = sample_loads(case30, (1.0, 1.0), 5, seed=3)
    base = case30.default_loads
    assert np.array_equal(loads, np.tile(base, (5, 1)))


def test_sample_loads_statistics(case30):
    loads = sample_loads(case30, (0.9, 1.1), 10_000, seed=5)
    base = case30.default_loads
    nz = base != 0
    ratio = loads[:, nz].mean(axis=0) / base[nz]
    assert np.max(np.abs(ratio - 1.0)) < 0.01
    # zero default loads stay exactly zero under multiplicative sampling
    assert np.all(loads[:, ~nz] == 0.0)
    assert loads[:, nz].min() >= 0.9 * base[nz].min() - 1e-12


def test_sample_loads_deterministic(case30):
    a = sample_loads(case30, (0.9, 1.1), 7, seed=11)
    b = sample_loads(case30, (0.9, 1.1), 7, seed=11)
    assert np.array_equal(a, b)


def test_normalizer_passthrough_for_zero_variance():
    loads = np.array([[1.0, 0.0, 5.0], [2.0, 0.0, 5.0], [3.0, 0.0, 5.0]])
    norm = Normalizer.fit(loads)
    z = norm.transform(loads)
    assert np.allclose(z[:, 1], 0.0)  # zero loads stay zero
    assert np.allclose(z[:, 2], 5.0)  # constant dimension passes through unscaled
    assert np.allclose(z[:, 0], (loads[:, 0] - 2.0) / np.std(loads[:, 0]))


@pytest.fixture(scope="module")
def small_sets(case30):
    return build_dataset(case30, 12, 4, seed=21)


def test_dataset_counts_and_invariants(small_sets, case30, spec30):
    train, test = small_sets
    assert len(train) == 12 and len(test) == 4
    assert train.split == "train" and test.split == "test"
    for ds in (train, test):
        for s in ds.samples:
            assert np.all(s.s_true >= 0) and np.all(s.s_true <= 1)
    # normalized training loads: zero mean, unit std on non-constant dims
    z = train.normalizer.transform(train.loads_matrix)
    base = case30.default_loads
    nz = base != 0
    assert np.max(np.abs(z[:, nz].mean(axis=0))) < 1e-10
    assert np.max(np.abs(z[:, nz].std(axis=0) - 1.0)) < 1e-10


def test_labels_reconstruct_reference_objective(small_sets, case30, adm30):
    """Decoding a label and re-solving the power flow must reproduce the
    reference solver's objective to 0.01%."""
    train, _ = small_sets
    init = train.pf_init
    npv = len(case30.pv_indices)
    for s in train.samples[:6]:
        x = decode(train.spec, s.s_true)
        indep = IndependentVars(
            v_slack=x[0], pv_p_gen=x[1 : 1 + 2 * npv : 2], pv_v_mag=x[2 : 2 + 2 * npv : 2]
        )
        n = case30.n_bus
        pf = solve_pf(case30, adm30, indep, s.loads[:n], s.loads[n:], init=init, tol=1e-10)
        assert pf.converged
        pg = np.empty(len(case30.generators))
        for k, g in enumerate(case30.generators):
            b = case30.bus_index(g.bus)
            if b == case30.slack_index:
                pg[k] = pf.slack_p_gen
            else:
                j = int(np.where(case30.pv_indices == b)[0][0])
                pg[k] = indep.pv_p_gen[j]
        cost = generation_cost(case30, pg)
        assert cost == pytest.approx(s.objective_true, rel=1e-4)


def test_label_independent_vars_round_trip(small_sets):
    train, _ = small_sets
    for s in train.samples:
        x = decode(train.spec, s.s_true)
        assert np.max(np.abs(decode(train.spec, encode(train.spec, x)) - x)) < 1e-10


def test_empty_dataset_round_trips(case30, tmp_path):
    train, test = build_dataset(case30, 0, 0, seed=1)
    path = tmp_path / "empty.ds"
    save_dataset(train, path)
    again = load_dataset(path)
    assert len(again) == 0
    assert again.spec == train.spec


def test_newton_start_is_the_mean_of_the_training_labels(case30):
    """At the entries the power flow reads (non-slack angles, PQ
    magnitudes), the start equals the mean of lone reference solves of the
    training loads."""
    train, _ = build_dataset(case30, 5, 2, seed=9)
    labels = [solve_opf(case30, loads=row) for row in sample_loads(case30, (0.9, 1.1), 5, seed=9)]
    assert all(sol.converged for sol in labels)
    nonslack, pq = np.delete(np.arange(case30.n_bus), case30.slack_index), case30.pq_indices
    v_ang = np.mean([sol.v_ang for sol in labels], axis=0)
    v_mag = np.mean([sol.v_mag for sol in labels], axis=0)
    np.testing.assert_allclose(train.pf_init.v_ang[nonslack], v_ang[nonslack], rtol=0, atol=1e-9)
    np.testing.assert_allclose(train.pf_init.v_mag[pq], v_mag[pq], rtol=0, atol=1e-9)
    assert train.pf_init.v_ang.shape == train.pf_init.v_mag.shape == (case30.n_bus,)


def test_empty_training_split_gives_the_flat_start(case30):
    train, test = build_dataset(case30, 0, 2, seed=1)
    for ds in (train, test):
        assert np.array_equal(ds.pf_init.v_ang, np.zeros(case30.n_bus))
        assert np.array_equal(ds.pf_init.v_mag, np.ones(case30.n_bus))


def test_version_1_dataset_rejected(small_sets, tmp_path):
    """A dataset of the earlier format (per-row dependent state, its mean in
    the header) must be regenerated."""
    train, _ = small_sets
    path = tmp_path / "train.ds"
    save_dataset(train, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format_version"] == DATASET_FORMAT_VERSION == 2
    header["format_version"] = 1
    header["dependent_mean"] = header.pop("pf_init")["v_mag"]
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: unsupported dataset format"


def test_dataset_file_round_trip_bit_exact(small_sets, tmp_path):
    train, _ = small_sets
    path = tmp_path / "train.ds"
    save_dataset(train, path)
    again = load_dataset(path)
    assert again.case_id == train.case_id
    assert again.spec == train.spec
    assert np.array_equal(again.normalizer.mean, train.normalizer.mean)
    assert np.array_equal(again.normalizer.std, train.normalizer.std)
    assert np.array_equal(again.pf_init.v_ang, train.pf_init.v_ang)
    assert np.array_equal(again.pf_init.v_mag, train.pf_init.v_mag)
    for a, b in zip(again.samples, train.samples):
        assert np.array_equal(a.loads, b.loads)
        assert np.array_equal(a.s_true, b.s_true)
        assert a.objective_true == b.objective_true
    # byte-identity of a save/load/save cycle
    path2 = tmp_path / "again.ds"
    save_dataset(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_short_record_rejected_with_line(small_sets, tmp_path):
    train, _ = small_sets
    path = tmp_path / "train.ds"
    save_dataset(train, path)
    good = path.read_text().splitlines()
    for lineno, edit, message in [
        (3, lambda r: ",".join(r.split(",")[:-5]), "expected 72 values, found 67"),
        (2, lambda r: "x" + r, "malformed number"),
        (4, lambda r: "nan" + r[r.index(","):], "non-finite value"),
        (1, lambda r: r[: len(r) // 2], "header is not valid JSON"),
    ]:
        lines = list(good)
        lines[lineno - 1] = edit(lines[lineno - 1])
        path = tmp_path / f"bad{lineno}.ds"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message) as err:
            load_dataset(path)
        assert str(err.value).startswith(f"{path}:{lineno}:")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h.pop("normalizer"), "dataset header has no 'normalizer'"),
        (lambda h: h["normalizer"].pop("std"), "'normalizer' has no 'std'"),
        (lambda h: h["scaling_spec"][3].pop("max"), "'scaling_spec' entry 3 has no 'max'"),
        (lambda h: h.pop("pf_init"), "dataset header has no 'pf_init'"),
        (lambda h: h["pf_init"].pop("v_ang"), "'pf_init' has no 'v_ang'"),
    ],
    ids=["no_normalizer", "normalizer_without_std", "scaling_entry_without_max", "no_pf_init",
         "pf_init_without_v_ang"],
)
def test_header_without_key_rejected_with_path(small_sets, tmp_path, edit, message):
    train, _ = small_sets
    path = tmp_path / "train.ds"
    save_dataset(train, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "keys",
    [("normalizer", "mean"), ("normalizer", "std"), ("pf_init", "v_ang"), ("pf_init", "v_mag"),
     ("load_range",)],
    ids=["mean", "std", "v_ang", "v_mag", "load_range"],
)
@pytest.mark.parametrize("bad", ["0.5", True], ids=["string", "bool"])
def test_header_number_list_rejects_a_string_or_bool_entry(small_sets, tmp_path, keys, bad):
    """A header's number lists hold JSON numbers: an entry written as a
    string, which ``float()`` would parse, or as a bool is a DataError
    naming the file and the key."""
    path = tmp_path / "train.ds"
    save_dataset(small_sets[0], path)
    header, *records = path.read_text().splitlines()
    header = json.loads(header)
    part = header
    for key in keys[:-1]:
        part = part[key]
    part[keys[-1]][1] = bad
    path.write_text("\n".join([json.dumps(header), *records]) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    where = " ".join(map(repr, keys))
    assert str(err.value) == f"{path}: {where} entry 1 is {bad!r}, not a number"


def test_independent_values_matches_spec_order(case30, opf30, spec30):
    vals = independent_values(case30, opf30.v_mag, opf30.p_gen)
    assert vals[0] == opf30.v_mag[case30.slack_index]
    assert vals[1] == opf30.p_gen[case30.pv_gen[0]]
    assert vals[2] == opf30.v_mag[case30.pv_indices[0]]


def test_bad_range_rejected(case30):
    with pytest.raises(DataError):
        sample_loads(case30, (0.0, 1.0), 1, seed=0)


@pytest.mark.parametrize("load_range", [(0.9, np.inf), (np.nan, 1.1), (0.9, np.nan)],
                         ids=["inf_hi", "nan_lo", "nan_hi"])
def test_non_finite_range_rejected(case30, load_range):
    with pytest.raises(DataError, match="need finite"):
        sample_loads(case30, load_range, 1, seed=0)


@pytest.mark.parametrize("count_train, count_test", [(-1, 2), (2, -2)], ids=["train", "test"])
def test_negative_sample_count_rejected(case30, count_train, count_test):
    with pytest.raises(DataError, match="nonnegative"):
        build_dataset(case30, count_train, count_test, seed=0)


@pytest.mark.parametrize(
    "case_name, count_train, count_test",
    [("case30", 8, 2), ("case30", 13, 6), ("case118", 9, 0)],
    ids=["split_at_chunk_end", "split_inside_chunk", "case118_short_last_chunk"],
)
def test_parallel_labeling_matches_serial(request, tmp_path, case_name, count_train, count_test):
    """Worker-pool labeling must be byte-identical to the serial path.  A
    chunk is 8 samples: 10 samples end in a short chunk, and 19 do too,
    with the train/test split inside the second chunk; 9 case118 samples
    make one chunk of 8 and one of 1."""
    assert BATCH_ROWS == 8
    case = request.getfixturevalue(case_name)
    serial = build_dataset(case, count_train, count_test, seed=77, workers=1)
    pooled = build_dataset(case, count_train, count_test, seed=77, workers=2)
    for a, b in zip(serial, pooled):
        pa, pb = tmp_path / "a.ds", tmp_path / "b.ds"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize(
    "workers, count, size", [(64, 16, 2), (3, 40, 3), (2, 9, 2)],
    ids=["more_workers_than_chunks", "fewer_workers_than_chunks", "one_worker_per_chunk"],
)
def test_pool_has_no_more_processes_than_chunks(case30, monkeypatch, workers, count, size):
    """The pool is sized min(workers, chunks), and its labels are the serial
    ones.  A stand-in executor records its size and maps in this process,
    so no process is started."""
    from deepsolve import dataio

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(dataio, "ProcessPoolExecutor", SerialPool)
    pooled = build_dataset(case30, count, 0, seed=3, workers=workers)[0]
    assert sizes == [size]
    serial = build_dataset(case30, count, 0, seed=3, workers=1)[0]
    assert sizes == [size]
    assert np.array_equal(pooled.s_matrix, serial.s_matrix)
    assert np.array_equal(pooled.loads_matrix, serial.loads_matrix)


def test_header_with_an_over_long_integer_rejected_with_path(small_sets, tmp_path):
    """An integer literal past Python's 4,300-digit conversion limit makes
    json.loads raise a plain ValueError; the loader names the file."""
    path = tmp_path / "train.ds"
    save_dataset(small_sets[0], path)
    text = path.read_text()
    assert '"seed": 21' in text
    path.write_text(text.replace('"seed": 21', '"seed": ' + "1" * 5000, 1))
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: dataset header is not valid JSON (")


def test_serial_labeling_keeps_no_reference_to_the_case():
    """Labelling in one process holds the case and its admittance in
    locals only, so nothing keeps them alive once the caller drops them."""
    case = load_case("case30")
    ref = weakref.ref(case)
    build_dataset(case, 3, 0, seed=5)
    del case
    gc.collect()
    assert ref() is None


def test_spec_bounds_are_cached_read_only(spec30):
    assert spec30.x_min.tolist() == [e.x_min for e in spec30.entries]
    assert spec30.x_max.tolist() == [e.x_max for e in spec30.entries]
    assert spec30.x_min is spec30.x_min
    for bounds in (spec30.x_min, spec30.x_max):
        with pytest.raises(ValueError, match="read-only"):
            bounds[0] = 0.0


def test_every_dataset_header_key_of_another_kind_raises(small_sets, tmp_path):
    path = tmp_path / "train.ds"
    save_dataset(small_sets[0], path)
    header, *records = path.read_text().splitlines()

    def load(path, doc):
        path.write_text("\n".join([json.dumps(doc), *records]) + "\n")
        load_dataset(path)

    assert kind_swap_misses(json.loads(header), path, load) == []


def _fail_reference_solves(monkeypatch, samples):
    """Make the serial labelling path report the reference solves of
    ``samples`` (positions in the sampled loads) as not converged."""
    from deepsolve import dataio

    real, labelled = dataio.solve_opf, []

    def solve_opf(case, loads, adm=None):
        batch = real(case, loads, adm=adm)
        for sol in batch:
            sol.converged = sol.converged and len(labelled) not in samples
            labelled.append(sol)
        return batch

    monkeypatch.setattr(dataio, "solve_opf", solve_opf)


def test_build_dataset_drops_a_failed_sample(case30, monkeypatch, caplog):
    """1 failure in 40 is within MAX_DROP_FRACTION: the sample is logged and
    left out, and the other rows keep their order."""
    _fail_reference_solves(monkeypatch, {17})
    with caplog.at_level("WARNING", logger="deepsolve.dataio"):
        train, test = build_dataset(case30, 40, 0, seed=5)
    assert len(train) == 39 and len(test) == 0
    assert "dropping sample 17: reference solve did not converge" in caplog.messages
    loads = sample_loads(case30, (0.9, 1.1), 40, seed=5)
    assert np.array_equal(train.loads_matrix, np.delete(loads, 17, axis=0))


@pytest.mark.parametrize("split", ["train", "test"])
def test_build_dataset_aborts_above_the_drop_fraction(case30, monkeypatch, split):
    """2 failures in 20 exceed MAX_DROP_FRACTION of the split they are in."""
    counts = (20, 0) if split == "train" else (0, 20)
    _fail_reference_solves(monkeypatch, {3, 11})
    with pytest.raises(DataError, match=rf"^{split}: 2/20 reference solves failed"):
        build_dataset(case30, *counts, seed=5)
