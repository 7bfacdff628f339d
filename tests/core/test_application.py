"""Tests for the Application/Workload data model."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core import Application, Workload
from repro.machine import taihulight
from repro.types import ModelError


def _app(**kw):
    base = dict(name="T", work=1e9, seq_fraction=0.1, access_freq=0.5, miss_rate=0.01)
    base.update(kw)
    return Application(**base)


class TestApplicationValidation:
    def test_valid(self):
        app = _app()
        assert app.work == 1e9
        assert not app.is_perfectly_parallel

    def test_perfectly_parallel_flag(self):
        assert _app(seq_fraction=0.0).is_perfectly_parallel

    @pytest.mark.parametrize("field,value", [
        ("work", 0.0),
        ("work", -1.0),
        ("work", math.inf),
        ("seq_fraction", -0.1),
        ("seq_fraction", 1.1),
        ("access_freq", -1.0),
        ("miss_rate", -0.01),
        ("miss_rate", 1.5),
        ("footprint", 0.0),
        ("footprint", -5.0),
        ("baseline_cache", 0.0),
    ])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ModelError):
            _app(**{field: value})

    def test_miss_coefficient(self):
        pf = taihulight()
        app = _app(miss_rate=0.02, baseline_cache=40e6)
        expected = 0.02 * (40e6 / pf.cache_size) ** pf.alpha
        assert app.miss_coefficient(pf) == pytest.approx(expected)

    def test_scaled(self):
        app = _app().scaled(work=5e9, seq_fraction=0.3)
        assert app.work == 5e9
        assert app.seq_fraction == 0.3
        assert app.name == "T"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _app().work = 2.0  # type: ignore[misc]


class TestWorkload:
    def test_columns_match_apps(self):
        apps = [_app(name=f"T{i}", work=(i + 1) * 1e8) for i in range(4)]
        wl = Workload(apps)
        assert wl.n == 4
        assert np.allclose(wl.work, [(i + 1) * 1e8 for i in range(4)])
        assert wl.names == ("T0", "T1", "T2", "T3")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Workload([])

    def test_columns_readonly(self):
        wl = Workload([_app()])
        with pytest.raises(ValueError):
            wl.work[0] = 1.0

    def test_sequence_protocol(self):
        apps = [_app(name=f"T{i}") for i in range(3)]
        wl = Workload(apps)
        assert wl[0].name == "T0"
        assert [a.name for a in wl] == ["T0", "T1", "T2"]
        assert len(wl) == 3
        sliced = wl[1:]
        assert isinstance(sliced, Workload)
        assert sliced.names == ("T1", "T2")

    def test_subset_bool_mask(self):
        wl = Workload([_app(name=f"T{i}") for i in range(4)])
        sub = wl.subset(np.array([True, False, True, False]))
        assert sub.names == ("T0", "T2")

    def test_subset_index_array(self):
        wl = Workload([_app(name=f"T{i}") for i in range(4)])
        sub = wl.subset(np.array([3, 1]))
        assert sub.names == ("T3", "T1")

    def test_subset_wrong_length_mask(self):
        wl = Workload([_app(), _app()])
        with pytest.raises(ModelError):
            wl.subset(np.array([True]))

    def test_with_sequential_fraction_scalar(self):
        wl = Workload([_app(), _app()]).with_sequential_fraction(0.05)
        assert np.allclose(wl.seq, 0.05)

    def test_with_sequential_fraction_vector(self):
        wl = Workload([_app(), _app()]).with_sequential_fraction([0.0, 0.2])
        assert np.allclose(wl.seq, [0.0, 0.2])

    def test_with_miss_rate(self):
        wl = Workload([_app(), _app()]).with_miss_rate(0.3)
        assert np.allclose(wl.miss0, 0.3)

    def test_is_perfectly_parallel(self):
        assert Workload([_app(seq_fraction=0.0)]).is_perfectly_parallel
        assert not Workload([_app(seq_fraction=0.01)]).is_perfectly_parallel

    def test_miss_coefficients_match_scalar(self):
        pf = taihulight()
        apps = [_app(miss_rate=0.01), _app(miss_rate=0.02)]
        wl = Workload(apps)
        d = wl.miss_coefficients(pf)
        assert d[0] == pytest.approx(apps[0].miss_coefficient(pf))
        assert d[1] == pytest.approx(apps[1].miss_coefficient(pf))

    def test_repr_truncates(self):
        wl = Workload([_app(name=f"T{i}") for i in range(10)])
        assert "10 total" in repr(wl)


def _scaled_rebuild(wl, idx, seq_left, par_left):
    """The per-application snapshot ``Workload.remaining`` replaced."""
    return Workload(
        wl[int(i)].scaled(
            work=float(seq_left[i] + par_left[i]),
            seq_fraction=float(seq_left[i] / (seq_left[i] + par_left[i])),
        )
        for i in idx
    )


def _columns(wl):
    return (wl.work, wl.seq, wl.freq, wl.miss0, wl.footprint, wl.baseline_cache)


class TestRemaining:
    """Column-built remaining-work snapshots (the online re-solve input)."""

    @pytest.fixture
    def wl(self):
        from repro.workloads import npb_synth

        return npb_synth(10, np.random.default_rng(3))

    @pytest.fixture
    def progress(self, wl):
        """Kernel-style remaining ops: apps 0-4 untouched, 5-9 part-run."""
        rng = np.random.default_rng(4)
        seq_left = wl.seq * wl.work
        par_left = (1.0 - wl.seq) * wl.work
        done = np.zeros(wl.n, dtype=bool)
        done[5:] = True
        seq_left = np.where(done, seq_left * rng.uniform(0, 1, wl.n), seq_left)
        par_left = np.where(done, par_left * rng.uniform(0.01, 1, wl.n), par_left)
        seq_left[7] = 0.0  # in its parallel phase
        return seq_left, par_left

    def test_touched_columns_bit_equal_to_scaled_rebuild(self, wl, progress):
        idx = np.array([9, 5, 7, 6])
        snap = wl.remaining(idx, *progress)
        old = _scaled_rebuild(wl, idx, *progress)
        for got, want in zip(_columns(snap), _columns(old)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    def test_untouched_apps_pass_through(self, wl, progress):
        idx = np.arange(wl.n)
        snap = wl.remaining(idx, *progress)
        assert np.array_equal(snap.work[:5], wl.work[:5])
        assert np.array_equal(snap.seq[:5], wl.seq[:5])
        for k in range(5):
            assert snap[k] is wl[k]
        # Re-deriving (work, s) from the kernel's split is not exact.
        old = _scaled_rebuild(wl, idx, *progress)
        assert not (np.array_equal(old.work[:5], wl.work[:5])
                    and np.array_equal(old.seq[:5], wl.seq[:5]))

    @pytest.mark.parametrize("view", [
        lambda w: w.names,
        lambda w: list(w),
        lambda w: w[2],
        lambda w: w[-1],
        lambda w: w[1:3],
        lambda w: w.subset(np.array([3, 0])),
        lambda w: w.subset(np.arange(w.n) % 2 == 0),
        lambda w: pickle.loads(pickle.dumps(w)),
        repr,
        len,
        _columns,
    ], ids=["names", "iter", "index", "negative-index", "slice", "subset",
            "subset-mask", "pickle", "repr", "len", "columns"])
    def test_lazy_apps_equal_eager(self, wl, progress, view):
        s, p = progress
        idx = np.array([0, 6, 2, 9, 7])
        eager = Workload(
            wl[int(i)] if i < 5 else wl[int(i)].scaled(
                work=float(s[i] + p[i]), seq_fraction=float(s[i] / (s[i] + p[i])))
            for i in idx)
        got, want = view(wl.remaining(idx, s, p)), view(eager)
        if isinstance(want, Workload):
            assert got.names == want.names and list(got) == list(want)
            got, want = _columns(got), _columns(want)
        if isinstance(want, tuple) and isinstance(want[0], np.ndarray):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            assert got == want

    def test_registry_schedulers_read_columns_only(self, wl, progress):
        from repro.core import get_entry, scheduler_names
        from repro.machine import taihulight

        checked = 0
        for name in scheduler_names():
            snap = wl.remaining(np.array([1, 5, 8]), *progress)
            if not get_entry(name)(snap, taihulight(), np.random.default_rng(0)).concurrent:
                continue
            assert snap._app_tuple is None, name
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("seq_left,par_left", [
        (0.0, 0.0),
        (np.nan, 1e9),
        (1e9, np.nan),
        (-3e9, 1e9),
        (np.inf, 1e9),
    ], ids=["zero", "nan-seq", "nan-par", "negative", "inf"])
    def test_bad_remaining_work_raises_the_same_error(self, wl, progress,
                                                      seq_left, par_left):
        s, p = (a.copy() for a in progress)
        s[6], p[6] = seq_left, par_left
        idx = np.array([2, 6, 8])
        with pytest.raises(ModelError) as want, np.errstate(all="ignore"):
            _scaled_rebuild(wl, idx, s, p)
        with pytest.raises(ModelError) as got:
            wl.remaining(idx, s, p)
        assert str(got.value) == str(want.value)

    def test_first_bad_app_in_index_order_is_reported(self, wl, progress):
        s, p = (a.copy() for a in progress)
        s[8], p[8] = 0.0, 0.0
        s[6], p[6] = -3e9, 1e9
        with pytest.raises(ModelError, match=wl[6].name):
            wl.remaining(np.array([2, 6, 8]), s, p)

    def test_empty_snapshot_rejected(self, wl, progress):
        with pytest.raises(ModelError):
            wl.remaining(np.array([], dtype=np.intp), *progress)
