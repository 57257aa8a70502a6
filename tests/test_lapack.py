import itertools
import os
import types

import numpy as np
import pytest
import scipy.linalg

import rabivar._lapack as lapack
from rabivar import ModelParams, parity_chain
from rabivar.errors import LapackUnavailable

GRID = [
    (delta, tau, lam, n_tr, parity)
    for delta, tau, lam, n_tr, parity in itertools.product(
        (1.0, 8.0, 100.0), (0.0, 0.5, 1.0, 1.5), (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5), (40, 160, 256), ("even", "odd")
    )
]


def _grid_chains():
    for delta, tau, lam, n_tr, parity in GRID:
        yield parity_chain(ModelParams.from_lambda(delta, lam, tau=tau), n_tr, parity)


def test_lowest_eigenpair_is_bit_identical_to_eigh_tridiagonal():
    for d, e in _grid_chains():
        w, v = lapack.lowest_eigenpair(d, e)
        ref_w, ref_v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        assert np.float64(w).tobytes() == ref_w[0].tobytes()
        assert v.tobytes() == np.ascontiguousarray(ref_v[:, 0]).tobytes()


def test_eigenpairs_are_bit_identical_to_eigh_tridiagonal():
    for d, e in _grid_chains():
        w, v = lapack.eigenpairs(d, e)
        ref_w, ref_v = scipy.linalg.eigh_tridiagonal(d, e)
        assert w.tobytes() == ref_w.tobytes()
        assert v.shape == ref_v.shape and v.tobytes(order="A") == ref_v.tobytes(order="A")


@pytest.mark.parametrize("n_tr", [0, 1, 2, 3, 40, 160, 256])
@pytest.mark.parametrize("generator", ["displace", "squeeze"])
def test_packet_generator_modes_are_bit_identical_to_eigh_tridiagonal(n_tr, generator):
    # The chains states._chain_modes diagonalizes; n_tr 0 (both) and 1 (squeeze) are size-1 chains.
    if generator == "displace":
        links = np.sqrt(np.arange(1.0, n_tr + 1))
    else:
        k = np.arange(n_tr // 2, dtype=float)
        links = np.sqrt((2.0 * k + 1.0) * (2.0 * k + 2.0))
    d = np.zeros(links.size + 1)
    w, v = lapack.eigenpairs(d, links)
    ref_w, ref_v = scipy.linalg.eigh_tridiagonal(d, links)
    assert w.tobytes() == ref_w.tobytes() and v.tobytes(order="A") == ref_v.tobytes(order="A")


def test_size_one_chain_takes_the_quick_exit():
    d, e = np.array([-2.5]), np.array([])
    ref_w, ref_v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    w, v = lapack.lowest_eigenpair(d, e)
    assert (w, v.tolist()) == (ref_w[0], ref_v[:, 0].tolist())
    w, v = lapack.eigenpairs(d, e)
    ref_w, ref_v = scipy.linalg.eigh_tridiagonal(d, e)
    assert (w.tolist(), v.tolist()) == (ref_w.tolist(), ref_v.tolist())


@pytest.mark.parametrize("solve", [lapack.lowest_eigenpair, lapack.eigenpairs])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_value_error_as_scipy_does(solve, bad):
    d, e = np.array([0.0, 1.0, 2.0]), np.array([1.0, bad])
    with pytest.raises(ValueError):
        scipy.linalg.eigh_tridiagonal(d, e)
    with pytest.raises(ValueError):
        solve(d, e)
    with pytest.raises(ValueError):
        solve(np.array([0.0, bad]), np.array([1.0]))


@pytest.mark.parametrize("solve", [lapack.lowest_eigenpair, lapack.eigenpairs])
def test_shape_checks(solve):
    with pytest.raises(ValueError, match="1-D"):
        solve(np.zeros((2, 2)), np.zeros(1))
    with pytest.raises(ValueError, match="one more element"):
        solve(np.zeros(3), np.zeros(3))


def _stub(monkeypatch, name, info):
    real = getattr(lapack._flapack, name)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, info)

    stub = types.SimpleNamespace(**{r: getattr(lapack._flapack, r) for r in lapack._ROUTINES})
    setattr(stub, name, failing)
    monkeypatch.setattr(lapack, "_flapack", stub)


@pytest.mark.parametrize(
    "routine, solve",
    [("dstebz", lapack.lowest_eigenpair), ("dstein", lapack.lowest_eigenpair), ("dstevd", lapack.eigenpairs)],
)
def test_nonzero_lapack_info_raises(monkeypatch, routine, solve):
    d, e = parity_chain(ModelParams(delta=8.0, g=1.0, tau=0.5), 40, "even")
    _stub(monkeypatch, routine, 2)
    with pytest.raises(np.linalg.LinAlgError, match=routine):
        solve(d, e)
    _stub(monkeypatch, routine, -3)
    with pytest.raises(ValueError, match=f"argument 3 of internal {routine}"):
        solve(d, e)


def test_dstein_failure_reports_unconverged_eigenvectors(monkeypatch):
    _stub(monkeypatch, "dstein", 1)
    with pytest.raises(np.linalg.LinAlgError, match="1 eigenvectors failed to converge"):
        lapack.lowest_eigenpair(*parity_chain(ModelParams(delta=8.0, g=1.0), 40, "odd"))


def test_missing_extension_raises_naming_the_file(monkeypatch):
    monkeypatch.setattr(lapack, "EXTENSION_SUFFIXES", [".no-such-abi.so"])
    with pytest.raises(LapackUnavailable) as info:
        lapack._load_flapack()
    assert info.value.path.endswith(os.path.join("linalg", "_flapack.no-such-abi.so"))
    assert info.value.path in str(info.value)


def test_missing_routine_raises_naming_the_file(monkeypatch):
    monkeypatch.setattr(lapack, "_ROUTINES", ("dstebz", "dno_such_routine"))
    with pytest.raises(LapackUnavailable, match="has no dno_such_routine") as info:
        lapack._load_flapack()
    assert info.value.path == lapack._flapack.__file__
