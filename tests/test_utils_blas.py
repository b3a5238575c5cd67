import pytest

from repro.utils.blas import blas_thread_limit, blas_threads


class TestBlasThreadLimit:
    def test_limit_applies_and_restores(self):
        before = blas_threads()
        with blas_thread_limit(1):
            inside = blas_threads()
        assert blas_threads() == before
        if before is None:
            assert inside is None  # no controllable BLAS: a no-op
        else:
            assert inside == 1

    def test_restores_after_exception(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with blas_thread_limit(1):
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            with blas_thread_limit(0):
                pass
