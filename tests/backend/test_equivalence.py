"""Backend equivalence harness: fast must agree with reference everywhere."""

import numpy as np
import pytest

from repro import backend as B
from repro.backend import equivalence
from repro.backend.equivalence import (
    CASES,
    check_all,
    check_all_dtype,
    check_kernel,
    check_kernel_dtype,
    compare_outputs,
    compare_outputs_cross_dtype,
)


class TestCaseInventory:
    def test_every_reachable_kernel_has_a_case(self):
        # a fast kernel without an equivalence case is an unchecked kernel
        for name in ("reference", "fast"):
            missing = set(B.get_backend(name).kernels()) - set(CASES)
            assert not missing, f"kernels without equivalence cases: {missing}"

    def test_every_case_names_a_kernel(self):
        reference = B.get_backend("reference")
        stale = {name for name in CASES if not reference.has(name)}
        assert not stale, f"cases for unregistered kernels: {stale}"


class TestCheckKernel:
    @pytest.mark.parametrize("kernel", sorted(CASES))
    def test_fast_matches_reference(self, kernel):
        assert check_kernel(kernel, "fast", trials=5, seed=11) == 5

    def test_check_all_covers_everything(self):
        checked = check_all("fast", trials=2, seed=3)
        assert checked == sorted(B.get_backend("fast").kernels())

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="no equivalence case"):
            check_kernel("flux_capacitor", "fast")

    def test_detects_wrong_values(self):
        from repro.backend.registry import Backend

        broken = Backend("broken", fallback=B.get_backend("reference"))

        @broken.register()
        def matmul(a, b):
            return a @ b + 1e-3

        with pytest.raises(AssertionError):
            check_kernel("matmul", broken)


class TestCompareOutputs:
    def test_shape_mismatch(self):
        with pytest.raises(AssertionError, match="shape"):
            compare_outputs("k", np.ones((2, 2)), np.ones((4,)))

    def test_dtype_mismatch(self):
        with pytest.raises(AssertionError, match="dtype"):
            compare_outputs("k", np.ones(3, dtype=np.float64),
                            np.ones(3, dtype=np.float32))

    def test_arity_mismatch(self):
        with pytest.raises(AssertionError, match="arity"):
            compare_outputs("k", (np.ones(2), np.ones(2)), np.ones(2))

    def test_integer_outputs_compared_exactly(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        compare_outputs("k", a, a.copy())
        with pytest.raises(AssertionError, match="integer"):
            compare_outputs("k", a, np.array([1, 2, 4], dtype=np.int64))

    def test_float_outputs_within_tolerance(self):
        a = np.ones(4)
        compare_outputs("k", a, a * (1.0 + 1e-9))
        with pytest.raises(AssertionError):
            compare_outputs("k", a, a * 1.01)

    def test_none_outputs_must_pair(self):
        compare_outputs("k", (np.ones(2), None), (np.ones(2), None))
        with pytest.raises(AssertionError, match="None"):
            compare_outputs("k", (np.ones(2), None), (np.ones(2), np.ones(2)))


class TestDtypeAxis:
    """Every kernel at each compute dtype against the float64 oracle."""

    @pytest.mark.parametrize("backend_name", ["reference", "fast"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("kernel", sorted(CASES))
    def test_kernel_at_dtype(self, kernel, dtype, backend_name):
        assert check_kernel_dtype(kernel, backend_name, dtype,
                                  trials=3, seed=29) == 3

    def test_check_all_dtype_covers_everything(self):
        checked = check_all_dtype("fast", np.float32, trials=2, seed=5)
        assert checked == sorted(B.get_backend("fast").kernels())

    def test_reference_float64_axis_is_exact(self):
        # at float64 the dtype axis degenerates to the strict contract:
        # reference against itself must be bit-identical
        for kernel in sorted(CASES):
            gen = CASES[kernel]
            rng = np.random.default_rng(17)
            args, kwargs = gen(rng)
            fn = B.get_backend("reference").kernel(kernel)
            first = fn(*args, **kwargs)
            second = fn(*args, **kwargs)
            firsts = first if isinstance(first, tuple) else (first,)
            seconds = second if isinstance(second, tuple) else (second,)
            for a, b in zip(firsts, seconds):
                if a is None:
                    assert b is None
                    continue
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b),
                                              err_msg=kernel)

    def test_unknown_dtype_tolerance_raises(self):
        with pytest.raises(KeyError, match="dtype tolerances"):
            check_kernel_dtype("matmul", "fast", np.float16)

    def test_upcasting_kernel_is_rejected(self):
        from repro.backend.registry import Backend

        sloppy = Backend("sloppy", fallback=B.get_backend("reference"))

        @sloppy.register()
        def matmul(a, b):
            return (a @ b).astype(np.float64)

        with pytest.raises(AssertionError, match="preserve"):
            check_kernel_dtype("matmul", sloppy, np.float32)

    def test_cross_dtype_float_compared_to_oracle(self):
        a64 = np.ones(4, dtype=np.float64)
        a32 = np.ones(4, dtype=np.float32)
        compare_outputs_cross_dtype("k", a64, a32, a32,
                                    np.dtype(np.float32), 1e-4, 1e-5)
        with pytest.raises(AssertionError):
            compare_outputs_cross_dtype("k", a64, a32,
                                        a32 * np.float32(1.01),
                                        np.dtype(np.float32), 1e-4, 1e-5)

    def test_cross_dtype_int_compared_to_same_dtype_oracle(self):
        oracle64 = np.array([0, 1], dtype=np.int64)
        oracle_same = np.array([1, 1], dtype=np.int64)
        got = np.array([1, 1], dtype=np.int64)
        # ties broken differently at float64 are fine; the same-dtype
        # oracle is the binding one
        compare_outputs_cross_dtype("k", oracle64, oracle_same, got,
                                    np.dtype(np.float32), 1e-4, 1e-5)
        with pytest.raises(AssertionError, match="integer"):
            compare_outputs_cross_dtype("k", oracle64, oracle64, got,
                                        np.dtype(np.float32), 1e-4, 1e-5)


class TestExactKernels:
    """Data-movement kernels are held to equality, not a tolerance."""

    @staticmethod
    def _one_ulp_off():
        from repro.backend.registry import Backend

        drifted = Backend("drifted", fallback=B.get_backend("reference"))

        @drifted.register()
        def im2col(x, kh, kw, stride, padding):
            cols = B.get_backend("reference").im2col(x, kh, kw, stride, padding)
            return np.nextafter(cols, np.inf, dtype=cols.dtype)

        return drifted

    def test_im2col_is_exact(self):
        assert "im2col" in equivalence.EXACT
        assert equivalence.EXACT <= set(CASES)

    def test_one_ulp_passes_allclose_but_fails_exact(self):
        a = np.linspace(1.0, 2.0, 8)
        drifted = np.nextafter(a, np.inf)
        compare_outputs("matmul", a, drifted)
        with pytest.raises(AssertionError, match="data-movement"):
            compare_outputs("im2col", a, drifted)

    def test_drifted_gather_is_caught(self):
        with pytest.raises(AssertionError, match="data-movement"):
            check_kernel("im2col", self._one_ulp_off(), trials=2, seed=1)

    def test_drifted_gather_is_caught_at_float32(self):
        with pytest.raises(AssertionError, match="data-movement"):
            check_kernel_dtype("im2col", self._one_ulp_off(), np.float32,
                               trials=2, seed=1)


class TestGeometryGenerators:
    def test_conv_cases_are_valid_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            (x, w, stride, padding), _kw = CASES["conv2d_forward"](rng)
            out, cols = B.get_backend("reference").conv2d_forward(
                x, w, stride, padding
            )
            assert out.ndim == 4 and cols.ndim == 2

    def test_pool_cases_exercise_stride_not_equal_kernel(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(40):
            (x, kernel, stride), _kw = CASES["maxpool2d_forward"](rng)
            seen.add(stride == kernel)
        assert seen == {True, False}
