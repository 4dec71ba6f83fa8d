import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bloch_observable, random_qubit_observable, random_state, random_unit3
from matrix_dump import format_matrix, parse_matrix
from quantum_oracles import anticommutator, commutator_norm, kron, real_trace, trace
from qcycle.errors import PreconditionError
from qcycle.linalg import (
    HERMITIAN_TOL,
    I2,
    OBSERVABLE_TOL,
    PSD_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Observable,
    State,
    as_matrix,
    bell_phi_plus,
    dag,
    identity,
    max_abs,
    maximally_mixed,
    observable_stack,
    pure_state,
    su2_rotation,
)
from qcycle.quantum import pentagram_vectors


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestKron:
    def test_identity_factors(self):
        assert max_abs(kron(I2, I2) - identity(4)) == 0.0

    def test_diagonal_product(self):
        assert max_abs(kron(SIGMA_Z, SIGMA_Z) - np.diag([1, -1, -1, 1])) == 0.0

    def test_phi_plus_xx_expectation(self):
        # sigma_x x sigma_x leaves (|00> + |11>)/sqrt(2) invariant.
        rho = bell_phi_plus().matrix
        assert real_trace(kron(SIGMA_X, SIGMA_X) @ rho) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_mixed_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (random_complex(rng, 2) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        assert max_abs(lhs - kron(a @ c, b @ d)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_numpy(self, seed):
        # Every pair of dims 1..4, with signed zeros in both parts and
        # transposed (non-contiguous) factors; tobytes also tells -0.0 from 0.0.
        rng = np.random.default_rng(seed)
        for da in range(1, 5):
            for db in range(1, 5):
                a, b = random_complex(rng, da), random_complex(rng, db)
                for m in (a, b):
                    m.real[rng.random(m.shape) < 0.3] = -0.0
                    m.imag[rng.random(m.shape) < 0.3] = -0.0
                    m.imag[rng.random(m.shape) < 0.2] = 0.0
                for x, y in ((a, b), (a.T, b), (a, b.T), (a.real, b)):
                    ours, ref = kron(x, y), np.kron(x.astype(complex), y)
                    assert np.array_equal(ours, ref)
                    assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


class TestSu2Rotation:
    def test_zero_angle(self):
        assert max_abs(su2_rotation((0, 1, 0), 0.0) - I2) == 0.0

    def test_quarter_turn(self):
        assert max_abs(su2_rotation((0, 1, 0), math.pi / 2) - 1j * SIGMA_Y) < 1e-15

    def test_conjugation_rotates_bloch_vector(self):
        # Verified by direct 2x2 multiplication: R = [[c, s], [-s, c]] gives
        # R^dag sz R = cos(2t) sz + sin(2t) sx and R sz R^dag the -sin twin.
        theta = 0.7
        r = su2_rotation((0, 1, 0), theta)
        expected = math.cos(2 * theta) * SIGMA_Z + math.sin(2 * theta) * SIGMA_X
        assert max_abs(dag(r) @ SIGMA_Z @ r - expected) < 1e-12
        mirrored = math.cos(2 * theta) * SIGMA_Z - math.sin(2 * theta) * SIGMA_X
        assert max_abs(r @ SIGMA_Z @ dag(r) - mirrored) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(PreconditionError):
            su2_rotation((0, 2, 0), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_rejected(self, bad):
        for axis in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.6, 0.8, bad)):
            with pytest.raises(PreconditionError, match="vector has norm"):
                su2_rotation(axis, 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(PreconditionError, match="rotation angle must be finite"):
            su2_rotation((0.0, 1.0, 0.0), bad)

    @given(seed=st.integers(0, 10_000), theta=st.floats(-6, 6), phi=st.floats(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_angle_additivity(self, seed, theta, phi):
        axis = random_unit3(np.random.default_rng(seed))
        product = su2_rotation(axis, theta) @ su2_rotation(axis, phi)
        assert max_abs(product - su2_rotation(axis, theta + phi)) < 1e-12

    def test_unitary(self):
        r = su2_rotation((0, 1, 0), 1.234)
        assert max_abs(r @ dag(r) - I2) < 1e-12


class TestBlochObservable:
    def test_z_axis(self):
        assert max_abs(bloch_observable((0, 0, 1)).matrix - SIGMA_Z) == 0.0

    def test_x_axis(self):
        assert max_abs(bloch_observable((1, 0, 0)).matrix - SIGMA_X) == 0.0

    def test_even_chain_second_vector(self):
        # (-sin(pi/2), 0, cos(pi/2)) = (-1, 0, 0), the m=1 setting of the
        # four-cycle chain.
        obs = bloch_observable((-math.sin(math.pi / 2), 0.0, math.cos(math.pi / 2)))
        assert max_abs(obs.matrix + SIGMA_X) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(PreconditionError):
            bloch_observable((0.5, 0, 0))

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf")])
    def test_non_finite_rejected_with_plain_norm(self, bad, shown):
        with pytest.raises(PreconditionError, match=rf"^vector has norm {shown}, expected 1$"):
            bloch_observable((bad, 0.0, 0.0))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_numpys(self, seed):
        # The reported norm is np.linalg.norm's to the last bit, near 1 and far from it.
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        v *= (1.0 + rng.choice([1e-13, 2e-12, 0.5])) / np.linalg.norm(v)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) <= 1e-12:
            assert bloch_observable(v).dim == 2
        else:
            with pytest.raises(PreconditionError, match=re.escape(f"norm {norm!r},")):
                bloch_observable(v)


class TestHermEigen:
    """Hermitian spectra through numpy.linalg.eigvalsh, the route of State's PSD check."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_observable_spectrum_is_pm1(self, seed):
        rng = np.random.default_rng(seed)
        w = np.linalg.eigvalsh(random_qubit_observable(rng).matrix)
        assert np.allclose(np.abs(w), 1.0, atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("lowest, accepted", [(-2.0 * PSD_TOL, False), (-0.5 * PSD_TOL, True)])
    def test_psd_tolerance_edge(self, dim, lowest, accepted):
        # A rotated diagonal with one eigenvalue just past or just inside
        # -PSD_TOL, the rest sharing the remaining trace.
        rng = np.random.default_rng(dim)
        u, _ = np.linalg.qr(random_complex(rng, dim))
        spectrum = np.full(dim, (1.0 - lowest) / (dim - 1))
        spectrum[0] = lowest
        rho = u @ np.diag(spectrum) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        if accepted:
            assert State(rho).dim == dim
        else:
            with pytest.raises(PreconditionError, match="negative eigenvalue"):
                State(rho)


class TestPlumbing:
    def test_pauli_anticommutator_vanishes(self):
        assert max_abs(anticommutator(SIGMA_X, SIGMA_Y)) < 1e-15

    def test_commutator_norm(self):
        # [sx, sy] = 2i sz
        assert commutator_norm(SIGMA_X, SIGMA_Y) == pytest.approx(2.0, abs=1e-15)
        assert commutator_norm(SIGMA_Z, SIGMA_Z) == 0.0

    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_trace_cyclicity(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, dim), random_complex(rng, dim)
        assert abs(trace(a @ b) - trace(b @ a)) < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(PreconditionError):
            as_matrix(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(PreconditionError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))


def assert_closed_form_projectors(m) -> None:
    """Observable(m) derives exactly (I + m)/2 and (I - m)/2, byte for byte."""
    m = np.asarray(m, dtype=complex)
    obs = Observable(m)
    eye = identity(m.shape[0])
    assert obs.proj_plus.tobytes() == ((eye + m) / 2.0).tobytes()
    assert obs.proj_minus.tobytes() == ((eye - m) / 2.0).tobytes()
    assert not obs.proj_plus.flags.writeable and not obs.proj_minus.flags.writeable


class TestObservableAndState:
    def test_projectors_of_z(self):
        obs = Observable(SIGMA_Z)
        assert max_abs(obs.proj_plus - np.diag([1, 0])) == 0.0
        assert max_abs(obs.proj_minus - np.diag([0, 1])) == 0.0

    def test_square_root_of_identity_required(self):
        with pytest.raises(PreconditionError):
            Observable(2 * SIGMA_Z)

    def test_non_hermitian_rejected(self):
        # Squares to I but is not Hermitian.
        with pytest.raises(PreconditionError, match="not Hermitian"):
            Observable(np.array([[1.0, 1.0], [0.0, -1.0]]))

    def test_projectors_are_not_arguments(self):
        with pytest.raises(TypeError):
            Observable(SIGMA_Z, np.diag([1.0, 0]), np.diag([0, 1.0]))

    @pytest.mark.parametrize("m", [SIGMA_X, SIGMA_Y, SIGMA_Z], ids=["x", "y", "z"])
    def test_pauli_projectors_are_the_closed_form(self, m):
        assert_closed_form_projectors(m)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bloch_projectors_are_the_closed_form(self, seed):
        n = random_unit3(np.random.default_rng(seed))
        assert_closed_form_projectors(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)

    def test_pentagram_projectors_are_the_closed_form(self):
        for v in pentagram_vectors():
            assert_closed_form_projectors(2.0 * np.outer(v, v) - identity(3))

    def test_state_validation(self):
        with pytest.raises(PreconditionError):
            State(np.diag([0.75, 0.75]))  # trace 1.5
        with pytest.raises(PreconditionError):
            State(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(PreconditionError, match="not Hermitian"):
            State(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_maximally_mixed(self):
        assert max_abs(maximally_mixed(3).matrix - identity(3) / 3) == 0.0

    def test_pure_state_normalizes(self):
        rho = pure_state([2.0, 0.0]).matrix
        assert max_abs(rho - np.diag([1.0, 0.0])) == 0.0

    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 4), real=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pure_state_divides_by_numpys_norm(self, seed, dim, real):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=dim) + (0.0 if real else 1j * rng.normal(size=dim))
        ket = np.asarray(v, dtype=complex)
        w = ket / np.linalg.norm(ket)
        assert pure_state(v).matrix.tobytes() == np.outer(w, w.conj()).tobytes()

    @pytest.mark.parametrize("cls, m", [(Observable, SIGMA_Z), (State, np.diag([0.75, 0.25]))],
                             ids=["observable", "state"])
    def test_input_array_stays_writable_and_unchanged(self, cls, m):
        a = np.array(m, dtype=complex)
        before = a.copy()
        obj = cls(a)
        assert a.flags.writeable
        assert a.tobytes() == before.tobytes()
        assert not obj.matrix.flags.writeable
        assert not np.shares_memory(obj.matrix, a)
        a[0, 0] = 7.0
        assert obj.matrix.tobytes() == before.tobytes()

    def test_module_constants_stay_writable(self):
        for m in (SIGMA_X, SIGMA_Y, SIGMA_Z, I2):
            Observable(m)
            assert m.flags.writeable
        State(I2 / 2.0)
        assert I2.flags.writeable

    @pytest.mark.parametrize("cls, m", [(Observable, SIGMA_X), (State, np.diag([0.5, 0.5]))],
                             ids=["observable", "state"])
    def test_frozen_matrix_cannot_change_through_a_views_base(self, cls, m):
        base = np.zeros((3, 3), dtype=complex)
        base[:2, :2] = m
        view = base[:2, :2]
        obj = cls(view)
        assert view.flags.writeable and base.flags.writeable
        base[:2, :2] = 9.0
        assert obj.matrix.tobytes() == np.asarray(m, dtype=complex).tobytes()
        assert obj.matrix.base is None or not obj.matrix.base.flags.writeable

    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_states_accepted(self, seed, dim):
        rng = np.random.default_rng(seed)
        state = random_state(rng, dim)
        assert real_trace(state.matrix) == pytest.approx(1.0, abs=1e-12)


FUZZ_DTYPES = (np.int64, np.float32, np.float64, np.complex64, np.complex128)
FUZZ_LAYOUTS = ("c", "f", "transposed", "strided", "readonly", "broadcast", "matrix")


def fuzz_observable(rng, dim: int, dtype) -> np.ndarray:
    """A signed involutive permutation: Hermitian, m @ m = I exactly, exact in every dtype.

    Each transposition (i j) carries s or, for complex dtypes, i*s and its conjugate.
    """
    m = np.zeros((dim, dim), dtype=complex)
    order = rng.permutation(dim)
    complex_ok = np.issubdtype(dtype, np.complexfloating)
    k = 0
    while k < dim:
        i = order[k]
        if k + 1 < dim and rng.random() < 0.5:
            j = order[k + 1]
            entry = rng.choice((1, -1)) * (1j if complex_ok and rng.random() < 0.5 else 1)
            m[i, j], m[j, i] = entry, np.conj(entry)
            k += 2
        else:
            m[i, i] = rng.choice((1, -1))
            k += 1
    return m if complex_ok else m.real


def fuzz_state(rng, dim: int, dtype) -> np.ndarray:
    """A density matrix exact in every dtype: a basis projector, a dyadic diagonal or (|i> + i|j>)/sqrt(2)."""
    rho = np.zeros((dim, dim), dtype=complex)
    i = int(rng.integers(dim))
    if np.issubdtype(dtype, np.integer) or dim == 1:
        rho[i, i] = 1.0
    elif np.issubdtype(dtype, np.complexfloating) and rng.random() < 0.5:
        j = (i + 1 + int(rng.integers(dim - 1))) % dim
        rho[i, i] = rho[j, j] = 0.5
        rho[i, j], rho[j, i] = -0.5j, 0.5j
    else:
        weights = rng.permutation([0.5, 0.25, 0.25] + [0.0] * (dim - 3) if dim >= 3 else [0.5, 0.5])
        rho[np.diag_indices(dim)] = weights
    return rho if np.issubdtype(dtype, np.complexfloating) else rho.real


def fuzz_layout(m: np.ndarray, dtype, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """(input, the array that owns its memory) holding the values of ``m`` as ``dtype`` in ``layout``.

    ``m`` is a matrix or a (k, d, d) stack; a stack's "matrix" input is a list
    of ``np.matrix`` views of its slices.
    """
    a = np.array(m, dtype=dtype)
    if layout == "c":
        return a, a
    if layout == "f":
        f = np.asfortranarray(a)
        return f, f
    if layout == "transposed":
        base = np.ascontiguousarray(a.T)
        return base.T, base
    if layout == "strided":
        base = np.zeros((2 * a.shape[0], *a.shape[1:-1], 3 * a.shape[-1]), dtype=dtype)
        base[::2, ..., ::3] = a
        return base[::2, ..., ::3], base
    if layout == "readonly":
        a.setflags(write=False)
        return a, a
    if layout == "broadcast":
        return np.broadcast_to(a, (3, *a.shape))[1], a
    return (np.asmatrix(a) if a.ndim == 2 else [np.asmatrix(x) for x in a]), a


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix inputs
class TestValidatedTypesAliasingFuzz:
    """Seeded fuzz: ``Observable`` and ``State`` neither mutate nor alias the caller's array.

    Every dtype meets every layout: C and F order, a transposed and a strided
    view, a read-only array, a ``np.broadcast_to`` view and an ``np.matrix``.
    """

    @staticmethod
    def cases(dtype, layout, build):
        rng = np.random.default_rng([FUZZ_DTYPES.index(dtype), FUZZ_LAYOUTS.index(layout)])
        for _ in range(6):
            m = build(rng, int(rng.integers(1, 5)), dtype)
            inp, owner = fuzz_layout(m, dtype, layout)
            yield m, inp, owner

    @staticmethod
    def flags(inp, owner) -> tuple:
        return inp.tobytes(), inp.flags.writeable, owner.flags.writeable

    @staticmethod
    def assert_untouched_and_unaliased(obj, inp, owner, flags: tuple):
        assert (inp.tobytes(), inp.flags.writeable, owner.flags.writeable) == flags
        assert not obj.matrix.flags.writeable
        assert not np.shares_memory(obj.matrix, inp) and not np.shares_memory(obj.matrix, owner)
        assert obj.matrix.tobytes() == np.asarray(inp, dtype=complex).tobytes()

    @pytest.mark.parametrize("layout", FUZZ_LAYOUTS)
    @pytest.mark.parametrize("dtype", FUZZ_DTYPES, ids=lambda t: np.dtype(t).name)
    def test_observable(self, dtype, layout):
        for m, inp, owner in self.cases(dtype, layout, fuzz_observable):
            flags = self.flags(inp, owner)
            obs = Observable(inp)
            self.assert_untouched_and_unaliased(obs, inp, owner, flags)
            eye = identity(obs.dim)
            for proj, closed_form in ((obs.proj_plus, (eye + obs.matrix) / 2.0),
                                      (obs.proj_minus, (eye - obs.matrix) / 2.0)):
                assert proj.tobytes() == closed_form.tobytes() and not proj.flags.writeable
                assert not np.shares_memory(proj, owner)
            assert obs.proj_plus is obs.proj_plus and obs.proj_minus is obs.proj_minus
            assert obs.projector(1) is obs.proj_plus and obs.projector(-1) is obs.proj_minus
            if owner.flags.writeable:
                owner[...] = 7
                assert obs.matrix.tobytes() == np.asarray(m, dtype=complex).tobytes()

    @pytest.mark.parametrize("layout", FUZZ_LAYOUTS)
    @pytest.mark.parametrize("dtype", FUZZ_DTYPES, ids=lambda t: np.dtype(t).name)
    def test_state(self, dtype, layout):
        for m, inp, owner in self.cases(dtype, layout, fuzz_state):
            flags = self.flags(inp, owner)
            state = State(inp)
            self.assert_untouched_and_unaliased(state, inp, owner, flags)
            if owner.flags.writeable:
                owner[...] = 7
                assert state.matrix.tobytes() == np.asarray(m, dtype=complex).tobytes()

    @pytest.mark.parametrize("layout", FUZZ_LAYOUTS)
    @pytest.mark.parametrize("dtype", FUZZ_DTYPES, ids=lambda t: np.dtype(t).name)
    def test_invalid_inputs_rejected_untouched(self, dtype, layout):
        rng = np.random.default_rng([7, FUZZ_DTYPES.index(dtype), FUZZ_LAYOUTS.index(layout)])
        for _ in range(4):
            dim = int(rng.integers(2, 5))
            valid = fuzz_observable(rng, dim, dtype)
            skewed = valid.copy()
            skewed[0, 1] += 1  # no longer Hermitian
            bad = [(Observable, skewed, "not Hermitian"), (Observable, 2 * valid, "square to the identity"),
                   (State, skewed, "not Hermitian")]
            if not np.issubdtype(dtype, np.integer):
                broken = valid.copy()
                broken[tuple(rng.integers(dim, size=2))] = rng.choice((np.nan, np.inf, -np.inf))
                bad += [(Observable, broken, "NaN or Inf"), (State, broken, "NaN or Inf")]
            for cls, m, message in bad:
                inp, owner = fuzz_layout(m, dtype, layout)
                flags = self.flags(inp, owner)
                with pytest.raises(PreconditionError, match=message):
                    cls(inp)
                assert self.flags(inp, owner) == flags


class TestMatrixDump:
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, dim) * 10.0 ** rng.integers(-8, 8)
        back = parse_matrix(format_matrix(m))
        assert np.array_equal(back, m)

    def test_reject_garbage(self):
        with pytest.raises(PreconditionError):
            parse_matrix("not a matrix line\n")


def fuzz_stack(rng, dtype) -> np.ndarray:
    """1 to 5 signed involutive permutations of one random dimension, as a (k, d, d) array."""
    dim = int(rng.integers(1, 5))
    return np.array([fuzz_observable(rng, dim, dtype) for _ in range(int(rng.integers(1, 6)))])


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix inputs
class TestObservableStack:
    """``observable_stack`` validates a whole stack as ``Observable`` validates each slice,
    and neither mutates nor aliases the caller's array, over the dtypes and
    layouts of ``TestValidatedTypesAliasingFuzz``.
    """

    @staticmethod
    def state_of(inp, owner) -> tuple:
        parts = inp if isinstance(inp, list) else [inp]
        return tuple(p.tobytes() for p in parts), owner.tobytes(), owner.flags.writeable

    @pytest.mark.parametrize("layout", FUZZ_LAYOUTS)
    @pytest.mark.parametrize("dtype", FUZZ_DTYPES, ids=lambda t: np.dtype(t).name)
    def test_copy_is_frozen_unaliased_and_slice_for_slice_observable(self, dtype, layout):
        rng = np.random.default_rng([11, FUZZ_DTYPES.index(dtype), FUZZ_LAYOUTS.index(layout)])
        for _ in range(6):
            m = fuzz_stack(rng, dtype)
            inp, owner = fuzz_layout(m, dtype, layout)
            before = self.state_of(inp, owner)
            stack = observable_stack(inp)
            assert self.state_of(inp, owner) == before
            assert stack.dtype == complex and stack.shape == m.shape and not stack.flags.writeable
            assert not np.shares_memory(stack, owner)
            assert stack.tobytes() == np.array(m, dtype=complex).tobytes()
            for x, slice_ in zip(m, stack):
                assert Observable(np.array(x, dtype=dtype)).matrix.tobytes() == slice_.tobytes()
            if owner.flags.writeable:
                owner[...] = 7
                assert stack.tobytes() == np.array(m, dtype=complex).tobytes()

    @pytest.mark.parametrize("layout", FUZZ_LAYOUTS)
    @pytest.mark.parametrize("dtype", FUZZ_DTYPES, ids=lambda t: np.dtype(t).name)
    def test_one_bad_slice_raises_observables_message(self, dtype, layout):
        rng = np.random.default_rng([13, FUZZ_DTYPES.index(dtype), FUZZ_LAYOUTS.index(layout)])
        for _ in range(4):
            valid = fuzz_stack(rng, dtype)
            k, dim = valid.shape[0], valid.shape[1]
            bad_slices = [2 * valid[0]]
            if dim > 1:
                skewed = valid[0].copy()
                skewed[0, 1] += 1
                bad_slices.append(skewed)
            if not np.issubdtype(dtype, np.integer):
                broken = valid[0].copy()
                broken[tuple(rng.integers(dim, size=2))] = rng.choice((np.nan, np.inf, -np.inf))
                bad_slices.append(broken)
            for bad in bad_slices:
                with pytest.raises(PreconditionError) as single:
                    Observable(bad)
                m = valid.copy()
                m[int(rng.integers(k))] = bad
                inp, owner = fuzz_layout(m, dtype, layout)
                before = self.state_of(inp, owner)
                with pytest.raises(PreconditionError, match=f"^{re.escape(str(single.value))}$"):
                    observable_stack(inp)
                assert self.state_of(inp, owner) == before

    @pytest.mark.parametrize("tol, shift", [(HERMITIAN_TOL, "hermitian"), (OBSERVABLE_TOL, "square")])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_tolerance_edges_match_observable(self, tol, shift, scale):
        # One slice off by scale * tol, either anti-Hermitian (breaks only the
        # Hermitian check) or a scaled diagonal (breaks only m^2 = I).
        off = np.array(SIGMA_Z, dtype=complex)
        if shift == "hermitian":
            off[0, 1] += scale * tol
        else:
            off *= 1.0 + scale * tol / 2.0
        matrices = [SIGMA_X, off, SIGMA_Y]
        try:
            Observable(off)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                observable_stack(matrices)
            assert scale > 1.0
        else:
            assert observable_stack(matrices)[1].tobytes() == off.tobytes()
            assert scale < 1.0

    @pytest.mark.parametrize(
        "matrices",
        [SIGMA_Z, np.zeros((0, 2, 2)), np.zeros((2, 0, 0)), np.zeros((2, 2, 3)), np.zeros((1, 2, 2, 2)), 1.0],
        ids=["one-matrix", "no-settings", "empty-settings", "non-square", "four-axes", "scalar"],
    )
    def test_bad_shape_rejected(self, matrices):
        with pytest.raises(PreconditionError, match=r"^expected a non-empty \(k, d, d\) stack, got shape"):
            observable_stack(matrices)
