"""Hypothesis properties over a wider domain than the fixed grids.

Every strategy is derandomized and the example database is off, so a
run is reproducible and the whole module stays within a few seconds.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cetsim import reconstruct
from cetsim.engine import run_circuit, run_circuits, run_layout
from cetsim.errors import DomainError
from cetsim.model import (
    CHAIN,
    TRIANGLE,
    ModelParams,
    exact_expectation,
    gibbs_distribution,
    gibbs_tables,
)
from cetsim.noise import DecayProfile
from cetsim.pauli import PauliString
from cetsim.reconstruct import LABELS
from cetsim.sweep import NoiseOptions, SweepSpec, run_point, run_sweep
from cetsim.synth import Circuit, Gate, build_circuit, gibbs_angles, layout

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

#: Draws reach the largest betas; the guard's rejections are discarded.
_WIDE_BETA = st.one_of(st.just(0.0), st.floats(-12.0, 308.0).map(lambda e: 10.0**e))
_J = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.05, 5.0)).map(
    lambda pair: pair[0] * pair[1]
)
_H = st.floats(-50.0, 50.0)


#: None draws the triangle, an integer an open chain of that many spins
_CLUSTER = st.one_of(st.none(), st.integers(1, 9))


def _admitted(make, *args, **kwargs):
    """make(*args, **kwargs), or the example discarded if the guard rejects it."""
    try:
        return make(*args, **kwargs)
    except DomainError:
        reject()


@st.composite
def _points(draw, fields=_H, cluster=_CLUSTER):
    """A triangle or an open chain at any beta the ModelParams guard admits."""
    h, J, n = draw(fields), draw(_J), draw(cluster)
    if n is None:
        return _admitted(ModelParams, J=J, h=h, beta=draw(_WIDE_BETA))
    return _admitted(ModelParams, J=J, h=h, beta=draw(_WIDE_BETA), n=n, topology=CHAIN)


class TestCircuitEqualsOracle:
    @_SETTINGS
    @given(_points())
    def test_probabilities_match_gibbs_weights(self, params):
        probs = run_circuit(build_circuit(params)).probabilities()
        assert np.abs(probs - gibbs_distribution(params).weights).max() <= 1e-10

    @_SETTINGS
    @given(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).filter(any),
           st.integers(1, 4))
    def test_asymmetric_weights_reproduce_themselves(self, values, rows):
        # no symmetry of the triangle's energy hides a misplaced control:
        # rows of rotated, unequal weights each come back from the circuit
        weights = np.array([np.roll(values, row) for row in range(rows)])
        weights /= weights.sum(axis=1, keepdims=True)
        angles = gibbs_angles(weights, ModelParams(J=1.0, h=0.0, beta=1.0))
        amps = run_layout(3, layout(TRIANGLE, 3, False), angles.tolist())
        probs = amps * amps
        assert np.abs(probs - weights).max() <= 1e-15


def _circuit_probabilities(params):
    return run_circuit(build_circuit(params)).probabilities().tobytes()


class TestCompiledLayoutEqualsCircuit:
    """The sweep's compiled layout prepares each point's populations byte
    for byte as the point's Gate-built circuit does."""

    @_SETTINGS
    @given(st.lists(_WIDE_BETA, min_size=1, max_size=3),
           st.lists(_H, min_size=1, max_size=3), _J)
    def test_triangle_sweep_populations(self, betas, fields, J):
        spec = _admitted(SweepSpec, betas=tuple(betas), fields=tuple(fields), J=J)
        prepared = []

        def readouts(populations, _real=reconstruct.readouts):
            prepared.append(populations)
            return _real(populations)

        with mock.patch.object(reconstruct, "readouts", readouts):
            run_sweep(spec)
        points = [ModelParams(J=J, h=h, beta=beta) for beta in betas for h in fields]
        assert len(prepared[0]) == len(points)
        for row, params in zip(prepared[0], points):
            assert row.tobytes() == _circuit_probabilities(params)

    @_SETTINGS
    @given(st.integers(1, 12), st.lists(st.tuples(_WIDE_BETA, _H), min_size=1, max_size=3),
           _J)
    def test_chain_populations(self, n, points, J):
        # run_sweep's steps on a chain, which SweepSpec does not name
        chain = [_admitted(ModelParams, J=J, h=h, beta=beta, n=n, topology=CHAIN)
                 for beta, h in points]
        weights = gibbs_tables(chain[0], [p.beta for p in chain], [p.h for p in chain])[1]
        amps = run_layout(n, layout(CHAIN, n, False), gibbs_angles(weights, chain[0]))
        assert amps.dtype == np.float64
        for row, params in zip(amps * amps, chain):
            assert row.tobytes() == _circuit_probabilities(params)

    @_SETTINGS
    @given(_points(cluster=st.one_of(st.none(), st.integers(3, 9))), st.data())
    def test_probe_circuits_apply_the_pauli_string(self, params, data):
        letters = data.draw(st.permutations("XYZ" + "I" * (params.n - 3)))
        prep = build_circuit(params, include_probe=True)
        paulis = tuple(
            Gate(kind="pauli", target=site + 1, controls=(0,), letter=letter)
            for site, letter in enumerate(letters) if letter != "I"
        )
        circuit = Circuit(qubit_count=prep.qubit_count, gates=prep.gates + paulis)
        amps = run_circuits(circuit, [circuit.angles])[0] * math.sqrt(2.0)
        psi = run_circuit(build_circuit(params)).amplitudes
        half = 1 << params.n
        # criterion 05's tolerance: |0>|psi> + |1>P|psi>, over sqrt(2)
        assert np.abs(amps[:half] - psi).max() < 1e-10
        assert np.abs(amps[half:] - PauliString(tuple(letters)).apply(psi)).max() < 1e-10


class TestSignsEqualIndexBits:
    """Energies and diagonal expectations, bit for bit, from spins read off
    each configuration index with a scalar loop."""

    @_SETTINGS
    @given(_points(), st.integers(0, 2**9 - 1))
    def test_energies_and_diagonal_expectations(self, params, mask):
        n = params.n
        spins = [
            [1 - 2 * ((k >> (n - 1 - i)) & 1) for i in range(n)]
            for k in range(2**n)
        ]
        # J a + h b from the integer bond sum a and field sum b
        energies = [
            params.J * sum(z[i] * z[j] for i, j in params.bonds()) + params.h * sum(z)
            for z in spins
        ]
        e = gibbs_tables(params, [params.beta], [params.h])[0][0]
        assert e.tobytes() == np.array(energies).tobytes()

        sites = [i for i in range(n) if mask >> i & 1]
        signs = []
        for z in spins:
            sign = 1.0
            for i in sites:
                sign *= z[i]
            signs.append(sign)
        op = PauliString(tuple("Z" if i in sites else "I" for i in range(n)))
        weights = gibbs_distribution(params).weights
        assert exact_expectation(params, op) == complex(float(np.dot(weights, signs)))


def _assert_rows_close(left, right, tol=1e-12):
    assert (left.beta, left.h, left.J) == (right.beta, right.h, right.J)
    assert abs(left.log_partition - right.log_partition) <= tol * max(
        1.0, abs(right.log_partition)
    )
    assert left.provenances == right.provenances
    for a, b in zip(left.results, right.results):
        for label in LABELS:
            assert abs(a.measurements.value(label) - b.measurements.value(label)) <= tol
        assert np.abs(a.populations - b.populations).max() <= tol
        for name in ("magnetization", "pair_correlation", "triple_correlation"):
            assert abs(getattr(a, name) - getattr(b, name)) <= tol
        assert abs(a.entropy - b.entropy) <= tol


class TestSweepEqualsPoint:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(_WIDE_BETA, min_size=1, max_size=4),
        st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
        _J,
        st.floats(0.0, 1.0),
    )
    def test_rows_match_run_point_on_every_stage(self, betas, fields, J, eta):
        noise = NoiseOptions(eta=eta, recover="auto")
        spec = _admitted(SweepSpec, betas=tuple(betas), fields=tuple(fields), J=J,
                         noise=noise)
        dataset = run_sweep(spec)
        points = [(beta, h) for beta in betas for h in fields]
        assert len(dataset.rows) == len(points)
        for row, (beta, h) in zip(dataset.rows, points):
            _assert_rows_close(row, run_point(ModelParams(J=J, h=h, beta=beta), noise))


_ORDINARY = st.sampled_from((0.0, 1.0, -1.0, 3.5))
#: Values at the edges of the ModelParams guard, for beta, h and J alike
_EDGE = st.sampled_from((math.nan, math.inf, -math.inf, 1e308, 5e307, 1e300,
                         -1e300, 1e-300, -0.0))


@st.composite
def _edge_grids(draw):
    """(betas, fields, J) of ordinary values with one or two edge values put
    in, each at any place of an axis or as J, so that one bad value among
    good ones is a common draw."""
    betas, fields = (draw(st.lists(_ORDINARY, min_size=1, max_size=3)) for _ in "bh")
    J = draw(_ORDINARY)
    for _ in range(draw(st.integers(1, 2))):
        axis = draw(st.sampled_from((betas, fields, None)))
        if axis is None:
            J = draw(_EDGE)
        else:
            axis.insert(len(axis) - draw(st.integers(0, len(axis))), draw(_EDGE))
    return tuple(betas), tuple(fields), J


def _row_major_error(betas, fields, J):
    """(type, text) of what ModelParams raises at the grid's first bad point,
    scanned beta outer, h inner; None when every point is admitted."""
    for beta in betas:
        for h in fields:
            try:
                ModelParams(J=J, h=h, beta=beta)
            except DomainError as exc:
                return type(exc), str(exc)
    return None


class TestSweepSpecGuard:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_edge_grids())
    @example(((1.0,), (1.0, math.nan), 1.0))  # a NaN h that max(fields, key=abs) skips
    @example(((1e300,), (0.0, 1e300, 5e307), 1.0))  # overflows first at h=1e300
    def test_raises_the_row_major_scans_error(self, grid):
        betas, fields, J = grid
        try:
            SweepSpec(betas=betas, fields=fields, J=J)
        except DomainError as exc:
            raised = type(exc), str(exc)
        else:
            raised = None
        assert raised == _row_major_error(betas, fields, J)


class TestAutoRecoveryIsBounded:
    @_SETTINGS
    @given(
        _points(fields=st.floats(-6.0, 6.0), cluster=st.none()),
        st.one_of(
            st.floats(0.0, 1.0),
            st.lists(st.floats(0.0, 50.0), min_size=7, max_size=7),
        ),
    )
    def test_recovered_readouts_are_expectations(self, params, model):
        if isinstance(model, list):
            table = {label: DecayProfile(tau=tau) for label, tau in zip(LABELS, model)}
            noise = NoiseOptions(decay=table, recover="auto")
        else:
            noise = NoiseOptions(eta=model, recover="auto")
        row = run_point(params, noise)
        recovered = row.results[-1]
        for label in LABELS:
            assert abs(recovered.measurements.value(label).real) <= 1.0 + 1e-12
