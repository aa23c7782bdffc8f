import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relurand.errors import FormatError
from relurand.network import (
    Architecture,
    Network,
    bottleneck_decomposition,
    build_network,
    forward,
    grad_difference_decomposition,
    gradient,
    lazy_network,
    load_network,
    network_from_weights,
    save_network,
)
from relurand.rng import RngStream


def random_net(seed, d=20, widths=(16, 12)):
    rng = RngStream(seed)
    return build_network(Architecture(d, widths), rng), rng


class TestBuild:
    def test_shapes_and_std(self):
        net, _ = random_net(0, d=3, widths=(2,))
        assert net.weights[0].shape == (2, 3)
        assert net.weights[1].shape == (1, 2)

    def test_frobenius_concentration(self):
        # E ||W_1||_F^2 = d_1 d_0 / d_0 = d_1
        for seed in range(5):
            net, _ = random_net(seed, d=100, widths=(100,))
            assert 0.8 <= np.sum(net.weights[0] ** 2) / 100 <= 1.2

    def test_integer_dimensions_stored_as_int(self):
        arch = Architecture(np.int64(5), (np.int64(3), 4))
        assert arch.dims == (5, 3, 4, 1) and all(type(v) is int for v in arch.dims)
        net = build_network(arch, RngStream(3))
        assert [W.shape for W in net.weights] == [(3, 5), (4, 3), (1, 4)]

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_weight_count_must_be_depth_plus_one(self, count):
        # Architecture(4, (3, 2)) has l = 2 hidden layers: exactly 3 matrices
        arch = Architecture(4, (3, 2))
        shapes = [(3, 4), (2, 3), (1, 2), (1, 1)]
        weights = tuple(np.ones(shape) for shape in shapes[:count])
        with pytest.raises(ValueError, match="expected 3"):
            Network(arch, weights)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: Architecture(3, (2, 0)), "all dimensions must be >= 1",
                     id="zero-width"),
        # a float dimension is refused, never truncated
        pytest.param(lambda: Architecture(5, (2.7,)), "hidden width 1 must be an integer, got 2.7",
                     id="float-width"),
        pytest.param(lambda: Architecture(5.5, (3,)), "input_dim must be an integer, got 5.5",
                     id="float-input-dim"),
        pytest.param(lambda: Architecture(4, (3, True)), "hidden width 2 must be an integer",
                     id="bool-width"),
        pytest.param(lambda: Network(Architecture(2, (3,)), (np.ones((3, 2)), np.ones((1, 4)))),
                     r"weight 2 has shape \(1, 4\), expected \(1, 3\)", id="output-shape"),
        pytest.param(lambda: network_from_weights([np.ones((3, 2)), np.ones((2, 3))]),
                     "output layer must have a single row", id="two-row-output"),
    ])
    def test_rejected_shapes(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestForward:
    def test_hand_relu(self):
        net = network_from_weights([[[1.0]], [[1.0]]])
        assert forward(net, np.array([2.0])).output == 2.0
        assert forward(net, np.array([-2.0])).output == 0.0

    @pytest.mark.parametrize("x, message", [
        pytest.param([1.0, 2.0], "shape", id="wrong-shape"),
    ])
    def test_rejected_input(self, x, message):
        net = network_from_weights([[[1.0]], [[1.0]]])
        with pytest.raises(ValueError, match=message):
            forward(net, np.array(x))

    def test_positive_homogeneity(self):
        net, rng = random_net(1)
        x = rng.normal(20)
        t1 = forward(net, x)
        t2 = forward(net, 3.7 * x)
        assert t2.output == pytest.approx(3.7 * t1.output, rel=1e-12)
        for m1, m2 in zip(t1.masks, t2.masks):
            assert np.array_equal(m1, m2)

    def test_zero_preactivation_is_inactive(self):
        # both units tie at x = 0: inactive, as relu(0) = 0 and the ray walk say
        net = network_from_weights([[[1.0], [-1.0]], [[1.0, 1.0]]])
        t = forward(net, np.array([0.0]))
        assert np.array_equal(t.masks[0], [0.0, 0.0])
        assert t.output == 0.0

    def test_determinism(self):
        # a second pass on a lazy net queries only revealed directions, so
        # it reveals nothing new, draws nothing and repeats the first trace
        rng = RngStream(5, 2)
        net = lazy_network(Architecture(20, (16, 12)), rng)
        x = RngStream(5).normal(20)

        def state():
            philox = rng._gen.bit_generator.state
            return ([W.revealed for W in net.weights[:-1]],
                    philox["state"]["counter"].tolist(), philox["buffer_pos"])

        a = forward(net, x)
        after_first = state()
        b = forward(net, x)
        assert state() == after_first
        assert a.output == b.output
        for name in ("preactivations", "masks", "postactivations"):
            assert all(np.array_equal(m, n) for m, n in zip(getattr(a, name), getattr(b, name)))

    def test_mask_invariants(self):
        net, rng = random_net(3)
        t = forward(net, rng.normal(20))
        for pre, mask, post in zip(t.preactivations, t.masks, t.postactivations):
            assert np.array_equal(mask == 1.0, pre > 0.0)  # no exact ties hit
            assert np.array_equal(post, mask * pre)


class TestGradient:
    def test_linear_net(self):
        w = np.array([[1.0, -2.0, 0.5]])
        net = network_from_weights([w])
        x = np.array([1.0, 1.0, 1.0])
        t = forward(net, x)
        assert np.array_equal(gradient(net, t), w[0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_euler_identity(self, seed):
        # a dense net, and a lazy one of the same shape
        net, rng = random_net(seed)
        x = rng.normal(20)
        for net in (net, lazy_network(net.arch, rng)):
            t = forward(net, x)
            g = gradient(net, t)
            assert abs(t.output - g @ x) <= 1e-10 * (abs(t.output) + 1e-30)

    def test_finite_differences_with_mask_guard(self):
        net, rng = random_net(7, d=50, widths=(40, 40))
        x = rng.sphere_point(50, norm=np.sqrt(50))
        t = forward(net, x)
        g = gradient(net, t)
        h = 1e-5 * np.linalg.norm(x)
        checked = 0
        for k in range(100):
            u = rng.sphere_point(50)
            tp = forward(net, x + h * u)
            tm = forward(net, x - h * u)
            same = all(np.array_equal(a, b) and np.array_equal(a, c)
                       for a, b, c in zip(t.masks, tp.masks, tm.masks))
            if not same:
                continue
            checked += 1
            fd = (tp.output - tm.output) / (2 * h)
            assert fd == pytest.approx(g @ u, rel=1e-5, abs=1e-12)
        assert checked > 50


class TestGradDecomposition:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sum_is_gradient_difference(self, seed):
        net, rng = random_net(seed, d=24, widths=(20, 16, 12))
        x = rng.normal(24)
        y = x + 0.5 * rng.normal(24)
        tx = forward(net, x)
        ty = forward(net, y)
        dec = grad_difference_decomposition(net, tx, ty)
        lhs = sum(dec.terms)
        rhs = dec.grad_x - dec.grad_y
        tol = 1e-10 * (np.linalg.norm(dec.grad_x) + np.linalg.norm(dec.grad_y) + 1e-30)
        assert np.linalg.norm(lhs - rhs) <= tol

    def test_identical_traces_give_zero(self):
        net, rng = random_net(11)
        t = forward(net, rng.normal(20))
        dec = grad_difference_decomposition(net, t, t)
        assert all(np.all(term == 0.0) for term in dec.terms)

    def test_agreeing_layer_mask_gives_exact_zero(self):
        net, rng = random_net(12)
        x = rng.normal(20)
        tx = forward(net, x)
        ty = forward(net, x * 2.0)  # same masks by homogeneity
        dec = grad_difference_decomposition(net, tx, ty)
        for j, term in enumerate(dec.terms):
            if np.array_equal(tx.masks[j], ty.masks[j]):
                assert np.all(term == 0.0)


class TestBottleneck:
    def test_examples(self):
        dec = bottleneck_decomposition(Architecture(10, (5, 3, 7)))
        assert dec.indices == (2, 1, 0)
        assert dec.widths == (3, 5, 10)
        assert bottleneck_decomposition(Architecture(4, (8, 16))).indices == (0,)
        assert bottleneck_decomposition(Architecture(10, (8, 6, 4))).indices == (3, 2, 1, 0)

    @given(st.lists(st.integers(1, 50), min_size=0, max_size=8), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, widths, d):
        arch = Architecture(d, tuple(widths))
        dec = bottleneck_decomposition(arch)
        all_w = (d, *widths)
        assert dec.indices[-1] == 0
        ws = dec.widths
        assert all(ws[j] < ws[j + 1] for j in range(len(ws) - 1))
        for j in range(len(dec.indices) - 1):
            hi, lo = dec.indices[j], dec.indices[j + 1]
            assert all(all_w[k] >= all_w[lo] for k in range(lo, hi))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net, _ = random_net(31, d=9, widths=(6, 4))
        path = tmp_path / "net.rrnn"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.arch == net.arch
        assert loaded.master_seed == net.master_seed
        for a, b in zip(net.weights, loaded.weights):
            assert np.array_equal(a, b)

    def test_writes_weights_without_copying(self, tmp_path):
        net, _ = random_net(34, d=200, widths=(300, 300))
        tracemalloc.start()
        try:
            save_network(net, tmp_path / "net.rrnn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(W.nbytes for W in net.weights), peak

    def test_truncated_file(self, tmp_path):
        net, _ = random_net(32)
        path = tmp_path / "net.rrnn"
        save_network(net, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_network(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.rrnn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_network(path)

    def test_bad_version(self, tmp_path):
        net, _ = random_net(33)
        path = tmp_path / "net.rrnn"
        save_network(net, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="99"):
            load_network(path)

    @pytest.mark.parametrize("mode_byte", [2, 7, 255])
    def test_bad_mode_byte(self, tmp_path, mode_byte):
        path = tmp_path / "net.rrnn"
        save_network(network_from_weights([[[1.0]], [[1.0]]]), path)
        data = bytearray(path.read_bytes())
        data[8] = mode_byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"^unsupported mode byte {mode_byte} "):
            load_network(path)

    def test_output_dimension_must_be_one(self, tmp_path):
        net, _ = random_net(35, d=3, widths=(2,))
        path = tmp_path / "net.rrnn"
        save_network(net, path)
        data = bytearray(path.read_bytes())
        data[22:26] = struct.pack("<I", 2)  # the last of the dims (3, 2, 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"bad dimension table \(3, 2, 2\)"):
            load_network(path)


class TestFormatVersions:
    @staticmethod
    def v1_bytes(net):
        # version 1 layout: no l, no stream id
        dims = net.arch.dims
        return b"".join([
            b"RRNN", struct.pack("<I", 1), bytes([0, 0]),
            struct.pack(f"<{len(dims)}I", *dims),
            *(np.ascontiguousarray(W, dtype="<f8").tobytes() for W in net.weights),
            struct.pack("<Q", net.master_seed),
        ])

    @pytest.mark.parametrize("widths", [(), (6,), (6, 4, 5)])
    def test_v1_read(self, tmp_path, widths):
        # version 1 is no longer read; `relurand sample` regenerates such a file
        net = build_network(Architecture(9, widths), RngStream(41, 7))
        path = tmp_path / "v1.rrnn"
        path.write_bytes(self.v1_bytes(net))
        with pytest.raises(FormatError, match="version 1 "):
            load_network(path)

    # the tie bytes once written for the randomized, ties-to-one and ties-to-zero policies
    @pytest.mark.parametrize("old_tie_byte", [
        pytest.param(0, id="TiePolicy.RANDOMIZED"),
        pytest.param(1, id="TiePolicy.TIES_TO_ONE"),
        pytest.param(2, id="TiePolicy.TIES_TO_ZERO"),
    ])
    def test_v2_round_trip(self, tmp_path, old_tie_byte):
        net = build_network(Architecture(5, (3, 1, 4)), RngStream(42, 12345))
        path = tmp_path / "v2.rrnn"
        save_network(net, path)
        data = path.read_bytes()
        assert struct.unpack("<I", data[4:8]) == (2,)      # version
        assert data[8] == 0                                # mode byte
        assert data[9] == 0                                # tie byte
        assert struct.unpack("<I", data[10:14]) == (3,)    # l, stored
        # a file saved under an old policy differs only in its tie byte;
        # it is refused as it stands and loads once that byte is cleared
        old = bytearray(data)
        old[9] = old_tie_byte
        path.write_bytes(bytes(old))
        if old_tie_byte:
            with pytest.raises(FormatError, match=f"tie byte {old_tie_byte}"):
                load_network(path)
            old[9] = 0
            path.write_bytes(bytes(old))
        # mode byte 1, as `sample --mode depth-collapse` once wrote: the
        # stored weights load as they are, and save again with mode byte 0
        for mode_byte in (0, 1):
            old[8] = mode_byte
            path.write_bytes(bytes(old))
            loaded = load_network(path)
            assert loaded.arch == net.arch
            assert (loaded.master_seed, loaded.stream_id) == (42, 12345)
            assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))
            again = tmp_path / "again.rrnn"
            save_network(loaded, again)
            assert again.read_bytes() == data

    def test_nonzero_tie_byte_rejected(self, tmp_path):
        # files once recorded ties-to-one (1) and ties-to-zero (2) policies
        path = tmp_path / "ties.rrnn"
        save_network(network_from_weights([[[1.0]], [[1.0]]]), path)
        data = bytearray(path.read_bytes())
        for tie_byte in (1, 2):
            data[9] = tie_byte
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError, match=f"tie byte {tie_byte}"):
                load_network(path)

    def test_lazy_network_is_not_saved(self, tmp_path):
        # the check precedes open(): no file is created, none is overwritten
        net = lazy_network(Architecture(4, (3,)), RngStream(1, 2))
        path = tmp_path / "lazy.rrnn"
        with pytest.raises(ValueError, match="weight 1 is a LazyGaussian"):
            save_network(net, path)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match="weight 1"):
            save_network(net, path)
        assert path.read_bytes() == b"kept"

    def test_v2_truncated(self, tmp_path):
        net, _ = random_net(34, d=3, widths=(2,))
        path = tmp_path / "net.rrnn"
        save_network(net, path)
        data = path.read_bytes()
        # inside the header, l, the dims, each weight matrix, the seed, the stream id
        for cut in (6, 11, 14, 20, 50, 80, len(data) - 12, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_network(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            load_network(path)
