import numpy as np
import pytest

from conv_reference import conv_backward as reference_conv_backward
from conftest import random_module
from padlearn.nn.gradcheck import (layer_gradient_suite, module_gradient_suite,
                                   numeric_grad, rel_err)
from padlearn.nn.layers import (Conv2D, Dense, Flatten, MaxPool2x2, ReLU,
                                ZeroPad, softmax_xent)
from padlearn.nn.network import Network, NetworkSpec, PLACEMENTS, build_tiny4
from padlearn.nn.optim import Adam
from padlearn.padding_module import PaddingModule


class TestConv2D:
    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(1)
        conv = Conv2D(3, 4, ZeroPad(1), rng=rng, dtype=np.float64)
        conv.w[:] = 0.0
        conv.b[:] = np.arange(4.0)
        y = conv.forward(rng.uniform(size=(1, 6, 6, 3)))
        assert y.shape == (1, 6, 6, 4)
        assert np.all(y == np.arange(4.0))

    def test_same_shape_with_unit_pad(self):
        conv = Conv2D(3, 8, ZeroPad(1), rng=np.random.default_rng(2))
        assert conv.forward(np.zeros((2, 10, 12, 3), dtype=np.float32)).shape \
            == (2, 10, 12, 8)

    def test_channel_mismatch(self):
        conv = Conv2D(3, 4, ZeroPad(1), rng=np.random.default_rng(3))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 6, 6, 2), dtype=np.float32))


def _conv_pair(cin, cout, make_padding):
    # two convs with the same weights, each with its own padding
    return [Conv2D(cin, cout, make_padding(), rng=np.random.default_rng(5))
            for _ in range(2)]


_PADDINGS = {
    "zero": lambda c: ZeroPad(1),
    "frozen_module": lambda c: random_module(c, seed=1).eval(),
    "training_module": lambda c: random_module(c, seed=1),
}


class TestConvInputGradientBytes:
    """The interior input gradient, tap by tap, against the padded path of
    ``conv_reference``: dx, dw, db and the module's filters, as bytes."""

    def _check(self, cin, cout, x_shape, make_padding):
        rng = np.random.default_rng(6)
        x = rng.normal(size=x_shape).astype(np.float32)
        new, old = _conv_pair(cin, cout, make_padding)
        y = new.forward(x)
        assert np.array_equal(old.forward(x), y)
        dy = rng.normal(size=y.shape).astype(np.float32)
        want_dx, want_dw, want_db = reference_conv_backward(old, dy)
        dx = new.backward(dy)
        assert dx.shape == x.shape and dx.dtype == want_dx.dtype
        assert dx.tobytes() == want_dx.tobytes()
        assert new.dw.tobytes() == want_dw.tobytes()
        assert new.db.tobytes() == want_db.tobytes()
        # db sums dy's rows one at a time, in row order
        rows = np.add.accumulate(dy.reshape(-1, cout), axis=0)
        assert new.db.tobytes() == rows[-1].tobytes()
        if isinstance(new.padding, PaddingModule):
            assert (new.padding.filters.weights.tobytes()
                    == old.padding.filters.weights.tobytes())

    @pytest.mark.parametrize("padding", sorted(_PADDINGS))
    @pytest.mark.parametrize("side,cin,cout", [(32, 3, 16), (16, 16, 32),
                                               (8, 32, 64), (8, 64, 64)])
    def test_tiny4_conv_shapes(self, side, cin, cout, padding):
        self._check(cin, cout, (64, side, side, cin),
                    lambda: _PADDINGS[padding](cin))

    @pytest.mark.parametrize("padding", ["zero", "training_module"])
    def test_non_square_input(self, padding):
        self._check(5, 7, (3, 10, 14, 5), lambda: _PADDINGS[padding](5))


class TestConvColumnWorkspace:
    """A train-mode forward writes the columns into the conv's own buffer,
    allocated again only when their shape changes; eval mode neither frees
    nor writes it, and no returned array shares its memory."""

    def _conv_and_batches(self):
        # a conv and two batches of one shape
        conv = Conv2D(16, 32, ZeroPad(1), rng=np.random.default_rng(5))
        x = np.random.default_rng(7).normal(size=(2, 4, 16, 16, 16))
        return conv, x.astype(np.float32)

    def test_train_forwards_of_one_shape_reuse_the_buffer(self):
        conv, (x0, x1) = self._conv_and_batches()
        y0 = conv.forward(x0)
        first = conv._cached()
        y1 = conv.forward(x1)
        assert np.shares_memory(first, conv._cached())
        for y in (y0, y1):
            assert not np.shares_memory(y, conv._cached())

    def test_eval_keeps_the_buffer_and_never_writes_it(self):
        conv, (x0, x1) = self._conv_and_batches()
        conv.forward(x0)
        buf = conv._cached()
        saved = buf.tobytes()
        y = conv.eval().forward(x1)
        assert conv._cols is buf and buf.tobytes() == saved
        assert not np.shares_memory(y, buf)
        with pytest.raises(RuntimeError):
            conv.backward(np.ones_like(y))

    @pytest.mark.parametrize("padding", ["zero", "training_module"])
    def test_partial_batch_between_full_ones(self, padding):
        # batches of 64, 8 and 64, as --train-limit 200 gives, through one
        # conv and each through a fresh twin with the same weights: the same
        # dx, dw, db and filter bytes
        make_padding = lambda: _PADDINGS[padding](16)
        conv = Conv2D(16, 32, make_padding(), rng=np.random.default_rng(5))
        rng = np.random.default_rng(8)
        for n in (64, 8, 64):
            twin = Conv2D(16, 32, make_padding(), rng=np.random.default_rng(5))
            if isinstance(conv.padding, PaddingModule):
                twin.padding.filters.weights = conv.padding.filters.weights.copy()
            x = rng.normal(size=(n, 16, 16, 16)).astype(np.float32)
            y = conv.forward(x)
            assert y.tobytes() == twin.forward(x).tobytes()
            assert conv._cached().shape == (n * 16 * 16, 9 * 16)
            dy = rng.normal(size=y.shape).astype(np.float32)
            assert conv.backward(dy).tobytes() == twin.backward(dy).tobytes()
            assert conv.dw.tobytes() == twin.dw.tobytes()
            assert conv.db.tobytes() == twin.db.tobytes()
            if isinstance(conv.padding, PaddingModule):
                assert (conv.padding.filters.weights.tobytes()
                        == twin.padding.filters.weights.tobytes())


class TestSimpleLayers:
    def test_relu_values(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 2.0, 0.0]))
        assert list(out) == [0.0, 2.0, 0.0]

    def test_maxpool_blockwise_max(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = MaxPool2x2().forward(x)
        assert out.shape == (1, 2, 2, 1)
        assert list(out.reshape(-1)) == [5, 7, 13, 15]

    def test_maxpool_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        pool = MaxPool2x2()
        pool.forward(x)
        g = pool.backward(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
        expected = np.zeros((1, 4, 4, 1))
        expected[0, 1, 1, 0] = 1.0
        expected[0, 1, 3, 0] = 2.0
        expected[0, 3, 1, 0] = 3.0
        expected[0, 3, 3, 0] = 4.0
        assert np.array_equal(g, expected)

    def test_maxpool_ties_route_to_first_maximum(self):
        # one 2x2 block per set of tied block positions (row-major 0..3)
        ties = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2, 3)]
        x = np.zeros((1, 2, 2 * len(ties), 1))
        for b, tied in enumerate(ties):
            for k in tied:
                x[0, k // 2, 2 * b + k % 2, 0] = 5.0
        pool = MaxPool2x2()
        assert np.all(pool.forward(x) == 5.0)
        g = pool.backward(np.arange(1.0, len(ties) + 1).reshape(1, 1, -1, 1))
        expected = np.zeros_like(x)
        for b, tied in enumerate(ties):
            expected[0, tied[0] // 2, 2 * b + tied[0] % 2, 0] = b + 1
        assert np.array_equal(g, expected)

    def test_maxpool_matches_blockwise_argmax_loop(self):
        # few distinct values, so most blocks hold ties
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=(2, 6, 8, 3)).astype(np.float32)
        dy = rng.uniform(size=(2, 3, 4, 3)).astype(np.float32)
        pool = MaxPool2x2()
        y = pool.forward(x)
        g = pool.backward(dy)
        want_y = np.zeros_like(dy)
        want_g = np.zeros_like(x)
        for n, i, j, c in np.ndindex(*dy.shape):
            block = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
            k = int(np.argmax(block))
            want_y[n, i, j, c] = block.flat[k]
            want_g[n, 2 * i + k // 2, 2 * j + k % 2, c] = dy[n, i, j, c]
        assert np.array_equal(y, want_y)
        assert np.array_equal(g, want_g)

    def test_maxpool_index_bytes_match_the_where_formula(self):
        # integer values in 0..2, so most blocks hold ties of every kind
        rng = np.random.default_rng(9)
        x = rng.integers(0, 3, size=(4, 8, 10, 5)).astype(np.float32)
        pool = MaxPool2x2()
        pool.forward(x)
        q0, q1, q2, q3 = (x[:, k // 2 :: 2, k % 2 :: 2] for k in range(4))
        top, bottom = np.maximum(q0, q1), np.maximum(q2, q3)
        want = np.where(bottom > top, (q3 > q2).view(np.uint8) + np.uint8(2),
                        (q1 > q0).view(np.uint8))
        assert pool._cache.dtype == want.dtype == np.uint8
        assert pool._cache.tobytes() == want.tobytes()

    def test_maxpool_odd_dims(self):
        with pytest.raises(ValueError):
            MaxPool2x2().forward(np.zeros((1, 3, 4, 1)))

    def test_softmax_xent_uniform_logits(self):
        loss, dlogits = softmax_xent(np.zeros((4, 10)), np.array([0, 1, 2, 3]))
        assert abs(loss - np.log(10.0)) < 1e-12
        assert dlogits.shape == (4, 10)

    def test_softmax_xent_confident_correct(self):
        logits = np.zeros((1, 10))
        logits[0, 7] = 50.0
        loss, _ = softmax_xent(logits, np.array([7]))
        assert loss < 1e-6


    def test_softmax_xent_float32_large_gap_is_finite(self):
        # the picked probability underflows to 0 in float32 at this gap
        logits = np.zeros((2, 10))
        logits[:, 0] = 200.0
        labels = np.array([1, 0])
        for dtype in (np.float32, np.float64):
            loss, dlogits = softmax_xent(logits.astype(dtype), labels)
            assert abs(loss - 100.0) < 1e-4
            assert dlogits.dtype == dtype and np.all(np.isfinite(dlogits))


# one small instance of every layer, with an input of its shape
LAYERS = {
    "conv": (lambda rng: Conv2D(3, 4, ZeroPad(1), rng=rng), (2, 6, 6, 3)),
    "relu": (lambda rng: ReLU(), (2, 4, 4, 3)),
    "pool": (lambda rng: MaxPool2x2(), (2, 4, 6, 3)),
    "flatten": (lambda rng: Flatten(), (2, 4, 4, 3)),
    "dense": (lambda rng: Dense(12, 5, rng=rng), (2, 12)),
}


class TestEvalMode:
    """An eval-mode forward computes the train-mode output and keeps
    nothing for backward."""

    def _layer(self, name):
        rng = np.random.default_rng(5)
        make, shape = LAYERS[name]
        x = rng.normal(size=shape).astype(np.float32)
        return make(rng), x

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_eval_output_matches_train_output(self, name):
        layer, x = self._layer(name)
        y_train = layer.forward(x)
        assert np.array_equal(layer.eval().forward(x), y_train)

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_backward_after_eval_forward_raises(self, name):
        layer, x = self._layer(name)
        y = layer.eval().forward(x)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_backward_without_forward_raises(self, name):
        layer, x = self._layer(name)
        dy = np.ones_like(self._layer(name)[0].forward(x))
        with pytest.raises(RuntimeError):
            layer.backward(dy)

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_eval_drops_the_train_cache(self, name):
        layer, x = self._layer(name)
        y = layer.forward(x)
        layer.eval().train()
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(y))

    # an input each layer refuses: a channel short, an odd side, a feature short
    REFUSED = {"conv": (2, 6, 6, 2), "pool": (2, 5, 6, 3), "dense": (2, 11)}

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_raising_forward_drops_the_cache(self, name):
        layer, x = self._layer(name)
        y = layer.forward(x)
        with pytest.raises(ValueError):
            layer.forward(np.ones(self.REFUSED[name], dtype=np.float32))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("padding", ["zero", "module"])
    def test_tiny4_eval_logits_match_train_logits(self, padding):
        x = np.random.default_rng(6).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        net = build_tiny4(NetworkSpec(padding=padding), seed=0)
        logits = net.train().forward(x)
        assert np.array_equal(net.eval().forward(x), logits)

    def test_network_backward_after_eval_forward_raises(self):
        x = np.random.default_rng(7).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        net = build_tiny4(NetworkSpec(padding="zero"), seed=0)
        _, dlogits = softmax_xent(net.eval().forward(x), np.zeros(4, dtype=int))
        with pytest.raises(RuntimeError):
            net.backward(dlogits)


class TestNoInputGradient:
    """The network's first conv skips its input gradient but not its
    parameter gradients or its padding's local update."""

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(4, 32, 32, 3)).astype(np.float32)
        return x, rng.integers(0, 10, size=4)

    def test_backward_none_returns_none(self):
        x, _ = self._batch(0)
        assert ZeroPad(1).backward(None) is None
        mod = PaddingModule(3)
        mod.forward(x)
        assert mod.backward(None) is None

    def test_eval_mode_backward_none_leaves_filters(self):
        x, _ = self._batch(1)
        mod = random_module(3, seed=1).eval()
        mod.forward(x)
        before = mod.filters.weights.copy()
        assert mod.backward(None) is None
        assert np.array_equal(mod.filters.weights, before)

    def test_first_module_takes_its_local_update(self):
        x, y = self._batch(2)
        net = build_tiny4(NetworkSpec(padding="module", positions="first"), seed=0)
        twin = PaddingModule(3, pad_size=1)
        before = twin.filters.weights.copy()
        twin.forward(x)
        twin.backward(np.zeros((4, 34, 34, 3), dtype=np.float32))
        net.train()
        _, dlogits = softmax_xent(net.forward(x), y)
        assert net.backward(dlogits) is None
        assert not np.array_equal(twin.filters.weights, before)
        assert np.array_equal(net.modules[0].filters.weights, twin.filters.weights)

    def test_parameter_gradients_match_the_full_backward(self):
        x, y = self._batch(3)
        net = build_tiny4(NetworkSpec(padding="zero"), seed=0)
        _, dlogits = softmax_xent(net.forward(x), y)
        net.backward(dlogits)
        skipped = [g.copy() for g in net.grads()]
        _, dlogits = softmax_xent(net.forward(x), y)
        dy = dlogits
        for layer in reversed(net.layers):
            dy = layer.backward(dy)
        assert dy.shape == x.shape
        for got, want in zip(skipped, net.grads()):
            assert np.array_equal(got, want)


def _relu_before_pool(net):
    """The same layers in the order conv-ReLU-pool wherever a pool follows
    a conv."""
    layers = list(net.layers)
    for i in range(len(layers) - 2):
        if (isinstance(layers[i], Conv2D) and isinstance(layers[i + 1], MaxPool2x2)
                and isinstance(layers[i + 2], ReLU)):
            layers[i + 1], layers[i + 2] = layers[i + 2], layers[i + 1]
    return Network(layers, net.modules)


class TestLayerOrder:
    """tiny4 pools before its ReLUs; conv-ReLU-pool gives the same bytes."""

    def test_builds_conv_pool_relu(self):
        net = build_tiny4(NetworkSpec(padding="zero"), seed=0)
        names = [type(l).__name__ for l in net.layers]
        assert names == ["Conv2D", "MaxPool2x2", "ReLU", "Conv2D", "MaxPool2x2", "ReLU",
                         "Conv2D", "ReLU", "Conv2D", "MaxPool2x2", "ReLU",
                         "Flatten", "Dense", "ReLU", "Dense"]

    @pytest.mark.parametrize("padding", ["zero", "module"])
    def test_five_steps_match_relu_before_pool(self, padding):
        spec = NetworkSpec(padding=padding, positions="all")
        new = build_tiny4(spec, seed=4)
        old = _relu_before_pool(build_tiny4(spec, seed=4))
        assert sum(isinstance(l, ReLU) for l in old.layers) == 5
        opts = [Adam(1e-3), Adam(1e-3)]
        rng = np.random.default_rng(10)
        for _ in range(5):
            # whole rows of +0.0 and of -0.0 give tied block maxima at 0
            x = rng.uniform(-1, 1, size=(8, 32, 32, 3)).astype(np.float32)
            x[:, :6] = 0.0
            x[:, 6:12] = -0.0
            y = rng.integers(0, 10, size=8)
            logits = []
            for net, opt in zip((new, old), opts):
                out = net.forward(x)
                logits.append(out.tobytes())
                net.backward(softmax_xent(out, y)[1])
                opt.step(net.params(), net.grads())
            assert logits[0] == logits[1]
            for a, b in zip(new.params() + new.grads(), old.params() + old.grads()):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(new.modules, old.modules):
                assert a.filters.weights.tobytes() == b.filters.weights.tobytes()


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = [np.ones(3), np.full((2, 2), 5.0)]
        before = [p.copy() for p in params]
        opt = Adam()
        opt.step(params, [np.zeros(3), np.zeros((2, 2))])
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_first_step_magnitude(self):
        param = np.array([1.0])
        Adam(learning_rate=1e-3).step([param], [np.array([1.0])])
        assert abs((1.0 - param[0]) - 1e-3) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Adam().step([np.ones(3)], [np.ones(4)])

    def test_in_place_moments_give_the_formula_bytes(self):
        rng = np.random.default_rng(12)
        param = rng.normal(size=(4, 5)).astype(np.float32)
        want = param.copy()
        m = np.zeros_like(want)
        v = np.zeros_like(want)
        opt = Adam(learning_rate=1e-3)
        for t in range(1, 4):
            g = rng.normal(size=param.shape).astype(np.float32)
            opt.step([param], [g])
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat, v_hat = m / (1 - 0.9**t), v / (1 - 0.999**t)
            want -= (1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)).astype(np.float32)
            assert param.tobytes() == want.tobytes()


class TestGradChecks:
    def test_quadratic_bowl_reference(self):
        center = np.array([0.3, -0.7, 1.1])
        x = np.array([1.0, 2.0, 3.0])
        numeric = numeric_grad(lambda: float(np.sum((x - center) ** 2)), x)
        assert rel_err(2 * (x - center), numeric) < 1e-9

    def test_module_loss_gradients(self):
        worst = max(module_gradient_suite(trials=20, seed=1), key=lambda c: c.max_rel_err)
        assert worst.max_rel_err <= 1e-6, worst

    def test_layer_gradients(self):
        worst = max(layer_gradient_suite(seed=0), key=lambda c: c.max_rel_err)
        assert worst.max_rel_err <= 1e-5, worst

    def test_layer_suite_case_list(self):
        assert [c.name for c in layer_gradient_suite()] == [
            "conv.w", "conv.b", "conv.x", "dense.w", "dense.b", "dense.x",
            "maxpool.x", "relu.x", "softmax_xent.logits", "net.conv.w",
            "net.conv.b", "net.dense.w", "net.dense.b", "net.x",
        ]


class TestNetworkAssembly:
    @pytest.mark.parametrize("positions,expect", sorted(PLACEMENTS.items()))
    def test_placement_indices(self, positions, expect):
        net = build_tiny4(NetworkSpec(padding="module", positions=positions), seed=0)
        convs = [l for l in net.layers if isinstance(l, Conv2D)]
        placed = tuple(i for i, c in enumerate(convs)
                       if isinstance(c.padding, PaddingModule))
        assert placed == expect
        assert len(net.modules) == len(expect)

    def test_zero_padding_everywhere(self):
        net = build_tiny4(NetworkSpec(padding="zero"), seed=0)
        convs = [l for l in net.layers if isinstance(l, Conv2D)]
        assert all(isinstance(c.padding, ZeroPad) for c in convs)
        assert net.modules == []

    def test_meaninterp_modules_frozen_and_untracked(self):
        # untracked, so a network-wide train() leaves them in eval mode
        net = build_tiny4(NetworkSpec(padding="meaninterp", positions="all"), seed=0)
        net.train()
        convs = [l for l in net.layers if isinstance(l, Conv2D)]
        assert all(isinstance(c.padding, PaddingModule) and not c.padding.training
                   for c in convs)
        assert net.modules == []

    def test_meaninterp_freezes_the_mean_filter_whatever_the_init(self):
        spec = NetworkSpec(padding="meaninterp", positions="all")
        pads = [l.padding for l in build_tiny4(spec, seed=0).layers
                if isinstance(l, Conv2D)]
        for pad in pads:
            assert np.array_equal(pad.filters.weights,
                                  np.full((pad.filters.channels, 3), 1.0, np.float32) / 3)

    def test_forward_shapes(self):
        net = build_tiny4(NetworkSpec(padding="module", positions="all"), seed=0)
        logits = net.forward(np.zeros((2, 32, 32, 3), dtype=np.float32))
        assert logits.shape == (2, 10)

    def test_module_channel_plan(self):
        net = build_tiny4(NetworkSpec(padding="module", positions="all"), seed=0)
        assert [m.filters.channels for m in net.modules] == [3, 16, 32, 64]
