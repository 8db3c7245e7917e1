"""A PyTorch-like mini training framework over the CUDA runtime interface.

The paper trains LeNet, ResNet50, VGG16 and DenseNet with PyTorch, with the
whole training program inside the TEE (section VI-A).  This module is the
PyTorch stand-in: explicit-layer networks whose forward/backward/SGD steps
are sequences of ``cudaLaunchKernel`` calls against the common runtime
interface — so the *call pattern* that exercises sRPC (H2D copies, many
launches, a sync per step) matches real training.

Models are scaled-down analogs (8x8 or 16x16 inputs, few channels); each
model carries a ``sim_scale`` that times its kernels at the real model's
flop count (see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.datasets import Dataset


def _init(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


class Layer:
    """A layer with device-resident parameters and activations."""

    def build(self, rt, input_shape: Tuple[int, ...], rng) -> Tuple[int, ...]:
        """Allocate device buffers; returns the output shape."""
        raise NotImplementedError

    def forward(self, rt, x_handle: int) -> int:
        raise NotImplementedError

    def backward(self, rt, gy_handle: int) -> int:
        raise NotImplementedError

    def params(self) -> List[Tuple[int, int]]:
        """(param_handle, grad_handle) pairs for the optimizer."""
        return []

    def free(self, rt) -> None:
        for handle in self._handles:
            rt.cudaFree(handle)

    def _alloc(self, rt, shape, *, data: Optional[np.ndarray] = None) -> int:
        handle = rt.cudaMalloc(tuple(shape))
        if data is not None:
            rt.cudaMemcpyH2D(handle, data)
        if not hasattr(self, "_handles"):
            self._handles: List[int] = []
        self._handles.append(handle)
        return handle


class Conv2d(Layer):
    """Valid-padding convolution with bias."""

    def __init__(self, out_channels: int, kernel: int = 3, stride: int = 1) -> None:
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride

    def build(self, rt, input_shape, rng):
        n, cin, h, w = input_shape
        k, s = self.kernel, self.stride
        ho, wo = (h - k) // s + 1, (w - k) // s + 1
        self.in_shape = input_shape
        fan_in = cin * k * k
        self.hw = self._alloc(rt, (self.out_channels, cin, k, k),
                              data=_init(rng, (self.out_channels, cin, k, k), fan_in))
        self.hb = self._alloc(rt, (self.out_channels,),
                              data=np.zeros(self.out_channels, np.float32))
        self.hx = None
        self.hy = self._alloc(rt, (n, self.out_channels, ho, wo))
        self.hyb = self._alloc(rt, (n, self.out_channels, ho, wo))
        self.hgw = self._alloc(rt, (self.out_channels, cin, k, k))
        self.hgb = self._alloc(rt, (self.out_channels,))
        self.hgx = self._alloc(rt, input_shape)
        return (n, self.out_channels, ho, wo)

    def forward(self, rt, x_handle):
        self.hx = x_handle
        rt.cudaLaunchKernel("conv2d_fwd", [x_handle, self.hw, self.hy], stride=self.stride)
        rt.cudaLaunchKernel("bias_add", [self.hy, self.hb, self.hyb])
        return self.hyb

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("bias_grad", [gy_handle, self.hgb])
        rt.cudaLaunchKernel(
            "conv2d_bwd_w", [self.hx, self.hw, gy_handle, self.hgw], stride=self.stride
        )
        rt.cudaLaunchKernel(
            "conv2d_bwd_x", [self.hx, self.hw, gy_handle, self.hgx], stride=self.stride
        )
        return self.hgx

    def params(self):
        return [(self.hw, self.hgw), (self.hb, self.hgb)]


class Linear(Layer):
    """Fully connected layer with bias; input (N, nin)."""

    def __init__(self, out_features: int) -> None:
        self.out_features = out_features

    def build(self, rt, input_shape, rng):
        n, nin = input_shape
        self.hw = self._alloc(rt, (nin, self.out_features),
                              data=_init(rng, (nin, self.out_features), nin))
        self.hb = self._alloc(rt, (self.out_features,),
                              data=np.zeros(self.out_features, np.float32))
        self.hx = None
        self.hy = self._alloc(rt, (n, self.out_features))
        self.hyb = self._alloc(rt, (n, self.out_features))
        self.hgw = self._alloc(rt, (nin, self.out_features))
        self.hgb = self._alloc(rt, (self.out_features,))
        self.hgx = self._alloc(rt, (n, nin))
        return (n, self.out_features)

    def forward(self, rt, x_handle):
        self.hx = x_handle
        rt.cudaLaunchKernel("matmul", [x_handle, self.hw, self.hy])
        rt.cudaLaunchKernel("bias_add", [self.hy, self.hb, self.hyb])
        return self.hyb

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("bias_grad", [gy_handle, self.hgb])
        rt.cudaLaunchKernel("matmul_tn", [self.hx, gy_handle, self.hgw])
        rt.cudaLaunchKernel("matmul_nt", [gy_handle, self.hw, self.hgx])
        return self.hgx

    def params(self):
        return [(self.hw, self.hgw), (self.hb, self.hgb)]


class ReLU(Layer):
    def build(self, rt, input_shape, rng):
        self.hx = None
        self.hy = self._alloc(rt, input_shape)
        self.hgx = self._alloc(rt, input_shape)
        return input_shape

    def forward(self, rt, x_handle):
        self.hx = x_handle
        rt.cudaLaunchKernel("relu_fwd", [x_handle, self.hy])
        return self.hy

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("relu_bwd", [self.hx, gy_handle, self.hgx])
        return self.hgx


class AvgPool(Layer):
    def __init__(self, k: int = 2) -> None:
        self.k = k

    def build(self, rt, input_shape, rng):
        n, c, h, w = input_shape
        self.hy = self._alloc(rt, (n, c, h // self.k, w // self.k))
        self.hgx = self._alloc(rt, input_shape)
        return (n, c, h // self.k, w // self.k)

    def forward(self, rt, x_handle):
        rt.cudaLaunchKernel("avgpool_fwd", [x_handle, self.hy], k=self.k)
        return self.hy

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("avgpool_bwd", [gy_handle, self.hgx], k=self.k)
        return self.hgx


class GlobalAvgPool(Layer):
    def build(self, rt, input_shape, rng):
        n, c, h, w = input_shape
        self.in_shape = input_shape
        self.hx = None
        self.hy = self._alloc(rt, (n, c))
        self.hgx = self._alloc(rt, input_shape)
        return (n, c)

    def forward(self, rt, x_handle):
        self.hx = x_handle
        rt.cudaLaunchKernel("global_avgpool_fwd", [x_handle, self.hy])
        return self.hy

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("global_avgpool_bwd", [self.hx, gy_handle, self.hgx])
        return self.hgx


class Flatten(Layer):
    def build(self, rt, input_shape, rng):
        n = input_shape[0]
        flat = int(np.prod(input_shape[1:]))
        self.in_shape = input_shape
        self.hy = self._alloc(rt, (n, flat))
        self.hgx = self._alloc(rt, input_shape)
        return (n, flat)

    def forward(self, rt, x_handle):
        rt.cudaLaunchKernel("copy_reshape", [x_handle, self.hy])
        return self.hy

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("copy_reshape", [gy_handle, self.hgx])
        return self.hgx


class BatchNorm2d(Layer):
    """Training-mode batch normalization over (N, H, W) per channel."""

    def build(self, rt, input_shape, rng):
        n, c, h, w = input_shape
        self.hgamma = self._alloc(rt, (c,), data=np.ones(c, np.float32))
        self.hbeta = self._alloc(rt, (c,), data=np.zeros(c, np.float32))
        self.hy = self._alloc(rt, input_shape)
        self.hxhat = self._alloc(rt, input_shape)
        self.hinv_std = self._alloc(rt, (c,))
        self.hgx = self._alloc(rt, input_shape)
        self.hdgamma = self._alloc(rt, (c,))
        self.hdbeta = self._alloc(rt, (c,))
        return input_shape

    def forward(self, rt, x_handle):
        rt.cudaLaunchKernel(
            "bn_fwd", [x_handle, self.hgamma, self.hbeta, self.hy, self.hxhat, self.hinv_std]
        )
        return self.hy

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel(
            "bn_bwd",
            [self.hxhat, self.hinv_std, self.hgamma, gy_handle,
             self.hgx, self.hdgamma, self.hdbeta],
        )
        return self.hgx

    def params(self):
        return [(self.hgamma, self.hdgamma), (self.hbeta, self.hdbeta)]


class ResidualBlock(Layer):
    """conv-bn-relu-conv-bn + identity skip (the ResNet building block).

    Keeps channel count and spatial size (kernel 1 convolutions, so valid
    padding preserves shape)."""

    def __init__(self, channels: int) -> None:
        self.channels = channels
        self.inner: List[Layer] = [
            Conv2d(channels, kernel=1),
            BatchNorm2d(),
            ReLU(),
            Conv2d(channels, kernel=1),
            BatchNorm2d(),
        ]

    def build(self, rt, input_shape, rng):
        shape = input_shape
        for layer in self.inner:
            shape = layer.build(rt, shape, rng)
        if shape != input_shape:
            raise ValueError("residual block must preserve shape")
        self.hy = self._alloc(rt, input_shape)
        self.hgx = self._alloc(rt, input_shape)
        return input_shape

    def forward(self, rt, x_handle):
        h = x_handle
        for layer in self.inner:
            h = layer.forward(rt, h)
        rt.cudaLaunchKernel("vecadd", [h, x_handle, self.hy])
        return self.hy

    def backward(self, rt, gy_handle):
        g = gy_handle
        for layer in reversed(self.inner):
            g = layer.backward(rt, g)
        rt.cudaLaunchKernel("vecadd", [g, gy_handle, self.hgx])
        return self.hgx

    def params(self):
        out = []
        for layer in self.inner:
            out.extend(layer.params())
        return out

    def free(self, rt):
        for layer in self.inner:
            layer.free(rt)
        super().free(rt)


class DenseBlock(Layer):
    """DenseNet block: append ``growth`` new channels computed from the
    input, output = concat(input, new)."""

    def __init__(self, growth: int) -> None:
        self.growth = growth
        self.conv = Conv2d(growth, kernel=1)

    def build(self, rt, input_shape, rng):
        n, c, h, w = input_shape
        self.in_channels = c
        conv_shape = self.conv.build(rt, input_shape, rng)
        self.hy = self._alloc(rt, (n, c + self.growth, h, w))
        self.hg_in = self._alloc(rt, input_shape)
        self.hg_new = self._alloc(rt, conv_shape)
        self.hgx = self._alloc(rt, input_shape)
        return (n, c + self.growth, h, w)

    def forward(self, rt, x_handle):
        new = self.conv.forward(rt, x_handle)
        rt.cudaLaunchKernel("concat_c", [x_handle, new, self.hy])
        return self.hy

    def backward(self, rt, gy_handle):
        rt.cudaLaunchKernel("slice_c", [gy_handle, self.hg_in], offset=0)
        rt.cudaLaunchKernel("slice_c", [gy_handle, self.hg_new], offset=self.in_channels)
        g_from_conv = self.conv.backward(rt, self.hg_new)
        rt.cudaLaunchKernel("vecadd", [self.hg_in, g_from_conv, self.hgx])
        return self.hgx

    def params(self):
        return self.conv.params()

    def free(self, rt):
        self.conv.free(rt)
        super().free(rt)


@dataclass
class Model:
    """A sequential network bound to one runtime and one batch shape."""

    name: str
    layers: Sequence[Layer]
    sim_scale: float
    input_shape: Tuple[int, ...] = ()
    num_classes: int = 10
    built: bool = False

    def build(self, rt, input_shape: Tuple[int, ...], *, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.input_shape = tuple(input_shape)
        self.h_input = rt.cudaMalloc(input_shape)
        shape = input_shape
        for layer in self.layers:
            shape = layer.build(rt, shape, rng)
        if shape != (input_shape[0], self.num_classes):
            raise ValueError(f"model {self.name!r} output shape {shape} != logits")
        n = input_shape[0]
        self.h_onehot = rt.cudaMalloc((n, self.num_classes))
        self.h_loss = rt.cudaMalloc((1,))
        self.h_grad = rt.cudaMalloc((n, self.num_classes))
        self.built = True

    def forward_backward(self, rt, images: np.ndarray, onehot: np.ndarray) -> float:
        """Forward + backward pass leaving gradients on the device; returns
        the batch loss (a sync point, as real loops that log the loss)."""
        rt.cudaMemcpyH2D(self.h_input, images)
        rt.cudaMemcpyH2D(self.h_onehot, onehot)
        scale = {"sim_scale": self.sim_scale}
        h = self.h_input
        for layer in self.layers:
            h = self._fwd(rt, layer, h, scale)
        rt.cudaLaunchKernel("softmax_xent", [h, self.h_onehot, self.h_loss, self.h_grad], **scale)
        g = self.h_grad
        for layer in reversed(self.layers):
            g = self._bwd(rt, layer, g, scale)
        return float(rt.cudaMemcpyD2H(self.h_loss)[0])

    def sgd_step(self, rt, lr: float) -> None:
        """Apply SGD using the gradients left by :meth:`forward_backward`."""
        scale = {"sim_scale": self.sim_scale}
        for p, gp in self.all_params():
            rt.cudaLaunchKernel("sgd_update", [p, gp], lr=lr, **scale)

    def train_step(self, rt, images: np.ndarray, onehot: np.ndarray, lr: float) -> float:
        """One complete SGD step; returns the batch loss."""
        loss = self.forward_backward(rt, images, onehot)
        self.sgd_step(rt, lr)
        return loss

    def predict(self, rt, images: np.ndarray) -> np.ndarray:
        rt.cudaMemcpyH2D(self.h_input, images)
        scale = {"sim_scale": self.sim_scale}
        h = self.h_input
        for layer in self.layers:
            h = self._fwd(rt, layer, h, scale)
        return rt.cudaMemcpyD2H(h)

    def _fwd(self, rt, layer, h, scale):
        return layer.forward(_ScaleInjector(rt, scale), h)

    def _bwd(self, rt, layer, g, scale):
        return layer.backward(_ScaleInjector(rt, scale), g)

    def all_params(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def free(self, rt) -> None:
        for layer in self.layers:
            layer.free(rt)
        for handle in (self.h_input, self.h_onehot, self.h_loss, self.h_grad):
            rt.cudaFree(handle)
        self.built = False


class Optimizer:
    """Base optimizer: device-resident state, kernel-launched updates."""

    def prepare(self, rt, model: "Model") -> None:
        """Allocate per-parameter state buffers (once per model)."""

    def step(self, rt, model: "Model", lr: float) -> None:
        raise NotImplementedError

    def _scaled(self, rt, model: "Model"):
        return _ScaleInjector(rt, {"sim_scale": model.sim_scale})


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def step(self, rt, model, lr):
        srt = self._scaled(rt, model)
        for p, g in model.all_params():
            srt.cudaLaunchKernel("sgd_update", [p, g], lr=lr)


class Momentum(Optimizer):
    """SGD with momentum (velocity buffers live on the device)."""

    def __init__(self, mu: float = 0.9) -> None:
        self.mu = mu
        self._velocity: Dict[int, int] = {}

    def prepare(self, rt, model):
        for p, _g in model.all_params():
            if p not in self._velocity:
                self._velocity[p] = rt.cudaMalloc(rt.debug_gpu_buffer(p).shape)

    def step(self, rt, model, lr):
        srt = self._scaled(rt, model)
        for p, g in model.all_params():
            srt.cudaLaunchKernel(
                "momentum_update", [p, g, self._velocity[p]], lr=lr, mu=self.mu
            )


class Adam(Optimizer):
    """Adam with bias correction; m/v buffers live on the device."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: Dict[int, int] = {}
        self._v: Dict[int, int] = {}
        self._t = 0

    def prepare(self, rt, model):
        for p, _g in model.all_params():
            if p not in self._m:
                shape = rt.debug_gpu_buffer(p).shape
                self._m[p] = rt.cudaMalloc(shape)
                self._v[p] = rt.cudaMalloc(shape)

    def step(self, rt, model, lr):
        self._t += 1
        srt = self._scaled(rt, model)
        for p, g in model.all_params():
            srt.cudaLaunchKernel(
                "adam_update", [p, g, self._m[p], self._v[p]],
                lr=lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps, t=self._t,
            )


class _ScaleInjector:
    """Adds the model's sim_scale to every launch a layer makes."""

    def __init__(self, rt, scale: Dict[str, float]) -> None:
        self._rt = rt
        self._scale = scale

    def cudaLaunchKernel(self, kernel, handles, **params):
        return self._rt.cudaLaunchKernel(kernel, handles, **{**self._scale, **params})

    def __getattr__(self, name):
        return getattr(self._rt, name)


# --------------------------------------------------------------- the models


def lenet(num_classes: int = 10) -> Model:
    """LeNet-2 analog (trained on MNIST in the paper)."""
    return Model(
        name="lenet",
        layers=[
            Conv2d(4, kernel=3), ReLU(), AvgPool(2),
            Conv2d(8, kernel=3), ReLU(),
            Flatten(), Linear(num_classes),
        ],
        sim_scale=4000.0,  # real LeNet on 28x28 MNIST vs this 8x8 analog
        num_classes=num_classes,
    )


def resnet50(num_classes: int = 10, blocks: int = 3) -> Model:
    """ResNet50 analog: stem + residual tower (trained on CIFAR-10)."""
    layers: List[Layer] = [Conv2d(8, kernel=1), ReLU()]
    layers += [ResidualBlock(8) for _ in range(blocks)]
    layers += [GlobalAvgPool(), Linear(num_classes)]
    return Model(name="resnet50", layers=layers, sim_scale=2_500.0, num_classes=num_classes)


def vgg16(num_classes: int = 10) -> Model:
    """VGG16 analog: stacked conv-relu with pooling (trained on CIFAR-10)."""
    return Model(
        name="vgg16",
        layers=[
            Conv2d(8, kernel=3), ReLU(),
            Conv2d(16, kernel=3), ReLU(), AvgPool(2),
            Flatten(), Linear(32), ReLU(), Linear(num_classes),
        ],
        sim_scale=4_000.0,
        num_classes=num_classes,
    )


def densenet(num_classes: int = 100, blocks: int = 3, growth: int = 4) -> Model:
    """DenseNet analog: stem + dense tower (trained on ImageNet)."""
    layers: List[Layer] = [Conv2d(8, kernel=1), ReLU()]
    layers += [DenseBlock(growth) for _ in range(blocks)]
    layers += [GlobalAvgPool(), Linear(num_classes)]
    return Model(name="densenet", layers=layers, sim_scale=3_500.0, num_classes=num_classes)


MODEL_BUILDERS = {
    "lenet": lenet,
    "resnet50": resnet50,
    "vgg16": vgg16,
    "densenet": densenet,
}

# Every kernel name training can launch (for the cubin image).
TRAINING_KERNELS: Tuple[str, ...] = (
    "matmul", "matmul_tn", "matmul_nt",
    "conv2d_fwd", "conv2d_bwd_w", "conv2d_bwd_x",
    "bias_add", "bias_grad",
    "relu_fwd", "relu_bwd",
    "avgpool_fwd", "avgpool_bwd",
    "global_avgpool_fwd", "global_avgpool_bwd",
    "copy_reshape", "concat_c", "slice_c", "vecadd",
    "bn_fwd", "bn_bwd",
    "softmax_xent", "sgd_update", "momentum_update", "adam_update",
)


def train(
    rt,
    model: Model,
    dataset: Dataset,
    *,
    epochs: int = 1,
    batch_size: int = 16,
    lr: float = 0.05,
    seed: int = 0,
    optimizer: Optional[Optimizer] = None,
) -> List[float]:
    """Train ``model`` on ``dataset``; returns per-epoch mean losses.

    ``optimizer`` defaults to plain SGD; pass :class:`Momentum` or
    :class:`Adam` for stateful optimizers (their state lives on device).
    """
    if not model.built:
        first = next(dataset.batches(batch_size))
        model.build(rt, (batch_size,) + first[0].shape[1:], seed=seed)
    if optimizer is not None:
        optimizer.prepare(rt, model)
    history: List[float] = []
    for _ in range(epochs):
        losses = []
        for images, onehot in dataset.batches(batch_size):
            loss = model.forward_backward(rt, images, onehot)
            if optimizer is None:
                model.sgd_step(rt, lr)
            else:
                optimizer.step(rt, model, lr)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def spatial_sharing_throughput(
    system,
    tenants: int,
    *,
    steps: int = 6,
    batch_size: int = 16,
) -> float:
    """Aggregate training throughput (steps per simulated second) with
    ``tenants`` mEnclaves spatially sharing one GPU (figure 11a).

    All tenants open GPU contexts (so every kernel runs under k-way SM
    contention), one representative tenant's step duration is measured, and
    — the tenants being symmetric and truly concurrent on hardware — the
    aggregate is ``tenants / step_duration``.  The single-clock simulation
    cannot overlap the tenants' host loops itself, so concurrency is
    composed analytically from the contended per-step time.
    """
    from repro.workloads.datasets import synthetic_mnist

    data = synthetic_mnist(batch_size * 2)
    runtimes, models = [], []
    for t in range(tenants):
        rt = system.runtime(cuda_kernels=TRAINING_KERNELS, owner=f"tenant-{t}")
        model = lenet()
        model.build(rt, (batch_size, 1, 8, 8), seed=t)
        runtimes.append(rt)
        models.append(model)
    batches = list(data.batches(batch_size))
    # Warm-up: every tenant issues one step so all streams are live.
    for rt, model in zip(runtimes, models):
        model.train_step(rt, batches[0][0], batches[0][1], 0.05)
    start = system.clock.now
    for i in range(steps):
        images, onehot = batches[i % len(batches)]
        models[0].train_step(runtimes[0], images, onehot, 0.05)
    step_duration = (system.clock.now - start) / steps
    for rt in runtimes:
        system.release(rt)
    return tenants / step_duration * 1e6  # steps per simulated second
