"""Parameter registry, seeded initialization, and weight-file I/O.

Every learnable array of the fusion network and the trajectory refiner
lives in one flat WeightBundle keyed by dotted names. Matrices are drawn
from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with a deterministic seeded
generator; all biases start at zero; every residual-branch output
projection starts at zero so the untrained network is an identity map on
the state and the untrained tracker is an identity tracker.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .arrayio import read_tensor_record, span, tensor_record
from .errors import MalformedRecord, NonFiniteValue, ShapeMismatch

TFW_MAGIC = b"TFW1"


@dataclass(frozen=True)
class FusionConfig:
    d: int = 64                 # embedding width
    patch: int = 8              # token patch size, px
    radius: int = 1             # CLWF Chebyshev neighborhood radius
    subwindows: int = 5         # event-tensor channel count B
    decoder_channels: tuple[int, int, int] = (64, 32, 16)
    window: int = 16            # refiner temporal window W
    patch_radius: int = 3       # correlation patch radius r
    iterations: int = 3         # refinement iterations M
    corr_hidden: int = 64
    corr_embed: int = 32
    motion_freqs: int = 32      # rel-motion sinusoid frequency count
    refiner_width: int = 64
    refiner_blocks: int = 2

    def __post_init__(self):
        """Reject an empty width, grid or loop: radius and patch_radius
        must be >= 0, window >= 2 and every other field, each of the 3
        decoder channel counts too, >= 1."""
        if len(self.decoder_channels) != 3:
            raise ShapeMismatch(f"FusionConfig.decoder_channels = "
                                f"{self.decoder_channels}: 3 levels needed")
        floors = {"radius": 0, "patch_radius": 0, "window": 2}
        for f in fields(self):
            low = floors.get(f.name, 1)
            value = getattr(self, f.name)
            if min(value if isinstance(value, tuple) else (value,)) < low:
                raise ShapeMismatch(
                    f"FusionConfig.{f.name} = {value}: this width, size or "
                    f"iteration count must be >= {low}")


def _attention_specs(prefix: str, d: int
                     ) -> list[tuple[str, tuple[int, ...], str]]:
    """wq, wk, wv, bq, bk, bv, then the zero-init output projection wo, bo
    of one attention block; the seeded draws follow this order."""
    return ([(f"{prefix}.w{n}", (d, d), "uniform") for n in "qkv"]
            + [(f"{prefix}.b{n}", (d,), "zeros") for n in "qkv"]
            + [(f"{prefix}.wo", (d, d), "zeros"), (f"{prefix}.bo", (d,), "zeros")])


def parameter_specs(cfg: FusionConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init) triples; init is uniform|zeros|ones."""
    d = cfg.d
    k = (2 * cfg.radius + 1) ** 2
    taps = (2 * cfg.patch_radius + 1) ** 2
    c0, c1, c2 = cfg.decoder_channels
    rin = 3 * cfg.corr_embed + 1 + 4 * cfg.motion_freqs
    rw = cfg.refiner_width
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("phi_i.w", (cfg.patch ** 2, d), "uniform"),
        ("phi_i.b", (d,), "zeros"),
        ("phi_e.w", (cfg.patch ** 2 * cfg.subwindows, d), "uniform"),
        ("phi_e.b", (d,), "zeros"),
        # CLWF: event tokens query neighboring image tokens; the readout
        # is added without an output projection
        *_attention_specs("clwf", d)[:6],
        ("clwf.bias_table", (k,), "zeros"),
        # state updater: one pre-norm cross-attention block
        ("upd.ln_state.g", (d,), "ones"),
        ("upd.ln_state.b", (d,), "zeros"),
        ("upd.ln_events.g", (d,), "ones"),
        ("upd.ln_events.b", (d,), "zeros"),
        *_attention_specs("upd", d),
        # temporal self-attention across the window
        *_attention_specs("tattn", d),
        # pyramid decoder
        ("dec.w0", (d, c0), "uniform"),
        ("dec.b0", (c0,), "zeros"),
        ("dec.w1", (c0, c1), "uniform"),
        ("dec.b1", (c1,), "zeros"),
        ("dec.w2", (c1, c2), "uniform"),
        ("dec.b2", (c2,), "zeros"),
    ]
    # per-level correlation MLPs
    for lvl in range(3):
        specs += [
            (f"corr.l{lvl}.w1", (taps * taps, cfg.corr_hidden), "uniform"),
            (f"corr.l{lvl}.b1", (cfg.corr_hidden,), "zeros"),
            (f"corr.l{lvl}.w2", (cfg.corr_hidden, cfg.corr_embed), "uniform"),
            (f"corr.l{lvl}.b2", (cfg.corr_embed,), "zeros"),
        ]
    # trajectory refiner transformer
    specs += [("ref.in.w", (rin, rw), "uniform"), ("ref.in.b", (rw,), "zeros")]
    for blk in range(cfg.refiner_blocks):
        specs += [
            (f"ref.b{blk}.ln1.g", (rw,), "ones"),
            (f"ref.b{blk}.ln1.b", (rw,), "zeros"),
            *_attention_specs(f"ref.b{blk}.attn", rw),
            (f"ref.b{blk}.ln2.g", (rw,), "ones"),
            (f"ref.b{blk}.ln2.b", (rw,), "zeros"),
            (f"ref.b{blk}.mlp.w1", (rw, 2 * rw), "uniform"),
            (f"ref.b{blk}.mlp.b1", (2 * rw,), "zeros"),
            (f"ref.b{blk}.mlp.w2", (2 * rw, rw), "zeros"),
            (f"ref.b{blk}.mlp.b2", (rw,), "zeros"),
        ]
    specs += [("ref.head.w", (rw, 3), "zeros"), ("ref.head.b", (3,), "zeros")]
    return specs


@dataclass
class WeightBundle:
    params: dict[str, np.ndarray]
    config: FusionConfig
    seed: int

    def __post_init__(self):
        """Reject a non-finite parameter, naming its record."""
        for name, value in self.params.items():
            if not np.isfinite(value).all():
                raise NonFiniteValue(
                    f"weights record {name!r} holds a non-finite value")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    @classmethod
    def initialize(cls, config: FusionConfig = FusionConfig(), seed: int = 0
                   ) -> "WeightBundle":
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape, init in parameter_specs(config):
            if init == "uniform":
                bound = 1.0 / np.sqrt(shape[0])
                params[name] = rng.uniform(-bound, bound, size=shape)
            elif init == "zeros":
                params[name] = np.zeros(shape)
            elif init == "ones":
                params[name] = np.ones(shape)
            else:
                raise ValueError(init)
        return cls(params=params, config=config, seed=seed)


def save_weights(bundle: WeightBundle) -> bytes:
    """Tagged container: magic, then per-parameter records of
    (u32 name length, UTF-8 name, tensor record) in name order."""
    chunks = [TFW_MAGIC]
    for name in sorted(bundle.params):
        nb = name.encode("utf-8")
        chunks += [struct.pack("<I", len(nb)), nb,
                   *tensor_record(bundle.params[name])]
    return b"".join(chunks)


def load_weights(data: bytes, config: FusionConfig = FusionConfig(),
                 seed: int = 0) -> WeightBundle:
    """Parse a TFW1 container and validate shapes against the config. A
    missing magic, a record cut short, a name that is not UTF-8, a shape
    numpy cannot hold or a non-finite value raises MalformedRecord."""
    if data[:4] != TFW_MAGIC:
        raise MalformedRecord(f"bad weights magic {data[:4]!r}")
    pos = 4
    params: dict[str, np.ndarray] = {}
    while pos < len(data):
        at = span(data, pos, 4, "weights record")
        (nlen,) = struct.unpack_from("<I", data, pos)
        pos = span(data, at, nlen, "weights record name")
        try:
            name = data[at:pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"weights name at byte {at} is not UTF-8") from exc
        params[name], pos = read_tensor_record(data, pos,
                                               f"weights record {name!r}")
    try:
        bundle = WeightBundle(params=params, config=config, seed=seed)
    except NonFiniteValue as exc:
        raise MalformedRecord(str(exc)) from exc
    expected = {name: shape for name, shape, _ in parameter_specs(config)}
    if set(params) != set(expected):
        missing = set(expected) - set(params)
        extra = set(params) - set(expected)
        raise ShapeMismatch(f"parameter set mismatch: missing={sorted(missing)} "
                            f"extra={sorted(extra)}")
    for name, arr in params.items():
        if tuple(arr.shape) != tuple(expected[name]):
            raise ShapeMismatch(
                f"{name}: shape {arr.shape} != expected {expected[name]}")
    return bundle
