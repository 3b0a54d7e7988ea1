"""Parameter registry, seeded initialization, and weight-file I/O.

Every learnable array of the fusion network and the trajectory refiner
lives in one flat WeightBundle keyed by dotted names, shaped by a
FusionConfig (a run's model.* settings) and the fixed widths below. A
bundle holds exactly parameter_specs(config)'s names and shapes, as
float64 arrays, and checks them when it is built. Matrices are drawn
from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with a deterministic
seeded generator; all biases start at zero; every residual-branch output
projection starts at zero so the untrained network is an identity map on
the state and the untrained tracker is an identity tracker.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .arrayio import read_tensor_record, span, tensor_record
from .errors import Domain, MalformedRecord, NonFiniteValue, ShapeMismatch
from .representations import DEFAULT_SUBWINDOWS

TFW_MAGIC = b"TFW1"


# fixed widths: the pyramid decoder's 3 levels, the correlation MLPs' hidden
# and output layers, the motion encoding's frequencies, the refiner's width
# and block count
DECODER_CHANNELS = (64, 32, 16)
CORR_HIDDEN = 64
CORR_EMBED = 32
MOTION_FREQS = 32
REFINER_WIDTH = 64
REFINER_BLOCKS = 2


@dataclass(frozen=True)
class FusionConfig:
    d: int = 64                 # embedding width
    patch: int = 8              # token patch size, px
    radius: int = 1             # CLWF Chebyshev neighborhood radius
    subwindows: int = DEFAULT_SUBWINDOWS  # event-tensor channel count B
    window: int = 16            # refiner temporal window W
    patch_radius: int = 3       # correlation patch radius r
    iterations: int = 3         # refinement iterations M

    def __post_init__(self):
        """Check each field against FUSION_DOMAINS and keep it as an int."""
        for f in fields(self):
            object.__setattr__(self, f.name, FUSION_DOMAINS[f.name].check(
                f"FusionConfig.{f.name}", getattr(self, f.name),
                ShapeMismatch))


# each field's domain: a width, size or count below 1 is empty, a radius
# may be 0, and the refiner window advances by W // 2 >= 1
FUSION_DOMAINS = {
    **{f.name: Domain(1, integer=True) for f in fields(FusionConfig)},
    "radius": Domain(0, integer=True), "patch_radius": Domain(0, integer=True),
    "window": Domain(2, integer=True)}
# the seed of WeightBundle.initialize's draws: np.random.default_rng takes
# any integer >= 0
SEED_DOMAIN = Domain(0, integer=True)


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
    c0, c1, c2 = DECODER_CHANNELS
    rin = 3 * CORR_EMBED + 1 + 4 * MOTION_FREQS
    rw = REFINER_WIDTH
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
            (f"corr.l{lvl}.w1", (taps * taps, CORR_HIDDEN), "uniform"),
            (f"corr.l{lvl}.b1", (CORR_HIDDEN,), "zeros"),
            (f"corr.l{lvl}.w2", (CORR_HIDDEN, CORR_EMBED), "uniform"),
            (f"corr.l{lvl}.b2", (CORR_EMBED,), "zeros"),
        ]
    # trajectory refiner transformer
    specs += [("ref.in.w", (rin, rw), "uniform"), ("ref.in.b", (rw,), "zeros")]
    for blk in range(REFINER_BLOCKS):
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
        """Take each record as a float64 array (one that already is one is
        kept as it is) and check it holds numbers, all finite; then check
        the names and shapes are parameter_specs(config)'s."""
        for name, value in self.params.items():
            try:
                value = self.params[name] = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ShapeMismatch(
                    f"weights record {name!r} does not hold numbers") from exc
            if not np.isfinite(value).all():
                raise NonFiniteValue(
                    f"weights record {name!r} holds a non-finite value")
        expected = {name: shape
                    for name, shape, _ in parameter_specs(self.config)}
        if set(self.params) != set(expected):
            missing = set(expected) - set(self.params)
            extra = set(self.params) - set(expected)
            raise ShapeMismatch(f"parameter set mismatch: missing={sorted(missing)} "
                                f"extra={sorted(extra)}")
        for name, arr in self.params.items():
            if arr.shape != expected[name]:
                raise ShapeMismatch(
                    f"{name}: shape {arr.shape} != expected {expected[name]}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    @classmethod
    def initialize(cls, config: FusionConfig = FusionConfig(), seed: int = 0
                   ) -> "WeightBundle":
        seed = SEED_DOMAIN.check("WeightBundle.seed", seed, ShapeMismatch)
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape, init in parameter_specs(config):
            if init == "uniform":
                bound = 1.0 / np.sqrt(shape[0])
                params[name] = rng.uniform(-bound, bound, size=shape)
            elif init == "zeros":
                params[name] = np.zeros(shape)
            else:
                params[name] = np.ones(shape)
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
    """Parse a TFW1 container into a WeightBundle, which checks its names
    and shapes against config. A missing magic, a record cut short, a name
    that is not UTF-8 or repeats an earlier record's, a shape numpy cannot
    hold or a non-finite value raises MalformedRecord."""
    if data[:4] != TFW_MAGIC:
        raise MalformedRecord(f"bad weights magic {data[:4]!r}")
    pos = 4
    params: dict[str, np.ndarray] = {}
    while pos < len(data):
        start, at = pos, span(data, pos, 4, "weights record")
        (nlen,) = struct.unpack_from("<I", data, pos)
        pos = span(data, at, nlen, "weights record name")
        try:
            name = data[at:pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"weights name at byte {at} is not UTF-8") from exc
        if name in params:
            raise MalformedRecord(f"weights record {name!r} at byte {start} "
                                  f"repeats an earlier record")
        params[name], pos = read_tensor_record(data, pos,
                                               f"weights record {name!r}")
    try:
        return WeightBundle(params=params, config=config, seed=seed)
    except NonFiniteValue as exc:
        raise MalformedRecord(str(exc)) from exc
