"""Model configuration, the non-finite failures, input errors and output files, without numpy.

``ModelConfig`` and the three exceptions live here so that the commands
that never touch the model (``augment``, ``vocab``) and the scoring layers
load no numpy; ``bigphon.model`` and ``bigphon.training`` re-export them.

``reading`` owns the rule that an input error names its file: every reader
(manifest, rule and classification tables, vocabulary, checkpoint, feature
array) parses inside it, and none formats its own path into a message.
``writing`` is its mirror for output: every output file is written to a
hidden temporary name beside its path and moved onto it whole, so it
appears whole or not at all; ``write_lines`` puts the line format (UTF-8,
newline-ended) and the `# k=v` provenance header in one place.

``BLAS_THREAD_VARS`` names the variables that set the BLAS/OpenMP thread
count, which changes training bytes; set them before numpy loads.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class NonFiniteLoss(ArithmeticError):
    pass


class NonFiniteGradient(ArithmeticError):
    pass


class NonFiniteParameter(ArithmeticError):
    pass


@contextmanager
def reading(path):
    """Put `path: ` in front of the message of a ValueError (any subclass)
    or NonFiniteParameter raised inside, keeping its type and attributes.
    Invalid UTF-8 reads `path: line N: invalid UTF-8 byte 0xXX`."""
    try:
        yield
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()  # the decoder's offset is within one chunk
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = io.StringIO(raw[: exc.start].decode("utf-8"), newline=None).read()
            raise ValueError(f"{path}: line {before.count(chr(10)) + 1}: "
                             f"invalid UTF-8 byte 0x{raw[exc.start]:02x}") from None
        raise
    except (ValueError, NonFiniteParameter) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@contextmanager
def writing(path, mode="w"):
    """Yield a file ("w": UTF-8 text with newline line ends, "wb": bytes) that
    becomes `path` only if the block ends without an error. It is created
    as `.NAME.XXXXXXXX.tmp` beside `path` (`open` mode "x": O_EXCL, 0o666
    under the umask), flushed, fsync'd and `os.replace`d onto `path`; on
    any exception it is removed. An OSError names `path`, never the
    temporary name. The directory is not fsync'd: after a crash `path`
    holds the old file or the new one, never part of one."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode.replace("w", "x"), **text) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_lines(path, lines, header=()):
    """Write `# {item}` for each header item, then each line, each ending in a newline."""
    with writing(path) as f:
        f.writelines(f"# {item}\n" for item in header)
        f.writelines(f"{line}\n" for line in lines)


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 200
    heads: int = 2
    d_ff: int = 400
    encoder_layers: int = 4
    decoder_layers: int = 1
    epochs: int = 100
    checkpoint_interval: int = 10
    max_target_len: int = 400
    seed: int = 0
    learning_rate: float = 1e-3
    batch_size: int = 32
    dropout: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise TypeError(f"{f.name} must be {kind.__name__}, got {value!r}")
        for name in ("d_model", "heads", "d_ff", "encoder_layers", "decoder_layers",
                     "epochs", "max_target_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.checkpoint_interval <= 0 or self.epochs % self.checkpoint_interval:
            raise ValueError("checkpoint_interval must divide epochs")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
