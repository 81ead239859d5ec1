"""Zero-copy shared-memory transport for matrices and packed programs.

The wall-clock serving tier fans work out to engine worker *processes*, and
the unit of sharing between the front-end and a worker is exactly the data
the repo already keeps packed in flat NumPy arrays: a COO matrix (three
parallel arrays) and a preprocessed program's columnar buffer export
(:meth:`~repro.preprocess.ColumnarProgram.to_buffers`).  This module moves
those arrays over :mod:`multiprocessing.shared_memory` without copying:

* :func:`share_arrays` packs a dict of named arrays into one shared-memory
  segment and returns a :class:`ShmBlock` that *owns* the segment,
* the block's picklable :class:`ShmDescriptor` travels over a pipe to the
  worker, which calls :meth:`ShmDescriptor.attach` and gets NumPy views
  straight onto the shared pages — the 100 MB matrix is mapped, not pickled,
* on top of that sit round-trip codecs for the two payload shapes:
  :func:`share_coo` / :func:`coo_from_block` and :func:`share_program` /
  :func:`program_from_block`,
* and a per-run vector arena (:func:`share_vectors` / :func:`vector_slot`)
  that carries every request's x to a worker and its y back, so the
  control messages never hold a vector.

Ownership is explicit: the creating process owns the segment and is the only
one allowed to :meth:`~ShmBlock.unlink` it; attachers just
:meth:`~ShmBlock.close` their mapping.  The ``multiprocessing`` resource
tracker is shared across the process tree (both fork and spawn children
inherit the parent's tracker fd), and it stores registrations as a set — an
attach in a worker re-registers the same name idempotently, and the owner's
single ``unlink`` balances the books.  Nothing here second-guesses the
tracker; segments leak only if the owner dies before unlinking, which is
exactly when the tracker's shutdown sweep *should* reclaim them.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..formats import COOMatrix
from ..preprocess import SerpensProgram
from ..preprocess.serialize import program_from_buffers, reorder_stats_array

__all__ = [
    "ArraySpec",
    "ShmBlock",
    "ShmDescriptor",
    "attach_block",
    "install_auditor",
    "coo_from_block",
    "coo_to_arrays",
    "program_from_block",
    "program_to_arrays",
    "share_arrays",
    "share_coo",
    "share_program",
    "share_vectors",
    "vector_slot",
]

#: Byte alignment of each array inside a segment (cache-line friendly, and
#: safe for every dtype the codecs use).
_ALIGN = 64

#: Optional lifecycle auditor (duck-typed: anything with
#: ``record(event, name, owner=..., nbytes=...)``).  The sanitizer in
#: repro.analysis installs itself here; this module never imports analysis.
_AUDITOR = None


def install_auditor(auditor) -> None:
    """Install (or with ``None`` remove) the segment-lifecycle auditor."""
    global _AUDITOR
    _AUDITOR = auditor


def _audit(event: str, name: str, owner: bool = False, nbytes: int = 0) -> None:
    if _AUDITOR is not None:
        _AUDITOR.record(event, name, owner=owner, nbytes=nbytes)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one named array inside a shared-memory segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ShmDescriptor:
    """Everything needed to map a shared block from another process.

    Picklable and tiny — this is what actually crosses the IPC pipe; the
    array payload itself never does.
    """

    shm_name: str
    arrays: Tuple[ArraySpec, ...]
    nbytes: int

    def attach(self) -> "ShmBlock":
        """Map the segment in this process (non-owning)."""
        return attach_block(self)


class ShmBlock:
    """One mapped shared-memory segment holding named arrays.

    Parameters
    ----------
    shm:
        The underlying :class:`multiprocessing.shared_memory.SharedMemory`.
    descriptor:
        Array table of the segment.
    owner:
        Whether this process created the segment and must eventually
        :meth:`unlink` it.  Non-owners only ever :meth:`close`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        descriptor: ShmDescriptor,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self.owner = owner
        self._closed = False
        self._views: Dict[str, np.ndarray] = {}

    @property
    def name(self) -> str:
        return self.descriptor.shm_name

    @property
    def nbytes(self) -> int:
        return self.descriptor.nbytes

    def arrays(self) -> Dict[str, np.ndarray]:
        """Zero-copy NumPy views of every array in the segment.

        Views stay valid only while the block is open; callers keeping a
        view (a mapped program, a mapped matrix) must keep the block alive
        alongside it.
        """
        if self._closed:
            raise ValueError(f"shared block {self.name} is closed")
        if not self._views:
            for spec in self.descriptor.arrays:
                self._views[spec.name] = np.ndarray(
                    spec.shape,
                    dtype=spec.dtype,
                    buffer=self._shm.buf,
                    offset=spec.offset,
                )
        return dict(self._views)

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._closed:
            return
        self._views.clear()
        self._closed = True
        self._shm.close()
        _audit("close", self.name, owner=self.owner)

    def unlink(self) -> None:
        """Destroy the segment; owner-only, implies :meth:`close`."""
        if not self.owner:
            raise PermissionError(
                f"shared block {self.name} is attached, not owned; only the "
                "creating process may unlink it"
            )
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _audit("unlink", self.name, owner=True)

    def __enter__(self) -> "ShmBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.owner:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self.owner else "attached"
        return f"<ShmBlock {self.name} {role} {self.nbytes}B>"


def share_arrays(
    arrays: Mapping[str, np.ndarray], name_prefix: str = "repro"
) -> ShmBlock:
    """Pack named arrays into a fresh shared-memory segment (owned).

    Each array is copied once into the segment at a 64-byte-aligned offset;
    from then on every process works on views of the same pages.
    """
    specs = []
    offset = 0
    normalised: Dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        normalised[name] = array
        offset = _aligned(offset)
        specs.append(
            ArraySpec(
                name=name,
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offset,
            )
        )
        offset += array.nbytes
    total = max(1, offset)  # zero-byte segments are not allowed
    shm_name = f"{name_prefix}-{secrets.token_hex(8)}"
    shm = shared_memory.SharedMemory(name=shm_name, create=True, size=total)
    descriptor = ShmDescriptor(
        shm_name=shm.name, arrays=tuple(specs), nbytes=total
    )
    _audit("create", shm.name, owner=True, nbytes=total)
    block = ShmBlock(shm, descriptor, owner=True)
    views = block.arrays()
    for name, array in normalised.items():
        if array.size:
            views[name][...] = array
    return block


def attach_block(descriptor: ShmDescriptor) -> ShmBlock:
    """Map an existing segment by descriptor (non-owning).

    Raises ``FileNotFoundError`` when the owner has already unlinked it.
    """
    shm = shared_memory.SharedMemory(name=descriptor.shm_name)
    _audit("attach", descriptor.shm_name, owner=False, nbytes=descriptor.nbytes)
    return ShmBlock(shm, descriptor, owner=False)


# ----------------------------------------------------------------------
# COO codec
# ----------------------------------------------------------------------
def coo_to_arrays(matrix: COOMatrix) -> Dict[str, np.ndarray]:
    """A COO matrix as named arrays (the shm payload of ``register``)."""
    return {
        "coo_shape": np.array([matrix.num_rows, matrix.num_cols], dtype=np.int64),
        "coo_rows": np.ascontiguousarray(matrix.rows, dtype=np.int64),
        "coo_cols": np.ascontiguousarray(matrix.cols, dtype=np.int64),
        "coo_values": np.ascontiguousarray(matrix.values, dtype=np.float64),
    }


def coo_from_arrays(arrays: Mapping[str, np.ndarray]) -> COOMatrix:
    """Rebuild a COO matrix from :func:`coo_to_arrays` views (zero-copy)."""
    num_rows, num_cols = (int(v) for v in arrays["coo_shape"])
    return COOMatrix(
        num_rows=num_rows,
        num_cols=num_cols,
        rows=arrays["coo_rows"],
        cols=arrays["coo_cols"],
        values=arrays["coo_values"],
    )


def share_coo(matrix: COOMatrix) -> ShmBlock:
    """Place a COO matrix into an owned shared block."""
    return share_arrays(coo_to_arrays(matrix), name_prefix="repro-coo")


def coo_from_block(block: ShmBlock) -> COOMatrix:
    """Map a COO matrix out of a block; views share the block's pages."""
    return coo_from_arrays(block.arrays())


# ----------------------------------------------------------------------
# Program codec
# ----------------------------------------------------------------------
def program_to_arrays(program: SerpensProgram) -> Dict[str, np.ndarray]:
    """A preprocessed program as named arrays.

    The program body uses the one documented buffer layout of
    :meth:`~repro.preprocess.ColumnarProgram.to_buffers` (shared with the
    ``.npz`` serialiser); ``reorder_stats`` rides alongside.
    """
    return {
        "reorder_stats": reorder_stats_array(program),
        **program.columnar().to_buffers(),
    }


def program_from_arrays(arrays: Mapping[str, np.ndarray]) -> SerpensProgram:
    """Rebuild a program from :func:`program_to_arrays` views (zero-copy)."""
    buffers = {name: array for name, array in arrays.items() if name != "reorder_stats"}
    return program_from_buffers(buffers, arrays["reorder_stats"])


def share_program(program: SerpensProgram) -> ShmBlock:
    """Place a preprocessed program into an owned shared block."""
    return share_arrays(program_to_arrays(program), name_prefix="repro-prog")


def program_from_block(block: ShmBlock) -> SerpensProgram:
    """Map a program out of a block; element arrays view the block's pages."""
    return program_from_arrays(block.arrays())


# ----------------------------------------------------------------------
# Vector arena
# ----------------------------------------------------------------------
def _offsets(sizes: Sequence[int]) -> np.ndarray:
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def share_vectors(x_sizes: Sequence[int], y_sizes: Sequence[int]) -> ShmBlock:
    """One run's request vectors as an owned block of flat float64 arrays.

    Request ``i`` owns ``x[x_at[i]:x_at[i + 1]]`` and ``y[y_at[i]:y_at[i + 1]]``
    (see :func:`vector_slot`): the owner copies each x in, a worker reads
    it and writes the y, and the owner copies the y back out.
    """
    x_at, y_at = _offsets(x_sizes), _offsets(y_sizes)
    return share_arrays(
        {
            "x": np.zeros(int(x_at[-1])),
            "y": np.zeros(int(y_at[-1])),
            "x_at": x_at,
            "y_at": y_at,
        },
        name_prefix="repro-arena",
    )


def vector_slot(arrays: Mapping[str, np.ndarray], name: str, index: int) -> np.ndarray:
    """View of request ``index``'s ``"x"`` or ``"y"`` in a vector arena."""
    offsets = arrays[f"{name}_at"]
    return arrays[name][offsets[index]:offsets[index + 1]]
