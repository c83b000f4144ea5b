"""Core IR data structures: a miniature MLIR.

The IR models exactly what PolyUFC needs from MLIR:

* a :class:`Module` owning named :class:`Buffer` declarations (memrefs) and a
  straight-line list of top-level operations,
* :class:`Op` with operands (:class:`Value`), results, attributes and nested
  :class:`Region` bodies,
* dialects as ``Op`` subclasses (``torch.*`` in
  :mod:`repro.ir.dialects.torch_d`, ``linalg.*`` in
  :mod:`repro.ir.dialects.linalg`, ``affine.*``/``arith.*`` in
  :mod:`repro.ir.dialects.affine` and :mod:`repro.ir.dialects.arith`).

Programs at every level are executable through :mod:`repro.ir.interp`, which
is how the lowering passes are tested for semantic preservation.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple


class IRError(Exception):
    """Malformed IR detected by construction-time checks or the verifier."""


class ElementType:
    """A scalar element type (f32, f64, ...)."""

    _registry: Dict[str, "ElementType"] = {}

    def __new__(cls, name: str, size_bytes: int):
        existing = cls._registry.get(name)
        if existing is not None:
            if existing.size_bytes != size_bytes:
                raise IRError(f"conflicting redefinition of type {name}")
            return existing
        instance = super().__new__(cls)
        instance.name = name
        instance.size_bytes = size_bytes
        cls._registry[name] = instance
        return instance

    def __repr__(self) -> str:
        return self.name


F16 = ElementType("f16", 2)
F32 = ElementType("f32", 4)
F64 = ElementType("f64", 8)
I32 = ElementType("i32", 4)


class Buffer:
    """A named multi-dimensional memref with static shape."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Sequence[int], dtype: ElementType = F64):
        if not name:
            raise IRError("buffer needs a name")
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise IRError(f"buffer {name}: non-positive extent in {shape}")
        self.name = name
        self.shape = shape
        self.dtype = dtype

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.dtype.size_bytes

    def strides(self) -> Tuple[int, ...]:
        """Row-major element strides."""
        strides = [1] * self.rank
        for axis in range(self.rank - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self.shape[axis + 1]
        return tuple(strides)

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"memref<{dims}x{self.dtype!r}> @{self.name}"


class Value:
    """An SSA value produced by an op result or a region (loop) argument."""

    __slots__ = ("name", "producer", "dtype")
    _counter = itertools.count()

    def __init__(self, name: str = None, producer: "Op" = None,
                 dtype: ElementType = F64):
        self.name = name or f"v{next(Value._counter)}"
        self.producer = producer
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"%{self.name}"


class Region:
    """A single-block region: an ordered list of ops plus block arguments."""

    __slots__ = ("ops", "args")

    def __init__(self, args: Sequence[Value] = (), ops: Sequence["Op"] = ()):
        self.args = list(args)
        self.ops = list(ops)

    def append(self, op: "Op") -> "Op":
        self.ops.append(op)
        return op

    def walk(self) -> Iterator["Op"]:
        for op in self.ops:
            yield op
            for region in op.regions:
                yield from region.walk()


class Op:
    """Base class for all operations."""

    name = "op"
    dialect = "builtin"

    def __init__(
        self,
        operands: Sequence[Value] = (),
        attrs: Dict = None,
        regions: Sequence[Region] = (),
        num_results: int = 0,
        result_dtype: ElementType = F64,
    ):
        self.operands = list(operands)
        self.attrs = dict(attrs or {})
        self.regions = list(regions)
        self.results = [
            Value(producer=self, dtype=result_dtype) for _ in range(num_results)
        ]

    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise IRError(f"{self.name} has {len(self.results)} results")
        return self.results[0]

    def buffers_read(self) -> List[Buffer]:
        """Buffers this op may read; dialects override."""
        return []

    def buffers_written(self) -> List[Buffer]:
        """Buffers this op may write; dialects override."""
        return []

    def verify(self, module: "Module") -> None:
        """Dialect-specific structural checks; default accepts."""

    def walk(self) -> Iterator["Op"]:
        yield self
        for region in self.regions:
            yield from region.walk()

    def __repr__(self) -> str:
        return f"{self.dialect}.{self.name}"


class Module:
    """A compilation unit: buffers, symbolic parameters, and top-level ops."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.buffers: Dict[str, Buffer] = {}
        self.params: Dict[str, int] = {}
        self.ops: List[Op] = []

    # -- construction ------------------------------------------------------

    def add_buffer(
        self, name: str, shape: Sequence[int], dtype: ElementType = F64
    ) -> Buffer:
        if name in self.buffers:
            raise IRError(f"duplicate buffer {name!r}")
        buffer = Buffer(name, shape, dtype)
        self.buffers[name] = buffer
        return buffer

    def set_param(self, name: str, value: int) -> None:
        self.params[name] = int(value)

    def append(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    # -- traversal ---------------------------------------------------------

    def walk(self) -> Iterator[Op]:
        for op in self.ops:
            yield from op.walk()

    def clone_structure(self, name: str = None) -> "Module":
        """A new module sharing buffer declarations but with no ops."""
        fresh = Module(name or self.name)
        fresh.buffers = dict(self.buffers)
        fresh.params = dict(self.params)
        return fresh

    # -- verification ------------------------------------------------------

    def verify(self) -> None:
        """Check structural invariants of the whole module."""
        for op in self.walk():
            for buffer in op.buffers_read() + op.buffers_written():
                registered = self.buffers.get(buffer.name)
                if registered is not buffer:
                    raise IRError(
                        f"{op!r} uses unregistered buffer {buffer.name!r}"
                    )
            op.verify(self)
        self._verify_ssa()

    def _verify_ssa(self) -> None:
        defined = set()

        def check_region(region: Region, visible: set) -> None:
            local = set(visible)
            for arg in region.args:
                local.add(id(arg))
            for op in region.ops:
                for operand in op.operands:
                    if id(operand) not in local:
                        raise IRError(
                            f"{op!r} uses value {operand!r} before definition"
                        )
                for result in op.results:
                    local.add(id(result))
                for nested in op.regions:
                    check_region(nested, local)

        for op in self.ops:
            for operand in op.operands:
                if id(operand) not in defined:
                    raise IRError(
                        f"top-level {op!r} uses undefined value {operand!r}"
                    )
            for result in op.results:
                defined.add(id(result))
            for region in op.regions:
                check_region(region, defined)

    def __repr__(self) -> str:
        return f"<Module {self.name}: {len(self.ops)} ops, {len(self.buffers)} buffers>"
