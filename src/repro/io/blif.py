"""Berkeley Logic Interchange Format (BLIF) reader and writer.

Supports the combinational subset used by the LGsynth91 benchmarks:
``.model``, ``.inputs``, ``.outputs``, ``.names`` with single-output
covers (on-set and off-set), constants, and ``.latch`` (converted to
pseudo-PI/PO pairs, the combinational-profile treatment).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..network import GateType, Netlist, NetlistError


class BlifFormatError(ValueError):
    """Raised on malformed BLIF input."""


def _logical_lines(text: str):
    """Yield (line_no, line) with backslash continuations joined."""
    pending = ""
    pending_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not pending:
            continue
        if line.endswith("\\"):
            if not pending:
                pending_no = line_no
            pending += line[:-1] + " "
            continue
        if pending:
            yield pending_no, (pending + line).strip()
            pending = ""
        elif line.strip():
            yield line_no, line.strip()
    if pending:
        yield pending_no, pending.strip()


class _Cover:
    """A single-output ``.names`` cover before gate lowering."""

    def __init__(self, inputs: List[str], output: str):
        self.inputs = inputs
        self.output = output
        self.rows: List[Tuple[str, str]] = []  # (input cube, output char)


def _lower_cover(netlist: Netlist, cover: _Cover, fresh: "_NameGen") -> None:
    """Lower one cover into AND/OR/NOT gates on the netlist."""
    if not cover.inputs:
        # Constant node: value is 1 iff any row outputs '1'.
        value = any(out_char == "1" for _cube, out_char in cover.rows)
        netlist.add_gate(
            cover.output, GateType.CONST1 if value else GateType.CONST0, []
        )
        return
    if not cover.rows:
        netlist.add_gate(cover.output, GateType.CONST0, [])
        return

    out_chars = {out_char for _cube, out_char in cover.rows}
    if len(out_chars) != 1:
        raise BlifFormatError(
            f"cover for {cover.output!r} mixes on-set and off-set rows"
        )
    is_offset = out_chars == {"0"}

    def literal(net: str, positive: bool) -> str:
        if positive:
            return net
        inv_name = fresh.get(f"{net}_n")
        netlist.add_gate(inv_name, GateType.NOT, [net])
        return inv_name

    product_nets: List[str] = []
    for cube, _out_char in cover.rows:
        if len(cube) != len(cover.inputs):
            raise BlifFormatError(
                f"cube {cube!r} width mismatch for {cover.output!r}"
            )
        literals = []
        for char, net in zip(cube, cover.inputs):
            if char == "1":
                literals.append(literal(net, True))
            elif char == "0":
                literals.append(literal(net, False))
            elif char != "-":
                raise BlifFormatError(f"invalid cube character {char!r}")
        if not literals:
            # A full don't-care cube means the cover is a tautology.
            const = GateType.CONST0 if is_offset else GateType.CONST1
            netlist.add_gate(cover.output, const, [])
            return
        if len(literals) == 1:
            product_nets.append(literals[0])
        else:
            product = fresh.get(f"{cover.output}_p")
            netlist.add_gate(product, GateType.AND, literals)
            product_nets.append(product)

    final_type = GateType.NOR if is_offset else GateType.OR
    if len(product_nets) == 1 and not is_offset:
        netlist.add_gate(cover.output, GateType.BUF, product_nets)
    else:
        netlist.add_gate(cover.output, final_type, product_nets)


class _NameGen:
    """Generates fresh net names that cannot collide with user nets."""

    def __init__(self) -> None:
        self._used: Dict[str, int] = {}

    def get(self, base: str) -> str:
        count = self._used.get(base, 0)
        self._used[base] = count + 1
        return f"__{base}_{count}"


def parse_blif(text: str, name: Optional[str] = None) -> Netlist:
    """Parse BLIF source text into a :class:`Netlist`."""
    model_name = name or "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    latches: List[Tuple[str, str]] = []  # (data_in, data_out)
    covers: List[_Cover] = []
    current: Optional[_Cover] = None
    seen_end = False

    for line_no, line in _logical_lines(text):
        if seen_end:
            break
        tokens = line.split()
        keyword = tokens[0]
        if keyword.startswith("."):
            current = None
        if keyword == ".model":
            if name is None and len(tokens) > 1:
                model_name = tokens[1]
        elif keyword == ".inputs":
            inputs.extend(tokens[1:])
        elif keyword == ".outputs":
            outputs.extend(tokens[1:])
        elif keyword == ".names":
            if len(tokens) < 2:
                raise BlifFormatError(f"line {line_no}: .names needs an output")
            current = _Cover(tokens[1:-1], tokens[-1])
            covers.append(current)
        elif keyword == ".latch":
            if len(tokens) < 3:
                raise BlifFormatError(f"line {line_no}: bad .latch")
            latches.append((tokens[1], tokens[2]))
        elif keyword == ".end":
            seen_end = True
        elif keyword.startswith("."):
            # Ignore unsupported directives (.clock, .default_input_arrival…)
            continue
        else:
            if current is None:
                raise BlifFormatError(
                    f"line {line_no}: cover row outside .names: {line!r}"
                )
            if len(tokens) == 1 and not current.inputs:
                current.rows.append(("", tokens[0]))
            elif len(tokens) == 2:
                current.rows.append((tokens[0], tokens[1]))
            else:
                raise BlifFormatError(f"line {line_no}: bad cover row {line!r}")

    netlist = Netlist(model_name)
    try:
        for net in inputs:
            netlist.add_input(net)
        for _data_in, data_out in latches:
            netlist.add_input(data_out)

        fresh = _NameGen()
        for cover in covers:
            _lower_cover(netlist, cover, fresh)

        for net in outputs:
            netlist.set_output(net)
        for data_in, _data_out in latches:
            netlist.set_output(data_in)

        netlist.validate()
    except NetlistError as exc:
        # Undefined or undriven nets are malformed input, reported like
        # every other BLIF format error.
        raise BlifFormatError(str(exc)) from exc
    return netlist


def read_blif(path: str) -> Netlist:
    """Read and parse a BLIF file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_blif(handle.read())


_SIMPLE_COVERS = {
    GateType.BUF: ["1 1"],
    GateType.NOT: ["0 1"],
    GateType.MAJ: ["11- 1", "1-1 1", "-11 1"],
    GateType.MUX: ["11- 1", "0-1 1"],
}


def write_blif(netlist: Netlist) -> str:
    """Render a :class:`Netlist` as BLIF source text."""
    lines = [f".model {netlist.name}"]
    lines.append(".inputs " + " ".join(netlist.inputs))
    lines.append(".outputs " + " ".join(netlist.outputs))
    for gate in netlist.topological_order():
        lines.append(".names " + " ".join(gate.operands + (gate.name,)))
        arity = len(gate.operands)
        if gate.gate_type is GateType.CONST0:
            pass  # empty cover is constant 0
        elif gate.gate_type is GateType.CONST1:
            lines.append("1")
        elif gate.gate_type in _SIMPLE_COVERS:
            lines.extend(_SIMPLE_COVERS[gate.gate_type])
        elif gate.gate_type is GateType.AND:
            lines.append("1" * arity + " 1")
        elif gate.gate_type is GateType.NAND:
            lines.append("1" * arity + " 0")
        elif gate.gate_type is GateType.OR:
            for i in range(arity):
                lines.append("-" * i + "1" + "-" * (arity - i - 1) + " 1")
        elif gate.gate_type is GateType.NOR:
            lines.append("0" * arity + " 1")
        elif gate.gate_type in (GateType.XOR, GateType.XNOR):
            want_odd = gate.gate_type is GateType.XOR
            for pattern in range(1 << arity):
                ones = bin(pattern).count("1")
                if (ones % 2 == 1) == want_odd:
                    cube = "".join(
                        "1" if (pattern >> i) & 1 else "0" for i in range(arity)
                    )
                    lines.append(f"{cube} 1")
        else:
            raise NetlistError(f"cannot render {gate.gate_type} to BLIF")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def save_blif(netlist: Netlist, path: str) -> None:
    """Write a :class:`Netlist` to a BLIF file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_blif(netlist))
