"""Static SVG Venn diagrams for two- and three-variable diagram documents.

Pure string templating with fixed coordinates and fixed number formatting,
so identical documents render to byte-identical SVG.
"""

from __future__ import annotations

from .core import DomainError

# cell label anchor per atom subset (keys are sorted index tuples)
_CELL_XY = {
    2: {
        (1,): (170, 225),
        (2,): (470, 225),
        (1, 2): (320, 225),
    },
    3: {
        (1,): (225, 155),
        (2,): (455, 155),
        (3,): (340, 375),
        (1, 2): (340, 140),
        (1, 3): (258, 272),
        (2, 3): (422, 272),
        (1, 2, 3): (340, 225),
    },
}

_CIRCLES = {
    2: [(250, 225, 145), (390, 225, 145)],
    3: [(275, 190, 135), (405, 190, 135), (340, 300, 135)],
}

_FILLS = ["#4878a8", "#a85454", "#54a868"]


def render_venn(document: dict) -> str:
    """Render a diagram document (as produced by the CLI) to SVG text.

    Each Venn cell is labeled with its atom subset and its value to six
    significant digits.  Only n = 2 and n = 3 are drawable; a document of
    any other shape is a DomainError.
    """
    try:
        title, generators, n, cells = _read_document(document)
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed diagram document ({type(exc).__name__}: {exc})") from None

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
        'viewBox="0 0 640 480" font-family="monospace">',
        '<rect width="640" height="480" fill="white"/>',
    ]
    lines.append(f'<text x="20" y="28" font-size="16">{_esc(title)} information diagram</text>')
    for i, (cx, cy, r) in enumerate(_CIRCLES[n]):
        fill = _FILLS[i % len(_FILLS)]
        lines.append(
            f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="{fill}" fill-opacity="0.16" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for i, name in enumerate(generators):
        lines.append(
            f'<text x="20" y="{452 - 18 * (n - 1 - i)}" font-size="12">'
            f'{i + 1}: {_esc(name)}</text>'
        )
    for subset, value in cells:
        x, y = _CELL_XY[n][subset]
        label = "".join(str(i) for i in subset)
        lines.append(
            f'<text x="{x}" y="{y}" font-size="12" text-anchor="middle">{label}</text>'
        )
        lines.append(
            f'<text x="{x}" y="{y + 14}" font-size="12" text-anchor="middle">'
            f'{format(value, ".6g")}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _read_document(document):
    """The title, the first n generator names, n and the (subset, value) cells of a diagram document."""
    meta = document.get("metadata", {})
    generators = meta.get("generators", [])
    if not isinstance(generators, list):  # a string would be read as one name per character
        raise TypeError(f"'generators' must be a list, got {type(generators).__name__}")
    n = meta.get("n", len(generators))
    if isinstance(n, bool) or not isinstance(n, int):  # not 2.9, "2" or true
        raise TypeError(f"'n' must be an integer, got {n!r}")
    if n not in (2, 3):
        raise DomainError(f"rendering supports n=2,3 only, got n={n}")
    atoms = document.get("atoms", [])
    if len(atoms) != (1 << n) - 1:
        raise DomainError(f"document has {len(atoms)} atoms, expected {(1 << n) - 1}")
    cells = {}
    for entry in atoms:
        subset, value = tuple(entry["subset"]), entry["eta"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):  # a JSON number: not true, "nan" or "1e3"
            raise TypeError(f"atom value {value!r} is not a number")
        if subset not in _CELL_XY[n]:
            raise DomainError(f"unexpected atom subset {list(subset)} for n={n}")
        if subset in cells:  # with the count checked, a repeat leaves another subset out
            raise ValueError(f"atom subset {list(subset)} appears twice")
        cells[subset] = float(value)
    return str(meta.get("instance", "diagram")), [str(name) for name in generators[:n]], n, cells.items()


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
