"""The document route of `hall hall-table` / `hall derived-table`, kept as
the test oracle for the streamed writer of hallalg.cli.

It builds the whole output document, its CSV rows and its pretty lines,
and returns the text of the chosen format as the CLI printed it before the
cells were streamed: json.dumps(doc, sort_keys=True, indent=2), one CSV line
per row, or the pretty lines, each followed by one newline.
"""

import json

from hallalg.hall import basis_product
from hallalg.verify import in_bound_pairs


def table_text(ctx, mode, modulus, fmt, product=basis_product):
    table = []
    for x, y in in_bound_pairs(ctx):
        terms = product(ctx, x, y)
        table.append(
            {
                "x": ctx.key_name(x),
                "y": ctx.key_name(y),
                "terms": [
                    {
                        "z": ctx.key_name(z),
                        "coeff_num": g.numerator,
                        "coeff_den": g.denominator,
                    }
                    for z, g in sorted(terms.items())
                ],
            }
        )
    doc = {
        "schema": 1,
        "mode": mode,
        "modulus": modulus,
        "table": table,
    }
    rows = [("x", "y", "z", "coeff")]
    for cell in table:
        for term in cell["terms"]:
            rows.append(
                (cell["x"], cell["y"], term["z"],
                 f"{term['coeff_num']}/{term['coeff_den']}")
            )
    pretty_lines = []
    for cell in table:
        terms = " + ".join(
            f"{t['coeff_num']}/{t['coeff_den']}*{t['z']}" for t in cell["terms"]
        )
        pretty_lines.append(f"{cell['x']} * {cell['y']} = {terms or '0'}")
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return "".join(",".join(str(v) for v in row) + "\n" for row in rows)
    return "\n".join(pretty_lines) + "\n"
