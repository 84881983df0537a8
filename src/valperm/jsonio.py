"""JSON schemas for the CLI: exact rationals as strings, stable field order.

Value maps are ``{"n": 4, "d": 2, "values": {"13": "1/2", ...}}`` with
subset keys written as increasing digit strings; a flag is an array of value
maps with ranks 1..n.  Height functions are ``{"n": 3, "heights": {"132":
"2", ...}}`` keyed by one-line permutations.  Matrix entries are lists of
``[exponent, coefficient]`` term pairs.  Rationals serialize as "p/q" with
"/q" dropped for integers; both forms (and plain JSON integers) parse.
"""

import hashlib
import json
from fractions import Fraction

from valperm.permutahedra import mask_from, perm_str, subset_str, subsets_of_size
from valperm.subdivisions import HeightFunction, ValuatedFlagMatroid
from valperm.valuated import PolyInT, ValuatedMatroid


class InputError(ValueError):
    """Malformed or inconsistent input (CLI exit code 2)."""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dumps(obj) -> str:
    """Canonical report text: two-space indent, insertion order, newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def load_path(path):
    """Parsed JSON plus the sha256 digest of the raw bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8")), sha256_hex(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# rationals and keys


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(text, where=""):
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise InputError(f"{where}: expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: bad rational {text!r}") from None


def parse_subset(key, n, where=""):
    if not isinstance(key, str) or not key or not key.isdigit():
        raise InputError(f"{where}: subset key {key!r} must be a digit string")
    elems = [int(c) for c in key]
    if sorted(set(elems)) != elems or elems[-1] > n:
        raise InputError(
            f"{where}: subset key {key!r} must list distinct elements of [{n}] increasingly"
        )
    return mask_from(elems)


def _field(obj, name, kind, where):
    if not isinstance(obj, dict) or name not in obj:
        raise InputError(f"{where}: missing field {name!r}")
    value = obj[name]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise InputError(f"{where}: field {name!r} must be an integer")
    if kind is dict and not isinstance(value, dict):
        raise InputError(f"{where}: field {name!r} must be an object")
    if kind is list and not isinstance(value, list):
        raise InputError(f"{where}: field {name!r} must be an array")
    return value


# ---------------------------------------------------------------------------
# value maps and flags


def vm_to_obj(vm):
    values = {}
    for mask in subsets_of_size(vm.n, vm.d):
        if mask in vm.values:
            values[subset_str(mask)] = frac_str(vm.values[mask])
    return {"n": vm.n, "d": vm.d, "values": values}


def vm_from_obj(obj, where="value map"):
    n = _field(obj, "n", int, where)
    d = _field(obj, "d", int, where)
    if not 1 <= n <= 9:
        raise InputError(f"{where}: need 1 <= n <= 9, got {n}")
    if not 1 <= d <= n:
        raise InputError(f"{where}: need 1 <= d <= n, got d={d}")
    raw = _field(obj, "values", dict, where)
    if not raw:
        raise InputError(f"{where}: empty support")
    values = {}
    for key, val in raw.items():
        mask = parse_subset(key, n, where)
        if len(key) != d:
            raise InputError(f"{where}: key {key!r} is not a {d}-subset")
        values[mask] = parse_frac(val, f"{where}[{key}]")
    try:
        return ValuatedMatroid(n, d, values)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def components_from_obj(obj, where="input"):
    """A list of value maps from a flag array, a report with a "flag" field,
    or a single value-map object."""
    if isinstance(obj, dict) and "flag" in obj:
        obj = obj["flag"]
    if isinstance(obj, dict):
        return [vm_from_obj(obj, where)]
    if isinstance(obj, list) and obj:
        return [vm_from_obj(item, f"{where}[{k}]") for k, item in enumerate(obj)]
    raise InputError(f"{where}: expected a value map or a non-empty array of them")


def flag_to_obj(flag):
    return [vm_to_obj(vm) for vm in flag]


def flag_from_components(components, where="input"):
    try:
        return ValuatedFlagMatroid(components, check=False)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# height functions


def heights_to_obj(hf):
    heights = {perm_str(v): frac_str(x) for v, x in hf.heights.items()}
    return {"n": hf.n, "heights": {k: heights[k] for k in sorted(heights)}}


def heights_from_obj(obj, where="heights"):
    n = _field(obj, "n", int, where)
    raw = _field(obj, "heights", dict, where)
    parsed = {}
    for key, val in raw.items():
        if not isinstance(key, str):
            raise InputError(f"{where}: permutation key {key!r} must be a string")
        parsed[key] = parse_frac(val, f"{where}[{key}]")
    try:
        return HeightFunction(n, parsed)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# matrices of polynomials in t


def matrix_from_obj(obj, where="matrix"):
    rows = _field(obj, "entries", list, where)
    if not rows or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{where}: 'entries' must be a non-empty array of rows")
    width = len(rows[0])
    out = []
    for i, row in enumerate(rows):
        if len(row) != width or width == 0:
            raise InputError(f"{where}: row {i + 1} is ragged or empty")
        poly_row = []
        for j, entry in enumerate(row):
            spot = f"{where}[{i + 1}][{j + 1}]"
            if not isinstance(entry, list):
                raise InputError(f"{spot}: entry must be an array of [exponent, coefficient] pairs")
            terms = {}
            for pair in entry:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise InputError(f"{spot}: term {pair!r} is not an [exponent, coefficient] pair")
                exp = pair[0]
                if isinstance(exp, bool) or not isinstance(exp, int):
                    raise InputError(f"{spot}: exponent {exp!r} must be an integer")
                terms[exp] = terms.get(exp, 0) + parse_frac(pair[1], spot)
            poly_row.append(PolyInT({e: c for e, c in terms.items() if c}))
        out.append(poly_row)
    return out

