"""Exception types shared across the package, and the key declarations that
check every JSON object the program reads."""

import sys
from dataclasses import MISSING, field, fields


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NonFiniteError(RuntimeError):
    """A loss or gradient went NaN/Inf; carries diagnostics in the message."""


class OverwriteRefusedError(RuntimeError):
    """Output files already exist and --force was not given."""


# the exact JSON value types each key annotation accepts, so true/false
# never pass as integers
KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    bool | None: ((bool, type(None)), "true, false or null"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    dict: ((dict,), "an object"),
}

POSITIVE = ("must be > 0", lambda v: v > 0)
NON_NEGATIVE = ("must be >= 0", lambda v: v >= 0)
AT_LEAST_ONE = ("must be >= 1", lambda v: v >= 1)
AT_LEAST_TWO = ("must be >= 2", lambda v: v >= 2)
NON_EMPTY = ("must not be empty", bool)


def key(rule=None, check=None, *, default=MISSING, section=""):
    """A key of a JSON object, declared as a dataclass field whose annotation
    is the key's type: the range its value must lie in, if any, its default
    (none for a required key) and its section ("" for the top level)."""
    return field(
        default=default, metadata={"section": section, "rule": rule, "check": check}
    )


def _key_path(section, name):
    """A key's path in its object: "section.key", or the key."""
    return f"{section}.{name}" if section else name


def key_problems(cls, doc, where="", complete=True):
    """What is wrong with the JSON object doc as the keys that the dataclass
    cls declares: each key it does not declare, each value of a JSON type
    its key's annotation does not accept, each value of a float key that is
    not finite, each value outside its key's range and, if doc is complete,
    each required key it lacks. A section's keys sit in an object under the
    section's name, their paths spelled "section.key".
    Each problem names its key path after where."""
    if not isinstance(doc, dict):
        return [f"{where.rstrip('.')}: expected an object, got {doc!r}"]
    declared = {
        (f.metadata["section"], f.name): f for f in fields(cls) if "section" in f.metadata
    }
    sections = {section for section, _ in declared} - {""}
    out, given = [], {}
    for name, value in doc.items():
        if name not in sections:
            given["", name] = value
        elif isinstance(value, dict):
            given.update(((name, sub), v) for sub, v in value.items())
        else:
            out.append(f"{where}{name}: expected an object, got {value!r}")
    for path, value in given.items():
        f = declared.get(path)
        named = where + _key_path(*path)
        if f is None:
            out.append(f"{named}: unknown key")
            continue
        accepted, kind = KINDS[f.type]
        rule, check = f.metadata["rule"], f.metadata["check"]
        if type(value) not in accepted:
            out.append(f"{named}: expected {kind}, got {value!r}")
        # NaN, +-inf and an integer too large for a double all fail here
        elif f.type is float and not abs(value) <= sys.float_info.max:
            out.append(f"{named}: must be finite, got {value!r}")
        elif check and not check(value):
            out.append(f"{named}: {rule}, got {value!r}")
    if complete:
        out += [
            f"{where}{_key_path(*path)}: missing"
            for path, f in declared.items()
            if f.default is MISSING and path not in given
        ]
    return out
