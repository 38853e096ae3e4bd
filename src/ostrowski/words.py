"""Digit-word plumbing.

Internally a digit word is a tuple of small nonnegative integers stored
least-significant-first: index ``k-1`` holds the digit at position ``k``,
the coefficient of ``q_{k-1}``.  All text rendering is most-significant
digit first, space separated, because digits may exceed 9 (``"12 0 3"``).
The empty word renders as ``"0"``.
"""

from __future__ import annotations

Word = tuple[int, ...]


def from_text(text: str) -> Word:
    """Parse a space-separated, MSD-first digit string into an LSD-first word."""
    digits = []
    for tok in text.split():
        d = integer(tok)
        if d is None or d < 0:
            raise ValueError(f"bad digit token {tok!r}")
        digits.append(d)
    return tuple(reversed(digits))


def integer(text: str) -> int | None:
    """The value of ASCII decimal digits after an optional sign, of any
    length, or None for any other text (``int`` would also read
    underscores, surrounding blanks and non-ASCII digits)."""
    digits = text[1:] if text[:1] in "+-" else text
    if not digits or not all("0" <= c <= "9" for c in digits):
        return None
    return decimal(digits) * (-1 if text[:1] == "-" else 1)


def integer_token(token: str, role: str) -> int:
    """``integer`` of a token with blanks around it, or ``ValueError``
    naming what the token stands for."""
    token = token.strip()
    value = integer(token)
    if value is None:
        raise ValueError(f"bad {role} token {token!r}")
    return value


_CHUNK = 4000  # decimal digits converted at once, within the limit of int and str


def decimal(digits: str) -> int:
    """The value of ASCII decimal digits of any length, read in chunks."""
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def to_decimal(value: int) -> str:
    """Decimal text of a natural number of any size, converted in chunks."""
    chunks = []
    while value >= 10**_CHUNK:
        value, low = divmod(value, 10**_CHUNK)
        chunks.append(str(low).zfill(_CHUNK))
    return str(value) + "".join(reversed(chunks))


def to_text(word: Word) -> str:
    if not word:
        return "0"
    return " ".join(str(d) for d in reversed(word))


def strip(word: Word) -> Word:
    """Drop leading (most significant) zeros."""
    n = len(word)
    while n > 0 and word[n - 1] == 0:
        n -= 1
    return tuple(word[:n])


def pad(word: Word, length: int) -> Word:
    """Left-pad with zeros (in MSD terms) to at least the given length."""
    if len(word) >= length:
        return tuple(word)
    return tuple(word) + (0,) * (length - len(word))
