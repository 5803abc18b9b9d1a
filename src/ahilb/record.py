"""Base of the package's plain records.

A record lists its fields in `__slots__`, in order, and sets them in a
hand-written `__init__`.  The base adds field-wise `==` and a repr of the
form `Name(field=value, ...)`; records are unhashable unless they say
otherwise.  `dataclasses` would generate the same methods, but importing
it loads `inspect` (and with it `ast`, `dis` and `tokenize`), and every
class it builds execs fresh source: together about a fifth of the time
`import ahilb.cli` takes, paid by every CLI call.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"
