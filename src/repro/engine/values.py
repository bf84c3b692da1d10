"""Value handling between the OID world and the value world.

The engine executes on OIDs for as long as possible.  Two bridges to actual
values are needed:

* **range predicates**: because literal OIDs are assigned in value order at
  load time (see ``value_order_literals``), a value range such as
  ``"1994-01-01" <= ?d < "1995-01-01"`` corresponds to one contiguous OID
  interval; :class:`ValueEncoder` computes that interval by binary search
  over the value-ordered literal OID sequence, so the predicate can run as a
  cheap integer comparison (and feed zone maps);
* **arithmetic / aggregation and the final result**: SUM(?price * ?discount)
  needs the numeric values behind the OIDs, and a result the Python values;
  the engine leaves OID space one *column* at a time, as one gather from the
  dictionary's value bridge
  (:meth:`~repro.model.TermDictionary.numeric_column` /
  :meth:`~repro.model.TermDictionary.python_column`).  A negative OID
  (``NULL_OID``) decodes to NaN / ``None``; an OID the dictionary does not
  hold raises :class:`~repro.errors.DictionaryError`.

The encoder is a stateless view of one dictionary.
"""

from __future__ import annotations

from typing import Optional

from ..model import Literal, TermDictionary, ValueBounds
from .plan import OidRange


class ValueEncoder:
    """Maps value-space constants and ranges to OID-space equivalents.

    Stateless: the literal order index belongs to the dictionary (see
    :meth:`~repro.model.TermDictionary.literal_value_range`), so every
    context over one dictionary — the store's, each snapshot's, a reopened
    store's — shares it and nothing here needs invalidating after a write.
    """

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dictionary = dictionary

    def literal_range(
        self,
        low: Optional[Literal],
        high: Optional[Literal],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> OidRange:
        """Translate a literal value range to an :class:`OidRange`.

        Literal OIDs below the dictionary's value-order watermark form one
        contiguous OID interval per value range (exact for every base
        column).  Literals appended by updates after the last value-ordering
        pass are out of OID order; the range keeps its value bounds, and a
        run resolves which of them match (:meth:`OidRange.tail_oids`).  No
        head literal in range gives the empty interval ``[1, 0]`` with the
        bounds — never "unsatisfiable", since a later write may insert a
        matching literal.
        """
        bounds = ValueBounds.of(low, high, low_inclusive, high_inclusive)
        head = self.dictionary.literal_value_range(bounds)
        if head.size:
            # head OIDs are value-ordered, so the value slice is one OID run
            return OidRange(int(head[0]), int(head[-1]), bounds)
        return OidRange(1, 0, bounds)
