"""RFC 1035 wire-format encoding and decoding with name compression.

The simulated network serializes every DNS message through this module, so
malformed-message handling, compression pointers, and section counts behave
as they would on a real wire.  Compression targets names in owner fields and
in the name-bearing RDATA types that RFC 3597 classifies as "well-known"
(NS, CNAME, PTR, SOA, MX); TXT and address records are opaque.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from .message import Header, Message, Question, ResourceRecord
from .name import MAX_LABEL_LENGTH, Name, NameError_, interned
from .rdata import (
    CNAME,
    MX,
    NS,
    PTR,
    RDATA_CLASSES,
    SOA,
    RdataError,
    Rdata,
    RRType,
)

MAX_POINTER_OFFSET = 0x3FFF
#: Types whose RDATA contains a domain name eligible for compression.
_NAME_BEARING_TYPES = frozenset(
    {RRType.NS, RRType.CNAME, RRType.PTR, RRType.SOA, RRType.MX}
)


class WireError(ValueError):
    """Raised when a message cannot be encoded or decoded."""


class _Encoder:
    """Accumulates wire bytes and tracks compression offsets."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._offsets: Dict[Tuple[str, ...], int] = {}

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)

    def write_u16(self, value: int) -> None:
        self.buffer.extend(struct.pack("!H", value))

    def write_u32(self, value: int) -> None:
        self.buffer.extend(struct.pack("!I", value))

    def write_name(self, target: Name) -> None:
        """Write a domain name, compressed against the names before it."""
        labels = tuple(label.lower() for label in target.labels)
        index = 0
        while index < len(labels):
            suffix = labels[index:]
            known = self._offsets.get(suffix)
            if known is not None:
                self.write_u16(0xC000 | known)
                return
            if len(self.buffer) <= MAX_POINTER_OFFSET:
                self._offsets[suffix] = len(self.buffer)
            raw = target.labels[index].encode("ascii")
            self.buffer.append(len(raw))
            self.buffer.extend(raw)
            index += 1
        self.buffer.append(0)


class _Decoder:
    """Reads wire bytes, following compression pointers."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def read(self, count: int) -> bytes:
        if self.remaining() < count:
            raise WireError(
                f"truncated message: wanted {count} bytes, "
                f"have {self.remaining()}"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def read_u16(self) -> int:
        return struct.unpack("!H", self.read(2))[0]

    def read_u32(self) -> int:
        return struct.unpack("!I", self.read(4))[0]

    def read_name(self) -> Name:
        labels, next_offset = self._read_name_at(self.offset)
        self.offset = next_offset
        try:
            return interned(tuple(labels))
        except NameError_ as exc:
            raise WireError(f"invalid name on the wire: {exc}") from exc

    def _read_name_at(self, offset: int) -> Tuple[List[str], int]:
        labels: List[str] = []
        jumps = 0
        end_offset = -1
        while True:
            if offset >= len(self.data):
                raise WireError("name runs past end of message")
            length = self.data[offset]
            if length & 0xC0 == 0xC0:
                if offset + 1 >= len(self.data):
                    raise WireError("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | self.data[offset + 1]
                if end_offset < 0:
                    end_offset = offset + 2
                if pointer >= offset:
                    raise WireError("forward compression pointer")
                offset = pointer
                jumps += 1
                if jumps > 128:
                    raise WireError("compression pointer loop")
                continue
            if length & 0xC0:
                raise WireError(f"reserved label type {length >> 6:#x}")
            if length > MAX_LABEL_LENGTH:
                raise WireError(f"label length {length} exceeds 63")
            offset += 1
            if length == 0:
                break
            if offset + length > len(self.data):
                raise WireError("label runs past end of message")
            try:
                labels.append(
                    self.data[offset : offset + length].decode(
                        "ascii", errors="strict"
                    )
                )
            except UnicodeDecodeError as exc:
                raise WireError(
                    f"non-ASCII label bytes at offset {offset}"
                ) from exc
            offset += length
        return labels, end_offset if end_offset >= 0 else offset


def _encode_rdata(encoder: _Encoder, record: ResourceRecord) -> None:
    """Write RDLENGTH + RDATA, compressing embedded names where allowed."""
    length_position = len(encoder.buffer)
    encoder.write_u16(0)  # placeholder for RDLENGTH
    start = len(encoder.buffer)
    rdata = record.rdata
    if isinstance(rdata, (NS, CNAME, PTR)):
        encoder.write_name(rdata.target)
    elif isinstance(rdata, MX):
        encoder.write_u16(rdata.preference)
        encoder.write_name(rdata.exchange)
    elif isinstance(rdata, SOA):
        encoder.write_name(rdata.mname)
        encoder.write_name(rdata.rname)
        encoder.write_u32(rdata.serial)
        encoder.write_u32(rdata.refresh)
        encoder.write_u32(rdata.retry)
        encoder.write_u32(rdata.expire)
        encoder.write_u32(rdata.minimum)
    else:
        encoder.write(rdata.to_wire())
    rdlength = len(encoder.buffer) - start
    if rdlength > 0xFFFF:
        raise WireError(f"RDATA too long: {rdlength}")
    struct.pack_into("!H", encoder.buffer, length_position, rdlength)


def _decode_rdata(decoder: _Decoder, rrtype: int, rdlength: int) -> Rdata:
    """Read RDATA, decompressing embedded names for name-bearing types."""
    end = decoder.offset + rdlength
    if end > len(decoder.data):
        raise WireError("RDATA runs past end of message")
    if rrtype in _NAME_BEARING_TYPES:
        if rrtype == RRType.MX:
            preference = decoder.read_u16()
            exchange = decoder.read_name()
            rdata: Rdata = MX(preference, exchange)
        elif rrtype == RRType.SOA:
            mname = decoder.read_name()
            rname = decoder.read_name()
            serial = decoder.read_u32()
            refresh = decoder.read_u32()
            retry = decoder.read_u32()
            expire = decoder.read_u32()
            minimum = decoder.read_u32()
            rdata = SOA(mname, rname, serial, refresh, retry, expire, minimum)
        else:
            target = decoder.read_name()
            cls = RDATA_CLASSES[rrtype]
            rdata = cls(target)  # type: ignore[call-arg]
        if decoder.offset != end:
            raise WireError(
                f"RDATA length mismatch for {RRType.to_text(rrtype)}"
            )
        return rdata
    raw = decoder.read(rdlength)
    cls = RDATA_CLASSES.get(rrtype)
    if cls is None:
        raise WireError(f"unsupported RR type {RRType.to_text(rrtype)}")
    try:
        return cls.from_wire(raw)
    except RdataError as exc:
        raise WireError(str(exc)) from exc


def encode_message(message: Message) -> bytes:
    """Serialize a :class:`Message` to RFC 1035 wire format."""
    encoder = _Encoder()
    encoder.write_u16(message.header.message_id)
    encoder.write_u16(message.header.flags_word())
    encoder.write_u16(len(message.questions))
    encoder.write_u16(len(message.answers))
    encoder.write_u16(len(message.authorities))
    encoder.write_u16(len(message.additionals))
    for question in message.questions:
        encoder.write_name(question.qname)
        encoder.write_u16(question.qtype)
        encoder.write_u16(question.qclass)
    for record in (
        *message.answers,
        *message.authorities,
        *message.additionals,
    ):
        encoder.write_name(record.owner)
        encoder.write_u16(record.rrtype)
        encoder.write_u16(record.rrclass)
        encoder.write_u32(record.ttl)
        _encode_rdata(encoder, record)
    return bytes(encoder.buffer)


def decode_message(data: bytes) -> Message:
    """Parse RFC 1035 wire bytes into a :class:`Message`.

    Raises :class:`WireError` for any malformation: truncation, bad
    pointers, inconsistent RDLENGTH, unknown types.
    """
    decoder = _Decoder(data)
    if decoder.remaining() < 12:
        raise WireError(f"message shorter than header: {len(data)} bytes")
    message_id = decoder.read_u16()
    flags = decoder.read_u16()
    qdcount = decoder.read_u16()
    ancount = decoder.read_u16()
    nscount = decoder.read_u16()
    arcount = decoder.read_u16()
    header = Header.from_flags_word(message_id, flags)

    questions: List[Question] = []
    for _ in range(qdcount):
        qname = decoder.read_name()
        qtype = decoder.read_u16()
        qclass = decoder.read_u16()
        questions.append(Question(qname, qtype, qclass))

    def read_records(count: int) -> List[ResourceRecord]:
        records: List[ResourceRecord] = []
        for _ in range(count):
            owner = decoder.read_name()
            rrtype = decoder.read_u16()
            rrclass = decoder.read_u16()
            ttl = decoder.read_u32()
            rdlength = decoder.read_u16()
            rdata = _decode_rdata(decoder, rrtype, rdlength)
            records.append(ResourceRecord(owner, rdata, ttl, rrclass))
        return records

    answers = read_records(ancount)
    authorities = read_records(nscount)
    additionals = read_records(arcount)
    if decoder.remaining():
        raise WireError(f"{decoder.remaining()} trailing bytes after message")
    return Message(
        header=header,
        questions=questions,
        answers=answers,
        authorities=authorities,
        additionals=additionals,
    )


def roundtrip(message: Message) -> Message:
    """Encode then decode; used by the transport and by tests."""
    return decode_message(encode_message(message))


# -- memoization ---------------------------------------------------------------


_MESSAGE_ID = struct.Struct("!H")


def _with_message_id(template: Message, message_id: int) -> Message:
    """A clone of ``template`` under ``message_id``: fresh section
    lists, the frozen header and records shared, so the caller may
    rebind or extend the lists without touching the template.

    Runs once per cache hit.  The header is rebuilt positionally, not
    through ``dataclasses.replace`` (which walks the field list per
    call), and kept as it is when the id already matches.
    """
    header = template.header
    if header.message_id != message_id:
        header = Header(
            message_id,
            header.is_response,
            header.opcode,
            header.authoritative,
            header.truncated,
            header.recursion_desired,
            header.recursion_available,
            header.rcode,
        )
    return Message(
        header=header,
        questions=list(template.questions),
        answers=list(template.answers),
        authorities=list(template.authorities),
        additionals=list(template.additionals),
    )


def _rdata_key(rdata: Rdata):
    """A hashable, case-exact stand-in for RDATA in structural keys.

    Frozen rdata objects are hashable, but the name-bearing types hash
    through :class:`Name`, whose equality is case-insensitive — two
    spellings that encode differently would collide.  Expand their
    names to exact label tuples instead (a single-name type's key is
    the target's own label tuple); opaque types (addresses, TXT) hash
    their strings case-exactly already.
    """
    if isinstance(rdata, (NS, CNAME, PTR)):
        return rdata.target.labels
    if isinstance(rdata, MX):
        return (rdata.preference, rdata.exchange.labels)
    if isinstance(rdata, SOA):
        return (
            rdata.mname.labels,
            rdata.rname.labels,
            rdata.serial,
            rdata.refresh,
            rdata.retry,
            rdata.expire,
            rdata.minimum,
        )
    return rdata


def _message_key(message: Message) -> Tuple:
    """The structural identity of ``message`` sans id, as one flat
    tuple: the flags word and the four section counts, then three
    fields per question (exact qname labels, type, class) and five per
    record (exact owner labels, type, class, TTL, :func:`_rdata_key`).

    The counts come first, so every field sits at a position they fix:
    two messages share a key only when each section holds the same
    questions or records in the same order.  A record's key fields are
    read under its type, so equal labels in, say, an NS target and a
    SOA name cannot collide.
    """
    header = message.header
    questions = message.questions
    answers = message.answers
    authorities = message.authorities
    additionals = message.additionals
    key = [
        header.flags_word(),
        len(questions),
        len(answers),
        len(authorities),
        len(additionals),
    ]
    for question in questions:
        key += (question.qname.labels, question.qtype, question.qclass)
    for section in (answers, authorities, additionals):
        for record in section:
            key += (
                record.owner.labels,
                record.rrtype,
                record.rrclass,
                record.ttl,
                _rdata_key(record.rdata),
            )
    return tuple(key)


def _template(message: Message) -> Message:
    """``message``'s parts as a template: its header and records shared,
    each section a tuple (no list over-allocation, and nothing can
    append to it)."""
    return Message(
        header=message.header,
        questions=tuple(message.questions),
        answers=tuple(message.answers),
        authorities=tuple(message.authorities),
        additionals=tuple(message.additionals),
    )


def encode_answer(
    message: Message, key: Optional[Tuple] = None
) -> Tuple[bytes, Optional[Message]]:
    """``message``'s wire and a *template* for its decode.

    The template is what :func:`decode_message` makes of the wire, as
    a message nobody else holds, its sections tuples (serve it through
    :func:`_with_message_id`, which hands out list clones).  When the
    decode has the original's header and exact-case structural key
    (``key``, if the caller already computed it), the template holds
    the original's records (a zone's, for an authoritative answer)
    instead of decoded copies.  Otherwise it holds the decode's:
    compression pointers fold names (owners, RDATA targets) that
    differ only in case into the first spelling.

    An encode error propagates.  A wire that does not decode comes
    back with no template, so the caller's own decode reports it.
    """
    wire = encode_message(message)
    try:
        decoded = decode_message(wire)
    except WireError:
        return wire, None
    if decoded.header == message.header and _message_key(decoded) == (
        key if key is not None else _message_key(message)
    ):
        return wire, _template(message)
    return wire, _template(decoded)


#: entries each :class:`WireCodecCache` map holds before evicting
CODEC_CACHE_ENTRIES = 8192


class WireCodecCache:
    """Bounded, id-agnostic memoization for the simulator's hot wire
    paths.

    Two caches, both structural (recomputed keys per call, so callers
    never need to treat messages as frozen) and both **id-agnostic** —
    the message id occupies exactly the first two wire bytes and the
    ``message_id`` header field, so an entry cached under one id
    serves any other via a 2-byte patch and a header swap.  Without
    this the caches would be useless: resolvers mint a fresh id per
    internal query, and wires differing only in id would never
    collide.

    * the **query round-trip cache** maps a record-free message's
      ``(flags word, questions)`` — with exact label case, since the
      wire preserves spelling — to its validated wire, collapsing the
      per-query encode→decode round trip to a dict hit (the first
      occurrence proved the round trip is the identity, so the original
      message object can stand in for its own decode);
    * the **answer cache** holds one entry per answer: a full
      message's structural key (:func:`_message_key`: one flat tuple of
      flags, section counts, questions and records, names as exact
      label tuples) maps to ``(id, wire, template)``, the template
      being :func:`encode_answer`'s tuple-sectioned decode of that
      wire.
      Equal structure means equal bytes (the encoder is deterministic
      and compression canonical), so a hit is the wire and the decode
      at once.  Authoritative servers keep the same template in their
      compiled answers, so each answer is held once.

    Both caches only ever store *successful* codec results — a
    malformed message pays full price every time, so ``wire_errors``
    accounting is cache-transparent.  Templates never escape: callers
    hand out clones.  Eviction is FIFO at :data:`CODEC_CACHE_ENTRIES`.
    """

    __slots__ = ("_query_cache", "_answer_cache", "metrics")

    def __init__(self, metrics=None):
        self._query_cache: Dict[object, Tuple[int, bytes]] = {}
        self._answer_cache: Dict[object, Tuple[int, bytes, Message]] = {}
        #: duck-typed counter holder (repro.net.scanpath.ScanPathMetrics)
        self.metrics = metrics

    @staticmethod
    def _query_key(query: Message):
        """Structural identity of a record-free message sans id, or None.

        Label case is part of the key (``Name`` equality is
        case-insensitive but the wire preserves spelling); the message
        id is deliberately not — see the class docstring.
        """
        if query.answers or query.authorities or query.additionals:
            return None
        return (
            query.header.flags_word(),
            tuple(
                (question.qname.labels, question.qtype, question.qclass)
                for question in query.questions
            ),
        )

    def query_hit(self, query: Message):
        """The cached ``(wire, key)`` for this query, or None.

        The returned wire already carries the query's own message id.
        The key is handed back so the transport can thread it through
        to the authoritative server's compiled-answer cache (same key
        structure) without rebuilding it.
        """
        key = self._query_key(query)
        cached = self._query_cache.get(key) if key is not None else None
        metrics = self.metrics
        if cached is None:
            if metrics is not None:
                metrics.query_misses += 1
            return None
        if metrics is not None:
            metrics.query_hits += 1
        cached_id, wire = cached
        message_id = query.header.message_id
        if message_id != cached_id:
            wire = _MESSAGE_ID.pack(message_id) + wire[2:]
        return wire, key

    def query_store(self, query: Message, wire: bytes) -> None:
        """Record a validated round trip for future :meth:`query_hit`."""
        key = self._query_key(query)
        if key is None:
            return
        cache = self._query_cache
        if len(cache) >= CODEC_CACHE_ENTRIES:
            cache.pop(next(iter(cache)))
        cache[key] = (query.header.message_id, wire)

    def encode(self, message: Message) -> Tuple[bytes, Optional[Message]]:
        """Memoized :func:`encode_answer`: ``message``'s wire (under its
        own id) and the shared template of its decode.

        Responses to a scan are massively repetitive *modulo the
        question echo and the message id*: the same REFUSED or
        protective answer goes to every prober.  The structural key
        makes those a single encode and decode plus 2-byte patches.
        An encode error propagates; a wire that does not decode is
        returned with no template and is not cached.
        """
        key = _message_key(message)
        cache = self._answer_cache
        cached = cache.get(key)
        metrics = self.metrics
        message_id = message.header.message_id
        if cached is not None:
            if metrics is not None:
                metrics.encode_hits += 1
            cached_id, wire, template = cached
            if message_id != cached_id:
                wire = _MESSAGE_ID.pack(message_id) + wire[2:]
            return wire, template
        if metrics is not None:
            metrics.encode_misses += 1
        wire, template = encode_answer(message, key)
        if template is not None:
            if len(cache) >= CODEC_CACHE_ENTRIES:
                cache.pop(next(iter(cache)))
            cache[key] = (message_id, wire, template)
        return wire, template

    def decode(self, wire: bytes) -> Message:
        """Plain :func:`decode_message`.  Nothing caches decodes: an
        encoded answer's decode is its :meth:`encode` template, and the
        transport decodes truncated and naive-lane wires itself."""
        return decode_message(wire)
