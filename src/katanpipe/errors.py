"""Exception types raised across the package.

Every error deliberately raised by katanpipe derives from KatanPipeError,
so callers can catch one type at the boundary.  The ingest server answers
any KatanPipeError with ``{"status": "rejected", "reason": ...}``: the
class name is the reason and the class's ``status`` is the reply status.
"""


class KatanPipeError(Exception):
    """Base class for all katanpipe errors."""

    status = 400

    @property
    def reason(self) -> str:
        return type(self).__name__


# --- cipher layer ---

class MalformedKey(KatanPipeError):
    """Key text is not exactly 20 hex digits, or the value is out of range."""


class LaneOutOfRange(KatanPipeError):
    """Lane index outside 0..63."""


# --- codec layer ---

class EmptyInput(KatanPipeError):
    """Operation requires at least one byte of input."""


class BadPlaintextLen(KatanPipeError):
    """plaintext_len is inconsistent with the ciphertext length."""


class MalformedJson(KatanPipeError):
    """Envelope body is not a JSON object."""


class MissingField(KatanPipeError):
    """Envelope lacks a required field or a field has the wrong type."""


class BadBase64(KatanPipeError):
    """payload is not valid standard base64."""


class BadLengthInvariant(KatanPipeError):
    """Ciphertext length is not a positive multiple of 256 bytes, or a
    meta record's slice runs past the end of its blob."""


class UnknownCipher(KatanPipeError):
    """Cipher name is not in bench.CIPHERS, or an envelope's is not KATAN32."""


# --- transport layer ---

class BadDeviceId(KatanPipeError):
    """device_id is empty, too long, or not filesystem-safe."""


class PayloadTooLarge(KatanPipeError):
    """Decoded payload exceeds the server's configured limit."""

    status = 413


class UnknownDevice(KatanPipeError):
    """No stored blob for the requested device."""

    status = 404


class NotFound(KatanPipeError):
    """No route matches the request's method and path."""

    status = 404


class RequestTimeout(KatanPipeError):
    """The request body stopped arriving before Content-Length bytes."""

    status = 408


class MalformedRequest(KatanPipeError):
    """The request line cannot be read, or a two-word (HTTP/0.9) request
    line names a method other than GET."""


class RequestLineTooLong(KatanPipeError):
    """The request line is over 64 KiB."""

    status = 414


class HeaderTooLarge(KatanPipeError):
    """A header line is over 64 KiB, or there are over 100 headers."""

    status = 431


class UnsupportedMethod(KatanPipeError):
    """The method is neither GET nor POST."""

    status = 501


class UnsupportedVersion(KatanPipeError):
    """The request line names HTTP/2.0 or later."""

    status = 505


class StorageFailure(KatanPipeError):
    """The store could not durably append a message."""

    status = 500


class ConnectionFailed(KatanPipeError):
    """Could not reach the ingest server after all retries."""


class ServerRejected(KatanPipeError):
    """Server answered with a non-2xx status, kept in ``status``."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"server returned {status}: {detail}" if detail
                         else f"server returned {status}")
        self.status = status
        self.detail = detail


# --- bench layer ---

class NonPositiveElapsed(KatanPipeError):
    """Elapsed time must be strictly positive."""


class EmptySamples(KatanPipeError):
    """A report needs at least one sample."""


class NonPositiveInput(KatanPipeError):
    """Rate inputs must be strictly positive."""


class BadLength(KatanPipeError):
    """Byte count must be a positive multiple of the cipher block size."""
