//! The request/response protocol spoken by every timing component.

use bytes::Bytes;

use xcache_sim::Cycle;

/// Identifier correlating a [`MemReq`] with its [`MemResp`].
///
/// The issuer chooses ids; they are opaque to the memory system. X-Cache
/// walkers put their walker index here so a DRAM response wakes the right
/// coroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemReqKind {
    /// Fetch `len` bytes.
    Read,
    /// Store the carried payload.
    Write,
}

/// A memory transaction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemReq {
    /// Correlation id chosen by the issuer.
    pub id: ReqId,
    /// Byte address of the first byte.
    pub addr: u64,
    /// Transfer length in bytes (reads) or payload length (writes).
    pub len: u32,
    /// Read or write.
    pub kind: MemReqKind,
    /// Payload for writes; empty for reads.
    pub data: Bytes,
}

impl MemReq {
    /// Builds a read request for `len` bytes at `addr`.
    #[must_use]
    pub fn read(id: u64, addr: u64, len: u32) -> Self {
        MemReq {
            id: ReqId(id),
            addr,
            len,
            kind: MemReqKind::Read,
            data: Bytes::new(),
        }
    }

    /// Builds a write request storing `data` at `addr`.
    #[must_use]
    pub fn write(id: u64, addr: u64, data: Bytes) -> Self {
        let len = data.len() as u32;
        MemReq {
            id: ReqId(id),
            addr,
            len,
            kind: MemReqKind::Write,
            data,
        }
    }

    /// Whether this is a read.
    #[must_use]
    pub fn is_read(&self) -> bool {
        self.kind == MemReqKind::Read
    }
}

/// A memory transaction response.
///
/// Writes are acknowledged with an empty payload so issuers can track
/// completion (needed for fence-like draining in the DSA models).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemResp {
    /// The id of the request this answers.
    pub id: ReqId,
    /// Address of the original request.
    pub addr: u64,
    /// Fetched bytes (reads) or empty (write acks).
    pub data: Bytes,
    /// Cycle at which the response left the responder.
    pub completed_at: Cycle,
}

/// A component that accepts [`MemReq`]s and produces [`MemResp`]s.
///
/// Both [`DramModel`](crate::DramModel) and
/// [`AddressCache`](crate::AddressCache) implement this, which is what lets
/// the §6 hierarchies stack: an X-Cache's miss path can sit on top of either.
///
/// The protocol is non-blocking on both sides:
/// * [`try_request`](MemoryPort::try_request) may refuse (back-pressure) and
///   hands the request back.
/// * [`take_response`](MemoryPort::take_response) returns at most one ready
///   response per call; callers drain it in a loop.
pub trait MemoryPort {
    /// Offers a request. On back-pressure the request is returned in `Err`
    /// and the caller must retry on a later cycle.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the input queue is full this cycle.
    fn try_request(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq>;

    /// Whether [`try_request`](Self::try_request) would currently be
    /// accepted. Polite drivers check before offering so refusals are
    /// never charged as input stalls.
    fn can_accept(&self) -> bool;

    /// Removes one response that is ready at `now`, if any.
    fn take_response(&mut self, now: Cycle) -> Option<MemResp>;

    /// Advances internal state by one cycle.
    fn tick(&mut self, now: Cycle);

    /// Whether requests are in flight (used for drain loops).
    fn busy(&self) -> bool;

    /// Earliest cycle strictly after `now` at which this port could do
    /// observable work (retire a transaction, deliver a response, count a
    /// stall), or `None` when idle with nothing scheduled. Queried after
    /// `tick(now)`; the strict no-op `next_event` contract on
    /// [`fast_forward`](xcache_sim::fast_forward).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_constructor() {
        let r = MemReq::read(3, 0x40, 64);
        assert!(r.is_read());
        assert_eq!(r.id, ReqId(3));
        assert_eq!(r.len, 64);
        assert!(r.data.is_empty());
    }

    #[test]
    fn write_constructor_takes_len_from_payload() {
        let w = MemReq::write(4, 0x80, Bytes::from_static(&[1, 2, 3]));
        assert!(!w.is_read());
        assert_eq!(w.len, 3);
    }

    #[test]
    fn req_id_displays() {
        assert_eq!(ReqId(9).to_string(), "req#9");
    }
}
