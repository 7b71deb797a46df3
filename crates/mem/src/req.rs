//! Request/response types exchanged between cores and the memory fabric.

use std::fmt;

/// A point in simulated time, in core clock cycles.
pub type Cycle = u64;

/// An identifier for an in-flight memory request, chosen by the
/// requesting core. Responses carry the same id back. The fabric treats
/// it as opaque: it need not encode the core or be unique across cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read; a response is delivered when data is available.
    Load,
    /// A posted write; no response is generated.
    Store,
}

impl AccessKind {
    /// Whether this is a load.
    pub fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

/// A memory request leaving a core (already coalesced to one cache-line
/// transaction by the core's load/store unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id; responses echo it.
    pub id: ReqId,
    /// Byte address. The fabric operates at line granularity and masks the
    /// low bits.
    pub addr: u64,
    /// Payload size in bytes (for interconnect bandwidth accounting).
    pub size: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Index of the requesting core (for response routing).
    pub core: usize,
}

/// A completed load returning to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The id of the original request.
    pub id: ReqId,
    /// The line address serviced.
    pub addr: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Load.is_load());
        assert!(!AccessKind::Store.is_load());
    }

    #[test]
    fn req_id_display() {
        assert_eq!(ReqId(42).to_string(), "req#42");
    }
}
