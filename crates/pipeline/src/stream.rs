//! Server side of a resumable streaming install: a prepared delta
//! exposed as a randomly-addressable chunk stream.
//!
//! A device pulling an update over a lossy link re-requests from its
//! last durable checkpoint after a power cut — *not* from byte 0 — so
//! the server's job is to serve `chunk_len`-byte windows at arbitrary
//! wire offsets. [`DeltaStream`] is that server: wrap the payload of
//! [`Engine::update`](crate::Engine::update) (or wire bytes re-served
//! from a store) with [`DeltaStream::from_wire`] and hand it to the
//! device simulator's `stream_install`.

/// A prepared in-place delta served as a chunked, seekable stream.
#[derive(Clone, Debug)]
pub struct DeltaStream {
    payload: Vec<u8>,
    chunk_len: usize,
}

impl DeltaStream {
    /// Wraps encoded wire bytes: an [`Engine::update`](crate::Engine::update)
    /// payload, or a delta re-served from a store after the client lost
    /// power mid-download.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    #[must_use]
    pub fn from_wire(payload: Vec<u8>, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        Self { payload, chunk_len }
    }

    /// Total wire bytes of the delta.
    #[must_use]
    pub fn wire_len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Serving chunk size in bytes (the last chunk may be shorter).
    #[must_use]
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Serves the chunk starting at wire offset `offset`, or `None` at
    /// or past end of stream. Any offset is valid — a resuming client
    /// asks from its checkpoint, which rarely lands on a chunk-multiple.
    #[must_use]
    pub fn chunk_at(&self, offset: u64) -> Option<&[u8]> {
        let start = usize::try_from(offset).ok()?;
        if start >= self.payload.len() {
            return None;
        }
        // `start < len`, so this cannot overflow for any chunk length.
        let end = start + self.chunk_len.min(self.payload.len() - start);
        Some(&self.payload[start..end])
    }

    /// The full wire bytes (for offline download-then-apply paths).
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Consumes the stream, returning the wire bytes.
    #[must_use]
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_at_serves_windows_from_any_offset() {
        let s = DeltaStream::from_wire((0u8..100).collect(), 32);
        assert_eq!(s.wire_len(), 100);
        assert_eq!(s.chunk_len(), 32);
        assert_eq!(s.chunk_at(0).unwrap().len(), 32);
        assert_eq!(s.chunk_at(0).unwrap()[0], 0);
        // Arbitrary (non-multiple) resume offset.
        let c = s.chunk_at(33).unwrap();
        assert_eq!(c.len(), 32);
        assert_eq!(c[0], 33);
        // Short tail and EOF.
        assert_eq!(s.chunk_at(96).unwrap(), &[96, 97, 98, 99]);
        assert_eq!(s.chunk_at(100), None);
        assert_eq!(s.chunk_at(u64::MAX), None);
        // A chunk length near usize::MAX serves the tail, not an
        // overflowed window.
        let whole = DeltaStream::from_wire((0u8..100).collect(), usize::MAX);
        let tail: Vec<u8> = (33..100).collect();
        assert_eq!(whole.chunk_at(33), Some(&tail[..]));
    }

    #[test]
    #[should_panic(expected = "chunk length")]
    fn zero_chunk_rejected() {
        let _ = DeltaStream::from_wire(vec![1], 0);
    }
}
