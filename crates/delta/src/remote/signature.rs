//! Reference signatures: one weak + strong checksum pair per block,
//! with a varint wire format.
//!
//! A signature is everything the version holder needs to know about the
//! reference — a few dozen bytes per block instead of the file itself.
//! The device (which holds the reference) computes and uploads it once;
//! the server diffs every future version against it with
//! [`generate_delta`](super::generate_delta), never touching the
//! reference bytes again.
//!
//! The wire layout (full field tables in docs/REMOTE.md):
//!
//! ```text
//! "IPS\x01"  chunking-byte  varint…header  varint-count  blocks…  crc32
//! ```
//!
//! Block lengths are varint-encoded and offsets are implicit (each
//! block starts where the previous ended), so fixed-block signatures
//! cost ~21 bytes per block and decode validates that the lengths sum
//! to the declared source length. The trailing CRC-32 covers every
//! preceding byte.

use super::cdc::{cut_points, CdcParams, Chunker};
use super::strong::strong_of;
use super::weak::weak_of;
use crate::checksum::Crc32;
use crate::varint::{self, VarintError};
use std::fmt;
use std::io::Read;

/// Magic number opening every signature file: `IPS` + version 1.
///
/// Distinct from the delta codec's `IPR\x01` so the two file kinds can
/// never be confused.
pub const SIGNATURE_MAGIC: [u8; 4] = *b"IPS\x01";

/// Default fixed block length (rsync's ballpark).
pub const DEFAULT_BLOCK_LEN: usize = 2048;

/// Wire byte for fixed-size blocks.
const CHUNKING_FIXED: u8 = 0;
/// Wire byte for content-defined chunking.
const CHUNKING_CDC: u8 = 1;

/// Default wire-signature byte budget for [`Chunking::Auto`]: 512 KiB
/// of signature buys ≈ 24 000 blocks, i.e. 1 KiB resolution on a
/// 24 MiB reference.
pub const DEFAULT_SIGNATURE_BUDGET: usize = 512 * 1024;

/// How a reference is split into blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chunking {
    /// Fixed-size blocks of the given length (the final block may be
    /// shorter). Cheap and dense, but an insertion shifts every later
    /// boundary.
    Fixed(usize),
    /// Fixed-size blocks of the smallest power-of-two length in
    /// `[MIN_AUTO, MAX_AUTO]` whose encoded signature fits `budget`
    /// bytes, chosen per reference by [`Chunking::resolve`].
    Auto {
        /// Wire-signature byte budget.
        budget: usize,
    },
    /// Content-defined (Gear) chunks within [`CdcParams`] bounds; an
    /// insertion disturbs only the O(1) boundaries near the edit.
    Cdc(CdcParams),
}

impl Default for Chunking {
    fn default() -> Self {
        Chunking::Fixed(DEFAULT_BLOCK_LEN)
    }
}

impl Chunking {
    /// Finest block length [`Chunking::Auto`] will pick.
    pub const MIN_AUTO: usize = 256;
    /// Coarsest block length [`Chunking::Auto`] will pick.
    pub const MAX_AUTO: usize = 1 << 20;

    /// The layout a `source_len`-byte reference is signed with:
    /// [`Chunking::Auto`] becomes the fixed block length it picks, and
    /// every other chunking keeps its parameters.
    ///
    /// Small blocks give high match resolution (less literal spill
    /// around each edit) but cost ~22 wire bytes per block; `Auto`
    /// resolves the tension per reference by walking the power-of-two
    /// ladder `[256, 1 MiB]` and picking the smallest block length whose
    /// exact encoded signature ([`fixed_signature_wire_len`]) fits the
    /// budget — largest if none fit.
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_delta::remote::{Chunking, Layout};
    ///
    /// let auto = Chunking::Auto { budget: 64 * 1024 };
    /// // A small reference affords the finest block.
    /// assert_eq!(auto.resolve(100_000), Layout::Fixed(256));
    /// // A large one is coarsened until the signature fits 64 KiB.
    /// assert_eq!(auto.resolve(100_000_000), Layout::Fixed(65_536));
    /// ```
    #[must_use]
    pub fn resolve(self, source_len: u64) -> Layout {
        match self {
            Chunking::Fixed(len) => Layout::Fixed(len),
            Chunking::Cdc(params) => Layout::Cdc(params),
            Chunking::Auto { budget } => {
                let mut len = Self::MIN_AUTO;
                while len < Self::MAX_AUTO
                    && fixed_signature_wire_len(source_len, len as u64) > budget as u64
                {
                    len *= 2;
                }
                Layout::Fixed(len)
            }
        }
    }

    /// Validates the parameters (positive block length, CDC bounds);
    /// [`Chunking::Auto`] always resolves to a valid length.
    ///
    /// # Errors
    ///
    /// [`SignatureError::BadChunking`] describing the violation.
    pub fn validate(&self) -> Result<(), SignatureError> {
        self.resolve(0).validate()
    }
}

impl fmt::Display for Chunking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Chunking::Fixed(len) => Layout::Fixed(*len).fmt(f),
            Chunking::Auto { budget } => write!(f, "auto:{budget}"),
            Chunking::Cdc(params) => Layout::Cdc(*params).fmt(f),
        }
    }
}

/// How a signature's blocks are cut: a [`Chunking`] resolved against
/// the reference's length ([`Chunking::resolve`]), so never `Auto`.
/// This is what a signature records and what its wire form carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Fixed-size blocks of the given length (the final block may be
    /// shorter).
    Fixed(usize),
    /// Content-defined (Gear) chunks within [`CdcParams`] bounds.
    Cdc(CdcParams),
}

impl Layout {
    /// Validates the parameters (positive block length, CDC bounds).
    ///
    /// # Errors
    ///
    /// [`SignatureError::BadChunking`] describing the violation.
    pub fn validate(&self) -> Result<(), SignatureError> {
        match self {
            Layout::Fixed(0) => Err(SignatureError::BadChunking(
                "fixed block length must be positive".into(),
            )),
            Layout::Fixed(len) if *len as u64 > u64::from(u32::MAX) => Err(
                SignatureError::BadChunking(format!("fixed block length {len} exceeds u32")),
            ),
            Layout::Fixed(_) => Ok(()),
            Layout::Cdc(params) => params.validate().map_err(SignatureError::BadChunking),
        }
    }

    /// The longest block this layout produces — the streaming
    /// generator's window size (its memory bound).
    #[must_use]
    pub fn max_block_len(&self) -> usize {
        match self {
            Layout::Fixed(len) => *len,
            Layout::Cdc(params) => params.max,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::Fixed(len) => write!(f, "fixed/{len}"),
            Layout::Cdc(p) => write!(f, "cdc/{}:{}:{}", p.min, p.avg, p.max),
        }
    }
}

/// Exact encoded size ([`Signature::encoded_len`]) of a fixed-block
/// signature over a `source_len`-byte reference, without building it.
///
/// # Example
///
/// ```
/// use ipr_delta::remote::{fixed_signature_wire_len, Chunking, Signature};
///
/// let sig = Signature::build(&[7u8; 10_000], Chunking::Fixed(4096)).unwrap();
/// assert_eq!(fixed_signature_wire_len(10_000, 4096), sig.encoded_len() as u64);
/// ```
#[must_use]
pub fn fixed_signature_wire_len(source_len: u64, block_len: u64) -> u64 {
    debug_assert!(block_len > 0);
    let full = source_len / block_len;
    let tail = source_len % block_len;
    let count = full + u64::from(tail != 0);
    let mut len = (SIGNATURE_MAGIC.len() + 1 + 4) as u64
        + varint::encoded_len(source_len) as u64
        + varint::encoded_len(block_len) as u64
        + varint::encoded_len(count) as u64;
    len += full.saturating_mul((varint::encoded_len(block_len) + 4 + 16) as u64);
    if tail != 0 {
        len += (varint::encoded_len(tail) + 4 + 16) as u64;
    }
    len
}

/// The signature of one reference block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSignature {
    /// Byte offset of the block in the reference.
    pub offset: u64,
    /// Block length in bytes (at most the chunking's maximum).
    pub len: u32,
    /// Weak rolling checksum ([`weak_of`]).
    pub weak: u32,
    /// Strong 128-bit hash ([`strong_of`]).
    pub strong: u128,
}

/// A reference's complete signature set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    layout: Layout,
    source_len: u64,
    blocks: Vec<BlockSignature>,
}

impl Signature {
    /// Builds the signature of `reference` under `chunking`, resolved
    /// against the reference's length ([`Chunking::resolve`]); the
    /// signature records the resolved [`Layout`].
    ///
    /// Emits a `remote.sign` span and a `remote.blocks` counter through
    /// [`ipr_trace`].
    ///
    /// # Errors
    ///
    /// [`SignatureError::BadChunking`] when the parameters are invalid.
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_delta::remote::{Chunking, Signature};
    ///
    /// let sig = Signature::build(&[7u8; 10_000], Chunking::Fixed(4096)).unwrap();
    /// assert_eq!(sig.blocks().len(), 3); // 4096 + 4096 + 1808
    /// assert_eq!(sig.source_len(), 10_000);
    /// ```
    pub fn build(reference: &[u8], chunking: Chunking) -> Result<Self, SignatureError> {
        let layout = chunking.resolve(reference.len() as u64);
        layout.validate()?;
        let _span = ipr_trace::span("remote.sign");
        let mut blocks = Vec::new();
        let mut push = |offset: usize, end: usize| {
            let data = &reference[offset..end];
            blocks.push(BlockSignature {
                offset: offset as u64,
                len: (end - offset) as u32,
                weak: weak_of(data),
                strong: strong_of(data),
            });
        };
        match layout {
            Layout::Fixed(len) => {
                let mut offset = 0;
                while offset < reference.len() {
                    let end = (offset + len).min(reference.len());
                    push(offset, end);
                    offset = end;
                }
            }
            Layout::Cdc(params) => {
                let mut offset = 0;
                for end in cut_points(reference, params) {
                    push(offset, end);
                    offset = end;
                }
            }
        }
        ipr_trace::add("remote.blocks", blocks.len() as u64);
        Ok(Self {
            layout,
            source_len: reference.len() as u64,
            blocks,
        })
    }

    /// Builds the signature from a reader without ever holding the
    /// reference in memory: resident state is one block-sized buffer
    /// (`layout.max_block_len()` bytes) plus the growing block table.
    ///
    /// Produces exactly the same signature as [`Signature::build`] on
    /// the same bytes. The reader's length is not known up front, so
    /// the caller resolves its [`Chunking`] first.
    ///
    /// # Errors
    ///
    /// Invalid layout parameters surface as
    /// [`std::io::ErrorKind::InvalidInput`]; reader errors pass
    /// through.
    pub fn build_streaming<R: Read>(mut reference: R, layout: Layout) -> std::io::Result<Self> {
        layout
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let _span = ipr_trace::span("remote.sign");
        let mut blocks = Vec::new();
        let mut offset = 0u64;
        let mut push = |offset: &mut u64, data: &[u8]| {
            blocks.push(BlockSignature {
                offset: *offset,
                len: data.len() as u32,
                weak: weak_of(data),
                strong: strong_of(data),
            });
            *offset += data.len() as u64;
        };
        match layout {
            Layout::Fixed(len) => {
                let mut block = vec![0u8; len];
                loop {
                    let filled = fill(&mut reference, &mut block)?;
                    if filled == 0 {
                        break;
                    }
                    push(&mut offset, &block[..filled]);
                    if filled < len {
                        break;
                    }
                }
            }
            Layout::Cdc(params) => {
                let mut buf = vec![0u8; params.max.clamp(1, 1 << 20)];
                let mut chunker = Chunker::new(params);
                let mut chunk = Vec::with_capacity(params.max);
                loop {
                    let n = reference.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    for &b in &buf[..n] {
                        chunk.push(b);
                        if chunker.push(b) {
                            push(&mut offset, &chunk);
                            chunk.clear();
                        }
                    }
                }
                if !chunk.is_empty() {
                    push(&mut offset, &chunk);
                }
            }
        }
        ipr_trace::add("remote.blocks", blocks.len() as u64);
        Ok(Self {
            layout,
            source_len: offset,
            blocks,
        })
    }

    /// The layout the signature's blocks were cut by.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Reference length in bytes (the delta scripts' `source_len`).
    #[must_use]
    pub fn source_len(&self) -> u64 {
        self.source_len
    }

    /// The per-block signatures, in reference order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockSignature] {
        &self.blocks
    }

    /// In-memory footprint of the signature itself (the block table);
    /// the match-side footprint including the lookup index is
    /// [`MatchTable::resident_bytes`](super::MatchTable::resident_bytes).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.blocks.capacity() * std::mem::size_of::<BlockSignature>()
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let header = match self.layout {
            Layout::Fixed(len) => varint::encoded_len(len as u64),
            Layout::Cdc(p) => {
                varint::encoded_len(p.min as u64)
                    + varint::encoded_len(p.avg as u64)
                    + varint::encoded_len(p.max as u64)
            }
        };
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| varint::encoded_len(u64::from(b.len)) + 4 + 16)
            .sum();
        SIGNATURE_MAGIC.len()
            + 1
            + varint::encoded_len(self.source_len)
            + header
            + varint::encoded_len(self.blocks.len() as u64)
            + blocks
            + 4
    }

    /// Serializes the signature (format above; field tables in
    /// docs/REMOTE.md).
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_delta::remote::{Chunking, Signature};
    ///
    /// let sig = Signature::build(b"0123456789", Chunking::Fixed(4)).unwrap();
    /// let wire = sig.encode();
    /// assert_eq!(wire.len(), sig.encoded_len());
    /// assert_eq!(Signature::decode(&wire).unwrap(), sig);
    /// ```
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&SIGNATURE_MAGIC);
        match self.layout {
            Layout::Fixed(len) => {
                out.push(CHUNKING_FIXED);
                varint::encode(self.source_len, &mut out);
                varint::encode(len as u64, &mut out);
            }
            Layout::Cdc(p) => {
                out.push(CHUNKING_CDC);
                varint::encode(self.source_len, &mut out);
                varint::encode(p.min as u64, &mut out);
                varint::encode(p.avg as u64, &mut out);
                varint::encode(p.max as u64, &mut out);
            }
        }
        varint::encode(self.blocks.len() as u64, &mut out);
        for block in &self.blocks {
            varint::encode(u64::from(block.len), &mut out);
            out.extend_from_slice(&block.weak.to_le_bytes());
            out.extend_from_slice(&block.strong.to_le_bytes());
        }
        let mut crc = Crc32::new();
        crc.update(&out);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// Decodes a serialized signature, validating the magic, chunking
    /// parameters, block-length sum and trailing CRC.
    ///
    /// # Errors
    ///
    /// A [`SignatureError`] naming the first malformation.
    pub fn decode(input: &[u8]) -> Result<Self, SignatureError> {
        let body_len = input.len().checked_sub(4).ok_or(SignatureError::TooShort)?;
        let (body, crc_bytes) = input.split_at(body_len);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        let mut crc = Crc32::new();
        crc.update(body);
        let actual = crc.finish();
        if stored != actual {
            return Err(SignatureError::ChecksumMismatch { stored, actual });
        }
        let mut cursor = Cursor { buf: body, pos: 0 };
        let magic = cursor.take(4)?;
        if magic != SIGNATURE_MAGIC {
            return Err(SignatureError::BadMagic);
        }
        let chunking_byte = cursor.take(1)?[0];
        let source_len = cursor.varint()?;
        let layout = match chunking_byte {
            CHUNKING_FIXED => Layout::Fixed(cursor.varint()? as usize),
            CHUNKING_CDC => Layout::Cdc(CdcParams {
                min: cursor.varint()? as usize,
                avg: cursor.varint()? as usize,
                max: cursor.varint()? as usize,
            }),
            other => return Err(SignatureError::BadChunkingByte(other)),
        };
        layout.validate()?;
        let count = cursor.varint()?;
        if count > body.len() as u64 {
            // Each block costs ≥ 21 wire bytes; a count beyond the
            // input length is hostile. Reject before allocating.
            return Err(SignatureError::TooShort);
        }
        let mut blocks = Vec::with_capacity(count as usize);
        let mut offset = 0u64;
        for _ in 0..count {
            let len = cursor.varint()?;
            if len == 0 || len > layout.max_block_len() as u64 {
                return Err(SignatureError::BadBlockLen {
                    len,
                    max: layout.max_block_len() as u64,
                });
            }
            let weak = u32::from_le_bytes(cursor.take(4)?.try_into().expect("4-byte slice"));
            let strong = u128::from_le_bytes(cursor.take(16)?.try_into().expect("16-byte slice"));
            blocks.push(BlockSignature {
                offset,
                len: len as u32,
                weak,
                strong,
            });
            offset += len;
        }
        if offset != source_len {
            return Err(SignatureError::LengthMismatch {
                declared: source_len,
                blocks: offset,
            });
        }
        if cursor.pos != body.len() {
            return Err(SignatureError::TrailingBytes(body.len() - cursor.pos));
        }
        Ok(Self {
            layout,
            source_len,
            blocks,
        })
    }
}

/// Reads exactly `buf.len()` bytes unless EOF comes first; returns the
/// count actually read.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// Bounds-checked wire reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SignatureError> {
        let end = self.pos.checked_add(n).ok_or(SignatureError::TooShort)?;
        if end > self.buf.len() {
            return Err(SignatureError::TooShort);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, SignatureError> {
        let (value, consumed) = varint::decode(&self.buf[self.pos..])?;
        self.pos += consumed;
        Ok(value)
    }
}

/// Why a signature failed to decode or build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignatureError {
    /// Input ended before a declared field.
    TooShort,
    /// The magic number is not `IPS\x01`.
    BadMagic,
    /// Unknown chunking discriminator byte.
    BadChunkingByte(u8),
    /// Chunking parameters violate their bounds.
    BadChunking(String),
    /// A varint field is malformed.
    Varint(VarintError),
    /// A block length is zero or exceeds the chunking's maximum.
    BadBlockLen {
        /// The offending length.
        len: u64,
        /// The chunking's maximum block length.
        max: u64,
    },
    /// Block lengths do not sum to the declared source length.
    LengthMismatch {
        /// Declared source length.
        declared: u64,
        /// Sum of the block lengths.
        blocks: u64,
    },
    /// Bytes remain after the block table.
    TrailingBytes(usize),
    /// The trailing CRC-32 does not match the content.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC of the received bytes.
        actual: u32,
    },
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooShort => write!(f, "signature input ends before a declared field"),
            Self::BadMagic => write!(f, "not a signature file (bad magic)"),
            Self::BadChunkingByte(b) => write!(f, "unknown chunking discriminator {b:#04x}"),
            Self::BadChunking(msg) => write!(f, "invalid chunking: {msg}"),
            Self::Varint(e) => write!(f, "malformed varint: {e}"),
            Self::BadBlockLen { len, max } => {
                write!(f, "block length {len} outside (0, {max}]")
            }
            Self::LengthMismatch { declared, blocks } => write!(
                f,
                "block lengths sum to {blocks} but source length says {declared}"
            ),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after the block table"),
            Self::ChecksumMismatch { stored, actual } => write!(
                f,
                "signature checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for SignatureError {}

impl From<VarintError> for SignatureError {
    fn from(e: VarintError) -> Self {
        Self::Varint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn fixed_blocks_tile_the_reference() {
        let data = pseudo(10_000, 1);
        let sig = Signature::build(&data, Chunking::Fixed(1024)).unwrap();
        assert_eq!(sig.blocks().len(), 10);
        let mut offset = 0;
        for b in sig.blocks() {
            assert_eq!(b.offset, offset);
            offset += u64::from(b.len);
            assert_eq!(
                b.weak,
                weak_of(&data[b.offset as usize..(b.offset + u64::from(b.len)) as usize])
            );
        }
        assert_eq!(offset, 10_000);
        assert_eq!(sig.blocks()[9].len, 10_000 - 9 * 1024);
    }

    #[test]
    fn cdc_blocks_tile_the_reference() {
        let data = pseudo(50_000, 2);
        let params = CdcParams {
            min: 64,
            avg: 256,
            max: 1024,
        };
        let sig = Signature::build(&data, Chunking::Cdc(params)).unwrap();
        let total: u64 = sig.blocks().iter().map(|b| u64::from(b.len)).sum();
        assert_eq!(total, 50_000);
        assert!(sig.blocks().iter().all(|b| b.len <= 1024));
    }

    #[test]
    fn wire_round_trips() {
        let data = pseudo(33_000, 3);
        for chunking in [
            Chunking::Fixed(700),
            Chunking::Fixed(1),
            Chunking::Cdc(CdcParams {
                min: 16,
                avg: 128,
                max: 512,
            }),
        ] {
            let sig = Signature::build(&data, chunking).unwrap();
            let wire = sig.encode();
            assert_eq!(wire.len(), sig.encoded_len());
            assert_eq!(Signature::decode(&wire).unwrap(), sig);
        }
        let empty = Signature::build(&[], Chunking::Fixed(8)).unwrap();
        assert_eq!(Signature::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn streaming_build_matches_slice_build() {
        let data = pseudo(20_011, 4);
        for chunking in [
            Chunking::Fixed(512),
            Chunking::Cdc(CdcParams {
                min: 16,
                avg: 64,
                max: 256,
            }),
        ] {
            let slice = Signature::build(&data, chunking).unwrap();
            // A reader that trickles 13 bytes at a time exercises refill.
            struct Trickle<'a>(&'a [u8]);
            impl Read for Trickle<'_> {
                fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                    let n = self.0.len().min(buf.len()).min(13);
                    buf[..n].copy_from_slice(&self.0[..n]);
                    self.0 = &self.0[n..];
                    Ok(n)
                }
            }
            let layout = chunking.resolve(data.len() as u64);
            let streamed = Signature::build_streaming(Trickle(&data), layout).unwrap();
            assert_eq!(streamed, slice, "{chunking}");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let sig = Signature::build(&pseudo(4_000, 5), Chunking::Fixed(256)).unwrap();
        let wire = sig.encode();
        assert_eq!(Signature::decode(&[]), Err(SignatureError::TooShort));
        // Flip one byte anywhere: the CRC catches it.
        for i in [0usize, 4, wire.len() / 2, wire.len() - 5] {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    Signature::decode(&bad),
                    Err(SignatureError::ChecksumMismatch { .. } | SignatureError::BadMagic)
                ),
                "byte {i} flip not caught"
            );
        }
        // Truncation loses the CRC trailer.
        assert!(Signature::decode(&wire[..wire.len() - 1]).is_err());
        // Hostile count: huge declared block count with a fixed-up CRC
        // must not allocate or panic.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&SIGNATURE_MAGIC);
        hostile.push(CHUNKING_FIXED);
        varint::encode(1 << 40, &mut hostile); // source_len
        varint::encode(4096, &mut hostile); // block_len
        varint::encode(u64::MAX, &mut hostile); // count
        let mut crc = Crc32::new();
        crc.update(&hostile);
        let digest = crc.finish();
        hostile.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(Signature::decode(&hostile), Err(SignatureError::TooShort));
    }

    #[test]
    fn wire_len_predictor_is_exact() {
        for (len, block) in [
            (0usize, 256u64),
            (1, 256),
            (255, 256),
            (256, 256),
            (257, 256),
            (10_000, 4096),
            (100_000, 700),
            (65_536, 65_536),
        ] {
            let sig = Signature::build(&pseudo(len, 6), Chunking::Fixed(block as usize)).unwrap();
            assert_eq!(
                fixed_signature_wire_len(len as u64, block),
                sig.encoded_len() as u64,
                "{len}B at block {block}"
            );
        }
    }

    #[test]
    fn auto_block_size_fits_the_budget() {
        let auto = Chunking::Auto { budget: 4096 };
        for source_len in [0u64, 1, 1000, 100_000, 1 << 24, 1 << 32] {
            let Layout::Fixed(block) = auto.resolve(source_len) else {
                panic!("auto resolves to fixed blocks");
            };
            assert!(block.is_power_of_two());
            assert!((Chunking::MIN_AUTO..=Chunking::MAX_AUTO).contains(&block));
            let wire = fixed_signature_wire_len(source_len, block as u64);
            if block < Chunking::MAX_AUTO {
                assert!(wire <= 4096, "{source_len}: {wire} over budget at {block}");
                // Smallest such block: one step finer must overflow.
                if block > Chunking::MIN_AUTO {
                    assert!(fixed_signature_wire_len(source_len, block as u64 / 2) > 4096);
                }
            }
        }
        // Fixed ignores the source length entirely.
        assert_eq!(Chunking::Fixed(1234).resolve(u64::MAX), Layout::Fixed(1234));
        assert_eq!(
            Chunking::default().resolve(0),
            Layout::Fixed(DEFAULT_BLOCK_LEN)
        );
        // Impossible budget: clamps to the coarsest rung.
        let starved = Chunking::Auto { budget: 0 };
        assert_eq!(starved.resolve(u64::MAX), Layout::Fixed(Chunking::MAX_AUTO));
        assert_eq!(format!("{starved}"), "auto:0");
        // A signature records the length the budget resolved to.
        let data = pseudo(100_000, 7);
        let sig = Signature::build(&data, auto).unwrap();
        assert_eq!(sig.layout(), auto.resolve(100_000));
    }

    #[test]
    fn invalid_chunking_is_rejected() {
        assert!(Signature::build(b"x", Chunking::Fixed(0)).is_err());
        assert!(Signature::build(
            b"x",
            Chunking::Cdc(CdcParams {
                min: 9,
                avg: 5,
                max: 3
            })
        )
        .is_err());
    }
}
