//! Serialization of delta scripts into byte-level delta files.
//!
//! Four codeword families reproduce the encodings the paper discusses (§3,
//! §7) plus the redesign it proposes as future work:
//!
//! * [`Format::Ordered`] — the classic delta encoding *without* write
//!   offsets: commands are applied in write order, so each command's `to`
//!   offset is implicit. This is the "Δ compress, no write offsets" column
//!   of Table 1.
//! * [`Format::InPlace`] — the same varint codewords with an *explicit*
//!   write offset per command, as in-place reconstruction requires (the
//!   delta applies commands out of write order). The size difference
//!   between `Ordered` and `InPlace` on the same script is the paper's
//!   1.9% "encoding loss".
//! * [`Format::PaperOrdered`] / [`Format::PaperInPlace`] — faithful to the
//!   fixed-width codewords the paper adopted from earlier differencing
//!   work: 4-byte offsets, 2-byte copy lengths, and a *single byte* for add
//!   lengths, so long literal runs split into many small add commands. The
//!   paper calls out this inefficiency explicitly.
//! * [`Format::Improved`] — the codeword redesign the paper suggests
//!   ("a redesign of the delta compression codewords for in-place
//!   reconstructibility would further reduce lost compression"): varint
//!   fields plus a tag bit that elides `to` when a command chains directly
//!   after the previous command's write interval.
//!
//! Every delta file starts with a small header carrying the format, the
//! source/target lengths and optionally a CRC-32 of the target so appliers
//! can verify reconstruction.
//!
//! # Example
//!
//! ```
//! use ipr_delta::{Command, DeltaScript};
//! use ipr_delta::codec::{decode, encode, Format};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let script = DeltaScript::new(8, 8, vec![Command::copy(0, 0, 8)])?;
//! let bytes = encode(&script, Format::InPlace)?;
//! let decoded = decode(&bytes)?;
//! assert_eq!(decoded.script, script);
//! assert_eq!(decoded.format, Format::InPlace);
//! # Ok(())
//! # }
//! ```

mod improved;
mod inplace;
mod ordered;
mod paper;
mod reader;

pub mod stream;

use crate::checksum::crc32;
use crate::command::{Command, Copy};
use crate::script::{DeltaScript, ScriptError};
use crate::varint::{self, VarintError};
use reader::ByteReader;
use std::fmt;
use stream::StreamHeader;

/// Magic bytes opening every encoded delta file.
pub const MAGIC: [u8; 4] = *b"IPR\x01";

/// Header flag bit: a CRC-32 of the target file follows the command count.
const FLAG_TARGET_CRC: u8 = 0x01;

/// Command tag bytes shared by the varint formats.
const TAG_COPY: u8 = 0x00;
const TAG_ADD: u8 = 0x01;

/// A delta-file codeword format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// Varint codewords, write offsets implicit (commands in write order).
    Ordered,
    /// Varint codewords with explicit write offsets (any command order).
    InPlace,
    /// Paper-faithful fixed-width codewords, write offsets implicit.
    PaperOrdered,
    /// Paper-faithful fixed-width codewords with explicit write offsets.
    PaperInPlace,
    /// Redesigned in-place codewords with chained write offsets.
    Improved,
}

impl Format {
    /// All formats, for sweeps and tests.
    pub const ALL: [Format; 5] = [
        Format::Ordered,
        Format::InPlace,
        Format::PaperOrdered,
        Format::PaperInPlace,
        Format::Improved,
    ];

    /// Whether the format carries explicit write offsets and therefore
    /// supports out-of-write-order (in-place reconstructible) deltas.
    #[must_use]
    pub fn supports_out_of_order(self) -> bool {
        matches!(
            self,
            Format::InPlace | Format::PaperInPlace | Format::Improved
        )
    }

    /// The wire byte identifying this format.
    #[must_use]
    fn wire_byte(self) -> u8 {
        match self {
            Format::Ordered => 0,
            Format::InPlace => 1,
            Format::PaperOrdered => 2,
            Format::PaperInPlace => 3,
            Format::Improved => 4,
        }
    }

    fn from_wire_byte(b: u8) -> Option<Format> {
        Some(match b {
            0 => Format::Ordered,
            1 => Format::InPlace,
            2 => Format::PaperOrdered,
            3 => Format::PaperInPlace,
            4 => Format::Improved,
            _ => return None,
        })
    }

    /// Encoded size in bytes of one copy command under this format,
    /// including splits forced by fixed-width length fields.
    ///
    /// Used by cycle-breaking cost models: converting copy `c` to an add
    /// grows the delta by [`Format::add_cost`]` - `[`Format::copy_cost`].
    #[must_use]
    pub fn copy_cost(self, c: &Copy) -> u64 {
        match self {
            Format::Ordered => {
                1 + varint::encoded_len(c.from) as u64 + varint::encoded_len(c.len) as u64
            }
            Format::InPlace => {
                1 + varint::encoded_len(c.from) as u64
                    + varint::encoded_len(c.to) as u64
                    + varint::encoded_len(c.len) as u64
            }
            Format::PaperOrdered => 7 * paper::split_count(c.len, paper::MAX_COPY_LEN),
            Format::PaperInPlace => 11 * paper::split_count(c.len, paper::MAX_COPY_LEN),
            // Worst case: the `to` offset is present (no chaining).
            Format::Improved => {
                1 + varint::encoded_len(c.from) as u64
                    + varint::encoded_len(c.to) as u64
                    + varint::encoded_len(c.len) as u64
            }
        }
    }

    /// Encoded size in bytes of one add command of `len` literal bytes
    /// written at offset `to`, including the data and any splits.
    #[must_use]
    pub fn add_cost(self, to: u64, len: u64) -> u64 {
        match self {
            Format::Ordered => 1 + varint::encoded_len(len) as u64 + len,
            Format::InPlace => {
                1 + varint::encoded_len(to) as u64 + varint::encoded_len(len) as u64 + len
            }
            Format::PaperOrdered => 2 * paper::split_count(len, paper::MAX_ADD_LEN) + len,
            Format::PaperInPlace => 6 * paper::split_count(len, paper::MAX_ADD_LEN) + len,
            Format::Improved => {
                1 + varint::encoded_len(to) as u64 + varint::encoded_len(len) as u64 + len
            }
        }
    }

    /// Bytes the delta grows by when copy `c` is converted to an add.
    ///
    /// This is the paper's `cost(v) = l - |f|` node cost, computed against
    /// real codeword sizes.
    #[must_use]
    pub fn conversion_cost(self, c: &Copy) -> u64 {
        self.add_cost(c.to, c.len).saturating_sub(self.copy_cost(c))
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Format::Ordered => "ordered",
            Format::InPlace => "in-place",
            Format::PaperOrdered => "paper-ordered",
            Format::PaperInPlace => "paper-in-place",
            Format::Improved => "improved",
        };
        f.write_str(name)
    }
}

/// Error returned when a script cannot be encoded in a given format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The format has implicit write offsets but the script is not in
    /// write order (convert with
    /// [`DeltaScript::into_write_ordered`] first, or use an in-place
    /// format).
    NotWriteOrdered,
    /// An offset exceeds the fixed-width field of a paper format.
    OffsetTooLarge {
        /// Index of the offending command.
        index: usize,
    },
    /// `target` passed to [`encode_checked`] does not match the script's
    /// target length.
    TargetLenMismatch {
        /// The script's declared target length.
        expected: u64,
        /// The actual buffer length supplied.
        actual: u64,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NotWriteOrdered => {
                write!(
                    f,
                    "script is not in write order, required by an offset-free format"
                )
            }
            EncodeError::OffsetTooLarge { index } => {
                write!(
                    f,
                    "command {index} offset exceeds the fixed-width codeword field"
                )
            }
            EncodeError::TargetLenMismatch { expected, actual } => {
                write!(
                    f,
                    "target buffer is {actual} bytes, script expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error returned when decoding a malformed delta file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// The format byte is unknown.
    UnknownFormat(u8),
    /// The input ended prematurely.
    Truncated,
    /// A varint field is malformed.
    Varint(VarintError),
    /// Bytes remain after the declared command count was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// The decoded commands do not form a valid script.
    Script(ScriptError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "input is not an IPR delta file"),
            DecodeError::UnknownFormat(b) => write!(f, "unknown format byte 0x{b:02x}"),
            DecodeError::Truncated => write!(f, "delta file truncated"),
            DecodeError::Varint(e) => write!(f, "malformed varint: {e}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the last command")
            }
            DecodeError::Script(e) => write!(f, "decoded commands are invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Varint(e) => Some(e),
            DecodeError::Script(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VarintError> for DecodeError {
    fn from(e: VarintError) -> Self {
        DecodeError::Varint(e)
    }
}

impl From<ScriptError> for DecodeError {
    fn from(e: ScriptError) -> Self {
        DecodeError::Script(e)
    }
}

/// A decoded delta file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedDelta {
    /// The decoded script. For formats that split long commands
    /// ([`Format::PaperOrdered`], [`Format::PaperInPlace`]) the command
    /// boundaries may differ from the script originally encoded, but the
    /// materialized version file is identical.
    pub script: DeltaScript,
    /// The codeword format the file used.
    pub format: Format,
    /// CRC-32 of the target file, if the encoder embedded one.
    pub target_crc: Option<u32>,
}

/// Encodes `script` in `format` without a target checksum.
///
/// # Errors
///
/// See [`EncodeError`].
pub fn encode(script: &DeltaScript, format: Format) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    encode_inner_into(script, format, None, &mut out)?;
    Ok(out)
}

/// Encodes `script` in `format` and embeds a CRC-32 of `target` so the
/// applier can verify reconstruction.
///
/// # Errors
///
/// Returns [`EncodeError::TargetLenMismatch`] if `target.len()` differs
/// from the script's target length, plus the failures of [`encode`].
pub fn encode_checked(
    script: &DeltaScript,
    format: Format,
    target: &[u8],
) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    encode_checked_into(script, format, target, &mut out)?;
    Ok(out)
}

/// [`encode_checked`] into a caller-supplied buffer (cleared first),
/// reusing its capacity — the allocation-free encode path of
/// `Engine::update`. Header and commands are written in one pass (every
/// format's exact command count is known up front), so a warm buffer,
/// such as one drawn from a [`ScriptPool`](crate::pool::ScriptPool),
/// encodes without touching the allocator.
///
/// # Errors
///
/// As [`encode_checked`]. On error `out`'s contents are unspecified.
pub fn encode_checked_into(
    script: &DeltaScript,
    format: Format,
    target: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    if target.len() as u64 != script.target_len() {
        return Err(EncodeError::TargetLenMismatch {
            expected: script.target_len(),
            actual: target.len() as u64,
        });
    }
    encode_inner_into(script, format, Some(crc32(target)), out)
}

/// Encodes `script` in `format`, embedding an already-known target
/// CRC-32 — e.g. carried over from another delta producing the same
/// target, as [`compose`](crate::compose) does.
///
/// # Errors
///
/// See [`encode`].
pub fn encode_with_crc(
    script: &DeltaScript,
    format: Format,
    target_crc: u32,
) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    encode_inner_into(script, format, Some(target_crc), &mut out)?;
    Ok(out)
}

/// Encoded size of `script` under `format`: the length of the file
/// [`encode`] writes, which it encodes into a temporary buffer to
/// measure. [`encoded_size_bound`] bounds the size without encoding.
///
/// # Errors
///
/// Same failure cases as [`encode`].
pub fn encoded_size(script: &DeltaScript, format: Format) -> Result<u64, EncodeError> {
    // The encoder is the one size model: measure what it writes.
    let bytes = encode(script, format)?;
    Ok(bytes.len() as u64)
}

/// An upper bound on the encoded size of `script` under `format`, with
/// or without a target CRC, computed from its lengths, command count and
/// added bytes without encoding — cheap enough to size an output buffer
/// before every encode, where [`encoded_size`] encodes the whole script.
#[must_use]
pub fn encoded_size_bound(script: &DeltaScript, format: Format) -> usize {
    // No offset or length in a valid script exceeds the longer file.
    let field = varint::encoded_len(script.source_len().max(script.target_len()));
    let codewords = match format {
        Format::Ordered => script.len() * (1 + 2 * field),
        Format::InPlace | Format::Improved => script.len() * (1 + 3 * field),
        // Tag, 4-byte offsets and a 2-byte copy length per codeword,
        // splits included.
        Format::PaperOrdered => paper::wire_count(script) as usize * 7,
        Format::PaperInPlace => paper::wire_count(script) as usize * 11,
    };
    // Magic, format, flags, two lengths, the count and the CRC.
    let header = MAGIC.len() + 2 + 2 * field + varint::encoded_len(u64::MAX) + 4;
    header + codewords + script.added_bytes() as usize
}

fn encode_inner_into(
    script: &DeltaScript,
    format: Format,
    target_crc: Option<u32>,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    let _span = ipr_trace::span("codec.encode");
    if !format.supports_out_of_order() && !script.is_write_ordered() {
        return Err(EncodeError::NotWriteOrdered);
    }
    // Every format's wire command count is known before encoding (the
    // varint formats emit one codeword per command; the paper formats
    // split by fixed-width length fields), so header and payload write
    // into one buffer in a single pass — no intermediate payload vec.
    let count = match format {
        Format::Ordered | Format::InPlace | Format::Improved => script.len() as u64,
        Format::PaperOrdered | Format::PaperInPlace => paper::wire_count(script),
    };
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(format.wire_byte());
    out.push(if target_crc.is_some() {
        FLAG_TARGET_CRC
    } else {
        0
    });
    varint::encode(script.source_len(), out);
    varint::encode(script.target_len(), out);
    varint::encode(count, out);
    if let Some(crc) = target_crc {
        out.extend_from_slice(&crc.to_le_bytes());
    }
    match format {
        Format::Ordered => ordered::encode_commands_into(script, out)?,
        Format::InPlace => inplace::encode_commands_into(script, out)?,
        Format::PaperOrdered => paper::encode_commands_into(script, false, out)?,
        Format::PaperInPlace => paper::encode_commands_into(script, true, out)?,
        Format::Improved => improved::encode_commands_into(script, out)?,
    }
    ipr_trace::add("codec.encoded_bytes", out.len() as u64);
    Ok(())
}

/// Decodes an encoded delta file.
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode(bytes: &[u8]) -> Result<DecodedDelta, DecodeError> {
    let _span = ipr_trace::span("codec.decode");
    ipr_trace::add("codec.decoded_bytes", bytes.len() as u64);
    let mut r = ByteReader::new(bytes);
    let header = read_header(&mut r)?;
    let count = header.command_count;
    // Every wire command occupies at least one byte, so a declared count
    // beyond the remaining input is hostile: reject it up front instead
    // of reserving an attacker-controlled allocation.
    if count > r.remaining() as u64 {
        return Err(DecodeError::Truncated);
    }
    let mut commands = Vec::with_capacity(count as usize);
    let mut next_write = 0u64;
    for _ in 0..count {
        commands.push(decode_command(header.format, &mut r, &mut next_write)?);
    }
    if !r.is_exhausted() {
        return Err(DecodeError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    let script = DeltaScript::new(header.source_len, header.target_len, commands)?;
    Ok(DecodedDelta {
        script,
        format: header.format,
        target_crc: header.target_crc,
    })
}

/// Decodes one command of `format`, the one dispatch both [`decode`]
/// and [`StreamDecoder::next_command`](stream::StreamDecoder::next_command)
/// run. `next_write` carries the format's state between commands (the
/// implicit write cursor, or [`Format::Improved`]'s chain end; `0`
/// before the first command), which a stream checkpoint saves.
fn decode_command(
    format: Format,
    r: &mut ByteReader<'_>,
    next_write: &mut u64,
) -> Result<Command, DecodeError> {
    match format {
        Format::Ordered => ordered::decode_one(r, next_write),
        Format::InPlace => inplace::decode_one(r),
        Format::PaperOrdered => paper::decode_one(r, false, next_write),
        Format::PaperInPlace => paper::decode_one(r, true, next_write),
        Format::Improved => improved::decode_one(r, next_write),
    }
}

/// Reads the header [`encode`] writes: the magic, the format byte, the
/// flags, both lengths, the command count and the optional target CRC.
/// An input too short to hold the magic is [`DecodeError::BadMagic`].
fn read_header(r: &mut ByteReader<'_>) -> Result<StreamHeader, DecodeError> {
    let magic = r
        .read_bytes(MAGIC.len())
        .map_err(|_| DecodeError::BadMagic)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let format_byte = r.read_u8()?;
    let format =
        Format::from_wire_byte(format_byte).ok_or(DecodeError::UnknownFormat(format_byte))?;
    let flags = r.read_u8()?;
    Ok(StreamHeader {
        format,
        source_len: r.read_varint()?,
        target_len: r.read_varint()?,
        command_count: r.read_varint()?,
        target_crc: if flags & FLAG_TARGET_CRC != 0 {
            Some(r.read_u32_le()?)
        } else {
            None
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;

    fn sample_script() -> DeltaScript {
        DeltaScript::new(
            100,
            50,
            vec![
                Command::copy(10, 0, 20),
                Command::add(20, vec![0xaa; 10]),
                Command::copy(90, 30, 10),
                Command::add(40, vec![0xbb; 10]),
            ],
        )
        .unwrap()
    }

    fn out_of_order_script() -> DeltaScript {
        DeltaScript::new(
            100,
            30,
            vec![
                Command::copy(0, 20, 10),
                Command::copy(50, 0, 10),
                Command::add(10, vec![0xcc; 10]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_exact_formats() {
        let s = sample_script();
        for format in [Format::Ordered, Format::InPlace, Format::Improved] {
            let bytes = encode(&s, format).unwrap();
            let d = decode(&bytes).unwrap();
            assert_eq!(d.script, s, "format {format}");
            assert_eq!(d.format, format);
            assert_eq!(d.target_crc, None);
        }
    }

    #[test]
    fn round_trip_paper_formats_semantics() {
        // Paper formats may split commands; the script must still be valid
        // and produce the same bytes.
        let s = sample_script();
        for format in [Format::PaperOrdered, Format::PaperInPlace] {
            let bytes = encode(&s, format).unwrap();
            let d = decode(&bytes).unwrap();
            assert_eq!(d.script.target_len(), s.target_len());
            assert_eq!(d.script.copied_bytes(), s.copied_bytes());
            assert_eq!(d.script.added_bytes(), s.added_bytes());
        }
    }

    #[test]
    fn size_bound_covers_every_format() {
        // Long commands force the paper formats to split; offsets and
        // lengths need multi-byte varints.
        let long = DeltaScript::new(
            300_000,
            300_000,
            vec![
                Command::copy(1000, 0, 200_000),
                Command::add(200_000, vec![0xee; 1000]),
                Command::copy(0, 201_000, 99_000),
            ],
        )
        .unwrap();
        let empty = DeltaScript::new(0, 0, Vec::new()).unwrap();
        for script in [sample_script(), long, empty] {
            for format in Format::ALL {
                let wire = encode_with_crc(&script, format, 0).unwrap();
                let bound = encoded_size_bound(&script, format);
                assert!(
                    wire.len() <= bound,
                    "format {format}: {} > {bound}",
                    wire.len()
                );
            }
        }
    }

    #[test]
    fn ordered_formats_reject_out_of_order() {
        let s = out_of_order_script();
        assert_eq!(
            encode(&s, Format::Ordered),
            Err(EncodeError::NotWriteOrdered)
        );
        assert_eq!(
            encode(&s, Format::PaperOrdered),
            Err(EncodeError::NotWriteOrdered)
        );
    }

    #[test]
    fn in_place_formats_accept_out_of_order() {
        let s = out_of_order_script();
        for format in [Format::InPlace, Format::PaperInPlace, Format::Improved] {
            let bytes = encode(&s, format).unwrap();
            let d = decode(&bytes).unwrap();
            // Command order must be preserved exactly: it encodes the safe
            // application order.
            let tos: Vec<u64> = d.script.commands().iter().map(Command::to).collect();
            assert_eq!(tos, vec![20, 0, 10], "format {format}");
        }
    }

    #[test]
    fn checked_encode_embeds_crc() {
        let s = DeltaScript::new(4, 4, vec![Command::copy(0, 0, 4)]).unwrap();
        let target = b"abcd";
        let bytes = encode_checked(&s, Format::InPlace, target).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.target_crc, Some(crc32(target)));
    }

    #[test]
    fn checked_encode_rejects_len_mismatch() {
        let s = DeltaScript::new(4, 4, vec![Command::copy(0, 0, 4)]).unwrap();
        let err = encode_checked(&s, Format::InPlace, b"abc").unwrap_err();
        assert_eq!(
            err,
            EncodeError::TargetLenMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn encode_checked_into_reuses_dirty_buffers() {
        // A pooled buffer arrives with stale content and capacity; the
        // into-variant must clear it and produce the exact bytes of the
        // allocating encode — including the paper formats, whose command
        // count is a split pre-pass rather than script.len().
        let long_add = DeltaScript::new(
            10,
            70_000,
            vec![
                Command::add(0, vec![0x5a; 66_000]),
                Command::copy(0, 66_000, 10),
                Command::add(66_010, vec![0xa5; 3_990]),
            ],
        )
        .unwrap();
        let mut buf = vec![0xffu8; 7]; // dirty, undersized
        for s in [&sample_script(), &out_of_order_script(), &long_add] {
            for format in [Format::InPlace, Format::PaperInPlace, Format::Improved] {
                encode_checked_into(s, format, &vec![1; s.target_len() as usize], &mut buf)
                    .unwrap();
                assert_eq!(
                    buf,
                    encode_checked(s, format, &vec![1; s.target_len() as usize]).unwrap()
                );
                // The pre-declared count matches what decode walks.
                assert!(decode(&buf).is_ok(), "{format}");
            }
        }
    }

    #[test]
    fn decode_rejects_bad_magic() {
        assert_eq!(decode(b"nope"), Err(DecodeError::BadMagic));
        assert_eq!(decode(b""), Err(DecodeError::BadMagic));
    }

    #[test]
    fn decode_rejects_unknown_format() {
        let s = DeltaScript::new(1, 1, vec![Command::copy(0, 0, 1)]).unwrap();
        let mut bytes = encode(&s, Format::Ordered).unwrap();
        bytes[4] = 0x77;
        assert_eq!(decode(&bytes), Err(DecodeError::UnknownFormat(0x77)));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let s = sample_script();
        let bytes = encode(&s, Format::InPlace).unwrap();
        for cut in 1..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("truncated input must fail");
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated
                        | DecodeError::BadMagic
                        | DecodeError::Varint(_)
                        | DecodeError::Script(_)
                ),
                "cut {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let s = sample_script();
        let mut bytes = encode(&s, Format::InPlace).unwrap();
        bytes.push(0x00);
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn empty_script_round_trips() {
        let s = DeltaScript::new(10, 0, vec![]).unwrap();
        for format in Format::ALL {
            let bytes = encode(&s, format).unwrap();
            let d = decode(&bytes).unwrap();
            assert!(d.script.is_empty());
            assert_eq!(d.script.source_len(), 10);
        }
    }

    #[test]
    fn cost_model_matches_encoding_for_varint_formats() {
        let s = sample_script();
        for format in [Format::Ordered, Format::InPlace] {
            let header = encode(&DeltaScript::new(100, 0, vec![]).unwrap(), format)
                .unwrap()
                .len() as u64
                // the empty script encodes target_len=0 and count=0; the real
                // header differs only in those varints, both 1 byte here
                ;
            let mut expected = header;
            // target_len 50 and count 4 still fit in 1-byte varints, so the
            // header size matches the empty-script header.
            for cmd in s.commands() {
                expected += match cmd {
                    Command::Copy(c) => format.copy_cost(c),
                    Command::Add(a) => format.add_cost(a.to, a.len()),
                };
            }
            assert_eq!(
                encode(&s, format).unwrap().len() as u64,
                expected,
                "{format}"
            );
        }
    }

    #[test]
    fn conversion_cost_positive_for_long_copies() {
        let c = crate::command::Copy {
            from: 1000,
            to: 2000,
            len: 500,
        };
        for format in Format::ALL {
            assert!(format.conversion_cost(&c) > 400, "{format}");
        }
    }

    #[test]
    fn in_place_encoding_larger_than_ordered() {
        // The 1.9% "encoding loss" of Table 1 in miniature: explicit write
        // offsets cost bytes.
        let s = sample_script();
        let ordered = encode(&s, Format::Ordered).unwrap().len();
        let inplace = encode(&s, Format::InPlace).unwrap().len();
        assert!(inplace > ordered);
    }

    #[test]
    fn format_display_and_wire_bytes_unique() {
        let mut seen = std::collections::HashSet::new();
        for f in Format::ALL {
            assert!(!f.to_string().is_empty());
            assert!(seen.insert(f.wire_byte()));
            assert_eq!(Format::from_wire_byte(f.wire_byte()), Some(f));
        }
    }
}
