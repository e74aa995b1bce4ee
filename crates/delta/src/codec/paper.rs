//! Paper-faithful fixed-width codewords.
//!
//! §7 of the paper: *"The encoding scheme uses only a single byte to encode
//! the length of add commands and therefore generates many short add
//! commands. … The many small add commands produced by the delta
//! compression algorithm create an unnecessary encoding overhead."*
//!
//! We model those codewords directly: 4-byte big-endian offsets, 2-byte
//! copy lengths and 1-byte add lengths. Commands longer than a codeword's
//! length field are split into several commands at encode time, so decoding
//! preserves semantics (same materialized file) but not necessarily the
//! original command boundaries.

use super::reader::ByteReader;
use super::{DecodeError, EncodeError};
use crate::command::Command;
use crate::script::DeltaScript;

/// Paper-format copy commands carry a 2-byte length.
pub(super) const MAX_COPY_LEN: u64 = u16::MAX as u64;
/// Paper-format add commands carry a 1-byte length.
pub(super) const MAX_ADD_LEN: u64 = u8::MAX as u64;

const TAG_COPY: u8 = 0x02;
const TAG_ADD: u8 = 0x03;

/// Number of commands a length-`len` command splits into when each piece
/// carries at most `max` bytes.
pub(super) fn split_count(len: u64, max: u64) -> u64 {
    len.div_ceil(max)
}

fn fit_u32(v: u64, index: usize) -> Result<u32, EncodeError> {
    u32::try_from(v).map_err(|_| EncodeError::OffsetTooLarge { index })
}

/// Exact number of wire codewords `script` encodes to, splits included —
/// computable before encoding, so the header's count varint can be
/// written into the same output buffer the payload follows it in.
pub(super) fn wire_count(script: &DeltaScript) -> u64 {
    script
        .commands()
        .iter()
        .map(|cmd| match cmd {
            Command::Copy(c) => split_count(c.len, MAX_COPY_LEN),
            Command::Add(a) => split_count(a.len(), MAX_ADD_LEN),
        })
        .sum()
}

pub(super) fn encode_commands_into(
    script: &DeltaScript,
    explicit_to: bool,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    for (index, cmd) in script.commands().iter().enumerate() {
        match cmd {
            Command::Copy(c) => {
                let mut done = 0u64;
                while done < c.len {
                    let piece = (c.len - done).min(MAX_COPY_LEN);
                    out.push(TAG_COPY);
                    out.extend_from_slice(&fit_u32(c.from + done, index)?.to_be_bytes());
                    if explicit_to {
                        out.extend_from_slice(&fit_u32(c.to + done, index)?.to_be_bytes());
                    }
                    out.extend_from_slice(&(piece as u16).to_be_bytes());
                    done += piece;
                }
            }
            Command::Add(a) => {
                let mut done = 0u64;
                let len = a.len();
                while done < len {
                    let piece = (len - done).min(MAX_ADD_LEN);
                    out.push(TAG_ADD);
                    if explicit_to {
                        out.extend_from_slice(&fit_u32(a.to + done, index)?.to_be_bytes());
                    }
                    out.push(piece as u8);
                    let start = done as usize;
                    out.extend_from_slice(&a.data[start..start + piece as usize]);
                    done += piece;
                }
            }
        }
    }
    Ok(())
}

/// Decodes one codeword; `implicit_to` carries the write cursor for the
/// offset-free variant.
pub(super) fn decode_one(
    r: &mut ByteReader<'_>,
    explicit_to: bool,
    implicit_to: &mut u64,
) -> Result<Command, DecodeError> {
    let cmd = match r.read_u8()? {
        TAG_COPY => {
            let from = u64::from(r.read_u32_be()?);
            let to = if explicit_to {
                u64::from(r.read_u32_be()?)
            } else {
                *implicit_to
            };
            let len = u64::from(r.read_u16_be()?);
            Command::copy(from, to, len)
        }
        TAG_ADD => {
            let to = if explicit_to {
                u64::from(r.read_u32_be()?)
            } else {
                *implicit_to
            };
            let len = u64::from(r.read_u8()?);
            let data = r.read_bytes(len as usize)?.to_vec();
            Command::add(to, data)
        }
        b => return Err(DecodeError::UnknownFormat(b)),
    };
    *implicit_to = implicit_to.saturating_add(cmd.len());
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::super::{decode, encode, EncodeError, Format};
    use super::*;
    use crate::command::Command;
    use crate::script::DeltaScript;

    #[test]
    fn split_count_math() {
        assert_eq!(split_count(1, 255), 1);
        assert_eq!(split_count(255, 255), 1);
        assert_eq!(split_count(256, 255), 2);
        assert_eq!(split_count(1000, 255), 4);
        assert_eq!(split_count(65536, 65535), 2);
    }

    #[test]
    fn long_add_splits_into_one_byte_length_pieces() {
        // A 700-byte literal run: the paper codeword forces ceil(700/255)=3
        // add commands.
        let s = DeltaScript::new(0, 700, vec![Command::add(0, vec![7; 700])]).unwrap();
        let bytes = encode(&s, Format::PaperOrdered).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.script.add_count(), 3);
        assert_eq!(d.script.added_bytes(), 700);
        // Pieces rebuild the same data contiguously.
        let adds = d.script.adds();
        assert_eq!(adds[0].to, 0);
        assert_eq!(adds[1].to, 255);
        assert_eq!(adds[2].to, 510);
    }

    #[test]
    fn long_copy_splits() {
        let len = 200_000u64;
        let s = DeltaScript::new(len, len, vec![Command::copy(0, 0, len)]).unwrap();
        let bytes = encode(&s, Format::PaperInPlace).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.script.copy_count() as u64, split_count(len, MAX_COPY_LEN));
        assert_eq!(d.script.copied_bytes(), len);
    }

    #[test]
    fn offsets_beyond_u32_rejected() {
        let big = u64::from(u32::MAX) + 1;
        let s = DeltaScript::new(big + 8, 8, vec![Command::copy(big, 0, 8)]).unwrap();
        assert_eq!(
            encode(&s, Format::PaperInPlace),
            Err(EncodeError::OffsetTooLarge { index: 0 })
        );
    }

    #[test]
    fn explicit_to_preserves_out_of_order() {
        let s =
            DeltaScript::new(16, 16, vec![Command::copy(0, 8, 8), Command::copy(8, 0, 8)]).unwrap();
        let bytes = encode(&s, Format::PaperInPlace).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.script.commands()[0].to(), 8);
        assert_eq!(d.script.commands()[1].to(), 0);
    }

    #[test]
    fn cost_model_matches_split_encoding() {
        let c = crate::command::Copy {
            from: 0,
            to: 0,
            len: 100_000,
        };
        let s = DeltaScript::new(100_000, 100_000, vec![Command::Copy(c)]).unwrap();
        let header_len = encode(
            &DeltaScript::new(100_000, 0, vec![]).unwrap(),
            Format::PaperOrdered,
        )
        .unwrap()
        .len() as u64;
        let body = encode(&s, Format::PaperOrdered).unwrap().len() as u64;
        // Header varints differ: target_len (0 vs 100000: 1 vs 3 bytes) and
        // count (0 vs 2: both 1 byte), so adjust by 2.
        assert_eq!(body - (header_len + 2), Format::PaperOrdered.copy_cost(&c));
    }
}
