//! The offset-free varint format: commands in write order, `to` implicit.

use super::reader::ByteReader;
use super::{DecodeError, EncodeError, TAG_ADD, TAG_COPY};
use crate::command::Command;
use crate::script::DeltaScript;
use crate::varint;

pub(super) fn encode_commands_into(
    script: &DeltaScript,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    debug_assert!(script.is_write_ordered());
    for cmd in script.commands() {
        match cmd {
            Command::Copy(c) => {
                out.push(TAG_COPY);
                varint::encode(c.from, out);
                varint::encode(c.len, out);
            }
            Command::Add(a) => {
                out.push(TAG_ADD);
                varint::encode(a.len(), out);
                out.extend_from_slice(&a.data);
            }
        }
    }
    Ok(())
}

/// Decodes one command; `next_write` carries the implicit write offset.
pub(super) fn decode_one(
    r: &mut ByteReader<'_>,
    next_write: &mut u64,
) -> Result<Command, DecodeError> {
    let to = *next_write;
    let cmd = match r.read_u8()? {
        TAG_COPY => {
            let from = r.read_varint()?;
            let len = r.read_varint()?;
            Command::copy(from, to, len)
        }
        TAG_ADD => {
            let len = r.read_varint()?;
            let len_usize = usize::try_from(len).map_err(|_| DecodeError::Truncated)?;
            let data = r.read_bytes(len_usize)?.to_vec();
            Command::add(to, data)
        }
        b => return Err(DecodeError::UnknownFormat(b)),
    };
    *next_write = to.saturating_add(cmd.len());
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::super::{decode, encode, Format};
    use crate::command::Command;
    use crate::script::DeltaScript;

    #[test]
    fn implicit_offsets_reconstructed() {
        let s = DeltaScript::new(
            64,
            24,
            vec![
                Command::copy(0, 0, 8),
                Command::add(8, vec![1; 8]),
                Command::copy(32, 16, 8),
            ],
        )
        .unwrap();
        let bytes = encode(&s, Format::Ordered).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.script, s);
    }

    #[test]
    fn corrupt_tag_rejected() {
        let s = DeltaScript::new(8, 8, vec![Command::copy(0, 0, 8)]).unwrap();
        let mut bytes = encode(&s, Format::Ordered).unwrap();
        // The first command tag sits right after the fixed header (4 magic +
        // 1 format + 1 flags + 3 one-byte varints).
        let tag_pos = 9;
        bytes[tag_pos] = 0x9e;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn smaller_than_in_place_format() {
        let s =
            DeltaScript::new(1 << 20, 1 << 16, vec![Command::copy(1 << 19, 0, 1 << 16)]).unwrap();
        let ordered = encode(&s, Format::Ordered).unwrap();
        let inplace = encode(&s, Format::InPlace).unwrap();
        assert!(ordered.len() < inplace.len());
    }
}
