//! The varint format with explicit write offsets, required for deltas that
//! apply out of write order (§3, §7: the "write offsets" encoding).

use super::reader::ByteReader;
use super::{DecodeError, EncodeError, TAG_ADD, TAG_COPY};
use crate::command::Command;
use crate::script::DeltaScript;
use crate::varint;

pub(super) fn encode_commands_into(
    script: &DeltaScript,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    for cmd in script.commands() {
        match cmd {
            Command::Copy(c) => {
                out.push(TAG_COPY);
                varint::encode(c.from, out);
                varint::encode(c.to, out);
                varint::encode(c.len, out);
            }
            Command::Add(a) => {
                out.push(TAG_ADD);
                varint::encode(a.to, out);
                varint::encode(a.len(), out);
                out.extend_from_slice(&a.data);
            }
        }
    }
    Ok(())
}

/// Decodes one command (write offsets are explicit; no carried state).
pub(super) fn decode_one(r: &mut ByteReader<'_>) -> Result<Command, DecodeError> {
    match r.read_u8()? {
        TAG_COPY => {
            let from = r.read_varint()?;
            let to = r.read_varint()?;
            let len = r.read_varint()?;
            Ok(Command::copy(from, to, len))
        }
        TAG_ADD => {
            let to = r.read_varint()?;
            let len = r.read_varint()?;
            let len_usize = usize::try_from(len).map_err(|_| DecodeError::Truncated)?;
            let data = r.read_bytes(len_usize)?.to_vec();
            Ok(Command::add(to, data))
        }
        b => Err(DecodeError::UnknownFormat(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{decode, encode, Format};
    use crate::command::Command;
    use crate::script::DeltaScript;

    #[test]
    fn preserves_arbitrary_command_order() {
        // Adds interleaved with copies, out of write order: exactly what a
        // converted in-place delta looks like before adds are moved last.
        let s = DeltaScript::new(
            32,
            32,
            vec![
                Command::copy(16, 24, 8),
                Command::add(8, vec![9; 8]),
                Command::copy(0, 16, 8),
                Command::copy(24, 0, 8),
            ],
        )
        .unwrap();
        let bytes = encode(&s, Format::InPlace).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.script, s);
    }

    #[test]
    fn large_offsets_round_trip() {
        let big = u64::from(u32::MAX) + 1000;
        let s = DeltaScript::new(big + 10, 10, vec![Command::copy(big, 0, 10)]).unwrap();
        let bytes = encode(&s, Format::InPlace).unwrap();
        assert_eq!(decode(&bytes).unwrap().script, s);
    }
}
