//! The redesigned in-place codewords the paper proposes as future work.
//!
//! §7: *"A redesign of the delta compression codewords for in-place
//! reconstructibility would further reduce lost compression."* This format
//! keeps explicit write offsets (required for out-of-order application) but
//! recovers most of their cost two ways:
//!
//! * varint length fields, so long adds need not split;
//! * a *chain bit* in the tag: when a command writes exactly where the
//!   previous command's write interval ended, the `to` offset is omitted.
//!   Runs of commands that stay in write order — common even in converted
//!   deltas — then pay nothing for their write offsets.

use super::reader::ByteReader;
use super::DecodeError;
use crate::command::Command;
use crate::script::DeltaScript;
use crate::varint;

const KIND_ADD: u8 = 0x01;
const CHAINED: u8 = 0x02;

pub(super) fn encode_commands_into(
    script: &DeltaScript,
    out: &mut Vec<u8>,
) -> Result<(), super::EncodeError> {
    let mut write_end = 0u64;
    for cmd in script.commands() {
        let chained = cmd.to() == write_end;
        let mut tag = 0u8;
        if cmd.is_add() {
            tag |= KIND_ADD;
        }
        if chained {
            tag |= CHAINED;
        }
        out.push(tag);
        match cmd {
            Command::Copy(c) => {
                varint::encode(c.from, out);
                if !chained {
                    varint::encode(c.to, out);
                }
                varint::encode(c.len, out);
            }
            Command::Add(a) => {
                if !chained {
                    varint::encode(a.to, out);
                }
                varint::encode(a.len(), out);
                out.extend_from_slice(&a.data);
            }
        }
        write_end = cmd.write_interval().end();
    }
    Ok(())
}

/// Decodes one codeword; `write_end` carries the chain state.
pub(super) fn decode_one(
    r: &mut ByteReader<'_>,
    write_end: &mut u64,
) -> Result<Command, DecodeError> {
    let tag = r.read_u8()?;
    if tag & !(KIND_ADD | CHAINED) != 0 {
        return Err(DecodeError::UnknownFormat(tag));
    }
    let chained = tag & CHAINED != 0;
    let cmd = if tag & KIND_ADD != 0 {
        let to = if chained {
            *write_end
        } else {
            r.read_varint()?
        };
        let len = r.read_varint()?;
        let len_usize = usize::try_from(len).map_err(|_| DecodeError::Truncated)?;
        let data = r.read_bytes(len_usize)?.to_vec();
        Command::add(to, data)
    } else {
        let from = r.read_varint()?;
        let to = if chained {
            *write_end
        } else {
            r.read_varint()?
        };
        let len = r.read_varint()?;
        Command::copy(from, to, len)
    };
    // Saturating: malformed input may claim offsets near u64::MAX; script
    // validation rejects it later without this decoder overflowing.
    *write_end = cmd.to().saturating_add(cmd.len());
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::super::{decode, encode, Format};
    use crate::command::Command;
    use crate::script::DeltaScript;

    #[test]
    fn round_trip_mixed_order() {
        let s = DeltaScript::new(
            32,
            32,
            vec![
                Command::copy(0, 16, 8),     // not chained (to=16, write_end=0)
                Command::copy(8, 24, 8),     // chained (to=24 == 16+8)
                Command::copy(16, 0, 8),     // not chained
                Command::add(8, vec![5; 8]), // chained (to=8 == 0+8)
            ],
        )
        .unwrap();
        let bytes = encode(&s, Format::Improved).unwrap();
        let d = decode(&bytes).unwrap();
        assert_eq!(d.script, s);
    }

    #[test]
    fn chained_runs_cost_less_than_plain_in_place() {
        // A fully write-ordered script chains every command after the first,
        // so the large `to` offsets are elided.
        let cmds: Vec<Command> = (0..50u64)
            .map(|i| Command::copy(4_000_000, i * 64, 64))
            .collect();
        let s = DeltaScript::new(5_000_000, 50 * 64, cmds).unwrap();
        let improved = encode(&s, Format::Improved).unwrap().len();
        let plain = encode(&s, Format::InPlace).unwrap().len();
        assert!(improved < plain, "improved {improved} vs in-place {plain}");
    }

    #[test]
    fn bad_tag_bits_rejected() {
        let s = DeltaScript::new(8, 8, vec![Command::copy(0, 0, 8)]).unwrap();
        let mut bytes = encode(&s, Format::Improved).unwrap();
        let tag_pos = 9; // after 4 magic + format + flags + 3 varints
        bytes[tag_pos] = 0xf0;
        assert!(decode(&bytes).is_err());
    }
}
