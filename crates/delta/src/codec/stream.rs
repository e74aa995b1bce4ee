//! Incremental delta-file decoding.
//!
//! A device installing an update over a slow link need not buffer the
//! whole delta: [`StreamDecoder`] consumes bytes as they arrive and
//! yields commands as soon as they are complete, so application can
//! overlap the transfer with memory bounded by one command plus the
//! network chunk.
//!
//! ```
//! use ipr_delta::codec::stream::StreamDecoder;
//! use ipr_delta::codec::{encode, Format};
//! use ipr_delta::{Command, DeltaScript};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let script = DeltaScript::new(4, 4, vec![Command::copy(0, 0, 4)])?;
//! let wire = encode(&script, Format::InPlace)?;
//!
//! let mut decoder = StreamDecoder::new();
//! let mut commands = Vec::new();
//! for byte in wire {
//!     decoder.push(&[byte]); // bytes dribble in one at a time
//!     while let Some(cmd) = decoder.next_command()? {
//!         commands.push(cmd);
//!     }
//! }
//! assert_eq!(commands, script.commands());
//! decoder.finish()?;
//! # Ok(())
//! # }
//! ```

use super::reader::ByteReader;
use super::{decode_command, read_header, DecodeError, Format, MAGIC};
use crate::command::Command;
use crate::varint::VarintError;

/// The fixed information at the head of a delta file, available from a
/// [`StreamDecoder`] once enough bytes have arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHeader {
    /// Codeword format of the command stream.
    pub format: Format,
    /// Length of the reference (old) file.
    pub source_len: u64,
    /// Length of the version (new) file.
    pub target_len: u64,
    /// Number of encoded commands that will follow.
    pub command_count: u64,
    /// CRC-32 of the target file, if embedded.
    pub target_crc: Option<u32>,
}

/// A serializable snapshot of a [`StreamDecoder`] at a command
/// boundary, from which decoding can restart after a mid-stream cut.
///
/// The decoder only advances its consumed offset on whole commands, so
/// a checkpoint never captures partial-command state: the bytes of a
/// half-received command are simply re-requested from `byte_offset`.
/// Together with the parsed header and the format's implicit write
/// cursor this is the decoder's *entire* state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Wire bytes fully consumed; the next byte to request on resume.
    pub byte_offset: u64,
    /// Commands fully decoded before this checkpoint.
    pub commands_decoded: u64,
    /// Implicit write cursor / chain state of the format.
    pub next_write: u64,
    /// The stream header (always parsed before the first checkpoint).
    pub header: StreamHeader,
}

/// Magic prefix of a serialized [`StreamCheckpoint`].
const CHECKPOINT_MAGIC: [u8; 4] = *b"IPK1";

impl StreamCheckpoint {
    /// Serializes the checkpoint (fixed-width little-endian fields).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(self.header.format.wire_byte());
        out.push(u8::from(self.header.target_crc.is_some()));
        out.extend_from_slice(&self.header.target_crc.unwrap_or(0).to_le_bytes());
        for v in [
            self.header.source_len,
            self.header.target_len,
            self.header.command_count,
            self.byte_offset,
            self.commands_decoded,
            self.next_write,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes a checkpoint written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`], [`DecodeError::Truncated`], or
    /// [`DecodeError::UnknownFormat`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        if r.read_bytes(4).map_err(|_| DecodeError::BadMagic)? != CHECKPOINT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let format_byte = r.read_u8()?;
        let format =
            Format::from_wire_byte(format_byte).ok_or(DecodeError::UnknownFormat(format_byte))?;
        let has_crc = r.read_u8()? != 0;
        let crc = r.read_u32_le()?;
        let mut fields = [0u64; 6];
        for f in &mut fields {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(r.read_bytes(8)?);
            *f = u64::from_le_bytes(raw);
        }
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(Self {
            byte_offset: fields[3],
            commands_decoded: fields[4],
            next_write: fields[5],
            header: StreamHeader {
                format,
                source_len: fields[0],
                target_len: fields[1],
                command_count: fields[2],
                target_crc: has_crc.then_some(crc),
            },
        })
    }
}

/// Incremental decoder: push bytes, pull commands.
///
/// The internal buffer self-compacts: every [`push`](Self::push) drains
/// the already-consumed prefix first, so resident memory is bounded by
/// the largest single command frame (an add carries its literal data)
/// plus one incoming chunk — never by the stream length.
#[derive(Clone, Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    consumed: usize,
    /// Total wire bytes consumed since the start of the stream
    /// (survives compaction, which resets `consumed`).
    offset: u64,
    /// High-water mark of `buf.len()` — the resident-memory bound.
    high_water: usize,
    header: Option<StreamHeader>,
    decoded: u64,
    /// Implicit write cursor / chain state, depending on the format.
    next_write: u64,
}

impl StreamDecoder {
    /// Creates a decoder expecting a delta file from its first byte.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a decoder from a checkpoint, positioned to receive
    /// wire bytes starting at `checkpoint.byte_offset`.
    #[must_use]
    pub fn resume(checkpoint: StreamCheckpoint) -> Self {
        Self {
            buf: Vec::new(),
            consumed: 0,
            offset: checkpoint.byte_offset,
            high_water: 0,
            header: Some(checkpoint.header),
            decoded: checkpoint.commands_decoded,
            next_write: checkpoint.next_write,
        }
    }

    /// Snapshots the decoder at its last command boundary, or `None`
    /// before the header has been parsed (nothing to resume from yet).
    ///
    /// Unconsumed buffered bytes (a partial command) are *not* part of
    /// the checkpoint; a resumed decoder re-requests them from
    /// [`byte_offset`](StreamCheckpoint::byte_offset).
    #[must_use]
    pub fn checkpoint(&self) -> Option<StreamCheckpoint> {
        self.header.map(|header| StreamCheckpoint {
            byte_offset: self.offset,
            commands_decoded: self.decoded,
            next_write: self.next_write,
            header,
        })
    }

    /// Feeds more wire bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Eagerly drain the consumed prefix: the residue is at most one
        // partial command frame, so the buffer stays O(frame + chunk).
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.high_water = self.high_water.max(self.buf.len());
    }

    /// Unconsumed bytes currently buffered (partial-command residue).
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Largest number of bytes the buffer ever held: at most one
    /// maximal command frame plus the largest pushed chunk.
    #[must_use]
    pub fn buffered_high_water(&self) -> usize {
        self.high_water
    }

    /// Total wire bytes consumed since the start of the stream.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.offset
    }

    /// The header, once decodable.
    #[must_use]
    pub fn header(&self) -> Option<&StreamHeader> {
        self.header.as_ref()
    }

    /// Attempts to parse the header from buffered bytes *without*
    /// decoding any command; `Ok(None)` means more input is needed.
    ///
    /// # Errors
    ///
    /// Same wire errors as [`next_command`](Self::next_command).
    pub fn poll_header(&mut self) -> Result<Option<&StreamHeader>, DecodeError> {
        if self.header.is_none() && !self.try_parse_header()? {
            return Ok(None);
        }
        Ok(self.header.as_ref())
    }

    /// Commands decoded so far.
    #[must_use]
    pub fn commands_decoded(&self) -> u64 {
        self.decoded
    }

    /// Whether every declared command has been decoded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.header
            .map(|h| self.decoded == h.command_count)
            .unwrap_or(false)
    }

    /// Attempts to decode the next command.
    ///
    /// Returns `Ok(None)` when more input is needed *or* when all
    /// declared commands have been decoded (check [`is_complete`]).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] other than truncation is a real wire error;
    /// truncation is reported as `Ok(None)` (feed more bytes).
    ///
    /// [`is_complete`]: StreamDecoder::is_complete
    pub fn next_command(&mut self) -> Result<Option<Command>, DecodeError> {
        if self.header.is_none() {
            match self.try_parse_header() {
                Ok(true) => {}
                Ok(false) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        let header = self.header.expect("parsed above");
        if self.decoded == header.command_count {
            return Ok(None);
        }
        let mut r = ByteReader::new(&self.buf[self.consumed..]);
        let mut next_write = self.next_write;
        match decode_command(header.format, &mut r, &mut next_write) {
            Ok(cmd) => {
                self.consumed += r.consumed();
                self.offset += r.consumed() as u64;
                self.next_write = next_write;
                self.decoded += 1;
                Ok(Some(cmd))
            }
            Err(DecodeError::Truncated) | Err(DecodeError::Varint(VarintError::Truncated)) => {
                Ok(None) // incomplete command: wait for more bytes
            }
            Err(e) => Err(e),
        }
    }

    /// Declares end of input: every command must have been decoded and no
    /// payload bytes may remain.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if the stream ended mid-file,
    /// [`DecodeError::TrailingBytes`] if bytes follow the last command.
    pub fn finish(self) -> Result<StreamHeader, DecodeError> {
        let Some(header) = self.header else {
            return Err(DecodeError::Truncated);
        };
        if self.decoded != header.command_count {
            return Err(DecodeError::Truncated);
        }
        let remaining = self.buf.len() - self.consumed;
        if remaining != 0 {
            return Err(DecodeError::TrailingBytes { remaining });
        }
        Ok(header)
    }

    /// Tries to parse the header from buffered bytes; `Ok(false)` means
    /// more input is needed.
    fn try_parse_header(&mut self) -> Result<bool, DecodeError> {
        let have = &self.buf[self.consumed..];
        if have.len() < MAGIC.len() {
            // Reject obviously wrong magic as early as possible.
            if !MAGIC.starts_with(have) {
                return Err(DecodeError::BadMagic);
            }
            return Ok(false);
        }
        let mut r = ByteReader::new(have);
        match read_header(&mut r) {
            Ok(header) => {
                self.consumed += r.consumed();
                self.offset += r.consumed() as u64;
                self.header = Some(header);
                Ok(true)
            }
            Err(DecodeError::Truncated) | Err(DecodeError::Varint(VarintError::Truncated)) => {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, encode_checked};
    use crate::script::DeltaScript;

    fn sample() -> (DeltaScript, Vec<u8>) {
        let script = DeltaScript::new(
            100,
            50,
            vec![
                Command::copy(10, 0, 20),
                Command::add(20, vec![0xAA; 10]),
                Command::copy(90, 30, 10),
                Command::add(40, vec![0xBB; 10]),
            ],
        )
        .unwrap();
        let target = crate::apply(&script, &[3u8; 100]).unwrap();
        (script, target)
    }

    #[test]
    fn whole_buffer_at_once() {
        let (script, _) = sample();
        for format in Format::ALL {
            let wire = encode(&script, format).unwrap();
            let mut d = StreamDecoder::new();
            d.push(&wire);
            let mut commands = Vec::new();
            while let Some(c) = d.next_command().unwrap() {
                commands.push(c);
            }
            assert!(d.is_complete(), "{format}");
            let header = d.finish().unwrap();
            assert_eq!(header.format, format);
            assert_eq!(header.target_len, 50);
            // Semantic equivalence (paper formats split commands).
            let rebuilt = DeltaScript::new(100, 50, commands).unwrap();
            assert_eq!(
                crate::apply(&rebuilt, &[3u8; 100]).unwrap(),
                crate::apply(&script, &[3u8; 100]).unwrap(),
                "{format}"
            );
        }
    }

    #[test]
    fn byte_by_byte_dribble() {
        let (script, target) = sample();
        let wire = encode_checked(&script, Format::Improved, &target).unwrap();
        let mut d = StreamDecoder::new();
        let mut commands = Vec::new();
        for &b in &wire {
            d.push(&[b]);
            while let Some(c) = d.next_command().unwrap() {
                commands.push(c);
            }
        }
        assert_eq!(commands, script.commands());
        let header = d.finish().unwrap();
        assert_eq!(header.target_crc, Some(crate::checksum::crc32(&target)));
    }

    #[test]
    fn arbitrary_chunking_matches_batch() {
        let (script, _) = sample();
        let wire = encode(&script, Format::InPlace).unwrap();
        for chunk in [1usize, 2, 3, 7, 11, 100] {
            let mut d = StreamDecoder::new();
            let mut commands = Vec::new();
            for part in wire.chunks(chunk) {
                d.push(part);
                while let Some(c) = d.next_command().unwrap() {
                    commands.push(c);
                }
            }
            assert_eq!(commands, script.commands(), "chunk {chunk}");
            d.finish().unwrap();
        }
    }

    #[test]
    fn early_bad_magic() {
        let mut d = StreamDecoder::new();
        d.push(b"IP");
        assert!(d.next_command().is_ok(), "prefix of magic: undecided");
        d.push(b"XX");
        assert_eq!(d.next_command(), Err(DecodeError::BadMagic));

        let mut d = StreamDecoder::new();
        d.push(b"Z");
        assert_eq!(d.next_command(), Err(DecodeError::BadMagic));
    }

    #[test]
    fn finish_rejects_truncation_and_trailing() {
        let (script, _) = sample();
        let wire = encode(&script, Format::InPlace).unwrap();

        // Truncated: stop before the end.
        let mut d = StreamDecoder::new();
        d.push(&wire[..wire.len() - 1]);
        while d.next_command().unwrap().is_some() {}
        assert!(matches!(d.finish(), Err(DecodeError::Truncated)));

        // Trailing garbage after the last command.
        let mut d = StreamDecoder::new();
        d.push(&wire);
        d.push(&[0xFF, 0xFF]);
        while d.next_command().unwrap().is_some() {}
        assert!(matches!(
            d.finish(),
            Err(DecodeError::TrailingBytes { remaining: 2 })
        ));
    }

    #[test]
    fn header_available_before_commands() {
        let (script, _) = sample();
        let wire = encode(&script, Format::PaperInPlace).unwrap();
        let mut d = StreamDecoder::new();
        d.push(&wire[..12]); // header only
        let _ = d.next_command().unwrap();
        let h = d.header().expect("header parsed");
        assert_eq!(h.source_len, 100);
        assert_eq!(h.format, Format::PaperInPlace);
        assert_eq!(d.commands_decoded(), 0);
    }

    #[test]
    fn empty_stream_finish_fails() {
        assert!(matches!(
            StreamDecoder::new().finish(),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn checkpoint_resume_matches_uncut_decode() {
        // Cut the stream at every command boundary, serialize the
        // checkpoint, resume a fresh decoder from it, and replay the
        // rest of the wire: the combined command list must equal the
        // uncut decode for every format.
        let (script, _) = sample();
        for format in Format::ALL {
            let wire = encode(&script, format).unwrap();

            // Reference: uncut decode.
            let mut d = StreamDecoder::new();
            d.push(&wire);
            let mut uncut = Vec::new();
            while let Some(c) = d.next_command().unwrap() {
                uncut.push(c);
            }
            let uncut_header = d.finish().unwrap();

            for cut_after in 0..=uncut.len() {
                // First power cycle: decode `cut_after` commands.
                let mut d = StreamDecoder::new();
                d.push(&wire);
                for _ in 0..cut_after {
                    d.next_command().unwrap().unwrap();
                }
                if cut_after == 0 {
                    // Poll once so the header gets parsed (this may
                    // also decode a command; the checkpoint records
                    // exactly how many are done).
                    let _ = d.next_command().unwrap();
                }
                let cp = d.checkpoint().expect("header parsed");

                // Serialize + deserialize across the "power cut".
                let restored = StreamCheckpoint::decode(&cp.encode()).unwrap();
                assert_eq!(restored, cp, "{format} cut {cut_after}");

                // Second power cycle: re-request from byte_offset.
                let mut d = StreamDecoder::resume(restored);
                d.push(&wire[restored.byte_offset as usize..]);
                let mut rest = Vec::new();
                while let Some(c) = d.next_command().unwrap() {
                    rest.push(c);
                }
                let header = d.finish().unwrap();
                assert_eq!(header, uncut_header, "{format} cut {cut_after}");

                let mut combined = uncut[..restored.commands_decoded as usize].to_vec();
                combined.extend(rest);
                assert_eq!(combined, uncut, "{format} cut {cut_after}");
            }
        }
    }

    #[test]
    fn checkpoint_decode_rejects_malformed() {
        let cp = StreamCheckpoint {
            byte_offset: 17,
            commands_decoded: 2,
            next_write: 30,
            header: StreamHeader {
                format: Format::InPlace,
                source_len: 100,
                target_len: 50,
                command_count: 4,
                target_crc: Some(0xDEAD_BEEF),
            },
        };
        let bytes = cp.encode();
        assert_eq!(StreamCheckpoint::decode(&bytes), Ok(cp));
        assert_eq!(
            StreamCheckpoint::decode(b"nope"),
            Err(DecodeError::BadMagic)
        );
        assert_eq!(
            StreamCheckpoint::decode(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            StreamCheckpoint::decode(&trailing),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
        let mut bad_format = bytes;
        bad_format[4] = 0x77;
        assert_eq!(
            StreamCheckpoint::decode(&bad_format),
            Err(DecodeError::UnknownFormat(0x77))
        );
    }

    #[test]
    fn buffer_stays_bounded_by_frame_plus_chunk() {
        // A long stream of small commands, fed in small chunks: the
        // buffer high-water mark must stay near (max frame + chunk),
        // not grow with the stream.
        let n = 4000u64;
        let cmds: Vec<Command> = (0..n).map(|i| Command::copy(i, i, 1)).collect();
        let script = DeltaScript::new(n, n, cmds).unwrap();
        let wire = encode(&script, Format::InPlace).unwrap();
        let chunk = 64;
        let mut d = StreamDecoder::new();
        for part in wire.chunks(chunk) {
            d.push(part);
            while d.next_command().unwrap().is_some() {}
            assert!(d.buffered_bytes() < 32, "partial-command residue only");
        }
        // Header (< 32 bytes) and every command frame here are tiny, so
        // the bound is dominated by the chunk size.
        assert!(
            d.buffered_high_water() <= chunk + 32,
            "high water {} exceeds frame+chunk bound",
            d.buffered_high_water()
        );
        d.finish().unwrap();
    }

    #[test]
    fn stream_offset_tracks_consumed_bytes() {
        let (script, _) = sample();
        let wire = encode(&script, Format::InPlace).unwrap();
        let mut d = StreamDecoder::new();
        d.push(&wire);
        while d.next_command().unwrap().is_some() {}
        assert_eq!(d.stream_offset(), wire.len() as u64);
        assert_eq!(
            d.checkpoint().unwrap().byte_offset,
            wire.len() as u64,
            "checkpoint offset is the full stream length at EOF"
        );
    }

    #[test]
    fn compaction_keeps_decoding_correct() {
        // A long script forces buffer compaction mid-stream.
        let n = 2000u64;
        let cmds: Vec<Command> = (0..n).map(|i| Command::copy(i, i, 1)).collect();
        let script = DeltaScript::new(n, n, cmds).unwrap();
        let wire = encode(&script, Format::InPlace).unwrap();
        let mut d = StreamDecoder::new();
        let mut count = 0u64;
        for part in wire.chunks(13) {
            d.push(part);
            while let Some(c) = d.next_command().unwrap() {
                assert_eq!(c, Command::copy(count, count, 1));
                count += 1;
            }
        }
        assert_eq!(count, n);
        d.finish().unwrap();
    }
}
