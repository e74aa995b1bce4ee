//! Exhaustive error-variant coverage for the codec layer: every
//! [`EncodeError`] and [`DecodeError`] variant is constructed through the
//! public API (no hand-rolled error values) and its Display rendering is
//! asserted, so a future refactor can neither silently drop an error path
//! nor garble its message.

use ipr_delta::codec::{decode, encode, encode_checked, DecodeError, EncodeError, Format, MAGIC};
use ipr_delta::varint::VarintError;
use ipr_delta::{varint, Command, DeltaScript, ScriptError};

/// A small script that is deliberately *not* in write order.
fn shuffled_script() -> DeltaScript {
    DeltaScript::new(
        8,
        8,
        vec![Command::add(4, vec![0xaa; 4]), Command::copy(0, 0, 4)],
    )
    .unwrap()
}

fn ordered_script() -> DeltaScript {
    DeltaScript::new(
        8,
        8,
        vec![Command::copy(0, 0, 4), Command::add(4, vec![0xaa; 4])],
    )
    .unwrap()
}

/// Hand-builds a wire header; the payload is appended by the caller.
fn header(format_byte: u8, source_len: u64, target_len: u64, count: u64) -> Vec<u8> {
    let mut wire = MAGIC.to_vec();
    wire.push(format_byte);
    wire.push(0); // no CRC
    varint::encode(source_len, &mut wire);
    varint::encode(target_len, &mut wire);
    varint::encode(count, &mut wire);
    wire
}

// ---------------------------------------------------------------------------
// EncodeError
// ---------------------------------------------------------------------------

#[test]
fn encode_error_not_write_ordered() {
    for format in [Format::Ordered, Format::PaperOrdered] {
        let err = encode(&shuffled_script(), format).unwrap_err();
        assert_eq!(err, EncodeError::NotWriteOrdered);
    }
    assert_eq!(
        EncodeError::NotWriteOrdered.to_string(),
        "script is not in write order, required by an offset-free format"
    );
}

#[test]
fn encode_error_offset_too_large() {
    // A copy source past u32::MAX cannot fit the paper formats' 4-byte
    // big-endian offset fields.
    let script =
        DeltaScript::new((1u64 << 33) + 4, 4, vec![Command::copy(1u64 << 33, 0, 4)]).unwrap();
    for format in [Format::PaperOrdered, Format::PaperInPlace] {
        let err = encode(&script, format).unwrap_err();
        assert_eq!(err, EncodeError::OffsetTooLarge { index: 0 });
    }
    assert_eq!(
        EncodeError::OffsetTooLarge { index: 7 }.to_string(),
        "command 7 offset exceeds the fixed-width codeword field"
    );
    // The varint formats have no width limit: the same script encodes.
    for format in [Format::Ordered, Format::InPlace, Format::Improved] {
        encode(&script, format).unwrap();
    }
}

#[test]
fn encode_error_target_len_mismatch() {
    let err = encode_checked(&ordered_script(), Format::Ordered, &[0u8; 5]).unwrap_err();
    assert_eq!(
        err,
        EncodeError::TargetLenMismatch {
            expected: 8,
            actual: 5
        }
    );
    assert_eq!(
        err.to_string(),
        "target buffer is 5 bytes, script expects 8"
    );
}

// ---------------------------------------------------------------------------
// DecodeError
// ---------------------------------------------------------------------------

#[test]
fn decode_error_bad_magic() {
    for input in [&b"nope"[..], &b"IPR\x02\x00\x00"[..], &[][..]] {
        let err = decode(input).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }
    assert_eq!(
        DecodeError::BadMagic.to_string(),
        "input is not an IPR delta file"
    );
}

#[test]
fn decode_error_unknown_format() {
    let wire = header(9, 0, 0, 0);
    let err = decode(&wire).unwrap_err();
    assert_eq!(err, DecodeError::UnknownFormat(9));
    assert_eq!(err.to_string(), "unknown format byte 0x09");
}

#[test]
fn decode_error_truncated() {
    // An add command declaring 100 data bytes with 2 present.
    let mut wire = header(1, 0, 100, 1);
    wire.push(0x01); // TAG_ADD
    varint::encode(0, &mut wire); // to
    varint::encode(100, &mut wire); // len
    wire.extend_from_slice(&[0xaa, 0xbb]);
    let err = decode(&wire).unwrap_err();
    assert_eq!(err, DecodeError::Truncated);
    assert_eq!(err.to_string(), "delta file truncated");
}

#[test]
fn decode_error_truncated_on_hostile_command_count() {
    // A declared command count vastly exceeding the input size must be
    // rejected up front — each command occupies at least one wire byte —
    // rather than pre-reserving an attacker-sized Vec. 2^50 commands
    // would previously reserve a capped-but-large buffer before reading
    // a single command.
    for format_byte in 0u8..5 {
        let mut wire = header(format_byte, 1 << 40, 1 << 40, 1 << 50);
        wire.extend_from_slice(&[0u8; 8]);
        let err = decode(&wire).unwrap_err();
        assert_eq!(err, DecodeError::Truncated, "format byte {format_byte}");
    }
}

#[test]
fn decode_error_varint() {
    // 11 continuation bytes: a varint may occupy at most 10.
    let mut wire = MAGIC.to_vec();
    wire.push(1);
    wire.push(0);
    wire.extend_from_slice(&[0xff; 11]);
    let err = decode(&wire).unwrap_err();
    assert_eq!(err, DecodeError::Varint(VarintError::Overflow));
    assert!(err.to_string().starts_with("malformed varint: "));

    // A varint cut off mid-field surfaces the truncation through the
    // same variant.
    let mut wire = MAGIC.to_vec();
    wire.push(1);
    wire.push(0);
    wire.push(0x80); // continuation bit set, then EOF
    let err = decode(&wire).unwrap_err();
    assert_eq!(err, DecodeError::Varint(VarintError::Truncated));
}

#[test]
fn decode_error_trailing_bytes() {
    let mut wire = encode(&ordered_script(), Format::InPlace).unwrap();
    wire.extend_from_slice(&[1, 2, 3]);
    let err = decode(&wire).unwrap_err();
    assert_eq!(err, DecodeError::TrailingBytes { remaining: 3 });
    assert_eq!(err.to_string(), "3 trailing bytes after the last command");
}

#[test]
fn decode_error_script() {
    // Two adds writing the same interval: structurally valid wire whose
    // commands are not a valid script.
    let mut wire = header(1, 0, 4, 2);
    for _ in 0..2 {
        wire.push(0x01); // TAG_ADD
        varint::encode(0, &mut wire); // to
        varint::encode(4, &mut wire); // len
        wire.extend_from_slice(&[0xcc; 4]);
    }
    let err = decode(&wire).unwrap_err();
    assert_eq!(
        err,
        DecodeError::Script(ScriptError::OverlappingWrites {
            first: 0,
            second: 1
        })
    );
    assert!(err
        .to_string()
        .starts_with("decoded commands are invalid: "));
}

#[test]
fn decode_errors_expose_sources() {
    use std::error::Error;
    let varint_err = DecodeError::Varint(VarintError::Overflow);
    assert!(varint_err.source().is_some());
    let script_err = DecodeError::Script(ScriptError::EmptyCommand { index: 0 });
    assert!(script_err.source().is_some());
    assert!(DecodeError::BadMagic.source().is_none());
    assert!(DecodeError::Truncated.source().is_none());
}
