//! The wire frame codec: the WAL's record frame, capped.
//!
//! Every message on an `adored` TCP connection is one frame in the
//! format `adore-storage` defines for its records,
//! `[len: u32 LE] [crc32: u32 LE] [payload: len bytes of JSON]`
//! ([`adore_storage::split_frame`]). This module adds only what a socket
//! needs on top: a length above [`MAX_FRAME`] is rejected as
//! [`WireError::Oversized`] from the 8 header bytes alone, before any
//! allocation proportional to the claim, so a corrupt or hostile length
//! prefix can never drive an over-allocation; and every frame-level
//! failure is a typed [`WireError`], never a panic.
//!
//! Everything in this module is pure byte manipulation — no sockets, no
//! clocks — so the codec is property-testable in isolation and sits
//! beside the engine in the deterministic `det` module.

pub use adore_storage::HEADER;

/// Maximum payload size accepted on the wire (8 MiB). Commit frames ship
/// only what a follower lacks and election frames one entry, so the one
/// frame that grows with the log is a `prev_len: 0` catch-up frame — the
/// whole log, at ~145 B of JSON per entry about 57k entries. A node never
/// sends a frame past the cap (`adored`'s connector drops it and journals
/// an `oversized` `BadFrame`); one received is a corrupt length or an
/// abusive peer.
pub const MAX_FRAME: usize = 8 << 20;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix claims a payload larger than [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The payload checksum does not match the header CRC.
    Corrupt,
    /// The payload is not valid JSON for the expected message type.
    BadPayload {
        /// The decoder's reason.
        msg: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Corrupt => f.write_str("frame payload fails its checksum"),
            WireError::BadPayload { msg } => write!(f, "frame payload undecodable: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one payload as a framed byte string.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_FRAME`] (the
/// encoder enforces the same cap the decoder does, so a frame this
/// node sends is always one a peer will accept).
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            len: payload.len() as u64,
        });
    }
    let mut out = Vec::new();
    adore_storage::encode_frame(payload, &mut out);
    Ok(out)
}

/// Validates a header read off the wire, returning the payload length
/// to read next and its CRC.
///
/// # Errors
///
/// [`WireError::Oversized`] when the claimed length exceeds
/// [`MAX_FRAME`] — decided from the 8 header bytes alone, before any
/// payload allocation.
pub fn decode_header(header: &[u8; HEADER]) -> Result<(usize, u32), WireError> {
    let (len, crc) = adore_storage::decode_header(header);
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len: len as u64 });
    }
    Ok((len, crc))
}

/// Checks a fully read payload against its header CRC.
///
/// # Errors
///
/// [`WireError::Corrupt`] on checksum mismatch.
pub fn verify_payload(payload: &[u8], crc: u32) -> Result<(), WireError> {
    if adore_storage::crc_matches(payload, crc) {
        Ok(())
    } else {
        Err(WireError::Corrupt)
    }
}

/// Splits the first complete frame off `bytes`.
///
/// Returns `Ok(None)` when the buffer ends mid-frame (more bytes are
/// needed — the streaming case, and a truncated frame at EOF), or
/// `Ok(Some((payload, consumed)))` with the validated payload and the
/// total number of bytes the frame occupied.
///
/// # Errors
///
/// [`WireError::Oversized`] for a length prefix past [`MAX_FRAME`]
/// (checked before anything is copied), [`WireError::Corrupt`] for a
/// checksum mismatch.
pub fn split_frame(bytes: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if let Some(header) = bytes.first_chunk() {
        decode_header(header)?;
    }
    match adore_storage::split_frame(bytes, 0) {
        Some(frame) if !frame.crc_ok => Err(WireError::Corrupt),
        frame => Ok(frame.map(|f| (f.payload, f.next))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_one_frame() {
        let framed = encode_frame(b"hello").unwrap();
        let (payload, used) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(used, framed.len());
    }

    #[test]
    fn truncated_frames_ask_for_more_bytes() {
        let framed = encode_frame(b"payload").unwrap();
        for cut in 0..framed.len() {
            assert_eq!(split_frame(&framed[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            split_frame(&bytes),
            Err(WireError::Oversized {
                len: (MAX_FRAME + 1) as u64
            })
        );
    }

    #[test]
    fn corrupt_payload_is_a_typed_error() {
        let mut framed = encode_frame(b"payload").unwrap();
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        assert_eq!(split_frame(&framed), Err(WireError::Corrupt));
    }
}
