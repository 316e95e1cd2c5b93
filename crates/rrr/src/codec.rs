//! The length-checked byte cursor under `imm-service`'s snapshot decoder.
//!
//! The snapshot format is little-endian fixed-width integers, so the decoder
//! can validate every length against the remaining input and fail cleanly on
//! truncated or corrupted bytes rather than over-allocating.

/// Errors produced while decoding snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced payload was complete.
    UnexpectedEof {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// A field that cannot describe a valid value (e.g. a section offset
    /// that is not aligned, or a bitmap bit beyond the vertex space).
    InvalidValue(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of input: needed {needed} bytes, {remaining} left")
            }
            CodecError::InvalidValue(what) => write!(f, "invalid encoded value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over encoded bytes with length-checked reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader starting at the beginning of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        ByteReader { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Consume `len` raw bytes.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::UnexpectedEof { needed: len, remaining: self.remaining() });
        }
        let out = &self.input[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Consume one byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.read_bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Consume a `u64` length field, rejecting values that could not possibly
    /// fit in the remaining input (`min_item_bytes` bytes per element).
    pub fn read_len(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let raw = self.read_u64()?;
        let len = usize::try_from(raw).map_err(|_| CodecError::InvalidValue("length overflow"))?;
        if len.checked_mul(min_item_bytes).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(CodecError::UnexpectedEof {
                needed: len.saturating_mul(min_item_bytes),
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A length field is checked against the remaining input before anyone
    /// allocates for it — including lengths whose byte size overflows.
    #[test]
    fn absurd_length_fields_do_not_allocate() {
        for (len, item_bytes) in [(u64::MAX, 1usize), (u64::MAX, 12), (1 << 40, 4), (3, 4)] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 8]); // room for two u32 items, not three
            let mut reader = ByteReader::new(&bytes);
            assert!(
                matches!(reader.read_len(item_bytes), Err(CodecError::UnexpectedEof { .. })),
                "{len} items of {item_bytes} bytes cannot fit in 8"
            );
        }
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(ByteReader::new(&bytes).read_len(4), Ok(2));
    }
}
