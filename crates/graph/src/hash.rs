//! FNV-1a, 64-bit: the workspace's one content hash.
//!
//! The hash streams: [`fnv1a_byte`] and [`fnv1a_word`] fold input into a
//! running state, so a caller can keep the state after a prefix and
//! continue it later (the incremental solver folds epsilon into a stored
//! component fingerprint this way). [`fnv1a`] hashes a whole string; it
//! is the `mcrd` wire format's graph hash, so its values are fixed.
//!
//! ```
//! use mcr_graph::hash::{fnv1a, fnv1a_byte, FNV1A_OFFSET};
//! assert_eq!(fnv1a("a"), fnv1a_byte(FNV1A_OFFSET, b'a'));
//! ```

/// The FNV-1a offset basis: the hash of the empty input.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one byte into a running FNV-1a state.
#[inline]
pub fn fnv1a_byte(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV1A_PRIME)
}

/// Folds the eight little-endian bytes of `word` into a running state.
#[inline]
pub fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().into_iter().fold(hash, fnv1a_byte)
}

/// FNV-1a of a string's bytes. Stable across platforms and trivially
/// re-implementable by non-Rust clients.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(FNV1A_OFFSET, fnv1a_byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }
}
