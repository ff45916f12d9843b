//! Key representation.
//!
//! PACTree indexes byte-string keys ordered lexicographically; how a data
//! node stores them (inline up to its slot width, spilled beyond) is
//! `crate::data`'s rule (paper §5.2). Integer keys are encoded big-endian
//! so that byte-wise order equals numeric order — this is also what makes a
//! radix trie (the search layer) order-preserving over `u64` keys.

/// Maximum supported key length in bytes.
pub const MAX_KEY_LEN: usize = 1024;

/// An owned index key: an ordered byte string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key {
    bytes: Vec<u8>,
}

impl Key {
    /// The empty key (lower bound of the whole key space; used as the
    /// anchor of the leftmost data node).
    pub const fn min() -> Key {
        Key { bytes: Vec::new() }
    }

    /// Builds a key from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`MAX_KEY_LEN`].
    pub fn from_bytes(bytes: &[u8]) -> Key {
        assert!(bytes.len() <= MAX_KEY_LEN, "key too long");
        Key {
            bytes: bytes.to_vec(),
        }
    }

    /// Encodes a `u64` big-endian, preserving numeric order byte-wise.
    pub fn from_u64(v: u64) -> Key {
        Key {
            bytes: v.to_be_bytes().to_vec(),
        }
    }

    /// Decodes a key produced by [`from_u64`](Self::from_u64).
    ///
    /// Returns `None` if the key is not exactly 8 bytes.
    pub fn to_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.bytes.as_slice().try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }

    /// The raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Key length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether this is the empty (minimum) key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// One-byte hash used by the data-node fingerprint array (§5.2). Never 0
    /// so that 0 can mean "empty slot" in debugging dumps.
    #[inline]
    pub fn fingerprint(&self) -> u8 {
        fingerprint_of(&self.bytes)
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key::from_u64(v)
    }
}

impl From<&[u8]> for Key {
    fn from(b: &[u8]) -> Self {
        Key::from_bytes(b)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from_bytes(s.as_bytes())
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// FNV-1a reduced to one byte; cheap and well distributed for fingerprints.
#[inline]
pub fn fingerprint_of(bytes: &[u8]) -> u8 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let f = (h ^ (h >> 32)) as u8;
    if f == 0 {
        1
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_preserves_order() {
        let vals = [0u64, 1, 255, 256, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let keys: Vec<Key> = vals.iter().map(|&v| Key::from_u64(v)).collect();
        for i in 0..keys.len() {
            assert_eq!(keys[i].to_u64(), Some(vals[i]));
            for j in 0..keys.len() {
                assert_eq!(
                    keys[i].cmp(&keys[j]),
                    vals[i].cmp(&vals[j]),
                    "byte order must equal numeric order"
                );
            }
        }
    }

    #[test]
    fn min_key_sorts_first() {
        assert!(Key::min() < Key::from_u64(0));
        assert!(Key::min() < Key::from_bytes(&[0]));
        assert!(Key::min().is_empty());
    }

    #[test]
    fn fingerprint_never_zero() {
        for i in 0..10_000u64 {
            assert_ne!(Key::from_u64(i).fingerprint(), 0);
        }
    }

    #[test]
    fn fingerprint_distributes() {
        let mut counts = [0u32; 256];
        for i in 0..100_000u64 {
            counts[Key::from_u64(i).fingerprint() as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonzero > 200, "fingerprints should cover most byte values");
    }

    #[test]
    #[should_panic(expected = "key too long")]
    fn oversized_key_rejected() {
        let _ = Key::from_bytes(&vec![0u8; MAX_KEY_LEN + 1]);
    }

    #[test]
    fn str_keys_order_lexicographically() {
        assert!(Key::from("abc") < Key::from("abd"));
        assert!(Key::from("ab") < Key::from("abc"));
        assert!(Key::from("user100") < Key::from("user99")); // lexicographic!
    }
}
