//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the one
//! checksum of the workspace's binary formats: CPRDSNAP snapshot payloads,
//! CPRDWAL records, and the CPRDLOG op-log footer. Hand-rolled and std-only
//! like the rest of the workspace; the lookup table is built at compile
//! time.

/// The 256-entry lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Streaming CRC-32/IEEE (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`):
/// feed the bytes in any number of [`Self::update`] calls, so a writer can
/// checksum as it goes instead of buffering everything it wrote.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything folded so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32/IEEE of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn chunked_updates_equal_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32(&data);
        for chunk in [1, 3, 7, 64, 999, 1000] {
            let mut c = Crc32::new();
            for part in data.chunks(chunk) {
                c.update(part);
            }
            assert_eq!(c.finish(), whole, "chunk size {chunk}");
        }
        // Empty updates leave the state alone.
        let mut c = Crc32::new();
        c.update(&[]);
        c.update(b"123456789");
        c.update(&[]);
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }
}
