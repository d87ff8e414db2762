//! Page checksums: CRC32 footers appended to every on-disk page record.
//!
//! A page on disk is a *record* of [`PAGE_RECORD_SIZE`] bytes: the 4096-byte
//! payload followed by a 16-byte footer. The footer binds the payload to its
//! page id and format version so that besides bit rot we also catch pages
//! written to the wrong slot (misdirected writes) and format skew:
//!
//! ```text
//! offset  size  field
//!      0     4  CRC32 (IEEE, LE) over payload ‖ page-id ‖ version
//!      4     4  page id echo (LE)
//!      8     2  footer format version (LE, currently 1)
//!     10     6  footer magic  b"PSJPF1"
//! ```
//!
//! The CRC covers the id and version in addition to the payload, so a footer
//! copied from another page fails verification even when its own CRC is
//! internally consistent.
//!
//! **Speed.** The CRC is the standard CRC-32/IEEE, computed eight bytes at
//! a time (slicing-by-8: eight 256-entry tables, one lookup per byte of a
//! word, all eight independent). Most of a payload is the zero padding after
//! a node's used prefix, and feeding `n` zero bytes to a CRC register only
//! multiplies it by x^(8n) modulo the polynomial. The page CRC therefore
//! reads the payload's trailing all-zero 8-byte words to find them, then
//! applies them with one GF(2) multiply by a precomputed power
//! (`multmodp`, as in zlib's `crc32_combine`). The values are exactly
//! those of the byte-at-a-time loop, which the tests keep as their oracle;
//! and because the tail is read to be found, a flipped bit in the padding
//! still changes the CRC.

use crate::error::PageError;
use crate::page::{PageId, PAGE_SIZE};

/// Size in bytes of the per-page footer.
pub const PAGE_FOOTER_SIZE: usize = 16;
/// Size in bytes of one on-disk page record (payload + footer).
pub const PAGE_RECORD_SIZE: usize = PAGE_SIZE + PAGE_FOOTER_SIZE;
/// Current footer format version.
pub const PAGE_FORMAT_VERSION: u16 = 1;
/// Magic bytes terminating every footer.
pub const FOOTER_MAGIC: [u8; 6] = *b"PSJPF1";

/// The reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `v · x mod P` in the reflected representation (x^0 is bit 31): one zero
/// bit fed to a CRC register.
const fn times_x(v: u32) -> u32 {
    if v & 1 != 0 {
        (v >> 1) ^ POLY
    } else {
        v >> 1
    }
}

/// The slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the register after byte `b` followed by `k` zero
/// bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `a · b mod P` over GF(2), both reflected. zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = times_x(b);
    }
    p
}

/// The most zero words [`page_crc`] applies in one multiply: a whole page.
const MAX_ZERO_WORDS: usize = PAGE_SIZE / 8;

/// `ZERO_WORDS[n]` is x^(64n) mod P: what `n` zero 8-byte words do to a
/// CRC register.
static ZERO_WORDS: [u32; MAX_ZERO_WORDS + 1] = zero_word_powers();

const fn zero_word_powers() -> [u32; MAX_ZERO_WORDS + 1] {
    // x^64 mod P: x^0 (bit 31) times x, 64 times.
    let mut x64 = 1u32 << 31;
    let mut bit = 0;
    while bit < 64 {
        x64 = times_x(x64);
        bit += 1;
    }
    let mut powers = [0u32; MAX_ZERO_WORDS + 1];
    powers[0] = 1 << 31;
    let mut n = 1;
    while n <= MAX_ZERO_WORDS {
        powers[n] = multmodp(powers[n - 1], x64);
        n += 1;
    }
    powers
}

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feeds `data` to a CRC register, eight bytes at a time.
fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC over payload bound to the page id and format version. The payload's
/// trailing all-zero words are read, then applied in one multiply.
fn page_crc(payload: &[u8], id: PageId, version: u16) -> u32 {
    let zero_words = payload
        .rchunks_exact(8)
        .take(MAX_ZERO_WORDS)
        .take_while(|w| *w == [0u8; 8])
        .count();
    let head = &payload[..payload.len() - 8 * zero_words];
    let mut state = crc32_update(0xFFFF_FFFF, head);
    state = multmodp(ZERO_WORDS[zero_words], state);
    state = crc32_update(state, &id.0.to_le_bytes());
    state = crc32_update(state, &version.to_le_bytes());
    state ^ 0xFFFF_FFFF
}

/// Build the 16-byte footer for `payload` stored as page `id`.
pub fn page_footer(payload: &[u8; PAGE_SIZE], id: PageId) -> [u8; PAGE_FOOTER_SIZE] {
    let mut footer = [0u8; PAGE_FOOTER_SIZE];
    let crc = page_crc(payload, id, PAGE_FORMAT_VERSION);
    footer[0..4].copy_from_slice(&crc.to_le_bytes());
    footer[4..8].copy_from_slice(&id.0.to_le_bytes());
    footer[8..10].copy_from_slice(&PAGE_FORMAT_VERSION.to_le_bytes());
    footer[10..16].copy_from_slice(&FOOTER_MAGIC);
    footer
}

/// Assemble a full on-disk record (payload + footer) for page `id`.
pub fn encode_record(payload: &[u8; PAGE_SIZE], id: PageId) -> [u8; PAGE_RECORD_SIZE] {
    let mut record = [0u8; PAGE_RECORD_SIZE];
    record[..PAGE_SIZE].copy_from_slice(payload);
    record[PAGE_SIZE..].copy_from_slice(&page_footer(payload, id));
    record
}

/// Verify the footer of `record` against the expected page `id`.
///
/// `context` (typically the file path) is embedded in the error message so
/// multi-tree failures are attributable.
pub fn verify_record(
    record: &[u8; PAGE_RECORD_SIZE],
    id: PageId,
    context: &str,
) -> Result<(), PageError> {
    let payload = &record[..PAGE_SIZE];
    let footer = &record[PAGE_SIZE..];
    if footer[10..16] != FOOTER_MAGIC {
        return Err(PageError::Corrupt {
            page: id,
            context: format!("{context}: footer magic mismatch"),
        });
    }
    let version = u16::from_le_bytes([footer[8], footer[9]]);
    if version != PAGE_FORMAT_VERSION {
        return Err(PageError::Corrupt {
            page: id,
            context: format!(
                "{context}: unsupported page format version {version} (expected {PAGE_FORMAT_VERSION})"
            ),
        });
    }
    let echo = u32::from_le_bytes([footer[4], footer[5], footer[6], footer[7]]);
    if echo != id.0 {
        return Err(PageError::Corrupt {
            page: id,
            context: format!("{context}: page id echo {echo} != expected {}", id.0),
        });
    }
    let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let computed = page_crc(payload, id, version);
    if stored != computed {
        return Err(PageError::Corrupt {
            page: id,
            context: format!(
                "{context}: CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the slicing code replaces: the oracle.
    fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// The page CRC fed byte by byte, padding included: the oracle.
    fn page_crc_bytewise(payload: &[u8], id: PageId, version: u16) -> u32 {
        let mut state = crc32_update_bytewise(0xFFFF_FFFF, payload);
        state = crc32_update_bytewise(state, &id.0.to_le_bytes());
        state = crc32_update_bytewise(state, &version.to_le_bytes());
        state ^ 0xFFFF_FFFF
    }

    /// `len` reproducible bytes, none of them zero.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 255) as u8 + 1
            })
            .collect()
    }

    fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u32..256).prop_map(|b| b as u8), len)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-8 equals the bytewise loop for every length 0–64 at
    /// every start offset within a word.
    #[test]
    fn slicing_crc_matches_bytewise_on_short_unaligned_slices() {
        let buf = noise(80, 0x5eed);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, data),
                        crc32_update_bytewise(state, data),
                        "start {start} len {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_crc_matches_bytewise(
            data in arb_bytes(0..600),
            start in 0usize..8,
            state in 0u32..u32::MAX,
        ) {
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32_update(state, data), crc32_update_bytewise(state, data));
        }

        #[test]
        fn page_crc_matches_bytewise_on_any_payload(
            data in arb_bytes(0..200),
            zeros in 0usize..100,
            id in 0u32..u32::MAX,
        ) {
            let mut payload = data;
            payload.resize(payload.len() + zeros, 0);
            prop_assert_eq!(
                page_crc(&payload, PageId(id), 1),
                page_crc_bytewise(&payload, PageId(id), 1)
            );
        }
    }

    /// Every zero-tail length of a page, byte by byte: the multiply applies
    /// exactly what the padding's bytes would.
    #[test]
    fn page_crc_matches_bytewise_for_every_zero_tail() {
        let mut payload = noise(PAGE_SIZE, 7);
        for tail in 0..=PAGE_SIZE {
            if tail > 0 {
                payload[PAGE_SIZE - tail] = 0;
            }
            assert_eq!(
                page_crc(&payload, PageId(9), PAGE_FORMAT_VERSION),
                page_crc_bytewise(&payload, PageId(9), PAGE_FORMAT_VERSION),
                "zero tail of {tail} bytes"
            );
        }
    }

    /// One non-zero byte anywhere in a zero tail is read, not skipped: the
    /// CRC is the oracle's and differs from the clean page's.
    #[test]
    fn a_byte_anywhere_in_the_zero_tail_counts() {
        for head in [0, 1, 1264, PAGE_SIZE - 9] {
            let mut payload = vec![0u8; PAGE_SIZE];
            payload[..head].copy_from_slice(&noise(head, 3));
            let clean = page_crc(&payload, PageId(4), PAGE_FORMAT_VERSION);
            assert_eq!(
                clean,
                page_crc_bytewise(&payload, PageId(4), PAGE_FORMAT_VERSION)
            );
            for at in head..PAGE_SIZE {
                payload[at] = 0x01;
                let crc = page_crc(&payload, PageId(4), PAGE_FORMAT_VERSION);
                assert_eq!(
                    crc,
                    page_crc_bytewise(&payload, PageId(4), PAGE_FORMAT_VERSION),
                    "head {head}, byte {at}"
                );
                assert_ne!(crc, clean, "head {head}, byte {at}");
                payload[at] = 0;
            }
        }
    }

    #[test]
    fn roundtrip_verifies() {
        let mut payload = [0u8; PAGE_SIZE];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let record = encode_record(&payload, PageId(7));
        verify_record(&record, PageId(7), "test").unwrap();
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let payload = [0xA5u8; PAGE_SIZE];
        let base = encode_record(&payload, PageId(1));
        for &offset in &[
            0usize,
            1,
            PAGE_SIZE / 2,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 5,
        ] {
            let mut record = base;
            record[offset] ^= 0x10;
            let err = verify_record(&record, PageId(1), "flip").unwrap_err();
            assert!(err.is_corrupt(), "offset {offset} not detected");
        }

        // A mostly-zero payload, like a node page: a used prefix that ends
        // mid-word, then padding. Flip bits on both sides of every word
        // boundary of the padding, and in every footer byte.
        let used = 1263;
        let mut payload = [0u8; PAGE_SIZE];
        payload[..used].copy_from_slice(&noise(used, 11));
        let base = encode_record(&payload, PageId(5));
        verify_record(&base, PageId(5), "sparse").unwrap();
        let tail = (used..=PAGE_SIZE)
            .filter(|at| at % 8 == 0)
            .flat_map(|at| [at - 1, at, at + 1])
            .filter(|&at| (used..PAGE_SIZE).contains(&at));
        for offset in tail.chain(PAGE_SIZE..PAGE_RECORD_SIZE) {
            for bit in [0x01u8, 0x80] {
                let mut record = base;
                record[offset] ^= bit;
                let err = verify_record(&record, PageId(5), "flip").unwrap_err();
                assert!(
                    err.is_corrupt(),
                    "offset {offset} bit {bit:#x} not detected"
                );
            }
        }
    }
    #[test]
    fn wrong_slot_is_detected() {
        // A record written for page 3 but read back as page 4 must fail
        // even though its internal CRC is consistent.
        let payload = [0x11u8; PAGE_SIZE];
        let record = encode_record(&payload, PageId(3));
        verify_record(&record, PageId(3), "slot").unwrap();
        let err = verify_record(&record, PageId(4), "slot").unwrap_err();
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("echo"));
    }

    #[test]
    fn torn_record_is_detected() {
        let payload = [0x42u8; PAGE_SIZE];
        let mut record = encode_record(&payload, PageId(2));
        // Simulate a torn write: the tail of the record is zeroed.
        for b in record[PAGE_SIZE - 100..].iter_mut() {
            *b = 0;
        }
        assert!(verify_record(&record, PageId(2), "torn")
            .unwrap_err()
            .is_corrupt());
    }
}
