//! Fixed-size, checksummed pages.
//!
//! Every page starts with a 16-byte header:
//!
//! ```text
//! offset 0  u32  magic  ("ATSQ", little endian)
//! offset 4  u16  format version (currently 1)
//! offset 6  u16  flags (reserved, written as 0)
//! offset 8  u32  CRC-32 of the payload
//! offset 12 u32  reserved (written as 0)
//! ```
//!
//! The payload (everything after the header) belongs to the caller.
//! Call [`Page::seal`] before writing a page and [`Page::verify`]
//! after reading it, so torn or bit-flipped pages surface as
//! [`crate::StorageError::Corrupt`] instead of silent garbage.
//!
//! [`crc32`] is the same checksum the index snapshots use.

use crate::error::{StorageError, StorageResult};

/// Default page size in bytes (the classical 4 KiB).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Bytes reserved for the page header.
pub const PAGE_HEADER_LEN: usize = 16;

/// Smallest page size the crate accepts: the header plus a
/// 48-byte payload.
pub const MIN_PAGE_SIZE: usize = 64;

const MAGIC: u32 = u32::from_le_bytes(*b"ATSQ");
const VERSION: u16 = 1;

/// Identifier of a page within one file (also its offset / page_size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page in a file of `page_size` pages.
    pub fn offset(self, page_size: usize) -> u64 {
        self.0 * page_size as u64
    }
}

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 over `bytes` (IEEE polynomial, the zlib convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One in-memory page: a boxed buffer of `page_size` bytes.
#[derive(Debug, Clone)]
pub struct Page {
    buf: Box<[u8]>,
}

impl Page {
    /// A zeroed page of `page_size` bytes with an initialized header.
    ///
    /// # Panics
    /// Panics if `page_size < MIN_PAGE_SIZE`.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= MIN_PAGE_SIZE,
            "page size {page_size} below minimum {MIN_PAGE_SIZE}"
        );
        let mut p = Page {
            buf: vec![0u8; page_size].into_boxed_slice(),
        };
        p.buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        p.buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        p
    }

    /// Total page size in bytes (header + payload).
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// The caller-owned payload region.
    pub fn payload(&self) -> &[u8] {
        &self.buf[PAGE_HEADER_LEN..]
    }

    /// Mutable payload region.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[PAGE_HEADER_LEN..]
    }

    /// The raw page bytes, header included (what gets persisted).
    pub fn raw(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable raw bytes, for reading a page in.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Recomputes the payload checksum into the header. Call this
    /// immediately before persisting a page.
    pub fn seal(&mut self) {
        let crc = crc32(&self.buf[PAGE_HEADER_LEN..]);
        self.buf[8..12].copy_from_slice(&crc.to_le_bytes());
    }

    /// Verifies magic, version and payload checksum, naming `id` in
    /// any error. Call this immediately after reading a page.
    pub fn verify(&self, id: PageId) -> StorageResult<()> {
        let magic = u32::from_le_bytes(self.buf[0..4].try_into().expect("4-byte slice"));
        if magic != MAGIC {
            return Err(StorageError::Corrupt {
                page: id,
                detail: format!("bad magic 0x{magic:08x}"),
            });
        }
        let version = u16::from_le_bytes(self.buf[4..6].try_into().expect("2-byte slice"));
        if version != VERSION {
            return Err(StorageError::Corrupt {
                page: id,
                detail: format!("unsupported version {version}"),
            });
        }
        let stored = u32::from_le_bytes(self.buf[8..12].try_into().expect("4-byte slice"));
        let actual = crc32(&self.buf[PAGE_HEADER_LEN..]);
        if stored != actual {
            return Err(StorageError::Corrupt {
                page: id,
                detail: format!("checksum mismatch: header 0x{stored:08x}, payload 0x{actual:08x}"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn new_page_seals_and_verifies() {
        let mut p = Page::new(DEFAULT_PAGE_SIZE);
        assert_eq!(p.size(), DEFAULT_PAGE_SIZE);
        assert_eq!(p.payload().len(), DEFAULT_PAGE_SIZE - PAGE_HEADER_LEN);
        p.seal();
        p.verify(PageId(0)).unwrap();
    }

    #[test]
    fn payload_edit_requires_reseal() {
        let mut p = Page::new(256);
        p.seal();
        p.payload_mut()[0] = 0xAB;
        let err = p.verify(PageId(7)).unwrap_err();
        match err {
            StorageError::Corrupt { page, detail } => {
                assert_eq!(page, PageId(7));
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        p.seal();
        p.verify(PageId(7)).unwrap();
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut p = Page::new(128);
        p.seal();
        p.raw_mut()[0] = 0;
        assert!(matches!(
            p.verify(PageId(0)),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_version_is_detected() {
        let mut p = Page::new(128);
        p.seal();
        p.raw_mut()[4] = 99;
        let err = p.verify(PageId(0)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn tiny_pages_are_rejected() {
        let _ = Page::new(32);
    }

    #[test]
    fn page_id_offsets() {
        assert_eq!(PageId(0).offset(4096), 0);
        assert_eq!(PageId(3).offset(4096), 12288);
        assert_eq!(PageId(2).offset(128), 256);
    }
}
