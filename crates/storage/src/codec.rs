//! Byte codecs for index snapshot components.
//!
//! Posting lists are stored as LEB128 varints with delta encoding for
//! the ascending point indexes — the standard inverted-file
//! compression (Zobel & Moffat \[23], which the paper's IR-tree also
//! builds on). Decoding is strict: truncated or over-long input yields
//! `None`, never a partial value, so a corrupt record surfaces in the
//! caller instead of decoding to garbage.

/// Appends `v` as an LEB128 varint (1–5 bytes for `u32`).
pub fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint from `buf[*pos..]`, advancing `pos`.
/// Returns `None` on truncation or a value exceeding `u32`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let mut v: u64 = 0;
    for shift in 0..5 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << (7 * shift);
        if byte & 0x80 == 0 {
            return u32::try_from(v).ok();
        }
    }
    None // more than 5 continuation bytes cannot be a u32
}

/// Appends `v` as an LEB128 varint (1–10 bytes for `u64`). Used for
/// grid-cell Morton codes in index snapshots.
pub fn put_varint_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one `u64` varint from `buf[*pos..]`, advancing `pos`.
/// Returns `None` on truncation or a value exceeding `u64`.
pub fn get_varint_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in 0..10 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let part = u64::from(byte & 0x7F);
        // The 10th byte may only carry the final bit of a u64.
        if shift == 9 && part > 1 {
            return None;
        }
        v |= part << (7 * shift);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None // more than 10 continuation bytes cannot be a u64
}

/// Appends an ascending `u32` sequence as delta varints
/// (`[count][first][gap][gap]...`).
///
/// # Panics
/// Debug-asserts that `values` is non-decreasing; posting lists are
/// built from ascending point indexes.
pub fn put_ascending(out: &mut Vec<u8>, values: &[u32]) {
    put_varint(out, values.len() as u32);
    let mut prev = 0u32;
    for (i, &v) in values.iter().enumerate() {
        debug_assert!(i == 0 || v >= prev, "sequence must be non-decreasing");
        let delta = if i == 0 { v } else { v - prev };
        put_varint(out, delta);
        prev = v;
    }
}

/// Reads a sequence written by [`put_ascending`].
pub fn get_ascending(buf: &[u8], pos: &mut usize) -> Option<Vec<u32>> {
    let n = get_varint(buf, pos)? as usize;
    // A varint is at least one byte: cheap sanity bound against a
    // corrupt count causing a huge allocation.
    if n > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u32;
    for i in 0..n {
        let delta = get_varint(buf, pos)?;
        let v = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)?
        };
        out.push(v);
        prev = v;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_one(v: u32) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0, 1, 127, 128, 16383, 16384, 2097151, 2097152, u32::MAX] {
            roundtrip_one(v);
        }
    }

    #[test]
    fn varint_sizes() {
        let size = |v: u32| {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            b.len()
        };
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(u32::MAX), 5);
    }

    #[test]
    fn varint_truncation_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        let mut pos = 0;
        assert_eq!(get_varint(&buf[..1], &mut pos), None);
        assert_eq!(get_varint(&[], &mut 0), None);
    }

    #[test]
    fn varint_overlong_is_none() {
        // Six continuation bytes can never encode a u32.
        let buf = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(get_varint(&buf, &mut 0), None);
        // Five bytes whose value exceeds u32::MAX.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(get_varint(&buf, &mut 0), None);
    }

    #[test]
    fn varint_u64_roundtrips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint_u64(&buf, &mut pos), Some(v), "{v}");
            assert_eq!(pos, buf.len());
        }
        // u64::MAX needs exactly 10 bytes.
        let mut buf = Vec::new();
        put_varint_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_u64_truncation_and_overflow_are_none() {
        let mut buf = Vec::new();
        put_varint_u64(&mut buf, u64::MAX);
        assert_eq!(get_varint_u64(&buf[..9], &mut 0), None);
        assert_eq!(get_varint_u64(&[], &mut 0), None);
        // Ten continuation bytes never terminate a u64.
        let buf = [0x80u8; 10];
        assert_eq!(get_varint_u64(&buf, &mut 0), None);
        // A 10th byte above 1 overflows 64 bits.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x02);
        assert_eq!(get_varint_u64(&buf, &mut 0), None);
    }

    #[test]
    fn ascending_roundtrip() {
        for seq in [
            vec![],
            vec![0],
            vec![5, 5, 5],
            vec![0, 1, 2, 3, 1000, 100000],
            vec![42, 360, 361, 70000],
        ] {
            let mut buf = Vec::new();
            put_ascending(&mut buf, &seq);
            let mut pos = 0;
            assert_eq!(get_ascending(&buf, &mut pos), Some(seq));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ascending_is_compact() {
        // 1000 consecutive indexes: 2-byte count + 1 byte each.
        let seq: Vec<u32> = (5000..6000).collect();
        let mut buf = Vec::new();
        put_ascending(&mut buf, &seq);
        assert!(buf.len() <= 2 + 2 + 999, "got {}", buf.len());
    }

    #[test]
    fn ascending_corrupt_count_is_none() {
        let mut buf = Vec::new();
        put_ascending(&mut buf, &[1, 2, 3]);
        buf[0] = 0x7F; // claim 127 entries, only 3 present
        assert_eq!(get_ascending(&buf, &mut 0), None);
    }

    #[test]
    fn ascending_overflow_gap_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // two entries
        put_varint(&mut buf, u32::MAX); // first = MAX
        put_varint(&mut buf, 1); // gap overflows
        assert_eq!(get_ascending(&buf, &mut 0), None);
    }

    #[test]
    fn multiple_sequences_share_a_buffer() {
        let mut buf = Vec::new();
        put_ascending(&mut buf, &[1, 2]);
        put_ascending(&mut buf, &[10]);
        let mut pos = 0;
        assert_eq!(get_ascending(&buf, &mut pos), Some(vec![1, 2]));
        assert_eq!(get_ascending(&buf, &mut pos), Some(vec![10]));
        assert_eq!(pos, buf.len());
    }
}
