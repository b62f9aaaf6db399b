//! Byte codecs for index snapshot components.
//!
//! Only LEB128 varints of `u64` remain: the snapshot's configuration
//! fields and the ITL's delta-coded columns. Decoding is strict:
//! truncated or over-long input yields `None`, never a partial value,
//! so a corrupt record surfaces in the caller instead of decoding to
//! garbage.

/// Appends `v` as an LEB128 varint (1–10 bytes).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `2^(7k) − 1` and `2^(7k)`, the last value of each encoded length
    /// and the first of the next, for k = 1..=9.
    fn length_boundaries() -> impl Iterator<Item = (u64, usize)> {
        (1..=9usize).flat_map(|k| [((1u64 << (7 * k)) - 1, k), (1u64 << (7 * k), k + 1)])
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for (v, _) in length_boundaries() {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint_u64(&buf, &mut pos), Some(v), "{v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_sizes() {
        let size = |v: u64| {
            let mut b = Vec::new();
            put_varint_u64(&mut b, v);
            b.len()
        };
        assert_eq!(size(0), 1);
        for (v, len) in length_boundaries() {
            assert_eq!(size(v), len, "{v}");
        }
        assert_eq!(size(u64::from(u32::MAX)), 5);
    }

    #[test]
    fn varint_truncation_is_none() {
        for (v, _) in length_boundaries() {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            for cut in 0..buf.len() {
                assert_eq!(get_varint_u64(&buf[..cut], &mut 0), None, "{v} cut {cut}");
            }
        }
    }

    #[test]
    fn varint_overlong_is_none() {
        // A zero value padded with redundant continuation bytes past the
        // ten a u64 can use never decodes, even though it terminates.
        let mut buf = vec![0x80u8; 10];
        buf.push(0x00);
        assert_eq!(get_varint_u64(&buf, &mut 0), None);
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
}
