//! Property tests for the snapshot codecs: arbitrary values roundtrip,
//! and arbitrary bytes never panic the decoders.

use atsq_storage::codec;
use proptest::prelude::*;

proptest! {
    /// Varint roundtrip over arbitrary u32 values and buffers.
    #[test]
    fn varint_roundtrip(values in prop::collection::vec(any::<u32>(), 0..50)) {
        let mut buf = Vec::new();
        for &v in &values {
            codec::put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(codec::get_varint(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// Delta-coded ascending sequences roundtrip.
    #[test]
    fn ascending_roundtrip(mut values in prop::collection::vec(0u32..u32::MAX / 2, 0..200)) {
        values.sort_unstable();
        let mut buf = Vec::new();
        codec::put_ascending(&mut buf, &values);
        let mut pos = 0;
        prop_assert_eq!(codec::get_ascending(&buf, &mut pos), Some(values));
        prop_assert_eq!(pos, buf.len());
    }

    /// Decoding arbitrary garbage never panics (it may legitimately
    /// decode, but must never produce an inconsistent position).
    #[test]
    fn codec_never_panics_on_garbage(buf in prop::collection::vec(any::<u8>(), 0..100)) {
        let mut pos = 0;
        let _ = codec::get_varint(&buf, &mut pos);
        prop_assert!(pos <= buf.len());
        let mut pos = 0;
        let _ = codec::get_ascending(&buf, &mut pos);
        prop_assert!(pos <= buf.len());
    }
}
