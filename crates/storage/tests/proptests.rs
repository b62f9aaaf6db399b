//! Property tests for the snapshot codecs: arbitrary values roundtrip,
//! and arbitrary bytes never panic the decoder.

use atsq_storage::codec;
use proptest::prelude::*;

proptest! {
    /// Varint roundtrip over arbitrary u64 values and buffers.
    #[test]
    fn varint_roundtrip(values in prop::collection::vec(any::<u64>(), 0..50)) {
        let mut buf = Vec::new();
        for &v in &values {
            codec::put_varint_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(codec::get_varint_u64(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// Decoding arbitrary garbage never panics (it may legitimately
    /// decode, but must never produce an inconsistent position).
    #[test]
    fn codec_never_panics_on_garbage(buf in prop::collection::vec(any::<u8>(), 0..100)) {
        let mut pos = 0;
        let _ = codec::get_varint_u64(&buf, &mut pos);
        prop_assert!(pos <= buf.len());
    }
}
