//! DNS over TCP framing (RFC 1035 §4.2.2): every message on a connection is
//! preceded by its length, a two-byte big-endian integer. Every client and
//! server of the workspace frames and deframes through these two functions.
//!
//! # Examples
//!
//! ```
//! use dnswire::framing::{frame, take_frame};
//!
//! let mut stream = frame(b"first").unwrap();
//! stream.extend(frame(b"second").unwrap());
//! stream.truncate(stream.len() - 1); // the last byte is still in flight
//! assert_eq!(take_frame(&mut stream).as_deref(), Some(&b"first"[..]));
//! assert_eq!(take_frame(&mut stream), None);
//! assert_eq!(stream, b"\x00\x06secon");
//! ```

/// `msg` behind its length prefix, or `None` when it is longer than the
/// prefix can state (65 535 bytes).
pub fn frame(msg: &[u8]) -> Option<Vec<u8>> {
    let len = u16::try_from(msg.len()).ok()?;
    let mut framed = Vec::with_capacity(msg.len() + 2);
    framed.extend_from_slice(&len.to_be_bytes());
    framed.extend_from_slice(msg);
    Some(framed)
}

/// Drains the first complete frame from `buf`, a connection's received
/// bytes, and returns its message. While the prefix or the message is still
/// partial it returns `None` and leaves `buf` as it was.
pub fn take_frame(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let Some(&[hi, lo]) = buf.get(..2) else {
        return None;
    };
    let end = 2 + usize::from(u16::from_be_bytes([hi, lo]));
    let msg = buf.get(2..end)?.to_vec();
    buf.drain(..end);
    Some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_refuses_what_the_prefix_cannot_state() {
        assert_eq!(frame(&vec![7; 65_535]).map(|f| f.len()), Some(65_537));
        assert_eq!(frame(&vec![7; 65_536]), None);
    }

    #[test]
    fn an_empty_message_is_a_frame() {
        let mut buf = frame(&[]).unwrap();
        assert_eq!(buf, [0, 0]);
        assert_eq!(take_frame(&mut buf), Some(Vec::new()));
        assert!(buf.is_empty());
    }

    proptest! {
        /// Framed messages, concatenated and delivered in arbitrary pieces,
        /// come back out exactly and in order; a partial tail yields nothing
        /// and keeps its bytes.
        #[test]
        fn frames_survive_any_segmentation(
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..6),
            cuts in proptest::collection::vec(any::<u16>(), 0..8),
        ) {
            let stream: Vec<u8> = msgs.iter().flat_map(|m| frame(m).unwrap()).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();

            let (mut buf, mut got, mut from) = (Vec::new(), Vec::new(), 0);
            for cut in cuts {
                buf.extend_from_slice(&stream[from..cut]);
                from = cut;
                while let Some(m) = take_frame(&mut buf) {
                    got.push(m);
                }
                // What is left is the start of the next frame, kept whole.
                let delivered: usize = got.iter().map(|m| m.len() + 2).sum();
                prop_assert_eq!(&buf[..], &stream[delivered..cut]);
                let kept = buf.clone();
                prop_assert_eq!(take_frame(&mut buf), None);
                prop_assert_eq!(&buf, &kept);
            }
            prop_assert_eq!(got, msgs);
        }
    }
}
