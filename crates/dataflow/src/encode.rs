//! Fixed-layout binary encoding for records that cross a shuffle boundary or
//! are spilled to disk by the block manager.
//!
//! The paper's Spark substrate pays serialization costs whenever data is
//! shuffled between executors or evicted from the block store; this trait is
//! how the reproduction charges the same costs. The format is little-endian,
//! length-prefixed for variable-size types, and deliberately simple — it only
//! needs to round-trip inside one process/machine.

use sirum_table::Segment;

/// A value that can be written to and read back from a byte buffer.
///
/// Implementations must guarantee `decode(encode(x)) == x` and must consume
/// exactly the bytes they wrote (so values can be streamed back to back).
pub trait Encode: Sized {
    /// Append the binary form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Read one value from the front of `buf`, advancing it past the bytes
    /// consumed. Panics on malformed input: the block store verifies each
    /// file's length and checksum before it decodes, so bytes that reach a
    /// decoder are ones this process encoded.
    fn decode(buf: &mut &[u8]) -> Self;

    /// Approximate in-memory footprint in bytes, used by the block manager
    /// for budget accounting. Defaults to the encoded size.
    fn size_estimate(&self) -> usize {
        let mut tmp = Vec::new();
        self.encode(&mut tmp);
        tmp.len()
    }
}

#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    head
}

macro_rules! impl_encode_prim {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Self {
                let mut bytes = [0u8; std::mem::size_of::<$t>()];
                bytes.copy_from_slice(take(buf, std::mem::size_of::<$t>()));
                <$t>::from_le_bytes(bytes)
            }
            #[inline]
            fn size_estimate(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_encode_prim!(u8, u16, u32, u64, u128, i8, i16, i32, i64, f32, f64);

impl Encode for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Self {
        take(buf, 1)[0] != 0
    }
    #[inline]
    fn size_estimate(&self) -> usize {
        1
    }
}

impl Encode for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn decode(_buf: &mut &[u8]) -> Self {}
    #[inline]
    fn size_estimate(&self) -> usize {
        0
    }
}

impl Encode for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Self {
        u64::decode(buf) as usize
    }
    #[inline]
    fn size_estimate(&self) -> usize {
        8
    }
}

macro_rules! impl_encode_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Self {
                ($($name::decode(buf),)+)
            }
            #[inline]
            fn size_estimate(&self) -> usize {
                0 $(+ self.$idx.size_estimate())+
            }
        }
    };
}

impl_encode_tuple!(A: 0);
impl_encode_tuple!(A: 0, B: 1);
impl_encode_tuple!(A: 0, B: 1, C: 2);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Self {
        let n = u64::decode(buf) as usize;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(buf));
        }
        v
    }
    fn size_estimate(&self) -> usize {
        8 + self.iter().map(Encode::size_estimate).sum::<usize>()
    }
}

impl<T: Encode> Encode for Box<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self.iter() {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Self {
        Vec::<T>::decode(buf).into_boxed_slice()
    }
    fn size_estimate(&self) -> usize {
        8 + self.iter().map(Encode::size_estimate).sum::<usize>()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Self {
        match take(buf, 1)[0] {
            0 => None,
            _ => Some(T::decode(buf)),
        }
    }
    fn size_estimate(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::size_estimate)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Self {
        let n = u64::decode(buf) as usize;
        match String::from_utf8(take(buf, n).to_vec()) {
            Ok(s) => s,
            // Spill/shuffle buffers are written by this same process as
            // valid UTF-8; invalid bytes mean on-disk corruption, which
            // must fail loudly rather than yield silently mangled data.
            Err(e) => unreachable!("corrupted string in encoded buffer: {e}"),
        }
    }
    fn size_estimate(&self) -> usize {
        8 + self.len()
    }
}

/// A column segment: a format tag then its payload (an RLE segment's run
/// ends follow its values, which carry the run count).
impl Encode for Segment {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Segment::Raw(values) => {
                out.push(0);
                values.encode(out);
            }
            Segment::Packed { bits, len, words } => {
                out.push(1);
                bits.encode(out);
                len.encode(out);
                words.encode(out);
            }
            Segment::Rle { values, ends } => {
                out.push(2);
                values.encode(out);
                for &e in ends.iter() {
                    e.encode(out);
                }
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Self {
        match take(buf, 1)[0] {
            0 => Segment::Raw(Box::decode(buf)),
            1 => {
                let bits = u32::decode(buf);
                let len = u32::decode(buf);
                let words = Box::decode(buf);
                Segment::Packed { bits, len, words }
            }
            2 => {
                let values = Box::<[u32]>::decode(buf);
                let ends = values.iter().map(|_| u32::decode(buf)).collect();
                Segment::Rle { values, ends }
            }
            // Spill buffers are written by this same process; an unknown tag
            // is on-disk corruption and must fail loudly.
            tag => unreachable!("corrupted segment tag {tag} in encoded buffer"),
        }
    }
}

/// Encode a whole slice of records into one buffer (length-prefixed).
pub fn encode_records<T: Encode>(records: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + records.len() * 8);
    (records.len() as u64).encode(&mut out);
    for r in records {
        r.encode(&mut out);
    }
    out
}

/// Decode a buffer produced by [`encode_records`].
pub fn decode_records<T: Encode>(mut buf: &[u8]) -> Vec<T> {
    let buf = &mut buf;
    let n = u64::decode(buf) as usize;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::decode(buf));
    }
    // lint:allow(SL001) — framing invariant of this process's own encoder; corruption must not decode quietly
    assert!(buf.is_empty(), "trailing bytes after decoding {n} records");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let mut out = Vec::new();
        v.encode(&mut out);
        let mut slice = out.as_slice();
        let back = T::decode(&mut slice);
        assert_eq!(back, v);
        assert!(slice.is_empty(), "decoder must consume exactly its bytes");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(u128::MAX);
        round_trip(1u128 << 100);
        round_trip(-1i64);
        round_trip(3.5f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(false);
        round_trip(123usize);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let mut out = Vec::new();
        f64::NAN.encode(&mut out);
        let mut s = out.as_slice();
        assert!(f64::decode(&mut s).is_nan());
    }

    #[test]
    fn composites_round_trip() {
        round_trip((1u32, 2.0f64));
        round_trip((1u32, 2.0f64, 3u64, true));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec![1u32, u32::MAX].into_boxed_slice());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip("hello — ünïcode".to_string());
        round_trip(vec![(vec![1u32, 2], 3.5f64), (vec![], -1.0)]);
    }

    #[test]
    fn record_batches_round_trip() {
        let records: Vec<(Box<[u32]>, f64, u64)> = (0..100)
            .map(|i| {
                (
                    vec![i, i * 2, u32::MAX].into_boxed_slice(),
                    f64::from(i) * 0.5,
                    u64::from(i),
                )
            })
            .collect();
        let buf = encode_records(&records);
        let back: Vec<(Box<[u32]>, f64, u64)> = decode_records(&buf);
        assert_eq!(back, records);
    }

    #[test]
    fn size_estimates_match_encoded_len_for_fixed_types() {
        let v = (1u32, 2.0f64, 3u64);
        let mut out = Vec::new();
        v.encode(&mut out);
        assert_eq!(v.size_estimate(), out.len());
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_rejected() {
        let mut buf = encode_records(&[1u32, 2]);
        buf.push(0xFF);
        let _ = decode_records::<u32>(&buf);
    }
}
