//! The checked reader, and the writer, of every binary format here: the
//! engine file ([`crate::storage`]), the store's record and manifest,
//! and the wire, which also writes `.repr` files.
//!
//! Numbers are big-endian. A read splits its bytes off the front of a
//! `&mut &[u8]` cursor and fails with a [`DecodeError`] when too few
//! remain, so no decoder indexes past its input. A length read from the
//! input is trusted only once it is checked here: a string's against
//! the bytes that remain ([`take`]), and a count's against the rows
//! those bytes can hold ([`count`], [`vocab_rows`]), before anything is
//! reserved for it. Each format maps [`DecodeError`] to its own error
//! once, at its boundary.

use crate::collection::Fingerprint;
use crate::weighting::WeightingScheme;
use seu_text::{AnalyzerConfig, Vocabulary};
use std::fmt;

/// Why bytes did not decode. Built only on failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl DecodeError {
    /// An error saying `detail`.
    #[cold]
    pub(crate) fn new(detail: impl Into<String>) -> DecodeError {
        DecodeError(detail.into())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cold]
fn truncated(n: usize, left: usize) -> DecodeError {
    DecodeError(format!("truncated: {n} bytes needed, {left} remain"))
}

/// Splits `n` bytes off the front of `buf`.
#[inline]
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    let Some((head, rest)) = buf.split_at_checked(n) else {
        return Err(truncated(n, buf.len()));
    };
    *buf = rest;
    Ok(head)
}

/// A fixed-width field: appended to a `Vec<u8>`, and split off the
/// front of a cursor.
pub trait Field: Sized {
    /// The bytes every value occupies.
    const BYTES: usize;
    /// Appends the value.
    fn put(self, out: &mut Vec<u8>);
    /// Reads one value off the front of `buf`.
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError>;
}

macro_rules! number {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            const BYTES: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                let Some((head, rest)) = buf.split_first_chunk() else {
                    return Err(truncated(Self::BYTES, buf.len()));
                };
                *buf = rest;
                Ok(<$ty>::from_be_bytes(*head))
            }
        }
    )+};
}
number!(u8, u16, u32, u64, f64);

/// One byte, `0` or `1`; any other byte is refused.
impl Field for bool {
    const BYTES: usize = 1;
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        out.push(u8::from(self));
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::get(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::new(format!("bool byte {other}"))),
        }
    }
}

/// Document count, raw bytes and hash.
impl Field for Fingerprint {
    const BYTES: usize = 24;
    fn put(self, out: &mut Vec<u8>) {
        self.n_docs.put(out);
        self.raw_bytes.put(out);
        self.hash.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Fingerprint {
            n_docs: u64::get(buf)?,
            raw_bytes: u64::get(buf)?,
            hash: u64::get(buf)?,
        })
    }
}

/// A tag byte and an `f64` slope that only `PivotedLogTf` (tag 3) reads;
/// the others write 0.0 there. A slope that is not finite is refused.
impl Field for WeightingScheme {
    const BYTES: usize = 9;
    fn put(self, out: &mut Vec<u8>) {
        let (tag, slope) = match self {
            WeightingScheme::CosineTf => (0u8, 0.0),
            WeightingScheme::CosineLogTf => (1, 0.0),
            WeightingScheme::CosineTfIdf => (2, 0.0),
            WeightingScheme::PivotedLogTf { slope } => (3, slope),
        };
        tag.put(out);
        slope.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match (u8::get(buf)?, f64::get(buf)?) {
            (0, _) => Ok(WeightingScheme::CosineTf),
            (1, _) => Ok(WeightingScheme::CosineLogTf),
            (2, _) => Ok(WeightingScheme::CosineTfIdf),
            (3, slope) if slope.is_finite() => Ok(WeightingScheme::PivotedLogTf { slope }),
            (tag, slope) => Err(DecodeError::new(format!(
                "weighting scheme tag {tag} with slope {slope}"
            ))),
        }
    }
}

/// Two bools: `remove_stopwords`, then `stem`.
impl Field for AnalyzerConfig {
    const BYTES: usize = 2;
    fn put(self, out: &mut Vec<u8>) {
        self.remove_stopwords.put(out);
        self.stem.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(AnalyzerConfig {
            remove_stopwords: bool::get(buf)?,
            stem: bool::get(buf)?,
        })
    }
}

/// Appends `s` behind its `u16` length; panics on a string over
/// `u16::MAX` bytes.
#[inline]
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("string too long for a u16 length");
    len.put(out);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `s` behind its `u32` length.
#[inline]
pub fn put_str32(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

/// A `u16`-prefixed UTF-8 string, borrowed from the input.
#[inline]
pub fn str16<'a>(buf: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let len = u16::get(buf)?;
    utf8(take(buf, usize::from(len))?)
}

/// A `u32`-prefixed UTF-8 string, borrowed from the input.
#[inline]
pub fn str32<'a>(buf: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let len = u32::get(buf)?;
    utf8(take(buf, len as usize)?)
}

#[inline]
fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError::new("a string is not UTF-8"))
}

/// A `u32` count of rows that are each at least `min_row` bytes long,
/// refused when the bytes that remain cannot hold that many: the
/// count-lie guard, so what a count reserves is bounded by the input.
#[inline]
pub fn count(buf: &mut &[u8], min_row: usize) -> Result<usize, DecodeError> {
    let n = u32::get(buf)? as usize;
    if n > buf.len() / min_row.max(1) {
        return Err(DecodeError::new(format!(
            "{n} rows of at least {min_row} bytes claimed, {} bytes remain",
            buf.len()
        )));
    }
    Ok(n)
}

/// Reads `n` vocabulary rows, each a `u16`-prefixed term and a `tail`
/// of fixed bytes that `row` reads, into a vocabulary whose ids are the
/// rows' order and the values `row` returned. The rows are scanned
/// first, so the vocabulary is sized once, to the terms' own bytes,
/// and a count the input cannot hold fails before anything is
/// reserved. A term met twice is refused.
pub fn vocab_rows<'a, T>(
    buf: &mut &'a [u8],
    n: usize,
    tail: usize,
    mut row: impl FnMut(&mut &'a [u8]) -> Result<T, DecodeError>,
) -> Result<(Vocabulary, Vec<T>), DecodeError> {
    let mut scan = *buf;
    let mut term_bytes = 0;
    for _ in 0..n {
        let len = usize::from(u16::get(&mut scan)?);
        take(&mut scan, len + tail)?;
        term_bytes += len;
    }
    let mut vocab = Vocabulary::with_capacity(n, term_bytes);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let term = str16(buf)?;
        if vocab.intern(term).index() != i {
            return Err(DecodeError::new(format!(
                "vocabulary term {term:?} again at row {i}"
            )));
        }
        values.push(row(buf)?);
    }
    Ok((vocab, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bool_is_zero_or_one_and_a_slope_is_finite() {
        assert_eq!(bool::get(&mut &[0u8][..]), Ok(false));
        assert_eq!(bool::get(&mut &[1u8][..]), Ok(true));
        assert!(bool::get(&mut &[2u8][..]).is_err());
        let pivoted = WeightingScheme::PivotedLogTf { slope: 0.2 };
        let mut bytes = Vec::new();
        pivoted.put(&mut bytes);
        assert_eq!(WeightingScheme::get(&mut &bytes[..]), Ok(pivoted));
        for slope in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bytes.truncate(1);
            slope.put(&mut bytes);
            assert!(WeightingScheme::get(&mut &bytes[..]).is_err(), "{slope}");
        }
    }

    #[test]
    fn counts_and_vocabulary_rows_are_checked_before_anything_is_reserved() {
        let mut bytes = Vec::new();
        for (i, term) in ["alpha", "beta", "alpha"].iter().enumerate() {
            put_str16(&mut bytes, term);
            (i as u32).put(&mut bytes);
        }
        assert_eq!(count(&mut &[0, 0, 0, 3, 1, 2, 3][..], 1), Ok(3));
        assert!(count(&mut &[0, 0, 0, 4, 1, 2, 3][..], 1).is_err());
        let two = &bytes[..2 * (2 + 4) + 9];
        let (vocab, ids) = vocab_rows(&mut &two[..], 2, 4, u32::get).unwrap();
        assert_eq!((vocab.term(seu_text::TermId(1)), ids), ("beta", vec![0, 1]));
        assert_eq!(
            vocab.heap_bytes(),
            Vocabulary::with_capacity(2, 9).heap_bytes()
        );
        assert!(vocab_rows(&mut &two[..], 3, 4, u32::get).is_err());
        assert!(vocab_rows(&mut &two[..], usize::MAX, 4, u32::get).is_err());
        assert!(
            vocab_rows(&mut &bytes[..], 3, 4, u32::get).is_err(),
            "a term twice"
        );
    }
}
