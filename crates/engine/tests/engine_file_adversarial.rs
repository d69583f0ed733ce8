//! Engine files whose counts lie. `seu search` and `seu serve` load
//! engine files from paths a user names, so a count that claims more
//! rows than the file holds must come back as `None`, not as an
//! allocation the process cannot survive. A binary of its own: a
//! regression here aborts the process rather than failing a test.

use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
use seu_text::Analyzer;

/// The bytes of a collection of `texts`, one document each.
fn file(texts: &[&str], scheme: WeightingScheme) -> Vec<u8> {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    b.build().to_bytes().to_vec()
}

/// Header: magic, version, scheme tag and parameter, analyzer flags,
/// raw bytes, total tokens, mean norm.
const HEADER: usize = 4 + 2 + 1 + 8 + 2 + 8 + 8 + 8;

fn set_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

#[test]
fn a_lying_term_count_is_refused() {
    let mut bytes = file(&[], WeightingScheme::CosineTf);
    assert_eq!(bytes.len(), HEADER + 4 + 4);
    set_u32(&mut bytes, HEADER, u32::MAX);
    assert!(Collection::from_bytes(&bytes[..]).is_none());
}

#[test]
fn a_lying_document_count_is_refused() {
    let mut bytes = file(&[], WeightingScheme::CosineTf);
    assert_eq!(
        bytes.len(),
        49,
        "a valid header with no terms and no documents"
    );
    set_u32(&mut bytes, HEADER + 4, u32::MAX);
    assert!(Collection::from_bytes(&bytes[..]).is_none());
}

#[test]
fn a_lying_per_document_term_count_is_refused() {
    // One document with no terms: its term count is the last field.
    let mut bytes = file(&[""], WeightingScheme::CosineTf);
    assert!(Collection::from_bytes(&bytes[..]).is_some());
    let at = bytes.len() - 4;
    set_u32(&mut bytes, at, u32::MAX);
    assert!(Collection::from_bytes(&bytes[..]).is_none());
}

#[test]
fn a_non_finite_pivoted_slope_is_refused() {
    let bytes = file(
        &["alpha beta"],
        WeightingScheme::PivotedLogTf { slope: 0.25 },
    );
    assert!(Collection::from_bytes(&bytes[..]).is_some());
    for slope in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut bad = bytes.clone();
        bad[7..15].copy_from_slice(&slope.to_bits().to_be_bytes());
        assert!(Collection::from_bytes(&bad[..]).is_none(), "slope {slope}");
    }
}

#[test]
fn an_analyzer_flag_other_than_0_or_1_is_refused() {
    let bytes = file(&["alpha beta"], WeightingScheme::CosineTf);
    assert!(Collection::from_bytes(&bytes[..]).is_some());
    // The two flag bytes follow the scheme's tag and parameter.
    for at in [15, 16] {
        let mut bad = bytes.clone();
        bad[at] = 2;
        assert!(Collection::from_bytes(&bad[..]).is_none(), "byte {at} = 2");
    }
}

/// The bytes of a vocabulary of one term, `x`, whose document frequency
/// is `doc_freq`, over no documents.
fn one_term_no_documents(doc_freq: u32) -> Vec<u8> {
    let mut bytes = file(&[], WeightingScheme::CosineTf)[..HEADER].to_vec();
    bytes.extend_from_slice(&1u32.to_be_bytes());
    bytes.extend_from_slice(&1u16.to_be_bytes());
    bytes.push(b'x');
    bytes.extend_from_slice(&doc_freq.to_be_bytes());
    bytes.extend_from_slice(&0u32.to_be_bytes());
    bytes
}

#[test]
fn a_term_no_document_counts_is_refused() {
    for df in [0, 1] {
        let bytes = one_term_no_documents(df);
        assert!(
            Collection::from_bytes(&bytes[..]).is_none(),
            "doc_freq {df}"
        );
    }
    // One document, one term: the term's document frequency follows the
    // term count and the term's name.
    let bytes = file(&["alpha"], WeightingScheme::CosineTf);
    assert!(Collection::from_bytes(&bytes[..]).is_some());
    let name_len = u16::from_be_bytes([bytes[HEADER + 4], bytes[HEADER + 5]]) as usize;
    let at = HEADER + 4 + 2 + name_len;
    for df in [0, 2] {
        let mut bad = bytes.clone();
        set_u32(&mut bad, at, df);
        assert!(Collection::from_bytes(&bad[..]).is_none(), "doc_freq {df}");
    }
}

#[test]
fn a_tf_idf_term_in_every_document_still_loads() {
    // tf-idf weighs `alpha` zero, so no document lists it, yet both
    // count it.
    let bytes = file(&["alpha beta", "alpha"], WeightingScheme::CosineTfIdf);
    let c = Collection::from_bytes(&bytes[..]).expect("a built collection loads");
    let alpha = c.vocab().get("alpha").expect("alpha is a term");
    assert_eq!(c.doc_freq(alpha), 2);
    assert!(c.docs().iter().all(|d| d.weight(alpha) == 0.0));
}

/// The input classes a truncated or overwritten file falls into: every
/// strict prefix of a valid file (the header's own last bytes among
/// them), the file with one byte more, and runs of `0xFF`. Each loads as
/// `None`, never as a panic.
#[test]
fn prefixes_extensions_and_ff_runs_are_refused() {
    let bytes = file(
        &["alpha beta", "gamma"],
        WeightingScheme::PivotedLogTf { slope: 0.25 },
    );
    assert!(Collection::from_bytes(&bytes[..]).is_some());
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        assert!(Collection::from_bytes(prefix).is_none(), "prefix of {cut}");
    }
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(
        Collection::from_bytes(&longer[..]).is_none(),
        "one byte more"
    );
    for n in [1, 8, 16, 64, 256] {
        let ff = vec![0xFF; n];
        assert!(
            Collection::from_bytes(&ff[..]).is_none(),
            "{n} bytes of 0xFF"
        );
    }
}
