//! The engine file's bytes, pinned as hex. `seu index` writes these
//! files and `seu search` / `seu serve` read them back, so a codec
//! rewrite must keep every byte: this file passing unedited is the
//! evidence that it did.

use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
use seu_text::Analyzer;

/// Two documents under `PivotedLogTf`, the second named by and holding
/// a non-ASCII term (the tokenizer keeps ASCII runs only, so it comes
/// in as a token), so every field kind — strings, counts, weights, the
/// scheme's slope — is on the wire.
fn collection() -> Collection {
    let scheme = WeightingScheme::PivotedLogTf { slope: 0.2 };
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
    b.add_document("d0", "mushroom soup with cream and mushrooms");
    b.add_tokens("süß", &["süß", "soup", "soup"]);
    b.build()
}

/// The collection's bytes as the `bytes`-based codec wrote them.
const GOLDEN: &str = "534555430001033fc999999999999a0100000000000000003600000000000000073fffbb3260cd840d0000000500086d757368726f6f6d000000010004736f7570000000020005637265616d0000000100096d757368726f6f6d7300000001000573c3bcc39f00000001000000020002643040000000000000000000000400000004000000003fe01bb51b97f431000000013fe01bb51b97f431000000023fe01bb51b97f431000000033fe01bb51b97f431000573c3bcc39f3fff7664c19b081a0000000300000002000000013feb5dbd25ce5143000000043fe029b3c5170232";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn the_engine_file_keeps_its_bytes() {
    let bytes = collection().to_bytes();
    assert_eq!(hex(&bytes), GOLDEN);
    let back = Collection::from_bytes(&bytes[..]).expect("the golden bytes load");
    assert_eq!(
        hex(&back.to_bytes()),
        GOLDEN,
        "a load writes the same bytes"
    );
}
