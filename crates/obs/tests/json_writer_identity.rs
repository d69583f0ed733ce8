//! Byte-identity of the two JSON writers every reply goes through.
//!
//! `write_num` must produce exactly what `{:?}` produces for a finite
//! float (Rust's shortest round-trip text) and `null` otherwise;
//! `write_escaped` must produce exactly what escaping one `char` at a
//! time produces. Both references are spelled out here, so a writer
//! that takes a shortcut (a zero answered without `fmt`, a string
//! copied in one piece) is held to the bytes it replaces.

use proptest::prelude::*;
use seu_obs::json::{write_escaped, write_num};

fn num(value: f64) -> String {
    let mut out = String::from("[");
    write_num(&mut out, value);
    out.push(']');
    out
}

fn num_reference(value: f64) -> String {
    if value.is_finite() {
        format!("[{value:?}]")
    } else {
        "[null]".to_string()
    }
}

fn escaped(text: &str) -> String {
    let mut out = String::from("k:");
    write_escaped(&mut out, text);
    out.push(';');
    out
}

/// The writer as it stood before any shortcut: one `char` at a time.
fn escaped_reference(text: &str) -> String {
    let mut out = String::from("k:\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\";");
    out
}

#[test]
fn write_num_matches_debug_formatting_over_the_table() {
    let two53 = 9_007_199_254_740_992.0_f64;
    let table = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        0.2,
        1.5,
        1e-7,
        1e-5,
        1e15,
        1e16,
        1e17,
        1e21,
        1e22,
        -1e21,
        123456.789,
        0.30000000000000004,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        f64::from_bits(two53.to_bits() + 1),
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        -f64::from_bits(1),
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for value in table {
        assert_eq!(
            num(value),
            num_reference(value),
            "bits {:#018x}",
            value.to_bits()
        );
    }
    assert_eq!(num(0.0), "[0.0]");
    assert_eq!(num(-0.0), "[-0.0]");
    assert_eq!(num(f64::NAN), "[null]");
    assert_eq!(num(f64::INFINITY), "[null]");
    assert_eq!(num(f64::NEG_INFINITY), "[null]");
}

#[test]
fn write_num_appends_and_leaves_what_was_there() {
    let mut out = String::from("{\"a\":");
    write_num(&mut out, 0.0);
    out.push_str(",\"b\":");
    write_num(&mut out, -0.0);
    out.push_str(",\"c\":");
    write_num(&mut out, 0.25);
    out.push('}');
    assert_eq!(out, "{\"a\":0.0,\"b\":-0.0,\"c\":0.25}");
}

#[test]
fn write_escaped_matches_the_per_char_reference_over_the_table() {
    let mut table: Vec<String> = Vec::new();
    // Every byte below 0x20, the two escaped printables, and DEL — alone,
    // and with the escape first, in the middle and last.
    for byte in (0u8..0x20).chain([b'"', b'\\', 0x7f]) {
        let c = byte as char;
        table.push(c.to_string());
        table.push(format!("{c}tail"));
        table.push(format!("head{c}tail"));
        table.push(format!("head{c}"));
        table.push(format!("{c}{c}"));
    }
    // 2-, 3- and 4-byte UTF-8, with and without an escape beside them.
    for s in [
        "",
        "plain",
        "engine-0042",
        "é",
        "дом",
        "€",
        "漢字",
        "🦀",
        "a🦀b",
        "é\"",
        "\"é",
        "€\\€",
        "🦀\n🦀",
        "\u{7f}é\u{80}\u{9f}",
        "\u{2028}\u{2029}",
        "\u{ffff}\u{10000}\u{10ffff}",
        "no escape at all, a sentence long enough to be copied in one piece",
        "\tescape first",
        "escape last\r",
        "a\"b\\c\nd\te\rf\u{1}g\u{1f}h",
    ] {
        table.push(s.to_string());
    }
    for text in &table {
        assert_eq!(escaped(text), escaped_reference(text), "text {text:?}");
    }
    assert_eq!(escaped("a\"b"), "k:\"a\\\"b\";");
    assert_eq!(escaped("\u{1}"), "k:\"\\u0001\";");
    assert_eq!(escaped("\u{7f}"), "k:\"\u{7f}\";");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn write_num_matches_debug_formatting_on_raw_bits(bits in any::<u64>(), small in any::<u64>()) {
        let value = f64::from_bits(bits);
        prop_assert_eq!(num(value), num_reference(value), "bits {:#018x}", bits);
        // Uniform bits almost never land near zero or one: fold a second
        // draw into the subnormal and low-exponent range as well.
        for folded in [small >> 12, small >> 2, (small >> 2) | (1 << 63)] {
            let value = f64::from_bits(folded);
            prop_assert_eq!(num(value), num_reference(value), "bits {:#018x}", folded);
        }
    }

    #[test]
    fn write_escaped_matches_the_per_char_reference_on_mixed_strings(
        picks in prop::collection::vec(any::<u32>(), 0..24),
    ) {
        // Half the draws from the interesting low range, half anywhere.
        let text: String = picks
            .iter()
            .filter_map(|&p| {
                let code = if p & 1 == 0 { (p >> 1) % 0x90 } else { (p >> 1) % 0x11_0000 };
                char::from_u32(code)
            })
            .collect();
        prop_assert_eq!(escaped(&text), escaped_reference(&text), "text {:?}", text);
    }
}
