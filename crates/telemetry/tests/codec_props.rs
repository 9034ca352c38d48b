//! Property tests for the workspace's one JSON codec and one CRC32.
//!
//! Every artifact goes through these functions: ledger lines, `.mabt`
//! blocks, `.mabcrash` reports, cache entries and HTTP bodies. The parser
//! also reads untrusted input. So the contracts are checked over random
//! inputs: the parser never panics and refuses deep nesting, `escape` and
//! `fmt_f64` round-trip through it, and the slice-by-16 CRC agrees with a
//! byte-at-a-time reference.

use mab_telemetry::crc32;
use mab_telemetry::json::{self, JsonValue, MAX_DEPTH};
use proptest::prelude::*;

/// Bytes built from JSON fragments (structural characters, escapes,
/// literals, numbers) and raw bytes, so random documents get past the
/// first byte and into every parser branch.
fn json_bytes() -> impl Strategy<Value = Vec<u8>> {
    let fragment = |text: &'static str| Just(text.as_bytes().to_vec());
    prop::collection::vec(
        prop_oneof![
            (0u8..=255).prop_map(|b| vec![b]),
            (0u8..=255).prop_map(|b| vec![b]),
            prop_oneof![
                fragment("["),
                fragment("]"),
                fragment("{"),
                fragment("}"),
                fragment("\""),
                fragment(":"),
                fragment(","),
                fragment(" "),
            ],
            prop_oneof![
                fragment("\\"),
                fragment("\\u"),
                fragment("\\u00"),
                fragment("\\ud83d"),
                fragment("\"k\":"),
                fragment("-1.5e3"),
                fragment("18446744073709551616"),
                fragment("nul"),
                fragment("true"),
            ],
        ],
        0..48,
    )
    .prop_map(|fragments| fragments.concat())
}

/// Strings mixing ASCII, quotes, backslashes, control characters and
/// non-ASCII scalars up to U+10FFFF.
fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            0x20u32..0x7F,
            0u32..0x20,
            Just('"' as u32),
            Just('\\' as u32),
            0x80u32..0x11_0000,
        ],
        0..40,
    )
    .prop_map(|scalars| scalars.into_iter().filter_map(char::from_u32).collect())
}

/// The IEEE CRC32 one bit at a time, straight from the polynomial.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in json_bytes()) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error(
        depth in (MAX_DEPTH - 2)..(MAX_DEPTH * 80),
        arrays in prop::collection::vec(prop::bool::ANY, 1..8),
        tail in json_bytes(),
    ) {
        let mut doc = String::new();
        for level in 0..depth {
            doc.push_str(if arrays[level % arrays.len()] { "[" } else { "{\"k\":" });
        }
        doc.push_str(&String::from_utf8_lossy(&tail));
        let parsed = json::parse(&doc);
        if depth > MAX_DEPTH {
            prop_assert!(parsed.is_err(), "{depth} levels parsed");
        }
    }

    #[test]
    fn escape_round_trips_any_string(s in any_string()) {
        let escaped = json::escape(&s);
        prop_assert!(
            !escaped.chars().any(|c| (c as u32) < 0x20),
            "raw control character in {:?}",
            escaped
        );
        let doc = format!("{{\"{escaped}\":[\"{escaped}\"]}}");
        let value = json::parse(&doc).map_err(TestCaseError::fail)?;
        match &value {
            JsonValue::Obj(pairs) => {
                prop_assert_eq!(pairs.len(), 1);
                prop_assert_eq!(&pairs[0].0, &s);
                prop_assert_eq!(
                    pairs[0].1.as_arr().and_then(|a| a[0].as_str()),
                    Some(s.as_str())
                );
            }
            other => prop_assert!(false, "not an object: {:?}", other),
        }
    }

    #[test]
    fn fmt_f64_round_trips_finite_floats_and_nulls_the_rest(
        bits in prop_oneof![
            0u64..=u64::MAX,
            (-1e6..1e6f64).prop_map(f64::to_bits),
            (-1e6..1e6f64).prop_map(|v| v.round().to_bits()),
            // Exponent all ones: the infinities and every NaN payload.
            (0x7FF0_0000_0000_0000u64..=0x7FFF_FFFF_FFFF_FFFF).prop_map(|b| b | (b & 1) << 63),
        ],
    ) {
        let v = f64::from_bits(bits);
        let text = json::fmt_f64(v);
        if v.is_finite() {
            let back = json::parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(bits), "{}", text);
        } else {
            prop_assert_eq!(text, "null");
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_reference(data in prop::collection::vec(0u8..=255, 64..65)) {
        // Every length from 0 to 64 covers zero to four 16-byte rounds and
        // every remainder length.
        for len in 0..=data.len() {
            prop_assert_eq!(crc32(&data[..len]), crc32_reference(&data[..len]), "len {}", len);
        }
    }
}

#[test]
fn fixed_cases() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    // The short escape forms are part of every artifact's bytes.
    assert_eq!(json::escape("plain"), "plain");
    assert_eq!(json::escape("a\"b"), "a\\\"b");
    assert_eq!(json::escape("a\\b"), "a\\\\b");
    assert_eq!(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    assert_eq!(json::escape("\u{1}"), "\\u0001");
    assert_eq!(json::escape("é"), "é");
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(json::fmt_f64(v), "null");
    }
}
