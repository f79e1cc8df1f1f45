//! Property tests: JSON round-trips and XML robustness.

use proptest::prelude::*;

use hiway_format::json::Json;
use hiway_format::xml::XmlElement;

/// Strategy for arbitrary JSON values with bounded depth/size.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite, round-trippable numbers.
        (-1.0e12f64..1.0e12).prop_map(|n| Json::Number((n * 1000.0).round() / 1000.0)),
        "[a-zA-Z0-9 _/.:\\\\\"\n\t\u{e9}\u{4e16}]{0,20}".prop_map(Json::String),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..6).prop_map(|pairs| {
                // Deduplicate keys: our Json::set replaces, and parsing a
                // document with duplicate keys keeps both, so generate
                // unique keys for a clean round-trip comparison.
                let mut seen = std::collections::HashSet::new();
                Json::Object(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .map(|(k, v)| (k.into(), v))
                        .collect(),
                )
            }),
        ]
    })
}

proptest! {
    #[test]
    fn json_compact_round_trip(value in arb_json()) {
        let text = value.to_compact();
        let parsed = Json::parse(&text).expect("own output must parse");
        prop_assert_eq!(parsed, value);
    }

    #[test]
    fn json_pretty_round_trip(value in arb_json()) {
        let text = value.to_pretty(2);
        let parsed = Json::parse(&text).expect("own pretty output must parse");
        prop_assert_eq!(parsed, value);
    }

    /// The parser never panics on arbitrary input — it either parses or
    /// returns an error.
    #[test]
    fn json_parser_is_total(input in "\\PC{0,64}") {
        let _ = Json::parse(&input);
    }

    #[test]
    fn xml_parser_is_total(input in "\\PC{0,64}") {
        let _ = XmlElement::parse(&input);
    }

    /// Attribute values with entities survive a parse.
    #[test]
    fn xml_attribute_entities(value in "[a-zA-Z0-9<>&'\" ]{0,16}") {
        let escaped = value
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;")
            .replace('\'', "&apos;");
        let doc = format!(r#"<a v="{escaped}"/>"#);
        let el = XmlElement::parse(&doc).expect("escaped attribute must parse");
        prop_assert_eq!(el.attr("v"), Some(value.as_str()));
    }
}

/// Pathologically deep nesting is rejected, not a stack overflow.
#[test]
fn deep_nesting_is_rejected_gracefully() {
    let deep_json = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let err = Json::parse(&deep_json).unwrap_err();
    assert!(err.message.contains("nesting"), "{}", err.message);

    let deep_xml = format!("{}{}", "<a>".repeat(100_000), "</a>".repeat(100_000));
    let err = XmlElement::parse(&deep_xml).unwrap_err();
    assert!(err.message.contains("nesting"), "{}", err.message);

    // Deep-but-allowed nesting still parses.
    let ok_json = format!("{}1{}", "[".repeat(500), "]".repeat(500));
    assert!(Json::parse(&ok_json).is_ok());
}
