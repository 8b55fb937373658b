//! Schema-aware, allocation-free `/predict` body scanner.
//!
//! The generic path — `JsonValue::parse` into a `BTreeMap` tree, then a
//! per-key walk against `ServeSchema::position()` — costs one tree of
//! heap allocations plus a `String` per key for every request, ~2.4 µs
//! of the event loop's per-request budget. But a feature body is almost
//! always the one shape `{"name": number, …}` with plain ASCII names,
//! so [`scan_feature_row`] handles exactly that shape in a single pass
//! over the bytes: feature names are resolved against a precomputed
//! first-byte index ([`SchemaIndex`]) without materializing them, and
//! values are parsed straight into the caller's reusable row scratch.
//!
//! **Parity is the contract, enforced two ways.** First by
//! construction: the scanner shares `wdt_types::json`'s whitespace set
//! and number-token grammar (via [`wdt_types::json::scan_number`], so
//! values are bit-identical), and *any* input outside the fast shape —
//! non-object roots, escaped or non-ASCII keys, non-number values,
//! malformed tokens, trailing input — falls back to the original
//! `JsonValue::parse` path, which produces byte-exact error messages.
//! Semantic errors (unknown feature / non-finite value) are deferred to
//! the end of the scan and attributed to the lexicographically smallest
//! offending key, replicating the sorted-map iteration order of the
//! slow path (duplicate keys: the last value wins, and only final
//! values are judged — exactly what a `BTreeMap` insert sequence
//! yields). Second by proptest: the parity suite below feeds both paths
//! arbitrary well-formed and mutilated bodies and requires identical
//! rows (bitwise) and identical error strings.

use crate::registry::ServeSchema;
use wdt_types::JsonValue;

/// First-byte index over a schema's feature names: the names, sorted as
/// byte strings, bucketed by their first byte. A lookup inspects only
/// the (few) names sharing the key's first byte — no hashing, no
/// allocation, and trivially correct to precompute at schema build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SchemaIndex {
    /// Feature names as byte strings, sorted.
    names: Vec<Vec<u8>>,
    /// `names[k]` is feature number `pos[k]` in the serving row.
    pos: Vec<u32>,
    /// `first[b]..first[b+1]` is the run of `names` starting with byte
    /// `b` (258 entries: 256 buckets + sentinel; index 256 unused for
    /// lookups since keys reaching the index are ASCII).
    first: Vec<u32>,
}

impl SchemaIndex {
    pub(crate) fn build(names: &[String]) -> Self {
        let mut entries: Vec<(Vec<u8>, u32)> =
            names.iter().enumerate().map(|(i, n)| (n.clone().into_bytes(), i as u32)).collect();
        entries.sort();
        let mut first = vec![0u32; 258];
        for (k, (name, _)) in entries.iter().enumerate() {
            let b = name.first().map_or(0, |&b| b as usize);
            // All entries with first byte > b start at or after k + 1.
            for slot in &mut first[b + 1..] {
                *slot = (k + 1) as u32;
            }
        }
        let (names, pos) = entries.into_iter().unzip();
        SchemaIndex { names, pos, first }
    }

    /// Row position of the feature named exactly `key`, if any.
    #[inline]
    fn lookup(&self, key: &[u8]) -> Option<usize> {
        let b = *key.first()? as usize;
        let (lo, hi) = (self.first[b] as usize, self.first[b + 1] as usize);
        for k in lo..hi {
            if self.names[k] == key {
                return Some(self.pos[k] as usize);
            }
        }
        None
    }
}

/// Parse a `/predict` body into `row` (cleared and resized to the
/// schema width; missing features stay 0.0). Returns the same
/// `Result` — including the exact error strings — as the original
/// `JsonValue`-tree path, but without allocating on well-formed input.
pub(crate) fn scan_feature_row(
    body: &[u8],
    schema: &ServeSchema,
    row: &mut Vec<f64>,
) -> Result<(), String> {
    row.clear();
    row.resize(schema.width(), 0.0);
    let mut unknown: Option<(usize, usize)> = None;
    if !fast_scan(body, schema.scan_index(), row, &mut unknown) {
        // The body is outside the fast shape. Re-zero whatever the
        // partial scan wrote and let the tree path decide — its answer
        // (value or error message) is the specification.
        for v in row.iter_mut() {
            *v = 0.0;
        }
        return slow_scan_feature_row(body, schema, row);
    }
    // Grammar accepted; judge semantics the way sorted-map iteration
    // would: the lexicographically smallest offending key wins, unknown
    // names and non-finite final values competing in one order.
    let known_bad = schema
        .position()
        .iter()
        .find(|&(_, &i)| !row[i].is_finite())
        .map(|(name, _)| name.as_bytes());
    let unknown_bad = unknown.map(|(k0, k1)| &body[k0..k1]);
    match (unknown_bad, known_bad) {
        (None, None) => Ok(()),
        (Some(u), k) if k.is_none() || u < k.unwrap() => {
            // Fast-path keys are ASCII by construction, hence valid UTF-8.
            Err(format!("unknown feature '{}'", std::str::from_utf8(u).unwrap_or("?")))
        }
        (_, Some(k)) => {
            Err(format!("feature '{}' is not finite", std::str::from_utf8(k).unwrap_or("?")))
        }
        // Unreachable: covered by the arms above, but the compiler
        // cannot see that `(Some(u), None)` matches arm two.
        (Some(_), None) => unreachable!(),
    }
}

/// The original tree-building path, kept verbatim as the fallback for
/// anything outside the fast shape *and* as the oracle the proptest
/// parity suite checks the scanner against.
pub(crate) fn slow_scan_feature_row(
    body: &[u8],
    schema: &ServeSchema,
    row: &mut Vec<f64>,
) -> Result<(), String> {
    row.clear();
    row.resize(schema.width(), 0.0);
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let parsed = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let JsonValue::Obj(map) = parsed else {
        return Err("body must be a JSON object of feature values".into());
    };
    for (name, value) in &map {
        let Some(&i) = schema.position().get(name) else {
            return Err(format!("unknown feature '{name}'"));
        };
        let v = value.as_f64().map_err(|_| format!("feature '{name}' must be a number"))?;
        if !v.is_finite() {
            return Err(format!("feature '{name}' is not finite"));
        }
        row[i] = v;
    }
    Ok(())
}

#[inline]
fn skip_ws(b: &[u8], p: &mut usize) {
    // Identical whitespace set to wdt_types::json.
    while *p < b.len() && matches!(b[*p], b' ' | b'\t' | b'\n' | b'\r') {
        *p += 1;
    }
}

/// One pass over `{"plain-ascii-key": number, …}`. Returns `false` the
/// moment the input departs from that shape (the caller falls back);
/// `true` means the whole body was consumed and `row`/`unknown` hold
/// the final values and the smallest unknown key's byte range.
fn fast_scan(
    b: &[u8],
    idx: &SchemaIndex,
    row: &mut [f64],
    unknown: &mut Option<(usize, usize)>,
) -> bool {
    let mut p = 0usize;
    skip_ws(b, &mut p);
    if b.get(p) != Some(&b'{') {
        return false;
    }
    p += 1;
    skip_ws(b, &mut p);
    if b.get(p) == Some(&b'}') {
        p += 1;
    } else {
        loop {
            skip_ws(b, &mut p);
            if b.get(p) != Some(&b'"') {
                return false;
            }
            p += 1;
            let k0 = p;
            loop {
                match b.get(p) {
                    // Escapes and non-ASCII need real unescaping/UTF-8
                    // handling — the tree path's job.
                    None | Some(b'\\') => return false,
                    Some(&c) if c >= 0x80 => return false,
                    Some(b'"') => break,
                    Some(_) => p += 1,
                }
            }
            let k1 = p;
            p += 1;
            skip_ws(b, &mut p);
            if b.get(p) != Some(&b':') {
                return false;
            }
            p += 1;
            skip_ws(b, &mut p);
            // Values must be number tokens; anything else (strings,
            // nested containers, literals, junk) is not the fast shape.
            match b.get(p) {
                Some(&c) if c == b'-' || c.is_ascii_digit() => {}
                _ => return false,
            }
            let Ok(v) = wdt_types::json::scan_number(b, &mut p) else {
                return false;
            };
            match idx.lookup(&b[k0..k1]) {
                Some(i) => row[i] = v,
                None => {
                    if unknown.is_none_or(|(u0, u1)| b[k0..k1] < b[u0..u1]) {
                        *unknown = Some((k0, k1));
                    }
                }
            }
            skip_ws(b, &mut p);
            match b.get(p) {
                Some(b',') => p += 1,
                Some(b'}') => {
                    p += 1;
                    break;
                }
                _ => return false,
            }
        }
    }
    skip_ws(b, &mut p);
    // Trailing input is an error; let the tree path phrase it.
    p == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ServeSchema {
        ServeSchema::prediction()
    }

    fn fast(body: &[u8]) -> Result<Vec<f64>, String> {
        let s = schema();
        let mut row = Vec::new();
        scan_feature_row(body, &s, &mut row).map(|()| row)
    }

    fn slow(body: &[u8]) -> Result<Vec<f64>, String> {
        let s = schema();
        let mut row = Vec::new();
        slow_scan_feature_row(body, &s, &mut row).map(|()| row)
    }

    /// Both paths agree bitwise (rows) and byte-for-byte (errors).
    fn assert_parity(body: &[u8]) {
        let (a, b) = (fast(body), slow(body));
        match (&a, &b) {
            (Ok(ra), Ok(rb)) => {
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(ra),
                    bits(rb),
                    "row mismatch for {:?}",
                    String::from_utf8_lossy(body)
                );
            }
            _ => assert_eq!(a, b, "outcome mismatch for {:?}", String::from_utf8_lossy(body)),
        }
    }

    #[test]
    fn parses_the_plain_shape_without_fallback() {
        let s = schema();
        let mut row = Vec::new();
        let mut unknown = None;
        assert!(fast_scan(
            br#"{"Ksout": 12.5, "C": 3, "P": -2e-3}"#,
            s.scan_index(),
            {
                row.resize(s.width(), 0.0);
                &mut row
            },
            &mut unknown
        ));
        assert_eq!(row[s.position()["Ksout"]], 12.5);
        assert_eq!(row[s.position()["C"]], 3.0);
        assert_eq!(row[s.position()["P"]], -2e-3);
        assert_eq!(unknown, None);
    }

    #[test]
    fn matches_slow_path_on_representative_bodies() {
        for body in [
            br#"{"Ksout": 1.5, "C": 2}"#.as_slice(),
            br#"{}"#.as_slice(),
            br#"  { "C" : 1e3 }  "#.as_slice(),
            br#"{"C":0,"C":7}"#.as_slice(), // duplicate known: last wins
            br#"{"nope": 1}"#.as_slice(),   // unknown feature
            br#"{"zz": 1, "aa": 2}"#.as_slice(), // smallest unknown wins
            br#"{"zz": 1, "C": 1e999}"#.as_slice(), // non-finite beats larger unknown
            br#"{"A": 1, "C": 1e999}"#.as_slice(), // unknown beats larger non-finite
            br#"{"C": 1e999, "C": 1}"#.as_slice(), // only final value judged
            br#"{"C": "x"}"#.as_slice(),    // non-number → must-be-a-number
            br#"{"C": null}"#.as_slice(),   // literal → must-be-a-number
            br#"{"C": [1]}"#.as_slice(),    // array value
            br#"{"C": {"x": 1}}"#.as_slice(), // nested object
            br#"{"K\u0073out": 1}"#.as_slice(), // escaped key unescapes to Ksout
            br#"{"C": 1,}"#.as_slice(),     // trailing comma
            br#"{"C" 1}"#.as_slice(),       // missing colon
            br#"{"C": 01}"#.as_slice(),     // leading zero (accepted by parser)
            br#"{"C": +1}"#.as_slice(),     // leading plus (rejected)
            br#"{"C": -}"#.as_slice(),      // bare minus
            br#"{"C": 1e5e5}"#.as_slice(),  // malformed exponent
            br#"{"C": 1}trailing"#.as_slice(), // trailing input
            br#"[1, 2]"#.as_slice(),        // non-object root
            br#"42"#.as_slice(),
            b"".as_slice(),
            b"{".as_slice(),
            b"\xff\xfe".as_slice(),      // not UTF-8
            b"{\"\x01\": 1}".as_slice(), // raw control byte in key
            br#"{"": 1}"#.as_slice(),    // empty key
        ] {
            assert_parity(body);
        }
    }

    #[test]
    fn index_lookup_covers_every_schema_name_and_rejects_neighbors() {
        let s = schema();
        let idx = s.scan_index();
        for (name, &i) in s.position() {
            assert_eq!(idx.lookup(name.as_bytes()), Some(i), "lookup {name}");
            // Prefixes, extensions, and case variants must miss.
            assert_eq!(idx.lookup(&name.as_bytes()[..name.len() - 1]), None);
            let extended = format!("{name}x");
            assert_eq!(idx.lookup(extended.as_bytes()), None);
            let lower = name.to_lowercase();
            if &lower != name {
                assert_eq!(idx.lookup(lower.as_bytes()), None);
            }
        }
        assert_eq!(idx.lookup(b""), None);
        assert_eq!(idx.lookup(b"\xffweird"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Uniform choice from a fixed word list.
    fn pick(items: &[&str]) -> BoxedStrategy<String> {
        let items: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        (0..items.len()).prop_map(move |i| items[i].clone()).boxed()
    }

    /// Keys that exercise every interesting class: schema names (listed
    /// several times — the vendored `prop_oneof!` is unweighted — so
    /// known-key rows dominate), near misses, empties, escapes, and
    /// non-ASCII.
    fn arb_key() -> BoxedStrategy<String> {
        let schema = || {
            let names = ServeSchema::prediction().names().to_vec();
            (0..names.len()).prop_map(move |i| names[i].clone()).boxed()
        };
        let word = proptest::collection::vec(0u8..52u8, 1..7).prop_map(|bs| {
            bs.iter()
                .map(|&b| (if b < 26 { b'A' + b } else { b'a' + b - 26 }) as char)
                .collect::<String>()
        });
        prop_oneof![
            schema(),
            schema(),
            schema(),
            schema(),
            word,
            Just(String::new()),
            Just("K\\u0073out".to_string()),
            Just("K\\ud834\\udd1eout".to_string()),
            Just("K\\u+073out".to_string()),
            Just("Ks\\nout".to_string()),
            Just("Ksøut".to_string()),
        ]
        .boxed()
    }

    /// Value spellings: plain numbers, extreme numbers, and non-numbers.
    fn arb_value() -> BoxedStrategy<String> {
        let edge = &["0", "-0", "-0.0", "1e999", "-1e999", "01", "3.25", "1e-3", "2E+4"];
        let non_number = &["null", "true", "\"str\"", "[1]", "{}", "+1", "-", "1e", "nan"];
        prop_oneof![
            (-1.0e9..1.0e9).prop_map(|v| format!("{v}")),
            (-1.0..1.0).prop_map(|v| format!("{v}")),
            pick(edge),
            pick(edge),
            pick(non_number),
        ]
        .boxed()
    }

    fn arb_ws() -> BoxedStrategy<String> {
        proptest::collection::vec(pick(&[" ", "\t", "\r", "\n"]), 0..3)
            .prop_map(|v| v.concat())
            .boxed()
    }

    /// One syntactically plain object assembled from the part strategies.
    fn arb_object() -> BoxedStrategy<String> {
        let pair = (arb_key(), arb_value(), arb_ws(), arb_ws());
        (proptest::collection::vec(pair, 0..6), arb_ws(), arb_ws())
            .prop_map(|(pairs, lead, tail)| {
                let inner = pairs
                    .iter()
                    .map(|(k, v, w1, w2)| format!("{w1}\"{k}\"{w2}: {v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{lead}{{{inner}}}{tail}")
            })
            .boxed()
    }

    /// Mostly well-formed objects, with the occasional structural
    /// mutation (truncation, trailing garbage, non-object).
    fn arb_body() -> BoxedStrategy<String> {
        prop_oneof![
            arb_object(),
            arb_object(),
            arb_object(),
            arb_object(),
            arb_object(),
            arb_object(),
            arb_object().prop_map(|mut s| {
                s.truncate(s.len().saturating_sub(1));
                s
            }),
            arb_object().prop_map(|s| format!("{s}!")),
            Just("[1,2]".to_string()),
        ]
        .boxed()
    }

    proptest! {
        /// THE tentpole invariant: for arbitrary bodies, the scanner and
        /// the tree path accept the same inputs, produce bitwise-equal
        /// rows, and phrase every rejection identically.
        #[test]
        fn scanner_matches_tree_path_exactly(body in arb_body()) {
            let schema = ServeSchema::prediction();
            let mut fast_row = Vec::new();
            let mut slow_row = Vec::new();
            let fast = scan_feature_row(body.as_bytes(), &schema, &mut fast_row);
            let slow = slow_scan_feature_row(body.as_bytes(), &schema, &mut slow_row);
            prop_assert_eq!(&fast, &slow, "outcome mismatch for {:?}", body);
            if fast.is_ok() {
                let fb: Vec<u64> = fast_row.iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = slow_row.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(fb, sb, "row bits mismatch for {:?}", body);
            }
        }

        /// Raw byte fuzz: no panics, and outcomes still agree even on
        /// garbage (exercises the UTF-8 and fallback corners).
        #[test]
        fn scanner_matches_tree_path_on_raw_bytes(body in proptest::collection::vec(0u8..=255u8, 0..64)) {
            let schema = ServeSchema::prediction();
            let mut fast_row = Vec::new();
            let mut slow_row = Vec::new();
            let fast = scan_feature_row(&body, &schema, &mut fast_row);
            let slow = slow_scan_feature_row(&body, &schema, &mut slow_row);
            prop_assert_eq!(fast, slow);
        }
    }
}
