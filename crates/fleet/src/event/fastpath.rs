//! Zero-allocation fast path for the canonical wire format (v1 and
//! ctx-stamped v2 lines).
//!
//! [`FleetEvent::to_line`] / [`FleetEvent::to_line_with_meta`] emit
//! exactly one canonical byte shape per event: compact JSON, keys in
//! sorted order (an optional leading `ctx`), no escape sequences in the
//! strings they generate, digits-only `seq`/`v`. This module scans that
//! shape directly — borrowing the vehicle id and the context key from
//! the input line, building no `Value` tree, allocating nothing — and
//! *refuses* everything else. Any deviation (reordered keys, whitespace, an escaped
//! string, an unknown field, a newer version, a semantic error such as
//! negative hours) makes the strict scanner bail, and
//! [`parse_line_hybrid`] falls back to the tolerant `Value`-based
//! [`parse_line_with_seq`](super::parse_line_with_seq).
//!
//! The fast path therefore never makes a *skip* decision of its own:
//! every line it accepts is one the tolerant parser provably accepts with
//! the identical result (the scanner replicates the vendored JSON
//! parser's number classification and the derive-generated
//! deserializers' variant shapes), and every line it cannot prove
//! well-formed is decided by the tolerant parser alone. Skip semantics —
//! [`SkipReason`] counts, unknown-version handling, `seq` extraction —
//! are bit-identical by construction, and the differential proptest at
//! the bottom of this file enforces it over valid, mutated, truncated,
//! and fuzzed lines.

use qrn_core::incident::{IncidentKind, IncidentRecord};
use qrn_core::object::{Involvement, ObjectType};
use qrn_units::{Hours, Meters, Speed};

use super::{
    object_from_variant_name, parse_line_with_meta, FleetEvent, SkipReason, SCHEMA_VERSION,
};

/// A parsed event whose vehicle id borrows from the input line — the
/// zero-allocation counterpart of [`FleetEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FastEvent<'a> {
    /// An odometer report (see [`FleetEvent::Exposure`]).
    Exposure {
        /// Reporting vehicle, borrowed from the line.
        vehicle: &'a str,
        /// Operating hours accumulated since the previous report.
        hours: Hours,
    },
    /// A raw incident observation (see [`FleetEvent::Incident`]).
    Incident {
        /// Reporting vehicle, borrowed from the line.
        vehicle: &'a str,
        /// What happened.
        record: IncidentRecord,
    },
}

impl FastEvent<'_> {
    /// The reporting vehicle's id.
    pub fn vehicle(&self) -> &str {
        match self {
            FastEvent::Exposure { vehicle, .. } | FastEvent::Incident { vehicle, .. } => vehicle,
        }
    }

    /// The owned equivalent. Allocates the vehicle id; used off the hot
    /// path and by the differential tests.
    pub fn to_event(&self) -> FleetEvent {
        match *self {
            FastEvent::Exposure { vehicle, hours } => FleetEvent::Exposure {
                vehicle: vehicle.to_string(),
                hours,
            },
            FastEvent::Incident { vehicle, record } => FleetEvent::Incident {
                vehicle: vehicle.to_string(),
                record,
            },
        }
    }
}

/// Outcome of [`parse_line_hybrid`]: the four-way split the ingest fold
/// dispatches on.
#[derive(Debug)]
pub enum ParsedLine<'a> {
    /// Blank or whitespace-only line (a log separator).
    Blank,
    /// Parsed on the strict fast path; the vehicle id and the optional
    /// ODD-band context key both borrow from the line.
    Fast(FastEvent<'a>, Option<u64>, Option<&'a str>),
    /// Parsed by the tolerant fallback; semantically identical to what
    /// the fast path would have produced had the line been canonical.
    Owned(FleetEvent, Option<u64>, Option<String>),
    /// Skipped, with the tolerant parser's reason.
    Skip(SkipReason),
}

impl ParsedLine<'_> {
    /// The owned `(event, seq)` this outcome denotes, if any — the shape
    /// [`parse_line_with_seq`](super::parse_line_with_seq) returns, used
    /// by the differential tests.
    pub fn to_owned_event(&self) -> Result<Option<(FleetEvent, Option<u64>)>, SkipReason> {
        self.to_owned_meta()
            .map(|parsed| parsed.map(|(event, seq, _ctx)| (event, seq)))
    }

    /// The owned `(event, seq, ctx)` this outcome denotes, if any — the
    /// shape [`parse_line_with_meta`] returns, used by the differential
    /// tests and the context-attributing fold.
    pub fn to_owned_meta(&self) -> Result<Option<super::EventMeta>, SkipReason> {
        match self {
            ParsedLine::Blank => Ok(None),
            ParsedLine::Fast(event, seq, ctx) => {
                Ok(Some((event.to_event(), *seq, ctx.map(str::to_string))))
            }
            ParsedLine::Owned(event, seq, ctx) => Ok(Some((event.clone(), *seq, ctx.clone()))),
            ParsedLine::Skip(reason) => Err(*reason),
        }
    }
}

/// Parses one JSONL line: strict fast path first, tolerant
/// [`parse_line_with_meta`] on any anomaly. Semantics are bit-identical
/// to the tolerant parser alone; the only observable difference is which
/// variant ([`ParsedLine::Fast`] vs [`ParsedLine::Owned`]) carries a
/// successful parse.
pub fn parse_line_hybrid(line: &str) -> ParsedLine<'_> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return ParsedLine::Blank;
    }
    if let Some((event, seq, ctx)) = try_parse_strict(trimmed) {
        return ParsedLine::Fast(event, seq, ctx);
    }
    match parse_line_with_meta(trimmed) {
        Ok(None) => ParsedLine::Blank,
        Ok(Some((event, seq, ctx))) => ParsedLine::Owned(event, seq, ctx),
        Err(reason) => ParsedLine::Skip(reason),
    }
}

/// Reusable per-worker scratch for the ingest hot loop. The borrowing
/// parser itself needs no per-line buffers; what does need amortising is
/// the line-span table the sharded splitter builds per segment. One
/// `ScratchParser` per shard worker (or thread) keeps that table's
/// capacity across segments, so steady-state ingest performs no splitter
/// allocations at all.
#[derive(Debug, Default)]
pub struct ScratchParser {
    spans: Vec<(usize, usize)>,
}

impl ScratchParser {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits `text` into `(start, end)` byte spans with exact
    /// [`str::lines`] semantics (the spans are computed *from*
    /// `text.lines()` itself), reusing the internal table.
    pub fn split_lines(&mut self, text: &str) -> &[(usize, usize)] {
        self.spans.clear();
        let base = text.as_ptr() as usize;
        for line in text.lines() {
            let start = line.as_ptr() as usize - base;
            self.spans.push((start, start + line.len()));
        }
        &self.spans
    }

    /// Parses one line via [`parse_line_hybrid`].
    pub fn parse<'t>(&mut self, line: &'t str) -> ParsedLine<'t> {
        parse_line_hybrid(line)
    }
}

/// Attempts the strict canonical-shape parse. `None` means "let the
/// tolerant parser decide" — it is returned for malformed lines *and* for
/// well-formed lines this scanner does not cover (non-canonical key
/// order, escaped strings, extra fields, `v:0`, semantic errors), so a
/// `None` carries no verdict about the line.
pub fn try_parse_strict(line: &str) -> Option<(FastEvent<'_>, Option<u64>, Option<&str>)> {
    let mut scan = Scan::new(line);
    scan.lit("{")?;
    // The optional leading ODD-band context key: `"ctx"` sorts before
    // `"event"`, so a canonical ctx-stamped line leads with it. The key
    // bytes are borrowed, and the grammar check is allocation-free; a
    // ctx that is not a canonical key bails so the tolerant parser can
    // classify it (InvalidValue).
    let ctx = if scan.lit("\"ctx\":").is_some() {
        let key = scan.plain_string()?;
        if !qrn_odd::key::is_canonical_key(key) {
            return None;
        }
        scan.lit(",")?;
        Some(key)
    } else {
        None
    };
    scan.lit("\"event\":\"")?;
    if scan.lit("exposure\",\"hours\":").is_some() {
        let hours = Hours::try_from(scan.number()?).ok()?;
        let (seq, vehicle) = scan.tail()?;
        Some((FastEvent::Exposure { vehicle, hours }, seq, ctx))
    } else if scan.lit("incident\",\"record\":").is_some() {
        let record = scan.record()?;
        let (seq, vehicle) = scan.tail()?;
        Some((FastEvent::Incident { vehicle, record }, seq, ctx))
    } else {
        None
    }
}

/// Byte cursor over one line. Every method consumes input only on full
/// success, so a failed alternative leaves the position untouched.
struct Scan<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        Scan {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Consumes `lit` exactly, or leaves the cursor in place.
    fn lit(&mut self, lit: &str) -> Option<()> {
        let end = self.pos.checked_add(lit.len())?;
        if self.bytes.get(self.pos..end)? == lit.as_bytes() {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    /// Consumes a quoted string containing no escapes and no control
    /// bytes, returning the inner slice. Escaped strings bail to the
    /// tolerant parser — the canonical generator only escapes what needs
    /// escaping, so telemetry vehicle ids never hit this.
    fn plain_string(&mut self) -> Option<&'a str> {
        if *self.bytes.get(self.pos)? != b'"' {
            return None;
        }
        let start = self.pos + 1;
        let mut i = start;
        loop {
            match *self.bytes.get(i)? {
                b'"' => break,
                b'\\' => return None,
                b if b < 0x20 => return None,
                _ => i += 1,
            }
        }
        self.pos = i + 1;
        // `start..i` lies on char boundaries: the delimiters are ASCII
        // and UTF-8 continuation bytes are all >= 0x80, so the scan can
        // only have stopped between characters.
        Some(&self.text[start..i])
    }

    /// Consumes a number span and evaluates it exactly as the vendored
    /// parser's `parse_number` + `Number::as_f64` would: a leading `-`
    /// does not mark a float; any of `. e E + -` inside the span does;
    /// integer spans go through `u64`/`i64` then cast; everything else
    /// (including `u64` overflow fallthrough) through `f64::from_str`.
    fn number(&mut self) -> Option<f64> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.pos == digits_start {
            self.pos = start;
            return None;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Some(n as f64);
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Some(n as f64);
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Some(x),
            Err(_) => {
                self.pos = start;
                None
            }
        }
    }

    /// Consumes a digits-only span as `u64` — the exact set of JSON
    /// numbers `Number::as_u64` accepts (`PosInt`). A float/exponent
    /// continuation or overflow bails so the tolerant parser can rule
    /// (`InvalidValue` for a mangled `seq`, version rejection for `v`).
    fn digits_u64(&mut self) -> Option<u64> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        if let Some(b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos = start;
            return None;
        }
        match self.text[start..self.pos].parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                self.pos = start;
                None
            }
        }
    }

    /// Consumes the shared line tail after the kind-specific field:
    /// `[,"seq":N],"v":V,"vehicle":"…"}` followed by end of input.
    fn tail(&mut self) -> Option<(Option<u64>, &'a str)> {
        self.lit(",")?;
        let seq = if self.lit("\"seq\":").is_some() {
            let seq = self.digits_u64()?;
            self.lit(",")?;
            Some(seq)
        } else {
            None
        };
        self.lit("\"v\":")?;
        let v = self.digits_u64()?;
        if v == 0 || v > SCHEMA_VERSION {
            // v > SCHEMA_VERSION is a skip (UnsupportedVersion); v == 0
            // is accepted by the tolerant parser but never generated —
            // both are rare enough to delegate rather than duplicate.
            return None;
        }
        self.lit(",\"vehicle\":")?;
        let vehicle = self.plain_string()?;
        self.lit("}")?;
        if self.pos != self.bytes.len() {
            return None;
        }
        Some((seq, vehicle))
    }

    /// Consumes a canonical [`IncidentRecord`] object. Variants are
    /// constructed field-by-field, exactly as the derived deserializer
    /// does — in particular an `Induced` pair is *not* normalised.
    fn record(&mut self) -> Option<IncidentRecord> {
        self.lit("{\"involvement\":{\"")?;
        let involvement = if self.lit("EgoWith\":").is_some() {
            Involvement::EgoWith(self.object_type()?)
        } else if self.lit("Induced\":[").is_some() {
            let a = self.object_type()?;
            self.lit(",")?;
            let b = self.object_type()?;
            self.lit("]")?;
            Involvement::Induced(a, b)
        } else {
            return None;
        };
        self.lit("},\"kind\":{\"")?;
        let kind = if self.lit("Collision\":{\"impact_speed\":").is_some() {
            let impact_speed = Speed::try_from(self.number()?).ok()?;
            self.lit("}")?;
            IncidentKind::Collision { impact_speed }
        } else if self.lit("NearMiss\":{\"distance\":").is_some() {
            let distance = Meters::try_from(self.number()?).ok()?;
            self.lit(",\"relative_speed\":")?;
            let relative_speed = Speed::try_from(self.number()?).ok()?;
            self.lit("}")?;
            IncidentKind::NearMiss {
                distance,
                relative_speed,
            }
        } else {
            return None;
        };
        self.lit("}}")?;
        Some(IncidentRecord { involvement, kind })
    }

    fn object_type(&mut self) -> Option<ObjectType> {
        object_from_variant_name(self.plain_string()?)
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_line;
    use super::*;
    use proptest::prelude::*;

    /// Asserts fast ≡ slow on one line: same event, same seq, same ctx,
    /// same `SkipReason` — the whole observable surface.
    fn assert_differential(line: &str) {
        let hybrid = parse_line_hybrid(line).to_owned_meta();
        let slow = parse_line_with_meta(line);
        assert_eq!(hybrid, slow, "line: {line:?}");
    }

    fn canonical_exposure(vehicle: &str, hours: f64, seq: Option<u64>) -> String {
        let event = FleetEvent::Exposure {
            vehicle: vehicle.to_string(),
            hours: Hours::new(hours).unwrap(),
        };
        event.render_line(seq)
    }

    #[test]
    fn canonical_lines_take_the_fast_path() {
        let line = canonical_exposure("V0001", 8.0, Some(7));
        match parse_line_hybrid(&line) {
            ParsedLine::Fast(FastEvent::Exposure { vehicle, hours }, Some(7), None) => {
                assert_eq!(vehicle, "V0001");
                assert_eq!(hours, Hours::new(8.0).unwrap());
            }
            other => panic!("expected fast exposure, got {other:?}"),
        }
        let incident = FleetEvent::Incident {
            vehicle: "V0002".to_string(),
            record: IncidentRecord {
                involvement: Involvement::Induced(ObjectType::Vru, ObjectType::Car),
                kind: IncidentKind::NearMiss {
                    distance: Meters::new(0.4).unwrap(),
                    relative_speed: Speed::from_kmh(22.0).unwrap(),
                },
            },
        };
        let line = incident.to_line();
        match parse_line_hybrid(&line) {
            ParsedLine::Fast(event, None, None) => {
                // The un-normalised Induced order survives, exactly as it
                // does through the derived deserializer.
                assert_eq!(event.to_event(), incident);
            }
            other => panic!("expected fast incident, got {other:?}"),
        }
    }

    #[test]
    fn ctx_stamped_lines_take_the_fast_path_and_borrow_the_key() {
        let event = FleetEvent::Exposure {
            vehicle: "V0007".to_string(),
            hours: Hours::new(0.25).unwrap(),
        };
        let line = event.to_line_with_meta(Some(9), Some("lighting=dusk,weather=fog,zone=school"));
        match parse_line_hybrid(&line) {
            ParsedLine::Fast(fast, Some(9), Some(ctx)) => {
                assert_eq!(fast.to_event(), event);
                assert_eq!(ctx, "lighting=dusk,weather=fog,zone=school");
                // Borrowed, not copied: the key points into the line.
                let line_range = line.as_ptr() as usize..line.as_ptr() as usize + line.len();
                assert!(line_range.contains(&(ctx.as_ptr() as usize)));
            }
            other => panic!("expected fast ctx exposure, got {other:?}"),
        }
        // A non-canonical ctx bails to the tolerant parser, which skips.
        let mangled = line.replace("lighting=dusk", "lighting=");
        assert!(try_parse_strict(&mangled).is_none());
        assert_differential(&mangled);
    }

    #[test]
    fn non_canonical_lines_fall_back_but_agree() {
        for line in [
            // Valid but non-canonical: old key order, whitespace, escapes.
            "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0}",
            "{ \"event\":\"exposure\",\"hours\":8.0,\"v\":1,\"vehicle\":\"V1\" }",
            "{\"event\":\"exposure\",\"hours\":8.0,\"v\":1,\"vehicle\":\"a\\\"b\"}",
            "{\"event\":\"exposure\",\"hours\":8,\"v\":1,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"hours\":8.0,\"v\":1,\"vehicle\":\"V1\",\"x\":0}",
            // Skips of every flavour.
            "{broken",
            "[1,2]",
            "{\"event\":\"exposure\",\"hours\":8.0,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"hours\":8.0,\"v\":99,\"vehicle\":\"V1\"}",
            "{\"event\":\"teleport\",\"v\":1,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"v\":1,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"hours\":-4.0,\"v\":1,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"hours\":8.0,\"seq\":1.5,\"v\":1,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"hours\":8.0,\"seq\":-3,\"v\":1,\"vehicle\":\"V1\"}",
            "{\"event\":\"exposure\",\"hours\":8.0,\"seq\":18446744073709551616,\"v\":1,\"vehicle\":\"V1\"}",
            "",
            "   ",
        ] {
            assert_differential(line);
        }
    }

    #[test]
    fn semantic_failures_are_decided_by_the_tolerant_parser() {
        // Negative hours render as a canonical-looking line the strict
        // scanner parses structurally but rejects semantically; the
        // fallback must classify it (InvalidValue), not the fast path.
        let line = "{\"event\":\"exposure\",\"hours\":-1.0,\"v\":1,\"vehicle\":\"V1\"}";
        assert!(try_parse_strict(line).is_none());
        assert_eq!(parse_line(line), Err(SkipReason::InvalidValue));
        assert_differential(line);
    }

    #[test]
    fn split_lines_matches_str_lines_semantics() {
        let mut scratch = ScratchParser::new();
        for text in [
            "",
            "a",
            "a\n",
            "a\nb",
            "a\r\nb\r\n",
            "\n\n",
            "one\n\r\ntwo\rthree\n",
        ] {
            let spans = scratch.split_lines(text);
            let via_spans: Vec<&str> = spans.iter().map(|&(a, b)| &text[a..b]).collect();
            let direct: Vec<&str> = text.lines().collect();
            assert_eq!(via_spans, direct, "text: {text:?}");
        }
    }

    fn arb_vehicle() -> impl Strategy<Value = String> {
        let charset: Vec<char> = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
            .chars()
            .collect();
        proptest::collection::vec(proptest::sample::select(charset), 1..13)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn arb_object() -> impl Strategy<Value = ObjectType> {
        proptest::sample::select(ObjectType::ALL.to_vec())
    }

    /// Canonical ODD-band context keys over three-plus dimensions, as the
    /// banded telemetry generator stamps them.
    fn arb_ctx() -> impl Strategy<Value = Option<&'static str>> {
        prop_oneof![
            Just(None),
            proptest::sample::select(vec![
                "zone=school",
                "weather=fog,zone=urban",
                "lighting=dusk,weather=rain,zone=highway",
                "lighting=day,time_of_day=rush,weather=clear,zone=arterial",
                "speed_limit_kmh=50.0,zone=urban",
            ])
            .prop_map(Some),
        ]
    }

    /// A generator of canonical event lines covering both kinds, all
    /// involvement shapes, and optional seq and ctx stamping.
    fn arb_canonical_line() -> impl Strategy<Value = String> {
        let involvement = prop_oneof![
            arb_object().prop_map(Involvement::EgoWith),
            (arb_object(), arb_object()).prop_map(|(a, b)| Involvement::Induced(a, b)),
        ];
        let kind = prop_oneof![
            (0.0f64..60.0).prop_map(|v| IncidentKind::Collision {
                impact_speed: Speed::from_mps(v).unwrap(),
            }),
            (0.0f64..10.0, 0.0f64..60.0).prop_map(|(d, s)| IncidentKind::NearMiss {
                distance: Meters::new(d).unwrap(),
                relative_speed: Speed::from_mps(s).unwrap(),
            }),
        ];
        let seq = prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some)];
        let event: proptest::Union<FleetEvent> = prop_oneof![
            (arb_vehicle(), 0.0f64..1000.0).prop_map(|(vehicle, hours)| FleetEvent::Exposure {
                vehicle,
                hours: Hours::new(hours).unwrap(),
            }),
            (arb_vehicle(), involvement, kind).prop_map(|(vehicle, involvement, kind)| {
                FleetEvent::Incident {
                    vehicle,
                    record: IncidentRecord { involvement, kind },
                }
            }),
        ];
        (event, seq, arb_ctx()).prop_map(|(event, seq, ctx)| event.to_line_with_meta(seq, ctx))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The differential guarantee on clean input: every canonical
        /// line takes the fast path and produces exactly the tolerant
        /// parser's result.
        #[test]
        fn fast_path_differential_on_canonical_lines(line in arb_canonical_line()) {
            prop_assert!(
                try_parse_strict(&line).is_some(),
                "canonical line must take the fast path: {line:?}"
            );
            let hybrid = parse_line_hybrid(&line).to_owned_meta();
            let slow = parse_line_with_meta(&line);
            prop_assert_eq!(hybrid, slow, "line: {:?}", line);
        }

        /// The differential guarantee on dirty input: random byte
        /// mutations of canonical lines (which may stay valid or become
        /// any flavour of skip) never cause fast/slow disagreement.
        #[test]
        fn fast_path_differential_under_mutation(
            line in arb_canonical_line(),
            index in 0usize..200,
            byte in 0u8..=255,
        ) {
            let mut bytes = line.into_bytes();
            let at = index % bytes.len();
            bytes[at] = byte;
            if let Ok(mutated) = String::from_utf8(bytes) {
                let hybrid = parse_line_hybrid(&mutated).to_owned_meta();
                let slow = parse_line_with_meta(&mutated);
                prop_assert_eq!(hybrid, slow, "mutated: {:?}", mutated);
            }
        }

        /// Truncations: every prefix of a canonical line agrees.
        #[test]
        fn fast_path_differential_under_truncation(
            line in arb_canonical_line(),
            cut in 0usize..200,
        ) {
            let at = cut % (line.len() + 1);
            if line.is_char_boundary(at) {
                let truncated = &line[..at];
                let hybrid = parse_line_hybrid(truncated).to_owned_meta();
                let slow = parse_line_with_meta(truncated);
                prop_assert_eq!(hybrid, slow, "truncated: {:?}", truncated);
            }
        }

        /// Pure fuzz: arbitrary printable junk agrees (it virtually
        /// always skips; the point is that both sides skip identically).
        #[test]
        fn fast_path_differential_on_fuzzed_lines(
            bytes in proptest::collection::vec(0x20u8..0x7f, 0..120),
        ) {
            let line = String::from_utf8(bytes).expect("printable ASCII");
            let hybrid = parse_line_hybrid(&line).to_owned_meta();
            let slow = parse_line_with_meta(&line);
            prop_assert_eq!(hybrid, slow, "fuzzed: {:?}", line);
        }
    }
}
