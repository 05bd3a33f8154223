//! FNV-1a digests that pin the generated inputs and the program's reports.
//!
//! Not cryptographic: the digest only has to make a silent change to the
//! telemetry generator, the failure injector or the report visible.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    /// Sixteen lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of one byte string.
pub fn hex(bytes: &[u8]) -> String {
    let mut fnv = Fnv::default();
    fnv.update(bytes);
    fnv.hex()
}

/// Two floats of two reports are the same value when they differ by at
/// most this share of the larger one.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// A report split into what must repeat byte for byte and what the program
/// only repeats up to the order of a float sum.
///
/// `crates/core/src/evaluator/mod.rs` (`derive_inputs`) averages customer
/// importances while iterating a `HashSet` with the default hasher, so the
/// same feed scored by two engine incarnations can differ in the last bits
/// of `severity.impact` and `severity.score`. The raw digest shows that
/// (and the mismatches are counted); the checks compare the skeleton
/// exactly and the floats one by one within [`FLOAT_TOLERANCE`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// The digest of every byte as the program wrote it.
    pub raw: String,
    /// The digest with every float token replaced by `#`: structure,
    /// strings and integers, byte for byte.
    pub skeleton: String,
    /// The float tokens, in document order.
    pub floats: Vec<f64>,
}

impl Fingerprint {
    pub fn of(json: &[u8]) -> Fingerprint {
        let mut skeleton = Fnv::default();
        let mut floats = Vec::new();
        let mut i = 0;
        let mut verbatim_from = 0;
        while i < json.len() {
            match json[i] {
                b'"' => {
                    i += 1;
                    while i < json.len() && json[i] != b'"' {
                        i += if json[i] == b'\\' { 2 } else { 1 };
                    }
                    i += 1;
                }
                b'-' | b'0'..=b'9' => {
                    let start = i;
                    while i < json.len()
                        && matches!(json[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    {
                        i += 1;
                    }
                    let token = &json[start..i];
                    let float = token.iter().any(|b| matches!(b, b'.' | b'e' | b'E'));
                    let parsed = std::str::from_utf8(token)
                        .ok()
                        .and_then(|t| t.parse::<f64>().ok());
                    if let (true, Some(value)) = (float, parsed) {
                        skeleton.update(&json[verbatim_from..start]);
                        skeleton.update(b"#");
                        floats.push(value);
                        verbatim_from = i;
                    }
                }
                _ => i += 1,
            }
        }
        skeleton.update(&json[verbatim_from.min(json.len())..]);
        Fingerprint {
            raw: hex(json),
            skeleton: skeleton.hex(),
            floats,
        }
    }

    /// The sum of the floats: what is pinned of them (within the tolerance).
    pub fn float_sum(&self) -> f64 {
        self.floats.iter().sum()
    }

    /// `None` when `other` is the same report: equal skeletons, and every
    /// float within [`FLOAT_TOLERANCE`] of its counterpart. Otherwise what
    /// differs, in words.
    pub fn differs_from(&self, other: &Fingerprint) -> Option<String> {
        if self.skeleton != other.skeleton || self.floats.len() != other.floats.len() {
            return Some(format!(
                "skeleton {} with {} floats, then {} with {}",
                self.skeleton,
                self.floats.len(),
                other.skeleton,
                other.floats.len()
            ));
        }
        let at = (0..self.floats.len()).find(|&i| !close(self.floats[i], other.floats[i]))?;
        Some(format!(
            "float {at} of {} is {:?}, then {:?}",
            self.floats.len(),
            self.floats[at],
            other.floats[at]
        ))
    }
}

/// Whether two floats agree within [`FLOAT_TOLERANCE`].
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(hex(b""), "cbf29ce484222325");
        assert_eq!(hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn a_fingerprint_tolerates_float_noise_and_nothing_else() {
        let a =
            br#"{"score":434084.42213817296,"impact":574.0388329871038,"n":12,"s":"1.50 \" 2e3"}"#;
        let b =
            br#"{"score":434084.422138173,"impact":574.0388329871039,"n":12,"s":"1.50 \" 2e3"}"#;
        let (fa, fb) = (Fingerprint::of(a), Fingerprint::of(b));
        assert_ne!(fa.raw, fb.raw, "the raw digest shows the last bit");
        assert_eq!(fa.skeleton, fb.skeleton);
        assert_eq!(fa.floats, [434084.42213817296, 574.0388329871038]);
        assert_eq!(fa.differs_from(&fb), None);
        assert!(close(fa.float_sum(), fb.float_sum()));
        // A real change to a float, an integer or a string still shows.
        let float = br#"{"score":434084.43,"impact":574.0388329871038,"n":12,"s":"1.50 \" 2e3"}"#;
        let int =
            br#"{"score":434084.42213817296,"impact":574.0388329871038,"n":13,"s":"1.50 \" 2e3"}"#;
        let text =
            br#"{"score":434084.42213817296,"impact":574.0388329871038,"n":12,"s":"1.51 \" 2e3"}"#;
        let found = Fingerprint::of(float)
            .differs_from(&fa)
            .expect("a float moved");
        assert!(found.starts_with("float 0 of 2"), "{found}");
        for changed in [&int[..], &text[..]] {
            let found = Fingerprint::of(changed)
                .differs_from(&fa)
                .expect("a byte moved");
            assert!(found.starts_with("skeleton"), "{found}");
        }
        // A float that becomes an integer (or the reverse) changes the skeleton.
        assert!(Fingerprint::of(b"[1.0]")
            .differs_from(&Fingerprint::of(b"[1]"))
            .is_some());
        // Digits inside strings are not numbers.
        let quoted = Fingerprint::of(br#"["1.0000000000001"]"#);
        assert!(quoted.floats.is_empty());
        assert_eq!(quoted.skeleton, quoted.raw);
        assert_eq!(Fingerprint::of(b"").skeleton, hex(b""));
    }

    #[test]
    fn the_tolerance_is_relative_and_has_no_rounding_boundary() {
        assert!(close(0.0, 0.0));
        assert!(close(1e12, 1e12 + 1.0e-4));
        assert!(!close(1e12, 1e12 + 1.0e4));
        assert!(!close(1e-12, 2e-12));
        // Either side of a decimal rounding boundary: the same value.
        assert!(close(0.12345678949999999, 0.1234567895));
    }

    #[test]
    fn incremental_updates_equal_one_shot_and_order_matters() {
        let mut fnv = Fnv::default();
        fnv.update(b"foo");
        fnv.update(b"bar");
        assert_eq!(fnv.hex(), hex(b"foobar"));
        assert_ne!(hex(b"barfoo"), hex(b"foobar"));
    }
}
