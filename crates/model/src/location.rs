//! The cloud location hierarchy (Fig. 5b).
//!
//! The entire network — WAN plus data centers — is organized hierarchically:
//! Region → City → Logic site → Site → Cluster → Device. Every alert carries
//! a [`LocationPath`]: the chain of names from the region down to whatever
//! level the emitting tool can attribute (§4.1: a syslog alert is attributed
//! to a device; a ping packet-loss alert between two logic sites is
//! attributed to each endpoint's site-level location).
//!
//! Paths are immutable and cheap to clone (`Arc`-backed); the locator clones
//! them into its main tree for every alert of a flood.

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::sync::Arc;

/// One level of the hierarchy, ordered from broadest to narrowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LocationLevel {
    /// Geographic region (e.g. "Region A"). Depth 1.
    Region,
    /// City within a region. Depth 2.
    City,
    /// Logic site: a set of co-operating sites in one city. Depth 3.
    LogicSite,
    /// Physical site (data-center building). Depth 4.
    Site,
    /// Cluster of devices within a site. Depth 5.
    Cluster,
    /// Individual network device. Depth 6.
    Device,
}

impl LocationLevel {
    /// All levels, broadest first.
    pub const ALL: [LocationLevel; 6] = [
        LocationLevel::Region,
        LocationLevel::City,
        LocationLevel::LogicSite,
        LocationLevel::Site,
        LocationLevel::Cluster,
        LocationLevel::Device,
    ];

    /// Path depth corresponding to this level (Region = 1 … Device = 6).
    pub const fn depth(self) -> usize {
        match self {
            LocationLevel::Region => 1,
            LocationLevel::City => 2,
            LocationLevel::LogicSite => 3,
            LocationLevel::Site => 4,
            LocationLevel::Cluster => 5,
            LocationLevel::Device => 6,
        }
    }

    /// The level for a given path depth, if valid.
    pub const fn from_depth(depth: usize) -> Option<LocationLevel> {
        match depth {
            1 => Some(LocationLevel::Region),
            2 => Some(LocationLevel::City),
            3 => Some(LocationLevel::LogicSite),
            4 => Some(LocationLevel::Site),
            5 => Some(LocationLevel::Cluster),
            6 => Some(LocationLevel::Device),
            _ => None,
        }
    }
}

impl fmt::Display for LocationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocationLevel::Region => "region",
            LocationLevel::City => "city",
            LocationLevel::LogicSite => "logic-site",
            LocationLevel::Site => "site",
            LocationLevel::Cluster => "cluster",
            LocationLevel::Device => "device",
        };
        f.write_str(s)
    }
}

/// A path in the location hierarchy, e.g.
/// `Region A|City a|Logic site 2|Site I|Cluster ii`.
///
/// The empty path is the root of the whole network. Segment names must not
/// contain the `|` separator.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LocationPath {
    segments: Arc<[Box<str>]>,
}

impl PartialOrd for LocationPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LocationPath {
    /// Lexicographic over segments: a parent sorts before its children and
    /// sibling subtrees stay contiguous.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.segments.cmp(&other.segments)
    }
}

impl LocationPath {
    /// The root of the network (empty path).
    pub fn root() -> Self {
        LocationPath {
            segments: Arc::from(Vec::new()),
        }
    }

    /// Builds a path from segment names, broadest first.
    ///
    /// # Panics
    /// Panics if any segment contains the `|` separator or is empty, or if
    /// there are more than six segments.
    pub fn new<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Box<str>>,
    {
        let segments: Vec<Box<str>> = segments.into_iter().map(Into::into).collect();
        assert!(
            segments.len() <= LocationLevel::Device.depth(),
            "location path deeper than the device level: {segments:?}"
        );
        for s in &segments {
            assert!(
                !s.is_empty() && !s.contains('|'),
                "invalid location segment {s:?}"
            );
        }
        LocationPath {
            segments: Arc::from(segments),
        }
    }

    /// Parses a `|`-separated path string. An empty string is the root.
    pub fn parse(s: &str) -> Result<Self, LocationParseError> {
        if s.is_empty() {
            return Ok(Self::root());
        }
        let segments: Vec<Box<str>> = s.split('|').map(|seg| seg.trim()).map(Box::from).collect();
        if segments.len() > LocationLevel::Device.depth() {
            return Err(LocationParseError::TooDeep(segments.len()));
        }
        if segments.iter().any(|seg| seg.is_empty()) {
            return Err(LocationParseError::EmptySegment);
        }
        Ok(LocationPath {
            segments: Arc::from(segments),
        })
    }

    /// Number of segments (0 for the root, 6 for a device).
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// True for the root of the network.
    pub fn is_root(&self) -> bool {
        self.segments.is_empty()
    }

    /// The hierarchy level this path addresses, or `None` for the root.
    pub fn level(&self) -> Option<LocationLevel> {
        LocationLevel::from_depth(self.depth())
    }

    /// Segment names, broadest first.
    pub fn segments(&self) -> &[Box<str>] {
        &self.segments
    }

    /// The final (narrowest) segment name, or `None` for the root.
    pub fn leaf(&self) -> Option<&str> {
        self.segments.last().map(|s| s.as_ref())
    }

    /// The parent path (root's parent is root).
    pub fn parent(&self) -> LocationPath {
        if self.segments.is_empty() {
            return self.clone();
        }
        LocationPath {
            segments: Arc::from(&self.segments[..self.segments.len() - 1]),
        }
    }

    /// The prefix of this path truncated at `level` (or the full path if it
    /// is already broader than `level`).
    pub fn truncate_at(&self, level: LocationLevel) -> LocationPath {
        let d = level.depth().min(self.segments.len());
        LocationPath {
            segments: Arc::from(&self.segments[..d]),
        }
    }

    /// Extends this path with one more segment.
    ///
    /// # Panics
    /// Panics on invalid segments or if already at device depth.
    pub fn child(&self, segment: impl Into<Box<str>>) -> LocationPath {
        let segment = segment.into();
        assert!(
            !segment.is_empty() && !segment.contains('|'),
            "invalid location segment {segment:?}"
        );
        assert!(
            self.depth() < LocationLevel::Device.depth(),
            "cannot extend a device-level path"
        );
        let mut v: Vec<Box<str>> = self.segments.to_vec();
        v.push(segment);
        LocationPath {
            segments: Arc::from(v),
        }
    }

    /// True if `self` is `other` or an ancestor of `other` (prefix test).
    ///
    /// This is the containment test used by the locator's Algorithm 1
    /// (`d.location ∈ i.subtree`).
    pub fn contains(&self, other: &LocationPath) -> bool {
        other.segments.len() >= self.segments.len()
            && self
                .segments
                .iter()
                .zip(other.segments.iter())
                .all(|(a, b)| a == b)
    }

    /// True if `self` is a *strict* ancestor of `other`.
    pub fn is_strict_ancestor_of(&self, other: &LocationPath) -> bool {
        self.segments.len() < other.segments.len() && self.contains(other)
    }

    /// Iterates over every ancestor prefix from the root (exclusive) down to
    /// this path (inclusive): for `a|b|c` yields `a`, `a|b`, `a|b|c`.
    pub fn prefixes(&self) -> impl Iterator<Item = LocationPath> + '_ {
        (1..=self.segments.len()).map(move |d| LocationPath {
            segments: Arc::from(&self.segments[..d]),
        })
    }

    /// The deepest common ancestor of two paths (possibly the root).
    pub fn common_ancestor(&self, other: &LocationPath) -> LocationPath {
        let d = self
            .segments
            .iter()
            .zip(other.segments.iter())
            .take_while(|(a, b)| a == b)
            .count();
        LocationPath {
            segments: Arc::from(&self.segments[..d]),
        }
    }
}

impl fmt::Display for LocationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                f.write_str("|")?;
            }
            f.write_str(s)?;
        }
        Ok(())
    }
}

impl fmt::Debug for LocationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocationPath({self})")
    }
}

impl Serialize for LocationPath {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for LocationPath {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        LocationPath::parse(&s).map_err(D::Error::custom)
    }
}

/// Errors from [`LocationPath::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocationParseError {
    /// More segments than the six hierarchy levels.
    TooDeep(usize),
    /// A segment between separators was empty.
    EmptySegment,
}

impl fmt::Display for LocationParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocationParseError::TooDeep(n) => {
                write!(f, "location path has {n} segments, maximum is 6")
            }
            LocationParseError::EmptySegment => write!(f, "location path has an empty segment"),
        }
    }
}

impl std::error::Error for LocationParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> LocationPath {
        LocationPath::parse(s).unwrap()
    }

    #[test]
    fn depth_and_level() {
        assert_eq!(LocationPath::root().depth(), 0);
        assert_eq!(LocationPath::root().level(), None);
        let site = p("Region A|City a|Logic site 2|Site I");
        assert_eq!(site.depth(), 4);
        assert_eq!(site.level(), Some(LocationLevel::Site));
        let dev = p("Region A|City a|Logic site 2|Site I|Cluster ii|Device i");
        assert_eq!(dev.level(), Some(LocationLevel::Device));
    }

    #[test]
    fn parse_rejects_bad_paths() {
        assert_eq!(
            LocationPath::parse("a|b|c|d|e|f|g"),
            Err(LocationParseError::TooDeep(7))
        );
        assert_eq!(
            LocationPath::parse("a||c"),
            Err(LocationParseError::EmptySegment)
        );
        assert!(LocationPath::parse("").unwrap().is_root());
    }

    #[test]
    fn display_round_trips() {
        let s = "Region A|City a|Logic site 2|Site I|Cluster ii";
        assert_eq!(p(s).to_string(), s);
    }

    #[test]
    fn parse_trims_segment_whitespace() {
        assert_eq!(p("Region A | City a").to_string(), "Region A|City a");
    }

    #[test]
    fn containment() {
        let site = p("R|C|L|S");
        let cluster = p("R|C|L|S|K");
        let other = p("R|C|L|S2");
        assert!(site.contains(&cluster));
        assert!(site.contains(&site));
        assert!(!site.contains(&other));
        assert!(site.is_strict_ancestor_of(&cluster));
        assert!(!site.is_strict_ancestor_of(&site));
        assert!(LocationPath::root().contains(&site));
    }

    #[test]
    fn parent_and_child() {
        let c = p("R|C");
        assert_eq!(c.parent(), p("R"));
        assert_eq!(p("R").parent(), LocationPath::root());
        assert_eq!(LocationPath::root().parent(), LocationPath::root());
        assert_eq!(c.child("L"), p("R|C|L"));
    }

    #[test]
    fn truncate_at_level() {
        let dev = p("R|C|L|S|K|D");
        assert_eq!(dev.truncate_at(LocationLevel::LogicSite), p("R|C|L"));
        assert_eq!(dev.truncate_at(LocationLevel::Device), dev);
        assert_eq!(p("R|C").truncate_at(LocationLevel::Site), p("R|C"));
    }

    #[test]
    fn prefixes_enumerate_ancestor_chain() {
        let v: Vec<_> = p("R|C|L").prefixes().collect();
        assert_eq!(v, vec![p("R"), p("R|C"), p("R|C|L")]);
        assert_eq!(LocationPath::root().prefixes().count(), 0);
    }

    #[test]
    fn common_ancestor() {
        assert_eq!(p("R|C|L|S").common_ancestor(&p("R|C|X")), p("R|C"));
        assert_eq!(p("R|C").common_ancestor(&p("Q")), LocationPath::root());
        let a = p("R|C");
        assert_eq!(a.common_ancestor(&a), a);
    }

    #[test]
    fn serde_is_string_form() {
        let path = p("R|C|L");
        let json = serde_json::to_string(&path).unwrap();
        assert_eq!(json, "\"R|C|L\"");
        let back: LocationPath = serde_json::from_str(&json).unwrap();
        assert_eq!(back, path);
    }

    #[test]
    #[should_panic(expected = "invalid location segment")]
    fn new_rejects_separator_in_segment() {
        let _ = LocationPath::new(["a|b"]);
    }

    #[test]
    fn level_depth_round_trip() {
        for level in LocationLevel::ALL {
            assert_eq!(LocationLevel::from_depth(level.depth()), Some(level));
        }
        assert_eq!(LocationLevel::from_depth(0), None);
        assert_eq!(LocationLevel::from_depth(7), None);
    }
}

#[cfg(test)]
mod properties {
    use super::*;

    /// Each property runs these 256 seeded cases.
    const SEEDS: std::ops::Range<u64> = 0..256;

    /// A small LCG: one seeded, replayable stream per case.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % n
        }

        /// `[A-Za-z][A-Za-z0-9 _-]{0,8}`, trailing spaces trimmed.
        fn segment(&mut self) -> String {
            const TAIL: &[u8] =
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 _-";
            let mut s = String::from(TAIL[self.below(52)] as char);
            for _ in 0..self.below(9) {
                s.push(TAIL[self.below(TAIL.len())] as char);
            }
            s.trim().to_string()
        }

        /// Zero to six segments.
        fn path(&mut self) -> LocationPath {
            LocationPath::new((0..self.below(7)).map(|_| self.segment()))
        }
    }

    /// Runs `case` once per seed; a failing case prints its seed.
    fn for_each_seed(mut case: impl FnMut(&mut Lcg)) {
        struct Running(u64);
        impl Drop for Running {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("property failed at seed {} (= case index)", self.0);
                }
            }
        }
        for seed in SEEDS {
            let _running = Running(seed);
            case(&mut Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed));
        }
    }

    /// Display → parse is the identity.
    #[test]
    fn display_parse_round_trip() {
        for_each_seed(|rng| {
            let path = rng.path();
            let parsed = LocationPath::parse(&path.to_string()).unwrap();
            assert_eq!(parsed, path);
        });
    }

    /// Containment is a partial order: reflexive, antisymmetric (on
    /// equal depth), transitive.
    #[test]
    fn containment_laws() {
        for_each_seed(|rng| {
            let (a, b, c) = (rng.path(), rng.path(), rng.path());
            assert!(a.contains(&a));
            if a.contains(&b) && b.contains(&a) {
                assert_eq!(&a, &b);
            }
            if a.contains(&b) && b.contains(&c) {
                assert!(a.contains(&c));
            }
        });
    }

    /// The common ancestor is the deepest path containing both.
    #[test]
    fn common_ancestor_is_greatest_lower_bound() {
        for_each_seed(|rng| {
            let (a, b) = (rng.path(), rng.path());
            let ca = a.common_ancestor(&b);
            assert!(ca.contains(&a));
            assert!(ca.contains(&b));
            // One level deeper on either side no longer contains both.
            if ca.depth() < a.depth() {
                let deeper = a.truncate_at(
                    LocationLevel::from_depth(ca.depth() + 1).unwrap_or(LocationLevel::Device),
                );
                if deeper.depth() == ca.depth() + 1 {
                    assert!(!(deeper.contains(&a) && deeper.contains(&b)));
                }
            }
            // Commutative.
            assert_eq!(ca, b.common_ancestor(&a));
        });
    }

    /// Parent reduces depth by exactly one (root is a fixed point), and
    /// every prefix contains the path.
    #[test]
    fn parent_and_prefix_laws() {
        for_each_seed(|rng| {
            let path = rng.path();
            let parent = path.parent();
            if path.is_root() {
                assert!(parent.is_root());
            } else {
                assert_eq!(parent.depth(), path.depth() - 1);
                assert!(parent.contains(&path));
            }
            for prefix in path.prefixes() {
                assert!(prefix.contains(&path));
            }
            assert_eq!(path.prefixes().count(), path.depth());
        });
    }

    /// Ordering groups subtrees: a parent sorts before its children.
    #[test]
    fn parent_sorts_before_children() {
        for_each_seed(|rng| {
            let path = rng.path();
            if !path.is_root() {
                assert!(path.parent() < path);
            }
        });
    }

    /// Serde round-trips through JSON.
    #[test]
    fn serde_round_trip() {
        for_each_seed(|rng| {
            let path = rng.path();
            let json = serde_json::to_string(&path).unwrap();
            let back: LocationPath = serde_json::from_str(&json).unwrap();
            assert_eq!(back, path);
        });
    }
}
