//! The frequency-ordered template tree.

use crate::scrub::{constant_words, is_variable, tokenize};
use crate::sym::{Compiled, MatchScratch, Sym};
use crate::WordTable;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a mined template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TemplateId(pub u32);

/// A mined syslog template: the constant words of a message family, in
/// global-frequency order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    /// Identifier (dense).
    pub id: TemplateId,
    /// Constant words from root to this template's node.
    pub words: Vec<String>,
    /// How many corpus messages passed through this node.
    pub support: u32,
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [{}] x{}",
            self.id.0,
            self.words.join(" "),
            self.support
        )
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    children: HashMap<String, usize>,
    support: u32,
    template: Option<TemplateId>,
}

impl Node {
    fn new() -> Self {
        Node {
            children: HashMap::new(),
            support: 0,
            template: None,
        }
    }
}

/// Accumulates a syslog corpus and mines an [`FtTree`].
#[derive(Debug, Clone)]
pub struct FtTreeBuilder {
    min_support: u32,
    max_depth: usize,
    corpus: Vec<Vec<String>>,
}

impl Default for FtTreeBuilder {
    fn default() -> Self {
        FtTreeBuilder::new(2, 8)
    }
}

impl FtTreeBuilder {
    /// `min_support`: messages required for a tree path to survive pruning.
    /// `max_depth`: maximum template length in words (over-specific tails
    /// are cut; the FT-tree paper prunes by per-level frequency, a depth
    /// cap is the standard simplification).
    pub fn new(min_support: u32, max_depth: usize) -> Self {
        assert!(min_support >= 1);
        assert!(max_depth >= 1);
        FtTreeBuilder {
            min_support,
            max_depth,
            corpus: Vec::new(),
        }
    }

    /// Adds one raw syslog line to the corpus.
    pub fn add_line(&mut self, line: &str) {
        let words = constant_words(line);
        if !words.is_empty() {
            self.corpus.push(words);
        }
    }

    /// Number of usable corpus lines so far.
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// True when no usable line was added.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Mines the tree: counts global word frequencies, inserts each
    /// message's frequency-ordered constant words, prunes rare paths and
    /// assigns template ids.
    pub fn build(self) -> FtTree {
        let FtTreeBuilder {
            min_support,
            max_depth,
            corpus,
        } = self;

        let mut freq: HashMap<String, u32> = HashMap::new();
        for words in &corpus {
            for w in words {
                *freq.entry(w.clone()).or_insert(0) += 1;
            }
        }

        let mut nodes = vec![Node::new()]; // 0 = root
        for words in &corpus {
            let ordered = order_words(words, &freq, max_depth);
            let mut cur = 0usize;
            nodes[cur].support += 1;
            for w in ordered {
                let next = match nodes[cur].children.get(&w) {
                    Some(&i) => i,
                    None => {
                        let i = nodes.len();
                        nodes.push(Node::new());
                        nodes[cur].children.insert(w, i);
                        i
                    }
                };
                nodes[next].support += 1;
                cur = next;
            }
        }

        // Prune: drop children below min_support (whole subtrees go with
        // them — support is monotone down the tree).
        for i in 0..nodes.len() {
            let pruned: Vec<String> = nodes[i]
                .children
                .iter()
                .filter(|&(_, &c)| nodes[c].support < min_support)
                .map(|(w, _)| w.clone())
                .collect();
            for w in pruned {
                nodes[i].children.remove(&w);
            }
        }

        // Assign template ids to every surviving non-root node, in a
        // deterministic order (BFS with sorted child words).
        let mut templates = Vec::new();
        let mut queue: Vec<(usize, Vec<String>)> = vec![(0, Vec::new())];
        while let Some((n, path)) = queue.pop() {
            let mut kids: Vec<(&String, &usize)> = nodes[n].children.iter().collect();
            kids.sort_by(|a, b| b.0.cmp(a.0)); // reverse: stack pops in order
            let kid_indices: Vec<(String, usize)> =
                kids.into_iter().map(|(w, &i)| (w.clone(), i)).collect();
            for (w, i) in kid_indices {
                let mut p = path.clone();
                p.push(w);
                let id = TemplateId(templates.len() as u32);
                nodes[i].template = Some(id);
                templates.push(Template {
                    id,
                    words: p.clone(),
                    support: nodes[i].support,
                });
                queue.push((i, p));
            }
        }

        let compiled = compile(&nodes, &freq);
        FtTree {
            nodes,
            freq,
            templates,
            max_depth,
            compiled,
        }
    }
}

/// Compiles the String-keyed tree into the symbol arena the hot match path
/// walks: interns the corpus vocabulary and flattens every node's children
/// into per-node symbol-sorted edge runs.
fn compile(nodes: &[Node], freq: &HashMap<String, u32>) -> Compiled {
    let table = WordTable::from_freq(freq);
    let mut edge_start: Vec<u32> = Vec::with_capacity(nodes.len() + 1);
    let mut edges: Vec<(Sym, u32)> = Vec::new();
    let mut buf: Vec<(Sym, u32)> = Vec::new();
    edge_start.push(0);
    for node in nodes {
        buf.clear();
        for (word, &child) in &node.children {
            // Every child edge word came from the corpus, so it is always
            // in the frequency map and therefore in the table.
            if let Some(sym) = table.sym(word) {
                buf.push((sym, child as u32));
            }
        }
        buf.sort_unstable_by_key(|&(s, _)| s);
        edges.extend_from_slice(&buf);
        edge_start.push(edges.len() as u32);
    }
    Compiled {
        table,
        edge_start,
        edges,
    }
}

/// Orders a message's constant words by descending corpus frequency (ties
/// broken alphabetically), removes duplicates and truncates to `max_depth`.
fn order_words(words: &[String], freq: &HashMap<String, u32>, max_depth: usize) -> Vec<String> {
    let mut uniq: Vec<&String> = Vec::new();
    for w in words {
        if !uniq.contains(&w) {
            uniq.push(w);
        }
    }
    uniq.sort_by(|a, b| {
        let fa = freq.get(*a).copied().unwrap_or(0);
        let fb = freq.get(*b).copied().unwrap_or(0);
        fb.cmp(&fa).then_with(|| a.cmp(b))
    });
    uniq.into_iter().take(max_depth).cloned().collect()
}

/// A mined, immutable FT-tree usable for classification.
///
/// Two match paths share the same semantics: [`FtTree::match_message`] is
/// the String-keyed reference walk (retained as the differential oracle,
/// the same pattern as `PathLocator`), and [`FtTree::match_message_with`]
/// is the symbol-interned hot path that reuses caller-owned scratch
/// buffers instead of allocating per line.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "TreeData")]
pub struct FtTree {
    nodes: Vec<Node>,
    freq: HashMap<String, u32>,
    templates: Vec<Template>,
    max_depth: usize,
    /// Derived symbol arena; excluded from the serialized form and
    /// recompiled from the persistent fields on deserialization.
    #[serde(skip)]
    compiled: Compiled,
}

/// Serde mirror of [`FtTree`]'s persistent fields: deserialization lands
/// here, then [`From`] recompiles the symbol arena. The serialized layout
/// is unchanged from the pre-interning representation.
#[derive(Deserialize)]
struct TreeData {
    nodes: Vec<Node>,
    freq: HashMap<String, u32>,
    templates: Vec<Template>,
    max_depth: usize,
}

impl From<TreeData> for FtTree {
    fn from(data: TreeData) -> FtTree {
        let compiled = compile(&data.nodes, &data.freq);
        FtTree {
            nodes: data.nodes,
            freq: data.freq,
            templates: data.templates,
            max_depth: data.max_depth,
            compiled,
        }
    }
}

impl FtTree {
    /// All mined templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Looks up a template.
    pub fn template(&self, id: TemplateId) -> &Template {
        &self.templates[id.0 as usize]
    }

    /// The interned vocabulary backing [`FtTree::match_message_with`].
    pub fn word_table(&self) -> &WordTable {
        &self.compiled.table
    }

    /// Classifies a raw syslog line: walks the tree with the line's
    /// frequency-ordered constant words (skipping words the tree never
    /// kept) and returns the deepest template reached.
    ///
    /// This is the String-keyed reference implementation — it allocates a
    /// `Vec<String>` per line and is kept as the differential oracle for
    /// [`FtTree::match_message_with`], which production paths use.
    pub fn match_message(&self, line: &str) -> Option<TemplateId> {
        let words = constant_words(line);
        let ordered = order_words(&words, &self.freq, self.max_depth);
        let mut cur = 0usize;
        let mut best = None;
        for w in &ordered {
            match self.nodes[cur].children.get(w) {
                Some(&next) => {
                    cur = next;
                    if let Some(id) = self.nodes[cur].template {
                        best = Some(id);
                    }
                }
                // Unknown or pruned word: skip it, keep walking with the
                // remaining words from the current node.
                None => continue,
            }
        }
        best
    }

    /// [`FtTree::match_message`] on interned symbols and caller-owned
    /// scratch buffers: the hot-path variant that performs no heap
    /// allocation once the scratch has warmed up to the longest line.
    ///
    /// Equivalence to the String oracle: symbols are assigned in the same
    /// (frequency descending, word ascending) order `order_words` sorts
    /// by, so sorting the line's symbols numerically reproduces the
    /// oracle's word order. Words outside the vocabulary have frequency 0,
    /// strictly below every interned word's frequency (≥ 1), so the oracle
    /// sorts them after all known words, where they are walk no-ops;
    /// dropping them at the table lookup before sorting and truncating to
    /// `max_depth` therefore yields the identical walk.
    pub fn match_message_with(&self, line: &str, scratch: &mut MatchScratch) -> Option<TemplateId> {
        scratch.syms.clear();
        for token in tokenize(line) {
            if is_variable(token) {
                continue;
            }
            scratch.lower.clear();
            scratch
                .lower
                .extend(token.chars().map(|c| c.to_ascii_lowercase()));
            let Some(sym) = self.compiled.table.sym(&scratch.lower) else {
                continue;
            };
            if !scratch.syms.contains(&sym) {
                scratch.syms.push(sym);
            }
        }
        scratch.syms.sort_unstable();
        scratch.syms.truncate(self.max_depth);
        let mut cur = 0u32;
        let mut best = None;
        for &sym in &scratch.syms {
            if let Some(next) = self.compiled.child(cur, sym) {
                cur = next;
                if let Some(id) = self.nodes[cur as usize].template {
                    best = Some(id);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_tree() -> FtTree {
        let mut b = FtTreeBuilder::new(2, 8);
        // Two strong families plus a singleton that must be pruned.
        for i in 0..20 {
            b.add_line(&format!("Interface TenGigE0/1/0/{i} changed state to down"));
        }
        for i in 0..15 {
            b.add_line(&format!("BGP peer 10.0.0.{i} session went down"));
        }
        b.add_line("totally unique cosmic ray message");
        b.build()
    }

    #[test]
    fn families_become_templates_and_singletons_are_pruned() {
        let t = corpus_tree();
        assert!(!t.templates().is_empty());
        let all_words: Vec<String> = t
            .templates()
            .iter()
            .flat_map(|tp| tp.words.clone())
            .collect();
        assert!(all_words.contains(&"interface".to_string()));
        assert!(all_words.contains(&"bgp".to_string()));
        assert!(
            !all_words.contains(&"cosmic".to_string()),
            "singleton must be pruned"
        );
    }

    #[test]
    fn corpus_messages_match_their_family() {
        let t = corpus_tree();
        let a = t
            .match_message("Interface TenGigE0/9/9/99 changed state to down")
            .expect("interface family must match");
        let b = t
            .match_message("BGP peer 192.168.1.1 session went down")
            .expect("bgp family must match");
        assert_ne!(a, b, "different families get different templates");
        // Same family, different variables → same template.
        let a2 = t
            .match_message("Interface Eth7/7 changed state to down")
            .unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn unknown_message_matches_nothing_or_shallowly() {
        let t = corpus_tree();
        assert_eq!(t.match_message("quantum flux capacitor overflow"), None);
    }

    #[test]
    fn shared_words_produce_hierarchical_templates() {
        let t = corpus_tree();
        // "down" appears in both families (35 lines) — frequency ordering
        // puts it near the root, so both family templates descend from it.
        let down_template = t
            .templates()
            .iter()
            .find(|tp| tp.words == vec!["down".to_string()]);
        assert!(
            down_template.is_some(),
            "most frequent shared word becomes the shallowest template; got {:?}",
            t.templates()
        );
        assert_eq!(down_template.unwrap().support, 35);
    }

    #[test]
    fn build_is_deterministic() {
        let ta = corpus_tree();
        let tb = corpus_tree();
        assert_eq!(ta.templates(), tb.templates());
    }

    #[test]
    fn max_depth_caps_template_length() {
        let mut b = FtTreeBuilder::new(1, 3);
        for _ in 0..3 {
            b.add_line("alpha beta gamma delta epsilon zeta");
        }
        let t = b.build();
        assert!(t.templates().iter().all(|tp| tp.words.len() <= 3));
    }

    #[test]
    fn empty_corpus_builds_empty_tree() {
        let t = FtTreeBuilder::default().build();
        assert!(t.templates().is_empty());
        assert_eq!(t.match_message("anything at all"), None);
    }

    #[test]
    fn symbol_matcher_agrees_on_the_corpus_families() {
        let t = corpus_tree();
        let mut scratch = MatchScratch::new();
        for line in [
            "Interface TenGigE0/9/9/99 changed state to down",
            "BGP peer 192.168.1.1 session went down",
            "Interface Eth7/7 changed state to down",
            "quantum flux capacitor overflow",
            "totally unique cosmic ray message",
            "",
        ] {
            assert_eq!(
                t.match_message(line),
                t.match_message_with(line, &mut scratch),
                "oracle/symbol divergence on {line:?}"
            );
        }
    }

    #[test]
    fn word_table_orders_by_frequency_then_name() {
        let t = corpus_tree();
        let table = t.word_table();
        assert!(!table.is_empty());
        // "down" is the most frequent constant word (35 lines), so it gets
        // the smallest symbol.
        assert_eq!(table.sym("down"), Some(crate::Sym(0)));
        assert_eq!(table.word(crate::Sym(0)), "down");
        // Pruned singleton words stay in the vocabulary: they still occupy
        // slots in the oracle's depth-truncation window.
        assert!(table.sym("cosmic").is_some());
        assert_eq!(table.sym("neverseen"), None);
    }

    #[test]
    fn serde_round_trip_recompiles_the_symbol_arena() {
        let t = corpus_tree();
        let json = serde_json::to_string(&t).expect("serialize");
        let back: FtTree = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(t.templates(), back.templates());
        assert_eq!(t.word_table().len(), back.word_table().len());
        let mut scratch = MatchScratch::new();
        for line in [
            "Interface TenGigE0/9/9/99 changed state to down",
            "BGP peer 192.168.1.1 session went down",
        ] {
            assert_eq!(
                t.match_message(line),
                back.match_message_with(line, &mut scratch)
            );
        }
    }

    #[test]
    fn duplicate_words_in_one_message_count_once_per_path() {
        let mut b = FtTreeBuilder::new(1, 8);
        for _ in 0..2 {
            b.add_line("flap flap flap port state flap");
        }
        let t = b.build();
        for tp in t.templates() {
            let mut w = tp.words.clone();
            w.sort();
            let before = w.len();
            w.dedup();
            assert_eq!(w.len(), before, "template has duplicate words: {tp}");
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;

    /// Each property runs these 256 seeded cases.
    const SEEDS: std::ops::Range<u64> = 0..256;

    const WORDS: [&str; 13] = [
        "interface",
        "bgp",
        "peer",
        "down",
        "up",
        "state",
        "error",
        "link",
        "port",
        "flap",
        "session",
        "memory",
        "crc",
    ];

    /// A small LCG: one seeded, replayable stream per case.
    struct Lcg(u64);

    impl Lcg {
        /// Uniform in `lo..hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (self.0 >> 33) as usize % (hi - lo)
        }

        /// One to five words, then zero to two numbers below 1000.
        fn line(&mut self) -> String {
            let mut parts: Vec<String> = (0..self.range(1, 6))
                .map(|_| WORDS[self.range(0, WORDS.len())].to_string())
                .collect();
            for _ in 0..self.range(0, 3) {
                parts.push(self.range(0, 1000).to_string());
            }
            parts.join(" ")
        }

        /// `lo..hi` lines.
        fn lines(&mut self, lo: usize, hi: usize) -> Vec<String> {
            (0..self.range(lo, hi)).map(|_| self.line()).collect()
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

    fn tree_of(lines: &[String], min_support: u32, max_depth: usize) -> FtTree {
        let mut b = FtTreeBuilder::new(min_support, max_depth);
        for l in lines {
            b.add_line(l);
        }
        b.build()
    }

    /// Every line of a min_support=1 corpus must classify to some
    /// template, and re-matching is deterministic.
    #[test]
    fn corpus_lines_always_match_with_support_one() {
        for_each_seed(|rng| {
            let lines = rng.lines(1, 40);
            let t = tree_of(&lines, 1, 8);
            for l in &lines {
                let m1 = t.match_message(l);
                assert!(m1.is_some(), "corpus line failed to match: {l}");
                assert_eq!(m1, t.match_message(l));
            }
        });
    }

    /// Template supports never exceed the corpus size and are monotone
    /// along prefix containment.
    #[test]
    fn supports_are_bounded_and_monotone() {
        for_each_seed(|rng| {
            let lines = rng.lines(1, 40);
            let n = lines.len() as u32;
            let t = tree_of(&lines, 1, 8);
            for tp in t.templates() {
                assert!(tp.support <= n);
                for other in t.templates() {
                    // If `other` extends `tp` by one word, its support is ≤.
                    if other.words.len() == tp.words.len() + 1
                        && other.words[..tp.words.len()] == tp.words[..]
                    {
                        assert!(other.support <= tp.support);
                    }
                }
            }
        });
    }

    /// Differential: the symbol-interned matcher must agree with the
    /// String-keyed oracle on every corpus line and every probe line —
    /// including probes full of words the tree has never seen — across
    /// support/depth settings.
    #[test]
    fn symbol_matcher_equals_string_oracle() {
        for_each_seed(|rng| {
            let corpus = rng.lines(1, 50);
            let probes = rng.lines(0, 50);
            let t = tree_of(&corpus, rng.range(1, 4) as u32, rng.range(1, 10));
            let mut scratch = MatchScratch::new();
            for l in corpus.iter().chain(probes.iter()) {
                assert_eq!(
                    t.match_message(l),
                    t.match_message_with(l, &mut scratch),
                    "oracle/symbol divergence on {l:?}"
                );
            }
        });
    }

    /// Variable scrubbing: templates never contain pure numbers.
    #[test]
    fn templates_contain_no_numbers() {
        for_each_seed(|rng| {
            let t = tree_of(&rng.lines(1, 40), 1, 8);
            for tp in t.templates() {
                for w in &tp.words {
                    assert!(!w.bytes().all(|c| c.is_ascii_digit()));
                }
            }
        });
    }
}
