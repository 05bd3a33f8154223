//! The stand-in serde, its derive and this JSON crate, checked together
//! against the text the published crates would produce for the same types.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
struct Id(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(f64),
    Segment(i32, i32),
    Rect { w: u32, h: u32 },
}

fn three() -> u32 {
    3
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    id: Id,
    name: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    peer: Option<String>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<String>,
    #[serde(default = "three")]
    shards: u32,
    #[serde(skip)]
    cache: Vec<u8>,
    shape: Shape,
    pair: (Id, f64),
    by_name: BTreeMap<String, u64>,
    by_id: HashMap<u32, bool>,
    boxed: Box<Shape>,
    maybe: Option<Id>,
    r#type: u8,
}

fn record() -> Record {
    Record {
        id: Id(7),
        name: "edge \"west\"\n".to_string(),
        peer: None,
        tags: Vec::new(),
        shards: 3,
        cache: vec![1, 2, 3],
        shape: Shape::Rect { w: 2, h: 5 },
        pair: (Id(9), 0.5),
        by_name: BTreeMap::from([("a".to_string(), 1), ("b".to_string(), u64::MAX)]),
        by_id: HashMap::from([(42, true)]),
        boxed: Box::new(Shape::Circle(1.0)),
        maybe: None,
        r#type: 1,
    }
}

#[test]
fn derived_structs_write_the_upstream_shape_and_read_back() {
    let text = serde_json::to_string(&record()).unwrap();
    assert_eq!(
        text,
        r#"{"id":7,"name":"edge \"west\"\n","shards":3,"shape":{"Rect":{"w":2,"h":5}},"pair":[9,0.5],"by_name":{"a":1,"b":18446744073709551615},"by_id":{"42":true},"boxed":{"Circle":1.0},"maybe":null,"type":1}"#
    );
    let back: Record = serde_json::from_str(&text).unwrap();
    // `cache` is skipped both ways and comes back as its default.
    assert_eq!(
        back,
        Record {
            cache: Vec::new(),
            ..record()
        }
    );
}

#[test]
fn defaults_fill_missing_fields_and_unknown_fields_are_skipped() {
    let text = r#"{"extra":{"nested":[1,{"x":null}]},"id":1,"name":"n","shape":"Dot",
        "pair":[2,3],"by_name":{},"by_id":{},"boxed":{"Segment":[-1,4]},"type":0}"#;
    let back: Record = serde_json::from_str(text).unwrap();
    assert_eq!(back.peer, None);
    assert_eq!(back.shards, 3, "default = \"three\"");
    assert_eq!(back.maybe, None, "a missing Option is None");
    assert_eq!(back.pair, (Id(2), 3.0), "integers widen to floats");
    assert_eq!(*back.boxed, Shape::Segment(-1, 4));
    let err = serde_json::from_str::<Record>(r#"{"id":1}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `name`"), "{err}");
    let err = serde_json::from_str::<Record>(r#"{"id":1,"id":2}"#).unwrap_err();
    assert!(err.to_string().contains("duplicate field `id`"), "{err}");
}

#[test]
fn externally_tagged_enums_and_plain_structs() {
    let shapes = vec![
        Shape::Dot,
        Shape::Circle(2.5),
        Shape::Segment(1, -2),
        Shape::Rect { w: 1, h: 2 },
    ];
    let text = serde_json::to_string(&shapes).unwrap();
    assert_eq!(
        text,
        r#"["Dot",{"Circle":2.5},{"Segment":[1,-2]},{"Rect":{"w":1,"h":2}}]"#
    );
    assert_eq!(serde_json::from_str::<Vec<Shape>>(&text).unwrap(), shapes);
    assert_eq!(
        serde_json::from_str::<Shape>(r#"{"Dot":null}"#).unwrap(),
        Shape::Dot
    );
    let err = serde_json::from_str::<Shape>(r#""Blob""#).unwrap_err();
    assert!(err.to_string().contains("unknown variant `Blob`"), "{err}");

    assert_eq!(
        serde_json::to_string(&Pair(1, "x".into())).unwrap(),
        r#"[1,"x"]"#
    );
    assert_eq!(
        serde_json::from_str::<Pair>(r#"[1,"x"]"#).unwrap(),
        Pair(1, "x".into())
    );
    assert!(serde_json::from_str::<Pair>(r#"[1,"x",2]"#).is_err());
    assert!(serde_json::from_str::<Pair>(r#"[1]"#).is_err());
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "null");
    assert_eq!(serde_json::from_str::<Unit>("null").unwrap(), Unit);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "lowercase")]
enum Request {
    Hello {
        tenant: String,
    },
    Tick {
        at: u64,
    },
    Bye,
    #[serde(skip)]
    Internal(u8),
}

#[test]
fn internally_tagged_enums_find_the_tag_anywhere() {
    assert_eq!(
        serde_json::to_string(&Request::Hello { tenant: "a".into() }).unwrap(),
        r#"{"op":"hello","tenant":"a"}"#
    );
    assert_eq!(
        serde_json::to_string(&Request::Bye).unwrap(),
        r#"{"op":"bye"}"#
    );
    assert_eq!(
        serde_json::from_str::<Request>(r#"{"at":90,"op":"tick"}"#).unwrap(),
        Request::Tick { at: 90 }
    );
    assert_eq!(
        serde_json::from_str::<Request>(r#"{"op":"bye","ignored":[1,2]}"#).unwrap(),
        Request::Bye
    );
    assert!(serde_json::from_str::<Request>(r#"{"at":90}"#).is_err());
    assert!(serde_json::from_str::<Request>(r#"{"op":"internal"}"#).is_err());
    assert!(serde_json::to_string(&Request::Internal(1)).is_err());
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Value {
    CounterTotal(u64),
    GaugeNow(f64),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Config {
    dir: std::path::PathBuf,
    depth: usize,
    label: Option<(String, String)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            dir: "wal".into(),
            depth: 1024,
            label: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "WireTree", into = "WireTree")]
struct Tree {
    nodes: Vec<u32>,
    total: u32,
}

#[derive(Serialize, Deserialize)]
struct WireTree {
    nodes: Vec<u32>,
}

impl From<WireTree> for Tree {
    fn from(wire: WireTree) -> Tree {
        Tree {
            total: wire.nodes.iter().sum(),
            nodes: wire.nodes,
        }
    }
}

impl From<Tree> for WireTree {
    fn from(tree: Tree) -> WireTree {
        WireTree { nodes: tree.nodes }
    }
}

#[test]
fn rename_all_container_default_and_from_into() {
    assert_eq!(
        serde_json::to_string(&[Value::CounterTotal(3), Value::GaugeNow(0.25)]).unwrap(),
        r#"[{"counter_total":3},{"gauge_now":0.25}]"#
    );
    assert_eq!(
        serde_json::from_str::<Value>(r#"{"gauge_now":1}"#).unwrap(),
        Value::GaugeNow(1.0)
    );
    let cfg: Config = serde_json::from_str(r#"{"depth":8}"#).unwrap();
    assert_eq!(
        cfg,
        Config {
            depth: 8,
            ..Config::default()
        }
    );
    let text = serde_json::to_string(&cfg).unwrap();
    assert_eq!(text, r#"{"dir":"wal","depth":8,"label":null}"#);
    let tree: Tree = serde_json::from_str(r#"{"nodes":[1,2,3]}"#).unwrap();
    assert_eq!(tree.total, 6);
    assert_eq!(
        serde_json::to_string(&tree).unwrap(),
        r#"{"nodes":[1,2,3]}"#
    );
}

#[derive(Serialize)]
struct Borrowed<'a> {
    seq: u64,
    tenant: &'a str,
    event: &'a Shape,
}

#[test]
fn borrowing_structs_serialize_like_owned_ones() {
    let shape = Shape::Circle(1.5);
    let text = serde_json::to_string(&Borrowed {
        seq: 1,
        tenant: "t",
        event: &shape,
    })
    .unwrap();
    assert_eq!(text, r#"{"seq":1,"tenant":"t","event":{"Circle":1.5}}"#);
}

#[test]
fn numbers_round_trip_exactly() {
    for value in [
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        434084.42213817296,
        574.0388329871038,
        1e21,
        1e-7,
        5e-324,
        f64::MAX,
        -1234.5e-8,
    ] {
        let text = serde_json::to_string(&value).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), value.to_bits(), "{value:?} via {text}");
    }
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808").unwrap(),
        i64::MIN
    );
    assert_eq!(
        serde_json::from_str::<u64>("18446744073709551615").unwrap(),
        u64::MAX
    );
    assert_eq!(serde_json::from_str::<f64>("1e3").unwrap(), 1000.0);
    assert_eq!(
        serde_json::from_str::<f64>("18446744073709551616").unwrap(),
        1.8446744073709552e19
    );
    for bad in ["01", "1.", ".5", "-", "1e", "+1", "0x10", "1 2"] {
        assert!(
            serde_json::from_str::<f64>(bad).is_err(),
            "{bad:?} must not parse"
        );
    }
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<u64>("-1").is_err());
    assert!(serde_json::from_str::<u64>("1.0").is_err());
}

#[test]
fn strings_escape_and_unescape() {
    let text = "tab\t quote\" slash\\ nul\u{0} bell\u{7} é 漢 😀";
    let json = serde_json::to_string(text).unwrap();
    assert_eq!(
        json,
        "\"tab\\t quote\\\" slash\\\\ nul\\u0000 bell\\u0007 é 漢 😀\""
    );
    assert_eq!(serde_json::from_str::<String>(&json).unwrap(), text);
    assert_eq!(
        serde_json::from_str::<String>(r#""é😀\/\b\f""#).unwrap(),
        "é😀/\u{8}\u{c}"
    );
    for bad in [
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\x""#,
        "\"raw\nnewline\"",
        r#""open"#,
    ] {
        assert!(
            serde_json::from_str::<String>(bad).is_err(),
            "{bad:?} must not parse"
        );
    }
    assert!(serde_json::from_slice::<String>(b"\"\xff\"").is_err());
}

#[test]
fn value_parses_indexes_and_prints() {
    let doc: serde_json::Value = serde_json::from_str(
        r#" {"metrics":[{"name":"a","value":7,"label":null},{"name":"b","value":-2.5}]} "#,
    )
    .unwrap();
    assert_eq!(doc["metrics"][0]["value"].as_u64(), Some(7));
    assert_eq!(doc["metrics"][1]["value"].as_f64(), Some(-2.5));
    assert_eq!(doc["metrics"][0]["name"].as_str(), Some("a"));
    assert!(doc["metrics"][0]["label"].is_null());
    assert!(doc["metrics"][9]["nope"].is_null());
    assert_eq!(
        doc.to_string(),
        r#"{"metrics":[{"label":null,"name":"a","value":7},{"name":"b","value":-2.5}]}"#
    );
    assert!(serde_json::from_str::<serde_json::Value>("[1,]").is_err());
    assert!(serde_json::from_str::<serde_json::Value>("{\"a\":1,}").is_err());
    assert!(serde_json::from_str::<serde_json::Value>("[1] x").is_err());
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
}

#[test]
fn pretty_printing_indents_by_two() {
    let text =
        serde_json::to_string_pretty(&BTreeMap::from([("a", vec![1, 2]), ("b", vec![])])).unwrap();
    assert_eq!(text, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": []\n}");
}
