//! `Schema` is shared copy-on-write: a clone costs a reference count,
//! and mutating one clone must never show through another. Its `Debug`
//! and serialized forms are pinned to the literal text the schema had
//! when it owned its tables directly.

use schevo_ddl::types::DataType;
use schevo_ddl::{parse_schema, Attribute, Schema, Table};

const TWO_TABLES: &str = "CREATE TABLE p (id INT NOT NULL, PRIMARY KEY (id)); \
     CREATE TABLE c (pid BIGINT, FOREIGN KEY (pid) REFERENCES p (id));";

const ONE_TABLE: &str = "CREATE TABLE c (pid BIGINT NOT NULL, PRIMARY KEY (pid), \
     FOREIGN KEY (pid) REFERENCES p (id));";

fn table(name: &str, columns: &[&str]) -> Table {
    let mut t = Table::new(name);
    for c in columns {
        t.push_attribute(Attribute::new(*c, DataType::int()));
    }
    t
}

#[test]
fn mutating_a_clone_leaves_the_original_untouched() {
    let original = parse_schema(TWO_TABLES).expect("parses");
    let pristine = parse_schema(TWO_TABLES).expect("parses");

    let mut upserted = original.clone();
    upserted.upsert_table(table("p", &["a", "b"]));
    upserted.upsert_table(table("n", &["x"]));
    assert_eq!(upserted.table("p").expect("p").arity(), 2);
    assert_eq!(upserted.table_count(), 3);

    let mut removed = original.clone();
    assert!(removed.remove_table("c").is_some());
    assert!(removed.remove_table("ghost").is_none());
    assert!(removed.table("c").is_none());

    let mut altered = original.clone();
    let c = altered.table_mut("c").expect("c");
    c.push_attribute(Attribute::new("extra", DataType::text()));
    c.remove_attribute("pid");
    assert_eq!(altered.table("c").expect("c").attributes()[0].name, "extra");

    assert_eq!(original, pristine);
    assert_eq!(original.table_count(), 2);
    assert_eq!(original.attribute_count(), 2);
    assert_eq!(original.table("p").expect("p").attributes()[0].name, "id");
    assert_eq!(original.table("c").expect("c").foreign_keys().len(), 1);
    assert_eq!(original.table_names().collect::<Vec<_>>(), ["p", "c"]);
    assert_ne!(original, upserted);
    assert_ne!(original, removed);
    assert_ne!(original, altered);
}

#[test]
fn mutating_the_original_leaves_its_clone_untouched() {
    let mut original = parse_schema(TWO_TABLES).expect("parses");
    let snapshot = original.clone();
    original.remove_table("p");
    original
        .table_mut("c")
        .expect("c")
        .push_attribute(Attribute::new("q", DataType::int()));
    assert_eq!(snapshot, parse_schema(TWO_TABLES).expect("parses"));
    assert_eq!(original.table_names().collect::<Vec<_>>(), ["c"]);
}

#[test]
fn serialized_form_is_unchanged() {
    let s = parse_schema(TWO_TABLES).expect("parses");
    let json = serde_json::to_string(&s).expect("serializes");
    assert_eq!(
        json,
        concat!(
            r#"{"tables":[{"name":"p","attributes":[{"name":"id","data_type":{"family":"Int","#,
            r#""params":[],"values":[],"unsigned":false,"raw_name":"INT"},"not_null":true}],"#,
            r#""primary_key":["id"],"foreign_keys":[],"index":{"id":0}},{"name":"c","#,
            r#""attributes":[{"name":"pid","data_type":{"family":"BigInt","params":[],"#,
            r#""values":[],"unsigned":false,"raw_name":"BIGINT"},"not_null":false}],"#,
            r#""primary_key":[],"foreign_keys":[{"columns":["pid"],"foreign_table":"p","#,
            r#""foreign_columns":["id"]}],"index":{"pid":0}}],"index":{"c":1,"p":0}}"#,
        )
    );
    let back: Schema = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, s);
    assert_eq!(
        serde_json::to_string(&Schema::new()).expect("serializes"),
        r#"{"tables":[],"index":{}}"#
    );
}

#[test]
fn debug_form_is_unchanged() {
    // One table with one attribute: every `HashMap` inside has a single
    // entry, so the text does not depend on hash order.
    let s = parse_schema(ONE_TABLE).expect("parses");
    assert_eq!(
        format!("{s:?}"),
        concat!(
            r#"Schema { tables: [Table { name: "c", attributes: [Attribute { name: "pid", "#,
            r#"data_type: DataType { family: BigInt, params: [], values: [], unsigned: false, "#,
            r#"raw_name: "BIGINT" }, not_null: true }], primary_key: ["pid"], foreign_keys: "#,
            r#"[ForeignKey { columns: ["pid"], foreign_table: "p", foreign_columns: ["id"] }], "#,
            r#"index: {"pid": 0} }], index: {"c": 0} }"#,
        )
    );
    assert_eq!(
        format!("{:?}", Schema::default()),
        "Schema { tables: [], index: {} }"
    );
}
