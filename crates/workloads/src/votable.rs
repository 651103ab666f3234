//! A VOTable (IVOA XML table format) writer and parser — the astropy
//! substitution for the Internal Extinction workflow.
//!
//! Supports the subset the workflow needs: one `TABLE` with `FIELD`
//! declarations and `TABLEDATA` rows. The parser is defensive (the VO
//! service is "remote"), rejecting malformed nesting and recovering field
//! types.

use laminar_json::{Map, Value};

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Field {
    /// Column name.
    pub(crate) name: String,
    /// IVOA datatype: `"char"`, `"double"`, `"int"`.
    pub(crate) datatype: String,
}

/// An in-memory VOTable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VoTable {
    /// Column declarations.
    pub(crate) fields: Vec<Field>,
    /// Rows, in field order.
    pub(crate) rows: Vec<Vec<Value>>,
}

impl VoTable {
    /// Build an empty table with the given fields.
    pub(crate) fn new(fields: Vec<Field>) -> VoTable {
        VoTable { fields, rows: Vec::new() }
    }

    /// Append a row (must match the field count).
    pub(crate) fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.fields.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Rows as JSON objects keyed by field name (what the script layer
    /// consumes).
    pub(crate) fn rows_as_objects(&self) -> Vec<Value> {
        self.rows
            .iter()
            .map(|row| {
                let mut m = Map::new();
                for (f, v) in self.fields.iter().zip(row) {
                    m.insert(f.name.clone(), v.clone());
                }
                Value::Object(m)
            })
            .collect()
    }

    /// Serialize to VOTable XML.
    pub(crate) fn to_xml(&self) -> String {
        let mut out =
            String::from("<?xml version=\"1.0\"?>\n<VOTABLE version=\"1.4\">\n <RESOURCE>\n  <TABLE>\n");
        for f in &self.fields {
            out.push_str(&format!(
                "   <FIELD name=\"{}\" datatype=\"{}\"/>\n",
                escape(&f.name),
                escape(&f.datatype)
            ));
        }
        out.push_str("   <DATA>\n    <TABLEDATA>\n");
        for row in &self.rows {
            out.push_str("     <TR>");
            for v in row {
                let text = match v {
                    Value::Str(s) => escape(s),
                    other => other.to_string(),
                };
                out.push_str(&format!("<TD>{text}</TD>"));
            }
            out.push_str("</TR>\n");
        }
        out.push_str("    </TABLEDATA>\n   </DATA>\n  </TABLE>\n </RESOURCE>\n</VOTABLE>\n");
        out
    }

    /// Parse VOTable XML produced by [`Self::to_xml`] (or a compatible
    /// service).
    pub(crate) fn parse(xml: &str) -> Result<VoTable, String> {
        let mut fields = Vec::new();
        let mut rows = Vec::new();
        let mut pos = 0;
        // FIELD declarations.
        while let Some(start) = xml[pos..].find("<FIELD") {
            let abs = pos + start;
            let end = xml[abs..].find("/>").ok_or("unterminated FIELD tag")? + abs;
            let tag = &xml[abs..end];
            let name = attr(tag, "name").ok_or("FIELD missing name attribute")?;
            let datatype = attr(tag, "datatype").unwrap_or_else(|| "char".to_string());
            fields.push(Field { name, datatype });
            pos = end;
        }
        if fields.is_empty() {
            return Err("VOTable has no FIELD declarations".into());
        }
        // TABLEDATA rows.
        let data_start = xml.find("<TABLEDATA>").ok_or("missing TABLEDATA")? + "<TABLEDATA>".len();
        let data_end = xml.find("</TABLEDATA>").ok_or("missing </TABLEDATA>")?;
        if data_end < data_start {
            return Err("TABLEDATA tags out of order".into());
        }
        let body = &xml[data_start..data_end];
        let mut rpos = 0;
        while let Some(tr) = body[rpos..].find("<TR>") {
            let rstart = rpos + tr + 4;
            let rend = body[rstart..].find("</TR>").ok_or("unterminated TR")? + rstart;
            let row_xml = &body[rstart..rend];
            let mut row = Vec::new();
            let mut cpos = 0;
            while let Some(td) = row_xml[cpos..].find("<TD>") {
                let cstart = cpos + td + 4;
                let cend = row_xml[cstart..].find("</TD>").ok_or("unterminated TD")? + cstart;
                let raw = unescape(&row_xml[cstart..cend]);
                let field_idx = row.len();
                let value = match fields.get(field_idx).map(|f| f.datatype.as_str()) {
                    Some("double") => raw
                        .trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| format!("bad double '{raw}'"))?,
                    Some("int") => {
                        raw.trim().parse::<i64>().map(Value::Int).map_err(|_| format!("bad int '{raw}'"))?
                    }
                    _ => Value::Str(raw),
                };
                row.push(value);
                cpos = cend + 5;
            }
            if row.len() != fields.len() {
                return Err(format!("row has {} cells, expected {}", row.len(), fields.len()));
            }
            rows.push(row);
            rpos = rend + 5;
        }
        Ok(VoTable { fields, rows })
    }
}

/// Extract an XML attribute value from a tag slice.
fn attr(tag: &str, name: &str) -> Option<String> {
    let needle = format!("{name}=\"");
    let start = tag.find(&needle)? + needle.len();
    let end = tag[start..].find('"')? + start;
    Some(unescape(&tag[start..end]))
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", "\"").replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VoTable {
        let mut t = VoTable::new(vec![
            Field { name: "name".into(), datatype: "char".into() },
            Field { name: "logr25".into(), datatype: "double".into() },
            Field { name: "mtype".into(), datatype: "int".into() },
        ]);
        t.push_row(vec![Value::Str("NGC1042".into()), Value::Float(0.35), Value::Int(6)]);
        t.push_row(vec![Value::Str("UGC5373".into()), Value::Float(0.12), Value::Int(9)]);
        t
    }

    #[test]
    fn xml_round_trip() {
        let t = sample();
        let xml = t.to_xml();
        assert!(xml.contains("<VOTABLE"));
        assert!(xml.contains("<FIELD name=\"logr25\" datatype=\"double\"/>"));
        let back = VoTable::parse(&xml).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rows_as_objects_keyed_by_field() {
        let objs = sample().rows_as_objects();
        assert_eq!(objs[0]["name"].as_str(), Some("NGC1042"));
        assert_eq!(objs[0]["logr25"].as_f64(), Some(0.35));
        assert_eq!(objs[1]["mtype"].as_i64(), Some(9));
    }

    #[test]
    fn escaping_survives() {
        let mut t = VoTable::new(vec![Field { name: "name".into(), datatype: "char".into() }]);
        t.push_row(vec![Value::Str("A&B <galaxy> \"x\"".into())]);
        let back = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(back.rows[0][0].as_str(), Some("A&B <galaxy> \"x\""));
    }

    #[test]
    fn malformed_rejected() {
        assert!(VoTable::parse("<VOTABLE></VOTABLE>").is_err());
        assert!(VoTable::parse("<FIELD name=\"x\"/> no tabledata").is_err());
        let bad_double = r#"<FIELD name="v" datatype="double"/><TABLEDATA><TR><TD>abc</TD></TR></TABLEDATA>"#;
        assert!(VoTable::parse(bad_double).is_err());
        let short_row = r#"<FIELD name="a"/><FIELD name="b"/><TABLEDATA><TR><TD>1</TD></TR></TABLEDATA>"#;
        assert!(VoTable::parse(short_row).is_err());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = sample();
        t.push_row(vec![Value::Int(1)]);
    }
}
