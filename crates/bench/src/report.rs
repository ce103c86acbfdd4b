//! The one report writer. Every `pnw-bench` subcommand that emits a JSON
//! artifact builds a [`Report`]; this module owns the JSON text (string
//! escaping, non-finite numbers as `null`, the line layout) and the stamp
//! every artifact carries: `bench`, `host_cores`, `quick`. The workspace
//! has no JSON dependency, so this is the only place that spells JSON.

use std::fmt::Write as _;
use std::path::Path;

use crate::table::Table;
use crate::{host_cores, Scale};

/// A JSON value. Numbers are either exact integers or floats printed with
/// a fixed number of decimals (see [`num`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer.
    Int(u64),
    /// A float and its printed decimals; NaN and ±∞ print as `null`.
    Num(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// A float printed with `decimals` fractional digits.
pub fn num(x: f64, decimals: usize) -> Json {
    Json::Num(x, decimals)
}

/// Builds a [`Json::Obj`] from `"key": value` pairs; values go through
/// `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![$(($key, $crate::report::Json::from($value))),*])
    };
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n.into())
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes one array or object. Expanded: one item per line at
/// `indent + 1`; otherwise everything on the current line.
fn write_seq<'a>(
    out: &mut String,
    indent: usize,
    expand: bool,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let mut any = false;
    for (key, value) in items {
        if any {
            out.push_str(if expand { "," } else { ", " });
        }
        any = true;
        if expand {
            out.push('\n');
            out.push_str(&"  ".repeat(indent + 1));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 1, value.has_rows());
    }
    if any && expand {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

impl Json {
    /// Whether an array of objects sits anywhere inside — such a value is
    /// laid out one item per line, so result rows diff line by line;
    /// everything else stays on its parent's line.
    fn has_rows(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .any(|v| matches!(v, Json::Obj(_)) || v.has_rows()),
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.has_rows()),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, indent: usize, expand: bool) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x, decimals) if x.is_finite() => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Num(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(
                out,
                indent,
                expand,
                ('[', ']'),
                items.iter().map(|v| (None, v)),
            ),
            Json::Obj(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(*k), v));
                write_seq(out, indent, expand, ('{', '}'), items)
            }
        }
    }
}

/// The value on one line.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        f.write_str(&out)
    }
}

/// Result rows (objects sharing one key order) as a console table — what
/// a harness prints is what its report carries. Nested values are left to
/// the artifact.
pub fn rows_table(rows: &[Json]) -> Table {
    let cells = |row: &Json| -> Vec<(&'static str, String)> {
        let Json::Obj(fields) = row else {
            return Vec::new();
        };
        let cell = |(k, v): &(&'static str, Json)| match v {
            Json::Arr(_) | Json::Obj(_) => None,
            Json::Str(s) => Some((*k, s.clone())),
            v => Some((*k, v.to_string())),
        };
        fields.iter().filter_map(cell).collect()
    };
    let header = rows.first().map(cells).unwrap_or_default();
    let mut t = Table::new(header.into_iter().map(|(k, _)| k).collect());
    for row in rows {
        t.row(cells(row).into_iter().map(|(_, c)| c).collect());
    }
    t
}

/// One bench artifact: the stamp plus the fields the harness adds.
#[derive(Debug, Clone)]
pub struct Report {
    fields: Vec<(&'static str, Json)>,
}

impl Report {
    /// A report stamped with the bench name, this host's core count and
    /// whether the run was a `--quick` smoke.
    pub fn new(bench: &'static str, scale: Scale) -> Report {
        Report {
            fields: vec![
                ("bench", bench.into()),
                ("host_cores", host_cores().into()),
                ("quick", (scale == Scale::Quick).into()),
            ],
        }
    }

    /// Appends one top-level field.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Report {
        self.fields.push((key, value.into()));
        self
    }

    /// The artifact text: one top-level field per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let items = self.fields.iter().map(|(k, v)| (Some(*k), v));
        write_seq(&mut out, 0, true, ('{', '}'), items);
        out.push('\n');
        out
    }

    /// Writes the artifact to `path`, or prints it when there is none.
    pub fn write_json(&self, path: Option<&Path>) -> std::io::Result<()> {
        match path {
            Some(path) => {
                std::fs::write(path, self.to_json())?;
                println!("wrote {}", path.display());
            }
            None => print!("{}", self.to_json()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_nulls_nests_and_stamps() {
        let r = Report::new("demo", Scale::Quick)
            .field("name", "a \"quoted\" back\\slash\n")
            .field("lifetime", num(f64::INFINITY, 1))
            .field("ratio", num(f64::NAN, 3))
            .field("flat", obj! {"p50": 7u64, "ms": num(1.5, 1), "ok": true})
            .field(
                "results",
                vec![
                    obj! {"k": 4usize, "windows": vec![obj! {"w": 0u32}, obj! {"w": 1u32}]},
                    obj! {"k": 8usize, "windows": Vec::new()},
                ],
            );
        let expected = format!(
            r#"{{
  "bench": "demo",
  "host_cores": {},
  "quick": true,
  "name": "a \"quoted\" back\\slash\n",
  "lifetime": null,
  "ratio": null,
  "flat": {{"p50": 7, "ms": 1.5, "ok": true}},
  "results": [
    {{
      "k": 4,
      "windows": [
        {{"w": 0}},
        {{"w": 1}}
      ]
    }},
    {{"k": 8, "windows": []}}
  ]
}}
"#,
            host_cores()
        );
        assert_eq!(r.to_json(), expected);

        // The console table carries the same rows, scalars only.
        let t = rows_table(&[obj! {"k": 4usize, "ms": num(1.5, 1), "name": "a", "w": Vec::new()}]);
        assert_eq!(t.header, ["k", "ms", "name"]);
        assert_eq!(t.rows, [["4", "1.5", "a"]]);
        assert!(Report::new("demo", Scale::Full)
            .to_json()
            .contains("\"quick\": false"));
    }
}
