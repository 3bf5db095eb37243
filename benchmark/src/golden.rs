//! The answer check: every reply is compared with `golden.tsv`.
//!
//! The file maps a request body to the `rows`, `result`, `class` and
//! `mask` the seed commit answered with (reuse off). It is produced by
//! the `golden` subcommand and compiled into the harness, so a checkout
//! cannot run the benchmark against answers it did not commit.

use ccp_server::Json;
use std::collections::HashMap;

const GOLDEN_TSV: &str = include_str!("../golden.tsv");

/// What a correct reply to one request body carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub result: i64,
    pub class: String,
    pub mask: String,
}

/// Request body → expected answer.
pub struct Golden(HashMap<String, Answer>);

impl Golden {
    /// The committed table.
    pub fn committed() -> Result<Golden, String> {
        Golden::parse(GOLDEN_TSV)
    }

    /// Parses `body<TAB>rows<TAB>result<TAB>class<TAB>mask` lines; `#`
    /// starts a comment line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("golden.tsv line {}: {what}", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [body, rows, result, class, mask] = f[..] else {
                return Err(bad("expected 5 tab-separated fields"));
            };
            let answer = Answer {
                rows: rows.parse().map_err(|_| bad("rows is not an integer"))?,
                result: result
                    .parse()
                    .map_err(|_| bad("result is not an integer"))?,
                class: class.to_string(),
                mask: mask.to_string(),
            };
            if map.insert(body.to_string(), answer).is_some() {
                return Err(bad("duplicate request body"));
            }
        }
        Ok(Golden(map))
    }

    pub fn get(&self, body: &str) -> Option<&Answer> {
        self.0.get(body)
    }

    /// Checks one `/query` reply line against the answer for `body`.
    ///
    /// `rows` and `result` must always match. `class` and `mask` must
    /// match unless the reply was a reuse hit: admission deliberately
    /// re-classes a predicted hit as sensitive with the full mask, so a
    /// hit must carry exactly that instead.
    pub fn check(&self, body: &str, reply: &Json) -> Result<(), String> {
        let want = self
            .get(body)
            .ok_or_else(|| format!("no golden answer for {body}"))?;
        let rows = reply.get("rows").and_then(Json::as_u64);
        let result = reply.get("result").and_then(Json::as_i64);
        if rows != Some(want.rows) || result != Some(want.result) {
            return Err(format!(
                "{body}: rows/result {rows:?}/{result:?}, golden {}/{}",
                want.rows, want.result
            ));
        }
        let class = reply.get("class").and_then(Json::as_str).unwrap_or("");
        let mask = reply.get("mask").and_then(Json::as_str).unwrap_or("");
        let hit = reply.get("reuse").and_then(Json::as_str) == Some("hit");
        let (want_class, want_mask) = if hit {
            ("sensitive", "0xfffff")
        } else {
            (want.class.as_str(), want.mask.as_str())
        };
        if class != want_class || mask != want_mask {
            return Err(format!(
                "{body}: class/mask {class}/{mask}, expected {want_class}/{want_mask}"
            ));
        }
        Ok(())
    }
}

/// One `golden.tsv` line for `body` from the reply the server gave.
pub fn format_line(body: &str, reply: &Json) -> Result<String, String> {
    let field = |k: &str| {
        reply
            .get(k)
            .ok_or_else(|| format!("{body}: reply lacks {k}"))
    };
    Ok(format!(
        "{body}\t{}\t{}\t{}\t{}",
        field("rows")?,
        field("result")?,
        field("class")?.as_str().unwrap_or(""),
        field("mask")?.as_str().unwrap_or(""),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"workload":"q1","threshold":1000}"#;

    fn table() -> Golden {
        Golden::parse(&format!("# comment\n{BODY}\t100\t42\tpolluting\t0x3\n")).unwrap()
    }

    fn reply(result: i64, class: &str, mask: &str, reuse: &str) -> Json {
        Json::parse(&format!(
            r#"{{"rows":100,"result":{result},"class":"{class}","mask":"{mask}","reuse":"{reuse}"}}"#
        ))
        .unwrap()
    }

    #[test]
    fn parses_and_rejects_malformed_lines() {
        let g = table();
        assert_eq!(g.get(BODY).unwrap().result, 42);
        let why = |text: &str| Golden::parse(text).err().expect("malformed table");
        assert!(why("a\tb\n").contains("5 tab"));
        assert!(why("a\tx\t1\tc\tm\n").contains("rows"));
        assert!(why("a\t1\t1\tc\tm\na\t1\t1\tc\tm\n").contains("duplicate"));
    }

    #[test]
    fn format_line_round_trips_through_parse() {
        let line = format_line(BODY, &reply(42, "polluting", "0x3", "bypass")).unwrap();
        let g = Golden::parse(&line).unwrap();
        assert_eq!(g.get(BODY), table().get(BODY));
    }

    #[test]
    fn wrong_answers_fail_the_check() {
        let g = table();
        assert!(g
            .check(BODY, &reply(42, "polluting", "0x3", "bypass"))
            .is_ok());
        assert!(g
            .check(BODY, &reply(43, "polluting", "0x3", "bypass"))
            .is_err());
        assert!(g
            .check(BODY, &reply(42, "sensitive", "0x3", "miss"))
            .is_err());
        assert!(g
            .check(BODY, &reply(42, "polluting", "0xfffff", "miss"))
            .is_err());
        assert!(g
            .check("unknown body", &reply(42, "polluting", "0x3", "miss"))
            .is_err());
    }

    #[test]
    fn a_reuse_hit_is_admitted_as_sensitive() {
        let g = table();
        assert!(g
            .check(BODY, &reply(42, "sensitive", "0xfffff", "hit"))
            .is_ok());
        assert!(g
            .check(BODY, &reply(42, "polluting", "0x3", "hit"))
            .is_err());
    }

    #[test]
    fn committed_table_covers_every_menu_entry() {
        let g = Golden::committed().unwrap();
        for w in crate::schedule::workloads() {
            for body in w.fg.menu.iter().chain(&w.bg.menu) {
                assert!(g.get(body).is_some(), "{}: {body}", w.name);
            }
        }
    }
}
