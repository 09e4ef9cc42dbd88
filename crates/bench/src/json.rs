//! The bench-artifact record format over the in-tree JSON module.
//!
//! [`BenchRow`] is one record of the flat array-of-objects layout every
//! `BENCH_*.json` file shares; [`crate::harness`] writes the artifacts
//! and `bench_gate` reads them back through [`parse`].

pub use axsnn::core::json::{parse, Json};

/// One record of a bench artifact: ordered `(key, preformatted value)`
/// fields, built with [`BenchRow::str`]/[`BenchRow::num`].
#[derive(Debug, Clone, Default)]
pub struct BenchRow {
    pub(crate) fields: Vec<(String, String)>,
}

impl BenchRow {
    /// Starts an empty record.
    pub fn new() -> BenchRow {
        BenchRow::default()
    }

    /// Appends a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> BenchRow {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields.push((key.into(), format!("\"{escaped}\"")));
        self
    }

    /// Appends a numeric field rendered with `decimals` fraction digits
    /// (`0` prints an integer — the convention for nanosecond fields).
    #[must_use]
    pub fn num(mut self, key: &str, value: f64, decimals: usize) -> BenchRow {
        self.fields
            .push((key.into(), format!("{value:.decimals$}")));
        self
    }

    /// Appends an A/B pair: both sides' mean ns and their `speedup`
    /// (`a_ns / b_ns`).
    #[must_use]
    pub fn ab(self, a: &str, a_ns: f64, b: &str, b_ns: f64) -> BenchRow {
        self.num(a, a_ns, 0)
            .num(b, b_ns, 0)
            .num("speedup", a_ns / b_ns.max(1.0), 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::write_bench_json;

    #[test]
    fn roundtrip_through_parser() {
        let rows = vec![
            BenchRow::new()
                .str("name", "kernel_a")
                .num("density", 0.05, 2)
                .num("dense_ns", 12345.0, 0)
                .num("speedup", 2.517, 3),
            BenchRow::new()
                .str("name", "kernel_b")
                .num("speedup", 0.9, 3),
        ];
        let path = std::env::temp_dir().join("axsnn_bench_json_roundtrip.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, &rows).unwrap();
        let parsed = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("kernel_a"));
        assert_eq!(arr[0].get("dense_ns").unwrap().as_f64(), Some(12345.0));
        assert_eq!(arr[0].get("speedup").unwrap().as_f64(), Some(2.517));
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("kernel_b"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn existing_bench_layout_parses() {
        let doc = "[\n  {\"name\": \"mlp\", \"density\": 0.10, \"dense_ns\": 100, \"sparse_ns\": 40, \"speedup\": 2.500}\n]\n";
        let parsed = parse(doc).unwrap();
        assert_eq!(
            parsed.as_array().unwrap()[0]
                .get("speedup")
                .unwrap()
                .as_f64(),
            Some(2.5)
        );
    }
}
