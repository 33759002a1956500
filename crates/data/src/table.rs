//! Columnar tables: the unit of data the executor operates on.
//!
//! A [`Table`] is one contiguous chunk of rows. Serial execution runs each
//! operator over its whole input table; under a parallel runner the
//! executor copies fixed-size row ranges out ([`crate::chunk::chunk_ranges`],
//! default [`crate::chunk::DEFAULT_CHUNK_SIZE`] rows) as morsels. Every
//! morsel is itself a `Table`, so operators need no second code path.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder, ColumnData};
use crate::schema::SchemaRef;
use crate::value::Value;
use cv_common::{CvError, Result};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An immutable columnar table — one contiguous chunk of rows.
///
/// Each column's buffer sits behind an `Arc`, so cloning, slicing the full
/// range, or gathering the full identity are reference bumps; any proper
/// row range is copied. Under a parallel runner, streamable operators
/// process tables as sequences of fixed-size chunks (each chunk a `Table`
/// of its own) scheduled across worker threads, and reassemble them with
/// [`Table::from_chunks`].
#[derive(Clone, Debug)]
pub struct Table {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(CvError::internal(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(CvError::internal(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
            if c.dtype() != schema.field(i).dtype {
                return Err(CvError::internal(format!(
                    "column {i} is {}, schema says {}",
                    c.dtype(),
                    schema.field(i).dtype
                )));
            }
        }
        Ok(Table { schema, columns, rows })
    }

    /// Empty table with the given schema.
    pub fn empty(schema: SchemaRef) -> Table {
        let columns =
            schema.fields().iter().map(|f| ColumnBuilder::new(f.dtype).finish()).collect();
        Table { schema, columns, rows: 0 }
    }

    /// Build from row-major values (tests, data generators).
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Table> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.dtype, rows.len()))
            .collect();
        for (rix, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(CvError::exec(format!(
                    "row {rix} has {} values, schema expects {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        Table::new(schema, columns)
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One row as values (test/debug path).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows (test/debug path).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Keep rows where the selection mask is set. An all-true mask returns
    /// shared columns (reference bumps, no copy); otherwise the mask is
    /// turned into a gather list once and every column gathers through it.
    pub fn filter(&self, mask: &Bitmap) -> Result<Table> {
        if mask.len() != self.rows {
            return Err(CvError::internal("filter mask length mismatch"));
        }
        if mask.all_true() {
            return Ok(self.clone());
        }
        let indices = mask.ones();
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(&indices)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        // Identity-prefix gather (rows 0..k, in order) needs no per-row
        // gather at all: the full-table case shares the buffers outright
        // (the common case when an FK join matches each probe row exactly
        // once), and a proper prefix is a contiguous range copy. Under
        // chunked execution each chunk hits this independently, so one
        // out-of-order index in some *other* chunk no longer forces a full
        // gather of every column here.
        if indices.iter().enumerate().all(|(j, &i)| j == i) {
            if indices.len() == self.rows {
                return Ok(self.clone());
            }
            return Ok(self.slice(0, indices.len()));
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// Copy of the row range `[offset, offset + len)`. A full-range slice
    /// shares the buffers (reference bump, no copy).
    pub fn slice(&self, offset: usize, len: usize) -> Table {
        if offset == 0 && len == self.rows {
            return self.clone();
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.slice(offset, len)).collect();
        Table { schema: self.schema.clone(), columns, rows: len }
    }

    /// Canonicalize every column's validity representation (drop all-true
    /// bitmaps). Chunked pipelines normalize at operator boundaries so the
    /// output bytes do not depend on the chunk size that produced them.
    pub fn normalized(self) -> Table {
        let columns = self.columns.into_iter().map(Column::normalize_validity).collect();
        Table { schema: self.schema, columns, rows: self.rows }
    }

    /// Reassemble a pipeline-breaker input from a sequence of chunks (all
    /// sharing `schema`). The result is normalized, so it is byte-identical
    /// no matter how the row stream was chunked.
    pub fn from_chunks(schema: SchemaRef, chunks: &[Table]) -> Result<Table> {
        if chunks.is_empty() {
            return Ok(Table::empty(schema));
        }
        if chunks.len() == 1 {
            return Ok(chunks[0].clone().normalized());
        }
        let mut columns = Vec::with_capacity(schema.len());
        for ci in 0..schema.len() {
            let parts: Vec<Column> = chunks.iter().map(|t| t.columns[ci].clone()).collect();
            columns.push(Column::concat_many(&parts)?);
        }
        Table::new(schema, columns)
    }

    /// Project columns by index, producing the projected schema.
    pub fn project(&self, indices: &[usize]) -> Result<Table> {
        let schema = Arc::new(self.schema.project(indices));
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Table::new(schema, columns)
    }

    /// Concatenate vertically with another table of the same schema.
    pub fn concat(&self, other: &Table) -> Result<Table> {
        if self.schema.fields() != other.schema.fields() {
            return Err(CvError::exec(format!(
                "union schema mismatch: {} vs {}",
                self.schema, other.schema
            )));
        }
        let columns: Result<Vec<Column>> =
            self.columns.iter().zip(&other.columns).map(|(a, b)| a.concat(b)).collect();
        Table::new(self.schema.clone(), columns?)
    }

    /// Stable sort by the given column indices (ascending flags parallel).
    ///
    /// Comparisons read the typed buffers directly — no per-comparison
    /// boxing into [`Value`]. NULLs sort first ascending (mirroring
    /// `Value::total_cmp`, where Null is the smallest rank), floats use
    /// `f64::total_cmp` so NaN and signed zero order deterministically.
    pub fn sort_by(&self, keys: &[(usize, bool)]) -> Result<Table> {
        fn cmp_in_col(c: &Column, a: usize, b: usize) -> Ordering {
            match (c.is_null(a), c.is_null(b)) {
                (true, true) => return Ordering::Equal,
                (true, false) => return Ordering::Less,
                (false, true) => return Ordering::Greater,
                (false, false) => {}
            }
            match c.data() {
                ColumnData::Bool(v) => v[a].cmp(&v[b]),
                ColumnData::Int(v) => v[a].cmp(&v[b]),
                ColumnData::Float(v) => v[a].total_cmp(&v[b]),
                ColumnData::Str(v) => v[a].cmp(&v[b]),
                ColumnData::Date(v) => v[a].cmp(&v[b]),
            }
        }
        let key_cols: Vec<(&Column, bool)> =
            keys.iter().map(|&(ci, asc)| (&self.columns[ci], asc)).collect();
        let mut indices: Vec<usize> = (0..self.rows).collect();
        indices.sort_by(|&a, &b| {
            for &(col, asc) in &key_cols {
                let ord = cmp_in_col(col, a, b);
                let ord = if asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        self.take(&indices)
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Render the first `limit` rows as an ASCII table (examples/debugging).
    pub fn pretty(&self, limit: usize) -> String {
        let mut out = String::new();
        let names: Vec<String> = self.schema.fields().iter().map(|f| f.name.clone()).collect();
        let shown = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            cells.push(self.row(i).iter().map(|v| v.to_string()).collect());
        }
        let mut widths: Vec<usize> = names.iter().map(String::len).collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        if self.rows > shown {
            out.push_str(&format!("({} more rows)\n", self.rows - shown));
        }
        out
    }

    /// Canonical row multiset for order-insensitive result comparison in
    /// tests: rows rendered to strings and sorted.
    pub fn canonical_rows(&self) -> Vec<String> {
        let mut rows: Vec<String> = (0..self.rows)
            .map(|i| self.row(i).iter().map(Value::to_string).collect::<Vec<_>>().join("|"))
            .collect();
        rows.sort();
        rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn demo() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ])
        .unwrap()
        .into_ref();
        Table::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Str("a".into()), Value::Float(0.5)],
                vec![Value::Int(3), Value::Str("c".into()), Value::Null],
                vec![Value::Int(2), Value::Str("b".into()), Value::Float(1.5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_roundtrip() {
        let t = demo();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.row(1)[0], Value::Int(3));
        assert!(t.row(1)[2].is_null());
    }

    #[test]
    fn row_arity_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]).unwrap().into_ref();
        let err = Table::from_rows(schema, &[vec![Value::Int(1), Value::Int(2)]]).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn column_count_must_match_schema() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]).unwrap().into_ref();
        assert!(Table::new(schema, vec![]).is_err());
    }

    #[test]
    fn filter_take_project() {
        let t = demo();
        let f = t.filter(&Bitmap::from_bools(&[true, false, true])).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1)[1], Value::Str("b".into()));

        let tk = t.take(&[2, 2]).unwrap();
        assert_eq!(tk.num_rows(), 2);
        assert_eq!(tk.row(0)[0], Value::Int(2));

        let p = t.project(&[1]).unwrap();
        assert_eq!(p.schema().names(), vec!["name"]);
        assert_eq!(p.num_columns(), 1);
    }

    #[test]
    fn sort_ascending_and_descending() {
        let t = demo();
        let asc = t.sort_by(&[(0, true)]).unwrap();
        assert_eq!(
            asc.to_rows().iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        let desc = t.sort_by(&[(0, false)]).unwrap();
        assert_eq!(desc.row(0)[0], Value::Int(3));
    }

    #[test]
    fn sort_nulls_first() {
        let t = demo();
        let sorted = t.sort_by(&[(2, true)]).unwrap();
        assert!(sorted.row(0)[2].is_null());
    }

    #[test]
    fn concat_and_schema_mismatch() {
        let t = demo();
        let u = t.concat(&t).unwrap();
        assert_eq!(u.num_rows(), 6);
        let other =
            Table::empty(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref());
        assert!(t.concat(&other).is_err());
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(demo().schema().clone());
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.byte_size(), 0);
    }

    #[test]
    fn canonical_rows_order_insensitive() {
        let t = demo();
        let shuffled = t.take(&[2, 0, 1]).unwrap();
        assert_eq!(t.canonical_rows(), shuffled.canonical_rows());
    }

    #[test]
    fn pretty_prints_header_and_rows() {
        let s = demo().pretty(2);
        assert!(s.contains("id"));
        assert!(s.contains("'a'"));
        assert!(s.contains("(1 more rows)"));
    }
}
