//! Fixed-size row ranges for morsel-driven execution.
//!
//! A morsel is a row range of a [`crate::table::Table`]: the executor cuts
//! an operator's input with [`chunk_ranges`] when a parallel runner asks
//! for morsels, copies each range out with `Table::slice`, and reassembles
//! the outputs with `Table::from_chunks`.
//!
//! The layout contract: chunk `k` of a table with `rows` rows covers rows
//! `[k * chunk_size, min((k + 1) * chunk_size, rows))`. An empty table is
//! one empty chunk, so pipelines never special-case zero rows.

/// Default rows per chunk. 2048 rows keeps a chunk of typical width inside
/// the L2 cache while leaving enough work per morsel to amortize
/// scheduling. The work ledger charges morsel dispatch at this size
/// whatever the runner; the `kernels` microbench exposes it as
/// `--chunk-size`.
pub const DEFAULT_CHUNK_SIZE: usize = 2048;

/// Row ranges `(offset, len)` of each chunk of an `rows`-row table. An
/// empty table yields one empty range so every pipeline sees at least one
/// chunk (operators probe it for schema/dtype).
pub fn chunk_ranges(rows: usize, chunk_size: usize) -> Vec<(usize, usize)> {
    let chunk = chunk_size.max(1);
    if rows == 0 {
        return vec![(0, 0)];
    }
    (0..rows.div_ceil(chunk)).map(|k| (k * chunk, chunk.min(rows - k * chunk))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn table(n: usize) -> Table {
        let schema =
            Schema::new(vec![Field::new("id", DataType::Int), Field::new("name", DataType::Str)])
                .unwrap()
                .into_ref();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    if i % 7 == 3 { Value::Null } else { Value::Int(i as i64) },
                    Value::Str(format!("r{i}")),
                ]
            })
            .collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn ranges_cover_all_rows_including_odd_tail() {
        assert_eq!(chunk_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(chunk_ranges(8, 4), vec![(0, 4), (4, 4)]);
        assert_eq!(chunk_ranges(3, 100), vec![(0, 3)]);
    }

    /// Slice `t` along `chunk_ranges` — the executor's morsel split.
    fn split(t: &Table, chunk_size: usize) -> Vec<Table> {
        chunk_ranges(t.num_rows(), chunk_size).into_iter().map(|(o, l)| t.slice(o, l)).collect()
    }

    #[test]
    fn split_and_reassemble_is_byte_identical_at_any_chunk_size() {
        let t = table(100).normalized();
        for chunk_size in [1, 3, 7, 64, 100, 5000] {
            let chunks = split(&t, chunk_size);
            assert_eq!(chunks.iter().map(Table::num_rows).sum::<usize>(), 100);
            let back = Table::from_chunks(t.schema().clone(), &chunks).unwrap();
            assert_eq!(back.to_rows(), t.to_rows(), "chunk {chunk_size}");
            assert_eq!(back.byte_size(), t.byte_size(), "chunk {chunk_size}");
            for ci in 0..t.num_columns() {
                assert_eq!(
                    back.column(ci).validity(),
                    t.column(ci).validity(),
                    "chunk {chunk_size} col {ci}"
                );
            }
        }
    }

    #[test]
    fn single_chunk_split_is_zero_copy() {
        let t = table(10);
        let chunks = split(&t, DEFAULT_CHUNK_SIZE);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].column(0).ptr_eq(t.column(0)));
    }

    #[test]
    fn empty_table_is_one_empty_chunk() {
        let t = Table::empty(table(1).schema().clone());
        let chunks = split(&t, 4);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].num_rows(), 0);
        assert_eq!(Table::from_chunks(t.schema().clone(), &chunks).unwrap().num_rows(), 0);
    }

    #[test]
    fn fully_masked_filter_chunks_reassemble_empty() {
        let t = table(10);
        let filtered: Vec<Table> = split(&t, 4)
            .iter()
            .map(|c| c.filter(&Bitmap::all_clear(c.num_rows())).unwrap())
            .collect();
        let out = Table::from_chunks(t.schema().clone(), &filtered).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 2);
    }
}
