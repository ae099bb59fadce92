//! Sample and hostile payloads of a frame-table row, made from the row's
//! own field list. Included by the hostile-frame properties of the rank
//! fabric (`wire_props.rs`, the launcher's tests in `mttkrp-bench`) and of
//! the front door (`mttkrp-serve`'s `net_props.rs`).

#![allow(dead_code)]

use mttkrp_dist::transport::wire::{Row, MAX_PAYLOAD_WORDS};

/// A payload `row` reads — `dims` and the front door's `kept` are
/// `[2, 3]`, counts and integers 2, flags 1, text `"hostile!!"` — with the
/// offsets where its fields start and the offsets of its length words: a
/// field a later one is sized by, an order, a dimension, a rank, a byte
/// count. A reader with no sample here fails every property that asks.
fn layout(row: &Row) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    let (mut words, mut starts, mut lengths) = (Vec::new(), Vec::new(), Vec::new());
    let data = |n: usize| (0..n).map(|k| 0.25 * k as f64);
    for &(name, kind, _) in row.fields {
        starts.push(words.len());
        let sizes = row.fields.iter().any(|(_, _, args)| args.contains(&name));
        let mut length = |words: &mut Vec<f64>, n: &[usize]| {
            lengths.extend(words.len()..words.len() + n.len());
            words.extend(n.iter().map(|&n| n as f64));
        };
        match kind {
            "int" | "usize" | "count" if sizes => length(&mut words, &[2]),
            "int" | "usize" | "count" => words.push(2.0),
            "flag" => words.push(1.0),
            "word" | "finite" => words.push(0.5),
            "dims" => length(&mut words, &[2, 2, 3]),
            "text" => {
                length(&mut words, &[9]);
                words.extend([*b"hostile!", *b"!\0\0\0\0\0\0\0"].map(f64::from_le_bytes));
            }
            "operands" | "maybe_operands" => {
                words.extend((kind == "maybe_operands").then_some(1.0));
                length(&mut words, &[2, 2, 3, 2]);
                words.extend(data(6 + 10));
            }
            // tensor(dims), matrix(2, 2), vec(2), factors([2, 3], 2).
            "tensor" => words.extend(data(6)),
            "matrix" => words.extend(data(4)),
            "vec" | "words" => words.extend(data(2)),
            "factors" => words.extend(data(10)),
            "ints" => words.extend([7.0, 8.0]),
            other => panic!("no sample for a {other} field"),
        }
    }
    (words, starts, lengths)
}

/// A payload `row` reads (see [`hostile`]).
pub fn sample(row: &Row) -> Vec<f64> {
    layout(row).0
}

/// The hostile payloads of `row`: its [`sample`] cut at every field
/// boundary, and each length word set to 0, 1, the word limit and one past.
pub fn hostile(row: &Row) -> Vec<(String, Vec<f64>)> {
    let (words, starts, lengths) = layout(row);
    let cuts = starts
        .iter()
        .map(|&at| (format!("cut at word {at}"), words[..at].to_vec()));
    let lengths = lengths.iter().flat_map(|&at| {
        [0, 1, MAX_PAYLOAD_WORDS, MAX_PAYLOAD_WORDS + 1].map(|n| {
            let mut words = words.clone();
            words[at] = n as f64;
            (format!("word {at} = {n}"), words)
        })
    });
    cuts.chain(lengths).collect()
}
