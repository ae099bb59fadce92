//! Property tests for the TCP transport's wire codec: every frame the
//! transport can produce survives a `write_frame`/`read_frame` roundtrip
//! byte-exactly, and malformed inputs (truncations, oversized or impossible
//! length prefixes) are rejected instead of trusted.

use mttkrp_dist::transport::wire::{
    decode_operands, read_frame, read_header, read_payload, write_frame, write_parts, Frame,
    WireError, CTRL_BASE, MAX_PAYLOAD_WORDS,
};
use mttkrp_obs::TraceContext;
use proptest::prelude::*;
use std::io::Read;

/// Deterministic payload of `len` words derived from `seed` (cheaper than
/// sampling 4096 words per case, same coverage of bit patterns).
fn payload(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift64* — exercises sign, exponent, and mantissa bits.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state.wrapping_mul(0x2545F4914F6CDD1D))
        })
        .map(|w| if w.is_nan() { 0.5 } else { w })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_over_random_packets(
        from in 0usize..1024,
        comm_seed in 0u64..u64::MAX / 2,
        poison in any::<bool>(),
        len in 0usize..=4096,
        seed in 0u64..u64::MAX,
    ) {
        let comm_id = comm_seed % CTRL_BASE; // data ids stay out of the control range
        let frame = Frame {
            from: from as u32,
            comm_id,
            poison,
            payload: if poison { Vec::new() } else { payload(len, seed) },
            trace: None,
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        let mut rest = &bytes[..];
        let back = read_frame(&mut rest).expect("written frames must read back");
        prop_assert!(rest.is_empty(), "the frame is all of its bytes");
        // Byte-exact payloads (bit patterns, not float equality).
        prop_assert_eq!(back.from, frame.from);
        prop_assert_eq!(back.comm_id, frame.comm_id);
        prop_assert_eq!(back.poison, frame.poison);
        prop_assert_eq!(back.payload.len(), frame.payload.len());
        for (a, b) in back.payload.iter().zip(&frame.payload) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_truncation_is_rejected(
        len in 0usize..=64,
        seed in 0u64..u64::MAX,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = Frame::data(3, 42, payload(len, seed));
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        // Cut strictly inside the frame: the read must fail, never panic,
        // never return a frame.
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let err = read_frame(&mut &bytes[..cut]).expect_err("truncated frame accepted");
        prop_assert_eq!(err, WireError::Io(std::io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected(
        excess_words in 1usize..1024,
        junk in 0u8..255,
    ) {
        // A prefix promising more payload than the cap, followed by junk:
        // the decoder must refuse before allocating or reading it.
        let body = 13 + 8 * (MAX_PAYLOAD_WORDS + excess_words);
        let mut bytes = (body as u32).to_le_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(junk, 32));
        let err = read_frame(&mut &bytes[..]).expect_err("oversized frame accepted");
        prop_assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");
    }
}

/// The wire format written out longhand, one word at a time: what the
/// streaming writer's bytes are compared against, so the format is pinned by
/// something that shares no code with it.
fn reference_bytes(frame: &Frame) -> Vec<u8> {
    let fin = frame.comm_id == u64::MAX - 2;
    let trace = frame.trace.filter(|_| !fin);
    let flags = match (frame.poison, fin) {
        (true, _) => 1u8,
        (false, true) => 2,
        (false, false) => 0,
    } | if trace.is_some() { 4 } else { 0 };
    let mut words: Vec<u64> = trace.map_or(Vec::new(), |t| t.to_words().to_vec());
    words.extend(frame.payload.iter().map(|w| w.to_bits()));
    let mut out = ((13 + 8 * words.len()) as u32).to_le_bytes().to_vec();
    out.extend(frame.from.to_le_bytes());
    out.extend(frame.comm_id.to_le_bytes());
    out.push(flags);
    for word in words {
        out.extend(word.to_le_bytes());
    }
    out
}

/// A `Read` that returns between 1 and `k` bytes per call, the count drawn
/// from a seeded generator.
struct Trickle<'a> {
    bytes: &'a [u8],
    k: usize,
    state: u64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let n = buf.len().min(1 + (self.state % self.k as u64) as usize);
        self.bytes.read(&mut buf[..n])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The codec is one codec: whatever the frame (traced or not, poison,
    /// FIN, empty, a few chunks long) and however its payload is cut into
    /// parts, the streaming writer produces the reference bytes, and the
    /// streaming reader fed those bytes a trickle at a time produces what
    /// `read_frame` does on them whole.
    #[test]
    fn streamed_bytes_are_the_encoded_bytes_and_read_back_the_same(
        from in 0u32..1024,
        comm_seed in 0u64..u64::MAX / 2,
        kind in 0usize..8,
        traced in any::<bool>(),
        len_class in 0usize..4,
        len in 0usize..=2048,
        seed in 1u64..u64::MAX,
        cuts in prop::collection::vec(0.0f64..1.0, 0..=4),
        k in 1usize..20_000,
    ) {
        // Mostly data frames; empty, long (several chunks whatever the
        // chunk size is), poison and FIN each get their share.
        let len = match len_class { 0 => 0, 1 => len * 40, _ => len };
        let mut frame = match kind {
            0 => Frame::poison(from as usize),
            1 => Frame::fin(from as usize),
            _ => Frame::data(from as usize, comm_seed % CTRL_BASE, payload(len, seed)),
        };
        if traced {
            frame = frame.with_trace(Some(TraceContext {
                trace_hi: seed,
                trace_lo: !seed,
                proc: 7,
                parent_span: comm_seed,
            }));
        }
        let want = reference_bytes(&frame);
        let mut written = Vec::new();
        write_frame(&mut written, &frame).unwrap();
        prop_assert!(written == want, "write_frame differs from the reference");
        if !frame.poison && kind != 1 {
            let mut at: Vec<usize> =
                cuts.iter().map(|f| (f * frame.payload.len() as f64) as usize).collect();
            at.sort_unstable();
            let mut parts = Vec::new();
            let mut rest = &frame.payload[..];
            let mut taken = 0;
            for cut in at {
                let (part, later) = rest.split_at(cut - taken);
                parts.push(part);
                rest = later;
                taken = cut;
            }
            parts.push(rest);
            let mut streamed = Vec::new();
            let n = write_parts(&mut streamed, frame.from, frame.comm_id, frame.trace, &parts);
            prop_assert_eq!(n.unwrap(), want.len());
            prop_assert!(streamed == want, "{} part(s) differ from the reference", parts.len());
        }

        let decoded = read_frame(&mut &want[..]).expect("reference bytes must read back");
        let mut trickle = Trickle { bytes: &want, k, state: seed };
        let header = read_header(&mut trickle).unwrap();
        prop_assert_eq!(header.wire_bytes(), want.len());
        prop_assert_eq!(header.words, decoded.payload.len());
        let streamed = read_payload(&mut trickle, &header).unwrap();
        prop_assert!(trickle.bytes.is_empty());
        prop_assert_eq!(bits(&streamed.payload), bits(&decoded.payload));
        prop_assert_eq!(
            (streamed.from, streamed.comm_id, streamed.poison, streamed.trace),
            (decoded.from, decoded.comm_id, decoded.poison, decoded.trace)
        );
    }
}

fn bits(words: &[f64]) -> Vec<u64> {
    words.iter().map(|w| w.to_bits()).collect()
}

/// A `LAUNCH` payload is outside input to a rank child: a hostile shape must
/// come back as a typed error, not as an overflow or a constructor's panic.
#[test]
fn hostile_operand_heads_are_typed_errors() {
    let two_32 = (1u64 << 32) as f64;
    for (words, why) in [
        (
            vec![2.0, two_32, two_32, 0.0],
            "dims whose product overflows",
        ),
        (vec![2.0, 2.0, 2.0, 0.0, 1.0, 2.0, 3.0, 4.0], "zero rank"),
        (vec![2.0, 0.0, 2.0, 1.0, 1.0, 1.0], "zero dimension"),
        (
            vec![2.0, two_32, two_32, two_32],
            "factor sizes that overflow",
        ),
        (vec![1.0, 3.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "order 1"),
    ] {
        let err = decode_operands(&words).expect_err(why);
        assert!(matches!(err, WireError::Malformed(_)), "{why}: {err:?}");
    }
}
