//! The binary wire format of the TCP transport and of the serving front
//! door: one framing, and one table per protocol for what rides on it.
//!
//! A frame is length-prefixed so a reader can never misparse a stream
//! position, and carries exactly what a transport packet carries:
//!
//! ```text
//! ┌────────────┬───────────┬──────────────┬───────────┬──────────────────┐
//! │ len: u32   │ from: u32 │ comm_id: u64 │ flags: u8 │ payload: n × f64 │
//! │ (LE, bytes │ (sender   │ (netsim Comm │ 0 = data  │ (LE words)       │
//! │ after the  │ world     │ id, or a     │ 1 = poison│                  │
//! │ prefix)    │ rank)     │ control id)  │ 2 = fin   │                  │
//! │            │           │              │ 4 = traced│                  │
//! └────────────┴───────────┴──────────────┴───────────┴──────────────────┘
//! ```
//!
//! `len` must equal `13 + 8n` for some `n <= MAX_PAYLOAD_WORDS`; anything
//! else is rejected ([`WireError::Oversized`] / [`WireError::BadLength`])
//! rather than trusted — a garbled length prefix must not make a reader
//! allocate gigabytes or read off the rails — and a stream that ends inside
//! a frame is a [`WireError::Io`] error, never a frame.
//!
//! A **traced** frame (flags = 4) is a data frame whose first four payload
//! words are a [`TraceContext`](mttkrp_obs::TraceContext) header —
//! `trace_hi`, `trace_lo`, `proc`, `parent_span`, each a `u64` bit-cast
//! into the word lanes. [`read_header`] strips the header into
//! [`FrameHeader::trace`]; untraced frames read back with `trace = None`.
//! This is how a client's root span becomes the parent of the server's
//! tree, and the launcher's span the parent of every rank's.
//!
//! **The tables.** Control frames carry reserved ids from the top of the id
//! space ([`CTRL_BASE`] and above), which the FNV-hashed netsim
//! communicator ids never use in practice. What each id means is one row of
//! a table: [`Door`] for the serving front door, [`Fabric`] for the rank
//! fabric's rendezvous, goodbyes and launcher reports. A row names the
//! kind, its id, its direction and its payload as typed fields, and the
//! table's one writer ([`Door::write`]) and one reader ([`Door::read`])
//! serve every row — the `&Frame` forms ([`Door::frame`], [`Door::decode`])
//! are the same two over a slice. Ids, retired ids, the docs' frame tables
//! and the hostile-frame properties all come from the rows ([`Door::ROWS`]).
//!
//! **One codec, and it streams.** Every frame is written by one writer and
//! read by one header parser and one word reader, which move words between
//! the stream and their final home through a small per-thread chunk buffer:
//! no frame-sized byte buffer exists on either side, a frame that fits the
//! chunk leaves in one `write`, and a request's head is checked before its
//! operands are read directly into the buffers that own them. Nothing on
//! the decode path can panic: the modules that hold it deny indexing,
//! unchecked arithmetic, `unwrap` and `expect`.
//!
//! ```
//! use mttkrp_dist::transport::wire::{read_frame, write_frame, Dir, Door, Frame};
//!
//! let frame = Frame::data(3, 42, vec![1.0, 2.0]);
//! let mut bytes = Vec::new();
//! write_frame(&mut bytes, &frame).unwrap();
//! assert_eq!(read_frame(&mut &bytes[..]).unwrap(), frame);
//!
//! let retry = Door::RetryAfter { ms: 50 };
//! assert_eq!(Door::decode(&retry.frame(7), Dir::Answer, &[]).unwrap(), retry);
//! ```

mod codec;
mod table;

pub use codec::{
    frame_wire_bytes, read_frame, read_header, read_payload, write_frame, write_parts, Frame,
    FrameHeader, Operands, Shipment, Slots, WireError, CTRL_BASE, MAX_PAYLOAD_WORDS,
};
pub use table::{Dir, Door, Fabric, Row, DATA};

#[cfg(test)]
mod tests {
    use super::codec::{CHUNK_BYTES, HEADER_BODY_BYTES, TRACE_HEADER_WORDS};
    use super::*;
    use mttkrp_obs::TraceContext;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};
    use std::borrow::Cow;
    use std::io::{ErrorKind::UnexpectedEof, Read, Write};

    /// A frame's bytes, as [`write_frame`] puts them on a stream.
    fn to_bytes(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, frame).unwrap();
        out
    }

    /// The one frame `bytes` hold, read as a connection reads it; bytes
    /// left behind it fail the test.
    fn read_one(mut bytes: &[u8]) -> Result<Frame, WireError> {
        let frame = read_frame(&mut bytes)?;
        assert!(bytes.is_empty(), "{} bytes after the frame", bytes.len());
        Ok(frame)
    }

    /// Writes `frame`, reads it back and checks its size on the wire.
    fn roundtrips(frame: &Frame) {
        let bytes = to_bytes(frame);
        assert_eq!(&read_one(&bytes).unwrap(), frame);
        assert_eq!(frame_wire_bytes(frame), bytes.len(), "{frame:?}");
    }

    const CTX: TraceContext = TraceContext {
        trace_hi: 0xDEAD_BEEF_0102_0304,
        trace_lo: u64::MAX,
        proc: 1,
        parent_span: 42,
    };

    #[test]
    fn roundtrip_data_poison_fin() {
        let frames = [
            Frame::data(7, 9, vec![1.5, -2.25]),
            Frame::poison(2),
            Frame::fin(5),
        ];
        frames.iter().for_each(roundtrips);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = to_bytes(&Frame::data(1, 9, vec![3.0, 4.0]));
        for cut in 0..bytes.len() {
            let err = read_one(&bytes[..cut]).unwrap_err();
            assert_eq!(err, WireError::Io(UnexpectedEof), "cut at {cut}");
        }
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let frames = [
            Frame::data(0, 11, vec![1.0]),
            Frame::data(1, 12, vec![]),
            Frame::fin(0),
        ];
        let bytes: Vec<u8> = frames.iter().flat_map(to_bytes).collect();
        let mut r = &bytes[..];
        for frame in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), frame);
        }
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            WireError::Io(UnexpectedEof)
        );
    }

    #[test]
    fn oversized_and_impossible_lengths_are_rejected() {
        let len = |body: usize| (body as u32).to_le_bytes();
        let huge = [
            &len(HEADER_BODY_BYTES + 8 * (MAX_PAYLOAD_WORDS + 1))[..],
            &[0; 64],
        ]
        .concat();
        let err = read_one(&huge).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");
        // Too short for the fixed header; a fractional payload word.
        for body in [5, HEADER_BODY_BYTES + 3] {
            assert_eq!(
                read_one(&len(body)).unwrap_err(),
                WireError::BadLength(body as u32)
            );
        }
    }

    #[test]
    fn bad_flags_are_rejected() {
        let mut bytes = to_bytes(&Frame::data(1, 9, vec![]));
        *bytes.last_mut().unwrap() = 9; // flags byte of an empty-payload frame
        assert_eq!(read_one(&bytes).unwrap_err(), WireError::BadFlags(9));
    }

    /// A `LEDGER`'s words are validated integers: a NaN, negative or
    /// fractional count is refused, not cast.
    #[test]
    fn ledger_words_roundtrip() {
        let phases = Cow::Owned(vec![0, 0, 10, 12, 3, 1, 2, 7, 7, 1]);
        let frame = Fabric::Ledger { phases }.frame(4);
        assert_eq!(Fabric::decode(&frame, Dir::Ask).unwrap().frame(4), frame);
        for bad in [f64::NAN, -1.0, 2.5, f64::INFINITY] {
            let mut frame = frame.clone();
            frame.payload[2] = bad;
            assert!(Fabric::decode(&frame, Dir::Ask).is_err(), "{bad}");
        }
    }

    #[test]
    fn text_words_roundtrip() {
        let text = |words: Vec<f64>| match Door::decode(
            &Frame::data(1, Door::ERROR, words),
            Dir::Answer,
            &[],
        )? {
            Door::Error { message } => Ok::<_, WireError>(message.into_owned()),
            other => panic!("{other:?}"),
        };
        for message in [
            "",
            "x",
            "exactly8",
            "a typed error, über-long ⚠",
            "nine.bytes",
        ] {
            let error = Door::Error {
                message: Cow::Borrowed(message),
            };
            assert_eq!(text(error.frame(1).payload).unwrap(), message);
        }
        // Header/word-count disagreements are rejected, not trusted.
        for words in [
            vec![],
            vec![3.0],
            vec![9.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![-1.0, 0.0],
        ] {
            assert!(text(words.clone()).is_err(), "{words:?}");
        }
        for len in [0.5, f64::NAN] {
            assert!(text(vec![len, 0.0]).is_err(), "{len}");
        }
        // Invalid UTF-8 decodes lossily rather than erroring.
        let bytes = f64::from_le_bytes([0xFF, 0xFE, 0, 0, 0, 0, 0, 0]);
        assert_eq!(text(vec![2.0, bytes]).unwrap(), "\u{FFFD}\u{FFFD}");
    }

    /// Every id of both tables sits in the reserved space, no two rows of a
    /// table read the same id in the same direction, no row takes a retired
    /// id, and the two tables share only `HELLO` and `FIN`.
    #[test]
    fn serve_ctrl_ids_stay_in_the_reserved_space() {
        let retired = || Door::RETIRED.iter().chain(Fabric::RETIRED);
        for rows in [Door::ROWS, Fabric::ROWS] {
            for (i, a) in rows.iter().enumerate() {
                assert!(a.id >= CTRL_BASE, "{} escapes the control-id space", a.name);
                for b in &rows[i + 1..] {
                    let apart = a.dir != b.dir && a.dir != Dir::Both && b.dir != Dir::Both;
                    assert!(
                        a.id != b.id || apart,
                        "{} and {} share an id",
                        a.name,
                        b.name
                    );
                }
                for (id, what) in retired() {
                    assert_ne!(a.id, *id, "{} reuses the id of {what}", a.name);
                }
            }
        }
        for door in Door::ROWS {
            for fabric in Fabric::ROWS {
                let shared = ["HELLO", "FIN"].contains(&door.name) && door.name == fabric.name;
                let (d, f) = (door.name, fabric.name);
                assert!(door.id != fabric.id || shared, "{d} and {f} share an id");
            }
        }
    }

    #[test]
    fn traced_frames_roundtrip_bit_exactly() {
        [
            Frame::data(3, 7, vec![1.5, -2.0]).with_trace(Some(CTX)),
            Frame::data(0, Door::STATS, Vec::new()).with_trace(Some(CTX)),
            Frame::poison(1).with_trace(Some(CTX)),
        ]
        .iter()
        .for_each(roundtrips);
        // A FIN never carries a header (its flags byte says FIN, not TRACED).
        let fin = Frame::fin(0).with_trace(Some(CTX));
        assert_eq!(read_one(&to_bytes(&fin)).unwrap().trace, None);
        // The table's writer attaches it too.
        let mut buf = Vec::new();
        Door::Cancel {}.write(&mut buf, 2, Some(CTX)).unwrap();
        assert_eq!(read_one(&buf).unwrap().trace, Some(CTX));
    }

    #[test]
    fn traced_frame_too_short_for_header_is_rejected() {
        // A traced frame whose length admits fewer than TRACE_HEADER_WORDS
        // payload words cannot hold the context.
        for words in 0..TRACE_HEADER_WORDS {
            let mut bytes = to_bytes(&Frame::data(0, 7, vec![0.0; words]));
            bytes[16] = 4; // FLAG_TRACED
            let err = read_one(&bytes).unwrap_err();
            assert!(
                matches!(err, WireError::BadLength(_)),
                "{words} payload words"
            );
        }
    }

    /// A `LAUNCH` shipping a `dims` tensor and rank-`rank` factors.
    fn launch(dims: [usize; 3], rank: usize) -> Frame {
        let data = (0..dims.iter().product()).map(|i| i as f64 * 0.5 - 3.0);
        let x = DenseTensor::from_vec(Shape::new(&dims), data.collect());
        let factor =
            |d: usize| Matrix::from_rows_vec(d, rank, (0..d * rank).map(|i| i as f64).collect());
        let factors = dims.map(factor);
        let ops = Shipment {
            x: Cow::Borrowed(&x),
            factors: factors.iter().map(Cow::Borrowed).collect(),
        };
        Fabric::Launch { ops: Some(ops) }.frame(0)
    }

    #[test]
    fn operands_roundtrip_and_reject_bad_lengths() {
        let frame = launch([3, 4, 2], 2);
        let read = |words: &[f64]| {
            Fabric::decode(&Frame::data(0, Fabric::LAUNCH, words.to_vec()), Dir::Answer)
        };
        let words = &frame.payload;
        assert_eq!(read(words).unwrap().frame(0), frame);
        assert!(read(&words[..words.len() - 1]).is_err(), "one word short");
        assert!(
            read(&[&words[..], &[0.0]].concat()).is_err(),
            "one word over"
        );
        assert_eq!(read(&[0.0]).unwrap(), Fabric::Launch { ops: None });
        for words in [&[][..], &[1.0, f64::NAN], &[1.0, 2.5, 1.0, 1.0]] {
            assert!(read(words).is_err(), "{words:?}");
        }
    }

    /// A `CHUNK`'s range is read with the validated integer reader: a
    /// reversed range still decodes (the launcher checks it against the
    /// plan), but a NaN, negative or fractional bound does not.
    #[test]
    fn chunk_words_roundtrip() {
        let data = Cow::Owned(vec![5.0, 6.0]);
        let chunk = Fabric::Chunk {
            block: true,
            r0: 0,
            r1: 1,
            c0: 2,
            c1: 4,
            data,
        };
        assert_eq!(Fabric::decode(&chunk.frame(1), Dir::Ask).unwrap(), chunk);
        let read = |words| Fabric::decode(&Frame::data(1, Fabric::CHUNK, words), Dir::Ask);
        assert!(
            read(vec![0.0, 5.0, 2.0, 0.0, 0.0]).is_ok(),
            "a reversed range"
        );
        assert!(
            read(vec![7.0, 0.0, 0.0, 0.0, 0.0]).is_err(),
            "an unknown tag"
        );
        for bad in [f64::NAN, -1.0, 0.5] {
            assert!(read(vec![0.0, bad, 2.0, 0.0, 0.0]).is_err(), "{bad}");
        }
    }

    /// A `Write` that records the size of every `write` call it is given.
    #[derive(Default)]
    struct WriteLog(Vec<u8>, Vec<usize>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            self.1.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that hands out at most `step` bytes per call.
    struct Drip<'a>(&'a [u8], usize);

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1);
            self.0.read(&mut buf[..n])
        }
    }

    /// Payload sizes that put the frame one word under, exactly at and one
    /// word over the chunk buffer, the same around two chunks, and a few
    /// chunks more — with and without a trace header in front.
    fn frames_around_the_chunk() -> Vec<Frame> {
        let mut frames = Vec::new();
        for (trace, header) in [(None, 0), (Some(CTX), TRACE_HEADER_WORDS)] {
            let fit = (CHUNK_BYTES - 4 - HEADER_BODY_BYTES) / 8 - header;
            let over = fit + CHUNK_BYTES / 8;
            for words in [
                0,
                1,
                fit - 1,
                fit,
                fit + 1,
                over - 1,
                over,
                over + 1,
                3 * over,
            ] {
                let payload = (0..words).map(|i| i as f64 * 0.5 - 7.0).collect();
                frames.push(Frame::data(3, 77, payload).with_trace(trace));
            }
        }
        frames
    }

    #[test]
    fn a_frame_that_fits_the_chunk_leaves_in_one_write() {
        let mut small = vec![Frame::poison(1), Frame::fin(2), Door::Cancel {}.frame(0)];
        small.extend(frames_around_the_chunk());
        for frame in small {
            let mut log = WriteLog::default();
            write_frame(&mut log, &frame).unwrap();
            let (total, writes) = (frame_wire_bytes(&frame), &log.1);
            assert_eq!(log.0.len(), total);
            if total <= CHUNK_BYTES {
                assert_eq!(writes[..], [total], "{} payload words", frame.payload.len());
            } else {
                // Header and first payload words together, never a bare
                // 17-byte write; every write bounded by the chunk.
                assert!(writes[0] > CHUNK_BYTES - 8, "{writes:?}");
                assert!(writes.iter().all(|&n| n <= CHUNK_BYTES));
            }
        }
    }

    #[test]
    fn split_parts_and_dripped_reads_agree_with_encode_at_chunk_boundaries() {
        for frame in frames_around_the_chunk() {
            let bytes = to_bytes(&frame);
            assert_eq!(bytes.len(), frame_wire_bytes(&frame));
            // The writer: the same bytes however the payload is cut.
            let words = &frame.payload[..];
            for cut in [0, 1, words.len() / 3, words.len().saturating_sub(1)] {
                let (head, tail) = words.split_at(cut.min(words.len()));
                let mut out = Vec::new();
                let n = write_parts(&mut out, 3, 77, frame.trace, &[head, &[], tail]);
                assert_eq!(n.unwrap(), bytes.len());
                assert!(out == bytes, "{} words cut at {cut}", words.len());
            }
            // The reader: the same frame however the bytes trickle in.
            for step in [7, 4096, CHUNK_BYTES + 1] {
                let mut drip = Drip(&bytes, step);
                let header = read_header(&mut drip).unwrap();
                assert_eq!(header.wire_bytes(), bytes.len());
                assert_eq!(read_payload(&mut drip, &header).unwrap(), frame);
                assert!(drip.0.is_empty());
            }
        }
    }

    #[test]
    fn a_refused_stream_payload_is_drained_to_the_next_frame() {
        // An operand payload one word longer than its shape needs — several
        // chunks of it — then a sound frame behind it on the same stream.
        let mut frame = launch([40, 30, 20], 1);
        frame.payload.push(0.0);
        let stream = [to_bytes(&frame), to_bytes(&Frame::fin(2))].concat();
        let mut r = &stream[..];
        let err = Fabric::next(&mut r, Dir::Answer).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        assert_eq!(Fabric::next(&mut r, Dir::Both).unwrap().1, Fabric::Fin {});
    }
}
