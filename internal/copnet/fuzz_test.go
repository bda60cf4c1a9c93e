package copnet

// Fuzz coverage for both wire parsers and the server's stream loop. The
// request parser faces hostile bytes directly off the network (anything
// POSTed to /batch or written on a stream); the result parser faces
// whatever a server — possibly a newer or broken one — sends back. None
// may ever panic, and a frame the request parser accepts must re-encode
// byte-for-byte (the parsers and the append helpers are two halves of one
// contract).

import (
	"bytes"
	"net/http"
	"testing"
)

// tracedHeader builds a version-2 request header carrying traceID.
func tracedHeader(traceID uint64) []byte {
	return appendU64([]byte{wireMagic, wireVersionTraced}, traceID)
}

func FuzzWireFrame(f *testing.F) {
	block := make([]byte, BlockBytes)
	for i := range block {
		block[i] = byte(i * 7)
	}

	// One well-formed frame per op kind, plus a mixed window.
	f.Add(appendRead(frameHeader(), 0x40))
	f.Add(appendWrite(frameHeader(), 0x80, block))
	f.Add(appendReadRange(frameHeader(), 0, 256))
	f.Add(appendWriteRange(frameHeader(), 64, block[:32]))
	f.Add(appendFlush(frameHeader()))
	f.Add(appendAddrOp(frameHeader(), OpSettle, 1<<20))
	f.Add(appendAddrOp(frameHeader(), OpStoredKind, 0))
	f.Add(appendInjectBit(frameHeader(), 0xC0, 511))
	f.Add(appendInjectChip(frameHeader(), 0x100, 3, 0xFF))
	mixed := appendRead(frameHeader(), 0)
	mixed = appendWrite(mixed, 64, block)
	mixed = appendFlush(mixed)
	mixed = appendAddrOp(mixed, OpSettle, 64)
	f.Add(mixed)

	// Boundary and hostile shapes: empty, header only, bad magic, bad
	// version, unknown op, truncated fields, range over the cap, and a
	// result-stream prefix (ok status, error status, huge error length).
	f.Add([]byte{})
	f.Add([]byte{wireMagic})
	f.Add([]byte{wireMagic, wireVersion})
	f.Add([]byte{0x00, wireVersion, byte(OpRead)})
	f.Add([]byte{wireMagic, 0x7F, byte(OpRead)})
	f.Add([]byte{wireMagic, wireVersion, 0xEE})
	f.Add([]byte{wireMagic, wireVersion, byte(OpWrite), 1, 2, 3})
	f.Add(appendU32(appendU64(append(frameHeader(), byte(OpReadRange)), 0), maxRangeBytes+1))
	f.Add([]byte{wireMagic, wireVersion, statusOK, 0, 0, 0})
	f.Add([]byte{wireMagic, wireVersion, statusErr, 0xFF, 0xFF, 0xFF, 0xFF, 'x'})

	// Version-2 traced frames: well-formed, zero trace id, and a header
	// truncated inside the trace-id field.
	f.Add(appendRead(tracedHeader(0xDEADBEEFCAFE), 0x40))
	f.Add(appendWrite(tracedHeader(0), 0x80, block))
	f.Add([]byte{wireMagic, wireVersionTraced, 1, 2, 3})

	// Stream bodies: well-formed records, a zero length, a record cut
	// short, and a length prefix above the frame cap.
	f.Add(append(streamRecord(mixed), streamRecord(appendRead(frameHeader(), 0x40))...))
	f.Add(appendU32(nil, 0))
	f.Add(streamRecord(mixed)[:20])
	f.Add(appendU32(nil, maxFrameBytes+1))

	// The stream loop runs every input as a stream body against a store
	// that serves reads and writes.
	srv := NewServer()
	if _, err := srv.AddTenant("fuzz", &fixedStore{}); err != nil {
		f.Fatal(err)
	}
	w := newDiscardWriter()
	rc := http.NewResponseController(w)

	// Every kind a result stream is parsed against, cycled so arbitrary
	// input exercises each payload shape.
	kinds := []OpKind{
		OpRead, OpWrite, OpReadRange, OpWriteRange, OpFlush,
		OpSettle, OpStoredKind, OpInjectBit, OpInjectChip,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Request side: must not panic, and an accepted frame must
		// re-encode to exactly the bytes that produced it (matching the
		// version the frame arrived as).
		ops, traceID, err := decodeRequestInto(nil, data)
		if err == nil {
			enc := frameHeader()
			if data[1] == wireVersionTraced {
				enc = tracedHeader(traceID)
			}
			for i := range ops {
				op := &ops[i]
				switch op.kind {
				case OpRead:
					enc = appendRead(enc, op.addr)
				case OpWrite:
					enc = appendWrite(enc, op.addr, op.data)
				case OpReadRange:
					enc = appendReadRange(enc, op.addr, op.n)
				case OpWriteRange:
					enc = appendWriteRange(enc, op.addr, op.data)
				case OpFlush:
					enc = appendFlush(enc)
				case OpSettle, OpStoredKind:
					enc = appendAddrOp(enc, op.kind, op.addr)
				case OpInjectBit:
					enc = appendInjectBit(enc, op.addr, op.arg)
				case OpInjectChip:
					enc = appendInjectChip(enc, op.addr, op.arg, op.pat)
				default:
					t.Fatalf("decoded unknown kind %v", op.kind)
				}
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("re-encode mismatch: decoded %d ops from %d bytes, re-encoded %d bytes", len(ops), len(data), len(enc))
			}
		}

		// Stream side: the loop must answer or refuse every record and
		// stop at the input's end.
		srv.serveStream("fuzz", &frameScratch{}, bytes.NewReader(data), w, rc)

		// Response side: parse the same bytes as a result stream against
		// every op kind in turn. Errors are expected on arbitrary input;
		// panics and non-terminating parses are not.
		if rest, err := checkHeader(data); err == nil {
			for i := 0; len(rest) > 0; i++ {
				var res opResult
				res, rest, err = decodeResult(rest, kinds[i%len(kinds)])
				if err != nil {
					break
				}
				_ = res
			}
		}
	})
}
