package copnet

// Allocation guards for the wire datapath: once warmed, the client frame
// encode, the server request decode + execute, the server's stream loop
// and the client response parse must not touch the heap. These are the per-request layers around
// the already-guarded codec/memctrl paths (TestCodecZeroAlloc), so a
// regression here reintroduces GC pressure on every network request even
// when the memory hierarchy underneath stays clean. The budget is pinned
// at exactly zero.

import (
	"bytes"
	"math/rand"
	"net/http"
	"testing"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
)

// fixedStore is a minimal synchronous Store whose operations touch no
// heap, isolating the frame path's own allocation behavior.
type fixedStore struct {
	block [BlockBytes]byte
}

func (f *fixedStore) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	copy(dst, f.block[:])
	return memctrl.ReadInfo{LLCHit: true}, nil
}

func (f *fixedStore) Write(addr uint64, data []byte) error { copy(f.block[:], data); return nil }
func (f *fixedStore) Flush() error                         { return nil }
func (f *fixedStore) Snapshot() telemetry.Snapshot         { return telemetry.Snapshot{} }

func TestWireZeroAlloc(t *testing.T) {
	const window = 64

	rng := rand.New(rand.NewSource(11))
	block := make([]byte, BlockBytes)
	rng.Read(block)

	// Client encode: refill a reused Batch. Reset keeps the frame buffer
	// and kind table capacity, so a warmed fill is append-into-capacity.
	batch := &Batch{}
	batch.Reset()
	fill := func() {
		batch.Reset()
		for i := 0; i < window; i++ {
			if i%3 == 0 {
				batch.Write(uint64(i)*BlockBytes, block)
			} else {
				batch.Read(uint64(i) * BlockBytes)
			}
		}
	}
	fill()

	// Server decode: parse the request frame into a reused op table.
	sc := &frameScratch{}
	var decodeErr error
	decode := func() { sc.ops, sc.traceID, decodeErr = decodeRequestInto(sc.ops[:0], batch.buf[streamPrefix:]) }
	decode()
	if decodeErr != nil {
		t.Fatalf("setup: decode: %v", decodeErr)
	}

	// Server execute: run the frame against a store through the shared
	// scratch — results, payload arena, and response buffer all reused.
	tenant := &Tenant{name: "alloc", store: &fixedStore{}}
	var resp []byte
	exec := func() { resp = tenant.execBatch(sc) }
	exec()

	// Client parse: decode the response frame into a reused result table
	// (payloads alias the response buffer; nothing is copied).
	var results []Result
	var parseErr error
	parse := func() { results, parseErr = parseResults(resp, batch.kinds, results[:0]) }
	parse()
	if parseErr != nil {
		t.Fatalf("setup: parse: %v", parseErr)
	}
	if len(results) != window {
		t.Fatalf("setup: parsed %d results, want %d", len(results), window)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("setup: op %d failed: %v", i, r.Err)
		}
	}

	// Server stream loop: four length-prefixed frames through serveStream
	// — prefix and body reads, admission, execution, the record write and
	// its flush — on one held scratch, as an open stream runs them.
	srv := NewServer()
	if _, err := srv.AddTenant("alloc", tenant.store); err != nil {
		t.Fatal(err)
	}
	records := bytes.Repeat(streamRecord(batch.buf[streamPrefix:]), 4)
	rd := bytes.NewReader(records)
	w := newDiscardWriter()
	rc := http.NewResponseController(w)
	streamSC := &frameScratch{}
	stream := func() {
		rd.Reset(records)
		srv.serveStream("alloc", streamSC, rd, w, rc)
	}
	stream()
	if frames := srv.net.Snapshot().Frames; frames != 4 {
		t.Fatalf("setup: stream loop served %d frames, want 4", frames)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Batch/fill", fill},
		{"decodeRequestInto", decode},
		{"execBatch", exec},
		{"parseResults", parse},
		{"serveStream", stream},
	}
	for _, c := range cases {
		c.fn() // warm every lazily-grown buffer before measuring
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
	if decodeErr != nil || parseErr != nil {
		t.Fatalf("measured runs failed: decode=%v parse=%v", decodeErr, parseErr)
	}
}
