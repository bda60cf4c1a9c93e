package memctrl

import (
	"encoding/binary"
	"testing"

	"cop/internal/trace"
)

// TestZeroAllocHotPaths pins the steady-state read/write path at zero
// allocations per op — COP hits and COP-ER fills and writebacks of
// compressible blocks, both with no tracer and with a tracer attached but
// disabled, the configuration every non-debugging run uses. The sharded
// throughput benchmark guards the same property in wall-clock terms
// (BenchmarkShardedThroughput/sharded-8g-traceoff); this test fails fast
// and precisely when someone reintroduces an allocation.
func TestZeroAllocHotPaths(t *testing.T) {
	cases := []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"no-tracer", nil},
		{"tracer-attached-disabled", trace.New(trace.Config{})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Mode: COP, LLCBytes: 64 * 1024, LLCWays: 8, Tracer: tc.tracer})
			data := make([]byte, BlockBytes)
			for w := 0; w < 8; w++ {
				binary.BigEndian.PutUint64(data[8*w:], 0x00007F00_00000000|uint64(w))
			}
			// Make the working set LLC-resident so the measured ops are
			// the hit paths (misses legitimately allocate the fill buffer).
			const resident = 16
			for i := 0; i < resident; i++ {
				if err := c.Write(uint64(i)*BlockBytes, data); err != nil {
					t.Fatal(err)
				}
			}
			dst := make([]byte, BlockBytes)
			i := 0
			if n := testing.AllocsPerRun(200, func() {
				addr := uint64(i%resident) * BlockBytes
				if err := c.Write(addr, data); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ReadInto(dst, addr); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != 0 {
				t.Fatalf("read/write hit path allocates %.1f allocs/op, want 0", n)
			}

			// Multi-block range ops over resident blocks: the per-call
			// scratch is stack-allocated, so ReadBytesInto and WriteBytes
			// (including the RMW at both unaligned ends) stay at zero.
			span := make([]byte, 3*BlockBytes)
			i = 0
			if n := testing.AllocsPerRun(200, func() {
				addr := uint64(i%4)*BlockBytes + 7 // unaligned, crosses blocks
				if err := c.WriteBytes(addr, span[:2*BlockBytes+11]); err != nil {
					t.Fatal(err)
				}
				if err := c.ReadBytesInto(span, addr); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != 0 {
				t.Fatalf("range-op hit path allocates %.1f allocs/op, want 0", n)
			}

			// COP-ER misses over compressible blocks: a footprint of four
			// LLCs walked in order misses on every op, so each read fills
			// (decoding into a recycled line buffer) and the evictions
			// write dirty lines back (encoding into the block's existing
			// image).
			er := New(Config{Mode: COPER, LLCBytes: 64 * 1024, LLCWays: 8, Tracer: tc.tracer})
			const footprint = 4 * 1024
			step := func(i int) {
				if err := er.Write(uint64(i%footprint)*BlockBytes, data); err != nil {
					t.Fatal(err)
				}
				if _, err := er.ReadInto(dst, uint64((i+footprint/2)%footprint)*BlockBytes); err != nil {
					t.Fatal(err)
				}
			}
			for i = 0; i < 2*footprint; i++ {
				step(i) // every image exists and the free list is warm
			}
			before := er.Snapshot().Controller
			if n := testing.AllocsPerRun(200, func() { step(i); i++ }); n != 0 {
				t.Fatalf("cop-er fill/writeback path allocates %.1f allocs/op, want 0", n)
			}
			after := er.Snapshot().Controller
			if fills, wbs := after.Fills-before.Fills, after.Writebacks-before.Writebacks; fills < 200 || wbs < 200 {
				t.Fatalf("measured loop did %d fills and %d writebacks, want >= 200 each", fills, wbs)
			}
			if after.StoredCompressed == before.StoredCompressed {
				t.Fatal("measured writebacks stored nothing compressed")
			}
		})
	}
}
