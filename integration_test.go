package cop_test

// Integration tests: scenarios that cross package boundaries — the alias
// pipeline from codec through LLC overflow, full-hierarchy soak runs,
// decode-safety fuzzing, and COP-ER region lifecycle.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"cop"
	"cop/internal/core"
	"cop/internal/memctrl"
	"cop/internal/workload"
)

func TestAliasFloodOverflowsLLCSet(t *testing.T) {
	// Force more incompressible aliases into one LLC set than it has
	// ways: the §3.1 overflow mechanism must retain every one, and none
	// may ever reach DRAM.
	ctrl := memctrl.New(memctrl.Config{Mode: memctrl.COP, LLCBytes: 16 * 1024, LLCWays: 4})
	aliases := makeCoreAliases(t, 10)

	sets := ctrl.LLC().Sets()
	stride := uint64(sets * cop.BlockBytes) // same set every stride
	for i, blk := range aliases {
		addr := uint64(i) * stride // all map to set 0
		if err := ctrl.Write(addr, blk); err != nil {
			t.Fatal(err)
		}
	}
	// Force eviction pressure on set 0 with ordinary compressible data.
	for i := 10; i < 30; i++ {
		b := make([]byte, cop.BlockBytes)
		binary.BigEndian.PutUint64(b, uint64(i))
		if err := ctrl.Write(uint64(i)*stride, b); err != nil {
			t.Fatal(err)
		}
	}
	// Every alias is still retrievable and never reached DRAM.
	for i, want := range aliases {
		addr := uint64(i) * stride
		if ctrl.InDRAM(addr) {
			t.Fatalf("alias %d leaked to DRAM", i)
		}
		got, err := ctrl.Read(addr)
		if err != nil {
			t.Fatalf("alias %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("alias %d corrupted", i)
		}
	}
	if ctrl.LLC().Telemetry().Spills == 0 {
		t.Fatal("expected set-overflow spills with 10 aliases in a 4-way set")
	}
}

// makeCoreAliases builds n distinct alias blocks using the internal codec
// (which knows the hash masks).
func makeCoreAliases(t *testing.T, n int) [][]byte {
	t.Helper()
	cfg := core.NewConfig4()
	codec := core.NewCodec(cfg)
	rng := rand.New(rand.NewSource(0xA11A5))
	var out [][]byte
	for len(out) < n {
		b := make([]byte, cop.BlockBytes)
		// Three segments that are valid code words post-hash: encode
		// data into code words, then XOR the segment hash back out by
		// encoding through the codec itself: Encode a compressible
		// block and steal its segments (they are hash-masked valid code
		// words by construction).
		donor := make([]byte, cop.BlockBytes)
		base := rng.Uint64() &^ 0xFFFFFF
		for i := 0; i < 8; i++ {
			binary.BigEndian.PutUint64(donor[8*i:], base|uint64(rng.Intn(1<<20)))
		}
		img, status := codec.Encode(donor)
		if status != core.StoredCompressed {
			continue
		}
		copy(b, img[:48]) // segments 0..2: valid code words after hashing
		rng.Read(b[48:])  // segment 3: random
		if codec.Classify(b) != core.RejectedAlias {
			continue // tail aliased as a 4th CW, or block compressible
		}
		out = append(out, b)
	}
	return out
}

func TestSoakAllModesWithFaults(t *testing.T) {
	// Interleave writes, reads, flushes, and fault injection across a
	// realistic working set; verify protected modes never corrupt data
	// silently when each injected fault is a correctable single flip.
	p := workload.MustGet("omnetpp")
	for _, mode := range []memctrl.Mode{memctrl.COP, memctrl.COPER, memctrl.ECCRegion, memctrl.ECCDIMM} {
		ctrl := memctrl.New(memctrl.Config{Mode: mode, LLCBytes: 32 * 1024, LLCWays: 8})
		rng := rand.New(rand.NewSource(77))
		ref := map[uint64][]byte{}
		version := map[uint64]uint32{}
		for step := 0; step < 3000; step++ {
			addr := uint64(rng.Intn(600)) * cop.BlockBytes
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // write
				version[addr]++
				data := p.Block(addr, version[addr])
				ref[addr] = data
				if err := ctrl.Write(addr, data); err != nil {
					t.Fatalf("%v: write: %v", mode, err)
				}
			case 4: // flush everything
				if err := ctrl.Flush(); err != nil {
					t.Fatalf("%v: flush: %v", mode, err)
				}
			case 5: // inject a single-bit fault if resident
				if ctrl.InDRAM(addr) && !ctrl.LLC().Contains(addr) {
					bit := rng.Intn(512)
					ctrl.InjectBitFlip(addr, bit)
					// Read it back immediately so faults never stack.
					want, ok := ref[addr]
					got, err := ctrl.Read(addr)
					if err != nil {
						t.Fatalf("%v: faulted read: %v", mode, err)
					}
					if ok && mode != memctrl.COP && !bytes.Equal(got, want) {
						t.Fatalf("%v: silent corruption at %#x", mode, addr)
					}
					if ok && mode == memctrl.COP && !bytes.Equal(got, want) {
						// COP leaves raw blocks exposed: documented.
						ref[addr] = got
					} else {
						// Correction happens on the read path, not in
						// DRAM (no scrubbing): revert the latent flip so
						// later injections stay single-bit.
						ctrl.InjectBitFlip(addr, bit)
					}
				}
			default: // read
				want, ok := ref[addr]
				got, err := ctrl.Read(addr)
				if err != nil {
					t.Fatalf("%v: read: %v", mode, err)
				}
				if ok && !bytes.Equal(got, want) {
					t.Fatalf("%v: data mismatch at %#x", mode, addr)
				}
			}
		}
	}
}

func TestDecodeSafetyFuzz(t *testing.T) {
	// Arbitrary DRAM images must never panic any decoder, and must
	// always return either an error or a 64-byte block.
	codec4 := cop.NewCodec(cop.Config4())
	codec8 := cop.NewCodec(cop.Config8())
	er := cop.NewERCodec(cop.Config4())
	ck := cop.NewChipkillCodec()
	ac := cop.NewAdaptiveCodec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := make([]byte, cop.BlockBytes)
		rng.Read(img)
		if b, _, err := codec4.Decode(img); err == nil && len(b) != cop.BlockBytes {
			return false
		}
		if b, _, err := codec8.Decode(img); err == nil && len(b) != cop.BlockBytes {
			return false
		}
		if b, _, err := er.Read(img); err == nil && len(b) != cop.BlockBytes {
			return false
		}
		if b, _, err := ck.Decode(img); err == nil && len(b) != cop.BlockBytes {
			return false
		}
		if b, _, _, err := ac.Decode(img); err == nil && len(b) != cop.BlockBytes {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCOPERRegionLifecycle(t *testing.T) {
	// Blocks oscillating between compressible and incompressible must
	// allocate, reuse, and free region entries without leaks.
	ctrl := memctrl.New(memctrl.Config{Mode: memctrl.COPER, LLCBytes: 16 * 1024, LLCWays: 4})
	rng := rand.New(rand.NewSource(5))
	const n = 64
	random := func() []byte {
		b := make([]byte, cop.BlockBytes)
		rng.Read(b)
		return b
	}
	compressible := func(i int) []byte {
		b := make([]byte, cop.BlockBytes)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	// Phase 1: all incompressible.
	for i := 0; i < n; i++ {
		if err := ctrl.Write(uint64(i)*cop.BlockBytes, random()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.Flush(); err != nil {
		t.Fatal(err)
	}
	allocated := ctrl.ER().Region().Telemetry().Live
	if allocated == 0 {
		t.Fatal("phase 1: no entries allocated")
	}
	// Phase 2: read (capturing pointers), rewrite compressible, flush:
	// entries must be freed.
	for i := 0; i < n; i++ {
		addr := uint64(i) * cop.BlockBytes
		if _, err := ctrl.Read(addr); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Write(addr, compressible(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.Flush(); err != nil {
		t.Fatal(err)
	}
	after := ctrl.ER().Region().Telemetry().Live
	if after >= allocated {
		t.Fatalf("entries not freed: %d -> %d", allocated, after)
	}
	// All data still correct.
	for i := 0; i < n; i++ {
		got, err := ctrl.Read(uint64(i) * cop.BlockBytes)
		if err != nil || !bytes.Equal(got, compressible(i)) {
			t.Fatalf("block %d: %v", i, err)
		}
	}
}

func TestExperimentDeterminism(t *testing.T) {
	opts := cop.ExperimentOptions{Samples: 800, AliasSamples: 1000, Epochs: 100}
	a, err := cop.RunExperiment("fig9", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cop.RunExperiment("fig9", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Fatal("experiment output is not deterministic")
	}
}
