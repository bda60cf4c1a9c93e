package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cop/internal/bitio"
	"cop/internal/eccregion"
)

func TestERWriteReadCompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	er := NewERCodec(NewConfig4())
	for trial := 0; trial < 50; trial++ {
		b := pointerBlock(rng)
		image, ptr, compressed, err := er.Write(b, NoPointer)
		if err != nil {
			t.Fatal(err)
		}
		if !compressed || ptr != NoPointer {
			t.Fatalf("compressible block: compressed=%v ptr=%d", compressed, ptr)
		}
		got, info, err := er.Read(image)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Compressed || info.RegionAccess {
			t.Fatalf("info = %+v", info)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("round trip mismatch")
		}
	}
	if er.Region().Telemetry().Live != 0 {
		t.Fatal("compressible blocks must not allocate entries")
	}
}

func TestERWriteReadIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	er := NewERCodec(NewConfig4())
	for trial := 0; trial < 50; trial++ {
		b := incompressibleBlock(rng, er.Codec())
		image, ptr, compressed, err := er.Write(b, NoPointer)
		if err != nil {
			t.Fatal(err)
		}
		if compressed || ptr == NoPointer {
			t.Fatalf("incompressible block: compressed=%v ptr=%d", compressed, ptr)
		}
		if bytes.Equal(image, b) {
			t.Fatal("image should differ from plaintext (pointer deposited)")
		}
		got, info, err := er.Read(image)
		if err != nil {
			t.Fatal(err)
		}
		if info.Compressed || !info.RegionAccess {
			t.Fatalf("info = %+v", info)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("incompressible round trip mismatch")
		}
	}
}

func TestERSingleBitErrorAnywhereIncompressible(t *testing.T) {
	// COP-ER's promise: all single-bit errors corrected, including in the
	// pointer bits and the non-displaced data of incompressible blocks.
	rng := rand.New(rand.NewSource(3))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	image, _, _, err := er.Write(b, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*BlockBytes; bit++ {
		corrupted := append([]byte(nil), image...)
		bitio.FlipBit(corrupted, bit)
		if er.Codec().CountValidCodewords(corrupted) >= er.Codec().Config().Threshold {
			// The flip manufactured an alias; detection is impossible by
			// design (§3.1 corner) — skip, it is astronomically rare.
			continue
		}
		got, info, rerr := er.Read(corrupted)
		if rerr != nil {
			t.Fatalf("bit %d: %v (info %+v)", bit, rerr, info)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("bit %d: corruption after correction", bit)
		}
		if !info.CorrectedBlock && !info.CorrectedPointer {
			t.Fatalf("bit %d: no correction reported", bit)
		}
	}
}

func TestERSingleBitErrorCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	er := NewERCodec(NewConfig4())
	b := pointerBlock(rng)
	image, _, _, _ := er.Write(b, NoPointer)
	for trial := 0; trial < 100; trial++ {
		corrupted := append([]byte(nil), image...)
		bitio.FlipBit(corrupted, rng.Intn(8*BlockBytes))
		got, info, err := er.Read(corrupted)
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("trial %d: err=%v", trial, err)
		}
		if !info.CorrectedBlock {
			t.Fatal("correction not reported")
		}
	}
}

func TestEREntryReuseOnRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	_, ptr, _, err := er.Write(b, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite with different incompressible content: entry reused.
	b2 := incompressibleBlock(rng, er.Codec())
	image2, ptr2, compressed, err := er.Write(b2, ptr)
	if err != nil {
		t.Fatal(err)
	}
	if compressed {
		t.Fatal("expected incompressible")
	}
	if ptr2 != ptr {
		t.Fatalf("entry not reused: %d -> %d", ptr, ptr2)
	}
	if er.Region().Telemetry().Live != 1 {
		t.Fatalf("allocated = %d, want 1", er.Region().Telemetry().Live)
	}
	got, _, err := er.Read(image2)
	if err != nil || !bytes.Equal(got, b2) {
		t.Fatalf("reuse round trip: %v", err)
	}
}

func TestEREntryFreedWhenBlockBecomesCompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	_, ptr, _, err := er.Write(b, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	if er.Region().Telemetry().Live != 1 {
		t.Fatal("setup: expected one entry")
	}
	_, ptr2, compressed, err := er.Write(pointerBlock(rng), ptr)
	if err != nil {
		t.Fatal(err)
	}
	if !compressed || ptr2 != NoPointer {
		t.Fatal("expected compressed write")
	}
	if er.Region().Telemetry().Live != 0 {
		t.Fatalf("stale entry not freed: allocated = %d", er.Region().Telemetry().Live)
	}
}

func TestERNeverStoresAliases(t *testing.T) {
	// Every incompressible image written must be alias-free, even for
	// blocks that alias in raw form — the pointer breaks the pattern.
	rng := rand.New(rand.NewSource(7))
	er := NewERCodec(NewConfig4())
	alias := aliasBlock(rng, er.Codec(), 3)
	image, ptr, compressed, err := er.Write(alias, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	if compressed {
		t.Fatal("alias blocks are incompressible by construction")
	}
	if er.Codec().IsAlias(image) {
		t.Fatal("stored image still aliases")
	}
	got, info, err := er.Read(image)
	if err != nil || !bytes.Equal(got, alias) {
		t.Fatalf("alias round trip: err=%v info=%+v", err, info)
	}
	_ = ptr
}

func TestERPointerRoundTripQuick(t *testing.T) {
	er := NewERCodec(NewConfig4())
	f := func(ptr uint32) bool {
		ptr &= eccregion.MaxEntries - 1
		block := make([]byte, BlockBytes)
		img := make([]byte, BlockBytes)
		er.imageWithPointer(img, block, ptr)
		cw := make([]byte, er.ptrCode.CodewordBytes())
		for i, p := range er.ptrPos {
			bitio.SetBit(cw, i, bitio.Bit(img, p))
		}
		if !er.ptrCode.Valid(cw) {
			return false
		}
		pd := er.ptrCode.Data(cw)
		got := uint32(pd[0])<<20 | uint32(pd[1])<<12 | uint32(pd[2])<<4 | uint32(pd[3])>>4
		return got == ptr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestERPointerPositionsSpanAllSegments(t *testing.T) {
	for _, cfg := range []Config{NewConfig4(), NewConfig8()} {
		er := NewERCodec(cfg)
		segBits := 8 * BlockBytes / cfg.Segments
		seen := make(map[int]bool)
		for _, p := range er.ptrPos {
			seen[p/segBits] = true
		}
		if len(seen) != cfg.Segments {
			t.Fatalf("%d segments, pointer touches %d", cfg.Segments, len(seen))
		}
	}
}

func TestERCOP8(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	er := NewERCodec(NewConfig8())
	for trial := 0; trial < 20; trial++ {
		b := incompressibleBlock(rng, er.Codec())
		image, _, _, err := er.Write(b, NoPointer)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := er.Read(image)
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("COP-8 ER round trip: %v", err)
		}
	}
}

func TestERReadStalePointerFails(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	image, ptr, _, _ := er.Write(b, NoPointer)
	if err := er.Region().Free(ptr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := er.Read(image); err == nil {
		t.Fatal("read through a freed entry should fail")
	}
}

func TestERManyBlocksSharedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	er := NewERCodec(NewConfig4())
	type stored struct {
		img []byte
		b   []byte
	}
	var all []stored
	for i := 0; i < 200; i++ {
		b := incompressibleBlock(rng, er.Codec())
		img, _, _, err := er.Write(b, NoPointer)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{img, b})
	}
	if got := er.Region().Telemetry().Live; got != 200 {
		t.Fatalf("allocated = %d", got)
	}
	for i, s := range all {
		got, _, err := er.Read(s.img)
		if err != nil || !bytes.Equal(got, s.b) {
			t.Fatalf("block %d: %v", i, err)
		}
	}
}

func TestERPointerOfPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	image, ptr, _, err := er.Write(b, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := er.PointerOf(image)
	if !ok || got != ptr {
		t.Fatalf("PointerOf = (%d,%v), want (%d,true)", got, ok, ptr)
	}
	// Single bit flip in a pointer position still resolves.
	corrupted := append([]byte(nil), image...)
	bitio.FlipBit(corrupted, er.ptrPos[5])
	got, ok = er.PointerOf(corrupted)
	if !ok || got != ptr {
		t.Fatalf("PointerOf after flip = (%d,%v)", got, ok)
	}
}

func TestERWriteStalePointerFreed(t *testing.T) {
	// Write with a prevPtr that is valid but whose image re-aliases:
	// exercised indirectly; here cover the invalid-prev path — a pointer
	// that was already freed must simply be ignored.
	rng := rand.New(rand.NewSource(41))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	_, ptr, _, err := er.Write(b, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	if err := er.Region().Free(ptr); err != nil {
		t.Fatal(err)
	}
	b2 := incompressibleBlock(rng, er.Codec())
	img, ptr2, compressed, err := er.Write(b2, ptr) // stale prev
	if err != nil || compressed {
		t.Fatalf("stale-prev write: %v", err)
	}
	got, _, err := er.Read(img)
	if err != nil || !bytes.Equal(got, b2) {
		t.Fatalf("read after stale-prev write: %v", err)
	}
	_ = ptr2
}

func TestERWritePanicsOnShortBlock(t *testing.T) {
	er := NewERCodec(NewConfig4())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	er.Write(make([]byte, 10), NoPointer)
}

func TestERRegionEntryBitFlipsCorrected(t *testing.T) {
	// The displaced-data and parity bits inside a region entry are part
	// of the (523,512) code word: a single flip in any of them corrects
	// on the next read. (Bit 0, the valid bit, is the one uncovered
	// field — flipping it makes the entry unreadable, which surfaces as
	// an error, never silent corruption.)
	rng := rand.New(rand.NewSource(50))
	er := NewERCodec(NewConfig4())
	b := incompressibleBlock(rng, er.Codec())
	image, ptr, _, err := er.Write(b, NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 1; bit < eccregion.EntryBits; bit++ {
		if !er.Region().FlipEntryBit(ptr, bit) {
			t.Fatalf("flip of bit %d failed", bit)
		}
		got, info, rerr := er.Read(image)
		if rerr != nil {
			t.Fatalf("entry bit %d: %v", bit, rerr)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("entry bit %d: corruption", bit)
		}
		if !info.CorrectedBlock {
			t.Fatalf("entry bit %d: correction not reported", bit)
		}
		er.Region().FlipEntryBit(ptr, bit) // restore
	}
	// Valid-bit flip: loud failure.
	er.Region().FlipEntryBit(ptr, 0)
	if _, _, rerr := er.Read(image); rerr == nil {
		t.Fatal("read through an invalidated entry should fail")
	}
	er.Region().FlipEntryBit(ptr, 0)
	if _, _, rerr := er.Read(image); rerr != nil {
		t.Fatalf("restore failed: %v", rerr)
	}
	if !er.Region().FlipEntryBit(ptr, 1) || er.Region().FlipEntryBit(1<<27, 1) {
		t.Fatal("FlipEntryBit bounds handling")
	}
}
