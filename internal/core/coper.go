package core

import (
	"errors"
	"fmt"

	"cop/internal/bitio"
	"cop/internal/ecc"
	"cop/internal/eccregion"
)

// ERCodec implements COP-ER (§3.3): COP plus exhaustive protection of
// incompressible blocks. An incompressible block has 34 bits displaced —
// a 28-bit ECC-region pointer protected by 6 SEC parity bits takes their
// place — and the displaced bits plus 11 (523,512) check bits covering the
// whole original block are stored in a densely packed region entry.
//
// The displaced bit positions are spread across all code-word segments so
// that, as the paper observes, entry allocation can simply skip pointer
// values that would leave the stored image an alias: with the pointer
// overlapping every code word, some nearby free entry always breaks the
// coincidence.
type ERCodec struct {
	codec     *Codec
	region    *eccregion.Region
	blockCode *ecc.Code // (523,512) whole-block code
	ptrCode   *ecc.Code // (34,28) pointer code
	ptrPos    []int     // the 34 displaced bit positions
}

// ERReadInfo describes a COP-ER read.
type ERReadInfo struct {
	// Compressed reports whether the block was stored in compressed form.
	Compressed bool
	// RegionAccess reports whether the read required an ECC-region
	// lookup (incompressible blocks only).
	RegionAccess bool
	// CorrectedPointer is set when the SEC(34,28) code repaired a bit in
	// the embedded pointer.
	CorrectedPointer bool
	// CorrectedBlock is set when the (523,512) code repaired a bit in an
	// incompressible block, or the per-segment SECDED repaired a
	// compressed one.
	CorrectedBlock bool
	// ValidCodewords is the decoder's code word count.
	ValidCodewords int
}

// ErrRegion wraps ECC-region failures surfaced during reads.
var ErrRegion = errors.New("core: ECC region lookup failed")

// NewERCodec builds a COP-ER codec over a fresh ECC region.
func NewERCodec(cfg Config) *ERCodec {
	return NewERCodecWithRegion(cfg, eccregion.New())
}

// NewERCodecWithRegion builds a COP-ER codec over an existing region (the
// memory controller shares one region across the whole address space).
func NewERCodecWithRegion(cfg Config, region *eccregion.Region) *ERCodec {
	er := &ERCodec{
		codec:     NewCodec(cfg),
		region:    region,
		blockCode: ecc.SECDED523512,
		ptrCode:   ecc.SEC3428,
	}
	// Distribute the 34 displaced bits across segments, front of each:
	// 9+9+8+8 for COP-4, 5+5+4+4+4+4+4+4 for COP-8.
	segBits := 8 * BlockBytes / cfg.Segments
	per := eccregion.DisplacedBits / cfg.Segments
	extra := eccregion.DisplacedBits % cfg.Segments
	for s := 0; s < cfg.Segments; s++ {
		n := per
		if s < extra {
			n++
		}
		for i := 0; i < n; i++ {
			er.ptrPos = append(er.ptrPos, s*segBits+i)
		}
	}
	if len(er.ptrPos) != eccregion.DisplacedBits {
		panic("core: displaced-bit layout error")
	}
	return er
}

// Codec returns the underlying COP codec.
func (er *ERCodec) Codec() *Codec { return er.codec }

// Region returns the shared ECC region (for storage accounting).
func (er *ERCodec) Region() *eccregion.Region { return er.region }

// NoPointer is the sentinel for "block has no ECC-region entry".
const NoPointer = ^uint32(0)

// extractDisplaced pulls the 34 displaced-position bits out of a block.
func (er *ERCodec) extractDisplaced(block []byte) []byte {
	out := make([]byte, (eccregion.DisplacedBits+7)/8)
	for i, p := range er.ptrPos {
		if bitio.Bit(block, p) != 0 {
			bitio.SetBit(out, i, 1)
		}
	}
	return out
}

// depositDisplaced writes 34 bits into the displaced positions of a block.
func (er *ERCodec) depositDisplaced(block, bits []byte) {
	for i, p := range er.ptrPos {
		bitio.SetBit(block, p, bitio.Bit(bits, i))
	}
}

// imageWithPointer writes block into img with the encoded pointer word
// occupying the displaced positions.
func (er *ERCodec) imageWithPointer(img, block []byte, ptr uint32) {
	data := []byte{byte(ptr >> 20), byte(ptr >> 12), byte(ptr >> 4), byte(ptr << 4)}
	cw := er.ptrCode.Encode(data)
	copy(img, block)
	er.depositDisplaced(img, cw)
}

// blockParity computes the 11 (523,512) check bits for a full block.
func (er *ERCodec) blockParity(block []byte) uint16 {
	cw := er.blockCode.Encode(block)
	pb := bitio.ExtractBits(cw, 512, eccregion.ParityBits)
	return uint16(pb[0])<<3 | uint16(pb[1])>>5
}

// Write encodes a block for DRAM under COP-ER into a fresh image; see
// WriteInto.
func (er *ERCodec) Write(block []byte, prevPtr uint32) (image []byte, ptr uint32, compressed bool, err error) {
	image = make([]byte, BlockBytes)
	sc := er.codec.pool.Get().(*CodecScratch)
	ptr, compressed, err = er.WriteInto(image, block, prevPtr, sc)
	er.codec.pool.Put(sc)
	if err != nil {
		return nil, NoPointer, false, err
	}
	return image, ptr, compressed, nil
}

// WriteInto encodes a block for DRAM under COP-ER into dst (BlockBytes
// long — typically the block's current image, rewritten in place), using
// sc for the compressed path, which then allocates nothing. dst is left
// untouched on error.
//
// prevPtr carries the block's existing ECC-region pointer when the LLC's
// "was uncompressed" bit was set (NoPointer otherwise); the paper's reuse
// and free paths are applied. The returned ptr is NoPointer for compressed
// blocks and the live entry pointer for incompressible ones.
func (er *ERCodec) WriteInto(dst, block []byte, prevPtr uint32, sc *CodecScratch) (ptr uint32, compressed bool, err error) {
	if len(block) != BlockBytes || len(dst) != BlockBytes {
		panic("core: ERCodec.WriteInto: dst and block must be 64 bytes")
	}
	var img [BlockBytes]byte
	if er.codec.EncodeInto(img[:], block, sc) == StoredCompressed {
		// Back to compressible: drop any stale entry (paper: "the
		// original ECC entry is invalidated").
		if prevPtr != NoPointer && er.region.Valid(prevPtr) {
			if ferr := er.region.Free(prevPtr); ferr != nil {
				return NoPointer, false, ferr
			}
		}
		copy(dst, img[:])
		return NoPointer, true, nil
	}

	entry := eccregion.Entry{
		Displaced: er.extractDisplaced(block),
		Parity:    er.blockParity(block),
	}
	notAlias := func(p uint32) bool {
		er.imageWithPointer(img[:], block, p)
		return !er.codec.IsAlias(img[:])
	}
	ptr = prevPtr
	if prevPtr != NoPointer && er.region.Valid(prevPtr) && notAlias(prevPtr) {
		// Still incompressible: reuse the entry while the pointer keeps
		// the image alias-free.
		if uerr := er.region.Update(prevPtr, entry); uerr != nil {
			return NoPointer, false, uerr
		}
	} else {
		if prevPtr != NoPointer && er.region.Valid(prevPtr) {
			if ferr := er.region.Free(prevPtr); ferr != nil {
				return NoPointer, false, ferr
			}
		}
		if ptr, err = er.region.Allocate(entry, notAlias); err != nil {
			return NoPointer, false, err
		}
	}
	er.imageWithPointer(dst, block, ptr)
	return ptr, false, nil
}

// PointerOf extracts (and single-error-corrects) the ECC-region pointer
// embedded in a raw COP-ER image. ok is false when the pointer word is
// uncorrectable.
func (er *ERCodec) PointerOf(image []byte) (ptr uint32, ok bool) {
	ptr, _, ok = er.pointerOf(image)
	return ptr, ok
}

func (er *ERCodec) pointerOf(image []byte) (ptr uint32, corrected, ok bool) {
	ptrCW := make([]byte, er.ptrCode.CodewordBytes())
	for i, p := range er.ptrPos {
		bitio.SetBit(ptrCW, i, bitio.Bit(image, p))
	}
	res, _ := er.ptrCode.Decode(ptrCW)
	if res == ecc.Uncorrectable {
		return 0, false, false
	}
	pd := er.ptrCode.Data(ptrCW)
	ptr = uint32(pd[0])<<20 | uint32(pd[1])<<12 | uint32(pd[2])<<4 | uint32(pd[3])>>4
	return ptr, res == ecc.Corrected, true
}

// Read decodes a COP-ER DRAM image back to a fresh plaintext block; see
// ReadInto.
func (er *ERCodec) Read(image []byte) (block []byte, info ERReadInfo, err error) {
	block = make([]byte, BlockBytes)
	sc := er.codec.pool.Get().(*CodecScratch)
	info, err = er.ReadInto(block, image, sc)
	er.codec.pool.Put(sc)
	if err != nil {
		return nil, info, err
	}
	return block, info, nil
}

// ReadInto decodes a COP-ER DRAM image into dst (BlockBytes long), using
// sc for the compressed path, which then allocates nothing. dst's
// contents are unspecified on error.
func (er *ERCodec) ReadInto(dst, image []byte, sc *CodecScratch) (info ERReadInfo, err error) {
	if len(image) != BlockBytes || len(dst) != BlockBytes {
		panic("core: ERCodec.ReadInto: dst and image must be 64 bytes")
	}
	// One pass counts the code words and decodes a compressed image; an
	// incompressible one comes back as a raw copy of the image.
	dinfo, derr := er.codec.DecodeInto(dst, image, sc)
	info.ValidCodewords = dinfo.ValidCodewords
	if dinfo.Compressed {
		info.Compressed = true
		info.CorrectedBlock = len(dinfo.CorrectedSegments) > 0
		return info, derr
	}

	// Incompressible: recover the pointer, fetch the entry, reassemble,
	// and check the whole block.
	info.RegionAccess = true
	ptr, corrected, ok := er.pointerOf(image)
	if !ok {
		return info, fmt.Errorf("%w: pointer uncorrectable", ErrRegion)
	}
	info.CorrectedPointer = corrected

	entry, rerr := er.region.Read(ptr)
	if rerr != nil {
		return info, fmt.Errorf("%w: %v", ErrRegion, rerr)
	}
	er.depositDisplaced(dst, entry.Displaced)

	cw := make([]byte, er.blockCode.CodewordBytes())
	copy(cw, dst)
	var pb [2]byte
	pb[0] = byte(entry.Parity >> 3)
	pb[1] = byte(entry.Parity << 5)
	bitio.DepositBits(cw, 512, pb[:], eccregion.ParityBits)
	bres, _ := er.blockCode.Decode(cw)
	switch bres {
	case ecc.Corrected:
		info.CorrectedBlock = true
		copy(dst, er.blockCode.Data(cw))
	case ecc.Uncorrectable:
		return info, ErrUncorrectable
	}
	// A corrected bit may have been one of the displaced positions whose
	// DRAM copy held the pointer — the data copy in the entry is
	// authoritative either way, and Data() above already reflects the
	// corrected word.
	return info, nil
}
