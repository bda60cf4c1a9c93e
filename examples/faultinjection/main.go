// Fault injection: store a realistic mix of benchmark data in protected
// memory under every mode, bombard DRAM with random single-bit flips, and
// tally the outcomes — the end-to-end demonstration behind Figure 10's
// analytic model.
package main

import (
	"bytes"
	"fmt"
	"log"

	"cop"
	"cop/internal/workload"
)

const (
	blocks = 2048
	flips  = 3000
)

// xorshift PRNG (deterministic demo).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func main() {
	p := workload.MustGet("gcc")
	fmt.Printf("workload: %s content model, %d blocks, %d injected bit flips per mode\n\n",
		p.Name, blocks, flips)
	fmt.Printf("%-12s %10s %10s %10s %10s\n",
		"mode", "corrected", "silent", "detected", "clean")

	for _, name := range []string{"unprotected", "cop", "cop-er", "ecc-region", "ecc-dimm"} {
		runMode(p, name)
	}
	fmt.Println("\nunprotected: every flip that lands on consumed data is silent corruption")
	fmt.Println("cop:         flips in compressed blocks corrected; raw blocks stay exposed")
	fmt.Println("cop-er:      every single-bit flip corrected (region covers raw blocks)")
}

func runMode(p *workload.Profile, name string) {
	var mode cop.MemoryConfig
	switch name {
	case "unprotected":
		mode.Mode = cop.ModeUnprotected
	case "cop":
		mode.Mode = cop.ModeCOP
	case "cop-er":
		mode.Mode = cop.ModeCOPER
	case "ecc-region":
		mode.Mode = cop.ModeECCRegion
	case "ecc-dimm":
		mode.Mode = cop.ModeECCDIMM
	}
	mode.LLCBytes = 64 * 1024
	mode.LLCWays = 8
	mem := cop.NewMemory(mode)

	// Populate and settle to DRAM.
	ref := make(map[uint64][]byte, blocks)
	for i := 0; i < blocks; i++ {
		addr := uint64(i) * cop.BlockBytes
		data := p.Block(addr, 0)
		ref[addr] = data
		if err := mem.Write(addr, data); err != nil {
			log.Fatal(err)
		}
	}
	if err := mem.Flush(); err != nil {
		log.Fatal(err)
	}

	// Inject flips into random resident blocks; read each back at once
	// (so flips do not accumulate into multi-bit errors) and classify.
	r := &rng{s: 0xFA117}
	var corrected, silent, detected, clean int
	for i := 0; i < flips; i++ {
		addr := (r.next() % blocks) * cop.BlockBytes
		bit := int(r.next() % (8 * cop.BlockBytes))
		if !mem.InjectBitFlip(addr, bit) {
			continue
		}
		got, info, err := mem.ReadWithInfo(addr)
		fixed := info.Corrected > 0 || info.CorrectedPointer
		switch {
		case err != nil:
			detected++ // uncorrectable but not silent
		case !bytes.Equal(got, ref[addr]):
			silent++
		case fixed:
			corrected++
		default:
			clean++ // flip landed on a dead copy (e.g. block was re-fetched clean)
		}
		// Restore DRAM to a clean image for the next trial: evict the
		// (clean) line and undo the flip if it is still latent.
		mem.LLC().Evict(addr)
		if err == nil && bytes.Equal(got, ref[addr]) && !fixed {
			// nothing consumed the flip: revert it
			mem.InjectBitFlip(addr, bit)
		} else if err != nil || !bytes.Equal(got, ref[addr]) {
			// image is corrupted; rewrite it wholesale
			if werr := mem.Write(addr, ref[addr]); werr != nil {
				log.Fatal(werr)
			}
			if werr := mem.Flush(); werr != nil {
				log.Fatal(werr)
			}
		} else {
			// corrected on read: DRAM still holds the flipped bit (the
			// controller does not scrub); revert it
			mem.InjectBitFlip(addr, bit)
		}
	}
	fmt.Printf("%-12s %10d %10d %10d %10d\n", name, corrected, silent, detected, clean)
}
