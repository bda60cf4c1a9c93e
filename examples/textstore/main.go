// Textstore: a protected in-memory document store. ASCII (and
// ASCII-in-UTF-16) text is exactly what COP's TXT scheme targets — every
// byte has a zero MSB, freeing 64 bits per block — so documents get full
// SECDED protection with zero storage overhead. The demo stores a corpus,
// injects scattered soft errors into the DRAM images, and reads every
// document back intact.
package main

import (
	"fmt"
	"log"
	"strings"
	"unicode/utf16"

	"cop"
)

var corpus = map[string]string{
	"gettysburg": "Four score and seven years ago our fathers brought forth on this " +
		"continent, a new nation, conceived in Liberty, and dedicated to the " +
		"proposition that all men are created equal.",
	"lorem": strings.Repeat("Lorem ipsum dolor sit amet, consectetur adipiscing elit. ", 8),
	"config": "[server]\nlisten = 0.0.0.0:8080\nworkers = 16\n[cache]\nsize_mb = 512\n" +
		"policy = lru\n[log]\nlevel = info\npath = /var/log/app.log\n",
	"html": "<!DOCTYPE html><html><head><title>COP</title></head><body>" +
		"<h1>To Compress and Protect</h1><p>ISCA 2015</p></body></html>",
}

func main() {
	mem := cop.NewMemory(cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 16 * 1024, LLCWays: 4})

	// Lay the documents out in block-aligned extents; pad with spaces
	// (keeping every byte ASCII so whole blocks stay TXT-compressible).
	layout := map[string][2]uint64{} // name -> {addr, length}
	next := uint64(0)
	store := func(name string, data []byte) {
		layout[name] = [2]uint64{next, uint64(len(data))}
		for off := 0; off < len(data); off += cop.BlockBytes {
			block := make([]byte, cop.BlockBytes)
			for i := range block {
				block[i] = ' '
			}
			copy(block, data[off:min(len(data), off+cop.BlockBytes)])
			if err := mem.Write(next, block); err != nil {
				log.Fatal(err)
			}
			next += cop.BlockBytes
		}
	}
	for name, text := range corpus {
		store(name, []byte(text))
	}
	// UTF-16 text protects just as well: ASCII code points keep a zero
	// high byte, so all bytes stay below 0x80.
	u16 := utf16.Encode([]rune(corpus["gettysburg"]))
	u16bytes := make([]byte, 2*len(u16))
	for i, v := range u16 {
		u16bytes[2*i] = byte(v >> 8)
		u16bytes[2*i+1] = byte(v)
	}
	store("gettysburg-utf16", u16bytes)

	if err := mem.Flush(); err != nil {
		log.Fatal(err)
	}
	st := mem.Snapshot().Controller
	fmt.Printf("stored %d documents in %d blocks: %d compressed+protected, %d raw\n",
		len(layout), st.Writebacks, st.StoredCompressed, st.StoredRaw)

	// Soft-error storm: one bit flip in every stored block.
	var flips int
	for addr := uint64(0); addr < next; addr += cop.BlockBytes {
		if mem.InjectBitFlip(addr, int(addr/cop.BlockBytes*7%512)) {
			flips++
		}
	}
	fmt.Printf("injected %d bit flips (one per block)\n", flips)

	// Read everything back.
	for name, ext := range layout {
		addr, length := ext[0], ext[1]
		var sb []byte
		for off := uint64(0); off < length; off += cop.BlockBytes {
			block, err := mem.Read(addr + off)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			sb = append(sb, block...)
		}
		got := sb[:length]
		want := corpus[name]
		if name == "gettysburg-utf16" {
			want = corpus["gettysburg"]
			runes := make([]uint16, length/2)
			for i := range runes {
				runes[i] = uint16(got[2*i])<<8 | uint16(got[2*i+1])
			}
			got = []byte(string(utf16.Decode(runes)))
		}
		if string(got[:len(want)]) != want {
			log.Fatalf("%s: corrupted after injection!", name)
		}
		fmt.Printf("  %-18s %4d bytes — intact (errors corrected: %v)\n",
			name, length, mem.Snapshot().Controller.CorrectedErrors > 0)
	}
	fmt.Printf("\ntotal corrected errors: %d; silent corruptions: 0\n",
		mem.Snapshot().Controller.CorrectedErrors)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
