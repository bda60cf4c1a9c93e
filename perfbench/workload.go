package main

import (
	"encoding/binary"
	"fmt"

	"cop/internal/workload"
)

// blockBytes is the unit every layer of the stack reads and writes.
const blockBytes = 64

// windowOps is the number of operations in one request frame, shard group
// window or memctrl replay step: one copnet batch frame maps onto one
// server-side group window.
const windowOps = 64

// Op kinds, indexing a Workload's Mix. Delete writes a zero block and
// increment rewrites the block with its first little-endian word plus one,
// the same key-value semantics copload drives.
const (
	opGet = iota
	opSet
	opDelete
	opIncr
)

// Workload is one traffic mix: which content profile fills the blocks, how
// many blocks the keys span, and the get/set/delete/increment percentages.
// Keys are drawn uniformly over the footprint.
type Workload struct {
	Name    string
	Why     string
	Profile string // internal/workload content profile
	Blocks  int    // footprint in 64-byte blocks
	Mix     [4]int // get/set/delete/increment, percent
	Scheme  string // protection scheme of the served tenant
}

// The footprints are stated against the tenant's default 4 MiB (65 536
// block) LLC: hot-read fits in a quarter of it, so codec, image store and
// COP-ER sit idle and transport plus shard front-end carry the cost; the
// cold workloads span 8x the LLC, so about 7 of 8 reads fill from DRAM
// (cold-read) or most writes end in a dirty eviction (cold-write).
var workloads = []Workload{
	{
		Name:    "hot-read",
		Why:     "90% gets over 1 MiB (1/4 of the LLC): nearly every op hits, so TLS/HTTP/2, wire and shard windows carry the cost and codec work is bypassed",
		Profile: "gcc",
		Blocks:  16 << 10,
		Mix:     [4]int{90, 10, 0, 0},
		Scheme:  "cop-er",
	},
	{
		Name:    "cold-read",
		Why:     "90% gets over 32 MiB (8x the LLC) of pointer-heavy mcf content: about 7 of 8 reads fill through codeword count, correction and decompress",
		Profile: "mcf",
		Blocks:  512 << 10,
		Mix:     [4]int{90, 10, 0, 0},
		Scheme:  "cop-er",
	},
	{
		Name:    "cold-write",
		Why:     "70% sets plus deletes and increments over 32 MiB of bzip2 content: dirty evictions run compress, ECC encode, alias checks and COP-ER allocate/free",
		Profile: "bzip2",
		Blocks:  512 << 10,
		Mix:     [4]int{20, 70, 5, 5},
		Scheme:  "cop-er",
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated operation on a key (block index in the footprint).
type op struct {
	kind uint8
	key  uint32
}

func keyAddr(key uint32) uint64 { return uint64(key) * blockBytes }

// splitmix is splitmix64: tiny, seedable and stable across Go versions.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// opStream is one worker's seeded operation sequence. Worker w of n owns
// the keys congruent to w mod n, so workers never share a key and the
// shadow model's per-key history is exact however their frames interleave
// on the server; within its keys a worker draws uniformly.
type opStream struct {
	rng     splitmix
	mix     [4]int
	worker  uint32
	workers uint32
	owned   uint64 // keys this worker owns
}

func newOpStream(w Workload, seed uint64, worker, workers int) *opStream {
	owned := (w.Blocks - worker + workers - 1) / workers
	return &opStream{
		rng:     splitmix(seed*0x2545F4914F6CDD1D + uint64(worker)*0x9E3779B97F4A7C15 + 1),
		mix:     w.Mix,
		worker:  uint32(worker),
		workers: uint32(workers),
		owned:   uint64(owned),
	}
}

func (s *opStream) next() op {
	p := int(s.rng.next() % 100)
	kind := opIncr
	for k, cum := 0, 0; k < opIncr; k++ {
		cum += s.mix[k]
		if p < cum {
			kind = k
			break
		}
	}
	j := uint32(s.rng.next() % s.owned)
	return op{kind: uint8(kind), key: j*s.workers + s.worker}
}

// frame fills dst with the next windowOps operations.
func (s *opStream) frame(dst []op) []op {
	dst = dst[:0]
	for i := 0; i < windowOps; i++ {
		dst = append(dst, s.next())
	}
	return dst
}

// model is the seeded shadow of the whole footprint: the exact 64 bytes
// every get must return. Content comes from the workload's
// internal/workload profile; the seed offsets every block's version so a
// different seed writes different bytes of the same category. Workers
// touch disjoint keys, so they share one model without locking.
type model struct {
	prof    *workload.Profile
	verBase uint32
	data    []byte   // Blocks*64 expected content
	ver     []uint32 // writes applied per key
}

func newModel(w Workload, seed uint64) (*model, error) {
	prof, err := workload.Get(w.Profile)
	if err != nil {
		return nil, err
	}
	m := &model{
		prof:    prof,
		verBase: uint32(seed*0x9E3779B97F4A7C15>>32) | 1,
		data:    make([]byte, w.Blocks*blockBytes),
		ver:     make([]uint32, w.Blocks),
	}
	for k := range m.ver {
		copy(m.block(uint32(k)), prof.Block(keyAddr(uint32(k)), m.verBase))
	}
	return m, nil
}

// block is the expected content of key (aliases the model).
func (m *model) block(key uint32) []byte {
	o := int(key) * blockBytes
	return m.data[o : o+blockBytes : o+blockBytes]
}

// apply advances the model by one mutating op and returns the block the
// op writes (aliasing the model: a caller must copy it before the next op
// on the same key, as every layer's Write does).
func (m *model) apply(o op) []byte {
	b := m.block(o.key)
	switch o.kind {
	case opSet:
		m.ver[o.key]++
		copy(b, m.prof.Block(keyAddr(o.key), m.verBase+m.ver[o.key]))
	case opDelete:
		m.ver[o.key]++
		clear(b)
	case opIncr:
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
	}
	return b
}
