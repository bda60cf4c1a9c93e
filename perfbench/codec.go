package main

import (
	"fmt"
	"time"

	"cop/internal/bitio"
	"cop/internal/compress"
	"cop/internal/core"
)

// codecSample is how many of the workload's blocks the codec and
// compressor timings run over; codecPasses is how many timed passes each
// timing takes the median of.
const (
	codecSample = 4096
	codecPasses = 31
)

// codecTimes times the paper's COP-4 codec (what cop-er stores compressed
// blocks with) and its combined compressor per call, on a seeded sample of
// the model's blocks and the DRAM images those blocks encode to. Each
// figure is the median over passes of a pass's mean ns per call.
func codecTimes(m *model, seed uint64) (map[string]float64, error) {
	cfg := core.NewConfig4()
	codec := core.NewCodec(cfg)
	sc := codec.NewScratch()
	capBits := cfg.DataCapacityBits()

	rng := splitmix(seed ^ 0xC0DEC)
	blocks := make([][]byte, codecSample)
	for i := range blocks {
		blocks[i] = m.block(uint32(rng.next() % uint64(len(m.ver))))
	}

	images := make([][]byte, 0, len(blocks))
	var payloads [][]byte
	var w bitio.Writer
	for _, b := range blocks {
		img := make([]byte, blockBytes)
		if codec.EncodeInto(img, b, sc) != core.RejectedAlias {
			images = append(images, img)
		}
		w.Reset(capBits)
		if _, ok := compress.CompressToWriter(cfg.Scheme, &w, b, capBits); ok {
			p := make([]byte, blockBytes)
			copy(p, w.Bytes())
			payloads = append(payloads, p)
		}
	}
	if len(images) == 0 || len(payloads) == 0 {
		return nil, fmt.Errorf("codec sample has %d storable and %d compressible blocks", len(images), len(payloads))
	}

	dst := make([]byte, blockBytes)
	var decodeErr error
	var r bitio.Reader
	sink := 0
	out := map[string]float64{
		"core.encode_ns": perCall(len(blocks), func() {
			for _, b := range blocks {
				sink += int(codec.EncodeInto(dst, b, sc))
			}
		}),
		"core.decode_ns": perCall(len(images), func() {
			for _, img := range images {
				if _, err := codec.DecodeInto(dst, img, sc); err != nil && decodeErr == nil {
					decodeErr = err
				}
			}
		}),
		"core.count_valid_ns": perCall(len(images), func() {
			for _, img := range images {
				sink += codec.CountValidCodewords(img)
			}
		}),
		"compress.compress_ns": perCall(len(blocks), func() {
			for _, b := range blocks {
				w.Reset(capBits)
				n, _ := compress.CompressToWriter(cfg.Scheme, &w, b, capBits)
				sink += n
			}
		}),
		"compress.decompress_ns": perCall(len(payloads), func() {
			for _, p := range payloads {
				r.Reset(p)
				if err := compress.DecompressIntoBlock(cfg.Scheme, dst, &r, capBits, capBits); err != nil && decodeErr == nil {
					decodeErr = err
				}
			}
		}),
	}
	if decodeErr != nil {
		return nil, fmt.Errorf("codec timing: %w", decodeErr)
	}
	_ = sink
	return out, nil
}

// perCall runs pass codecPasses times and returns the median ns per call.
func perCall(calls int, pass func()) float64 {
	xs := make([]float64, codecPasses)
	for i := range xs {
		t0 := time.Now()
		pass()
		xs[i] = float64(time.Since(t0)) / float64(calls)
	}
	return median(xs)
}
