package cop_test

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"cop"
)

// ExampleNewCodec shows the core COP flow: encode, corrupt, detect,
// correct — with no compression-tracking metadata anywhere.
func ExampleNewCodec() {
	codec := cop.NewCodec(cop.Config4())

	// Eight pointers into one heap region: MSB compression removes the
	// shared high bits, freeing room for four SECDED code words.
	block := make([]byte, cop.BlockBytes)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(block[8*i:], 0x00007F00_20000000|uint64(i)*0x40)
	}
	image, status := codec.Encode(block)
	fmt.Println("stored:", status)

	image[5] ^= 0x10 // soft error in DRAM

	got, info, err := codec.Decode(image)
	fmt.Println("detected as compressed:", info.Compressed)
	fmt.Println("corrected and intact:", err == nil && bytes.Equal(got, block))
	// Output:
	// stored: compressed
	// detected as compressed: true
	// corrected and intact: true
}

// ExampleCodec_Classify shows the writeback-time classification that also
// drives the LLC's alias bit.
func ExampleCodec_Classify() {
	codec := cop.NewCodec(cop.Config4())

	zeros := make([]byte, cop.BlockBytes)
	fmt.Println("zero block:", codec.Classify(zeros))

	// A high-entropy block: every 32-bit word distinct and irregular.
	noisy := make([]byte, cop.BlockBytes)
	x := uint32(0x9E3779B9)
	for i := 0; i < 16; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		binary.BigEndian.PutUint32(noisy[4*i:], x)
	}
	fmt.Println("noisy block:", codec.Classify(noisy))
	// Output:
	// zero block: compressed
	// noisy block: raw
}

// ExampleNewMemory shows the end-to-end protected memory with COP-ER
// (full coverage, incompressible blocks included).
func ExampleNewMemory() {
	mem := cop.NewMemory(cop.MemoryConfig{Mode: cop.ModeCOPER})

	data := make([]byte, cop.BlockBytes)
	copy(data, "the quick brown fox jumps over the lazy dog; pack my box with")

	mem.Write(0x4000, data)
	mem.Flush()                  // settle the LLC into DRAM images
	mem.InjectBitFlip(0x4000, 9) // soft error

	got, err := mem.Read(0x4000)
	fmt.Println("read ok:", err == nil)
	fmt.Println("data intact:", bytes.Equal(got, data))
	fmt.Println("errors corrected:", mem.Snapshot().Controller.CorrectedErrors)
	// Output:
	// read ok: true
	// data intact: true
	// errors corrected: 1
}

// ExampleRunExperiment regenerates a paper artifact programmatically.
func ExampleRunExperiment() {
	report, err := cop.RunExperiment("dimmcmp", cop.ExperimentOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(report.ID, "rows:", len(report.Rows))
	// Output:
	// dimmcmp rows: 2
}

// ExampleNewChipkillCodec shows the future-work extension: surviving a
// whole dead DRAM chip.
func ExampleNewChipkillCodec() {
	ck := cop.NewChipkillCodec()

	block := make([]byte, cop.BlockBytes)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(block[8*i:], 0x00005500_10000000|uint64(i)*8)
	}
	image, status := ck.Encode(block)
	fmt.Println("stored:", status)

	cop.FailChip(image, 3, 0xFF) // chip 3 dies: 8 bytes corrupted

	got, info, err := ck.Decode(image)
	fmt.Println("failed chip identified:", info.FailedChip)
	fmt.Println("reconstructed:", err == nil && bytes.Equal(got, block))
	// Output:
	// stored: protected
	// failed chip identified: 3
	// reconstructed: true
}
