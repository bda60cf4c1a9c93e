package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cop/internal/workload"
)

// The golden-trace regression: one small archived replay whose serialized
// bytes AND simulated statistics are committed under testdata/. Any change
// to trace generation, the serialization format, the interval simulator,
// or the DRAM timing model that alters observable behavior fails loudly
// here instead of silently shifting every experiment. Regenerate with
//
//	go test ./internal/sim -run TestGolden -update-golden
//
// and review the diff like any other code change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const (
	goldenWorkload = "gcc"
	goldenEpochs   = 30
	goldenSeed     = 0x60D
	goldenTrace    = "testdata/golden_gcc.copt"
	goldenStats    = "testdata/golden_gcc.stats"
)

func goldenTraceBytes(t *testing.T) []byte {
	t.Helper()
	p, err := workload.Get(goldenWorkload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, p, goldenEpochs, goldenSeed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// formatResult renders every observable of a Result, fixed-precision, so
// two runs compare as strings.
func formatResult(r Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scheme=%s\n", r.Scheme)
	fmt.Fprintf(&sb, "ipc=%.9f\n", r.IPC)
	for i, c := range r.PerCoreIPC {
		fmt.Fprintf(&sb, "core%d=%.9f\n", i, c)
	}
	fmt.Fprintf(&sb, "instructions=%d cycles=%d misses=%d\n", r.Instructions, r.Cycles, r.Misses)
	fmt.Fprintf(&sb, "extra=%d compressed=%d raw=%d\n", r.ExtraAccesses, r.CompressedReads, r.RawReads)
	// The golden file's dram line keeps its original field names and
	// order; they are spelled out here rather than taken from %+v.
	d := r.DRAM
	fmt.Fprintf(&sb, "dram={Reads:%d Writes:%d RowHits:%d RowMisses:%d RowConflicts:%d TotalLatency:%d TotalQueueDelay:%d MaxObservedConcurrent:%d}\n",
		d.Reads, d.Writes, d.RowHits, d.RowMisses, d.RowConflicts, d.TotalLatency, d.TotalQueueDelay, d.MaxConcurrent)
	return sb.String()
}

func goldenConfig() Config {
	return Config{
		Scheme:            COPER,
		Cores:             2,
		DecompressLatency: 4,
		MetaCacheBlocks:   1024,
	}
}

// TestGoldenTraceBytes: trace generation + serialization is reproducible
// byte for byte against the committed archive.
func TestGoldenTraceBytes(t *testing.T) {
	got := goldenTraceBytes(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTrace), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTrace, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("serialized trace diverged from %s: got %d bytes, want %d (format or generator changed — regenerate deliberately with -update-golden)",
			goldenTrace, len(got), len(want))
	}
}

// TestGoldenReplayStats: replaying the committed archive produces the
// committed statistics, and repeated replays are identical.
func TestGoldenReplayStats(t *testing.T) {
	trace, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden): %v", err)
	}
	run := func() string {
		res, err := RunArchives(goldenConfig(), bytes.NewReader(trace), bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		return formatResult(res)
	}
	got := run()
	if again := run(); again != got {
		t.Fatalf("two replays of the same archive disagree:\n%s\nvs\n%s", got, again)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenStats, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenStats)
	if err != nil {
		t.Fatalf("missing golden stats (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("replay statistics diverged from %s:\n--- got ---\n%s--- want ---\n%s", goldenStats, got, want)
	}
}
