package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cop/internal/copnet"
	"cop/internal/workload"
)

// TestOracleCatchesOneBitFlip: the shadow oracle counts a get whose
// payload differs from the expected block by a single bit as a mismatch,
// and the verdict turns any mismatch into the SILENT CORRUPTION error; an
// exact payload verifies clean and passes.
func TestOracleCatchesOneBitFlip(t *testing.T) {
	prof, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		flipBit int // -1: exact payload
	}{{"exact", -1}, {"first bit", 0}, {"last bit", 8*copnet.BlockBytes - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRunner(nil, prof, runnerConfig{})
			state := make([]keyState, 1)
			state[0] = keyState{version: 3, written: true}
			want := r.expected(loadBase*copnet.BlockBytes, &state[0])
			got := append([]byte(nil), want...)
			if tc.flipBit >= 0 {
				got[tc.flipBit/8] ^= 1 << (tc.flipBit % 8)
			}
			r.verify([]copnet.Result{{Data: got}}, []pendingOp{{kind: opGet, key: 0, want: want}}, state)
			if r.verified.Load() != 1 {
				t.Fatalf("verified %d gets, want 1", r.verified.Load())
			}
			err := verdict(io.Discard, r, nil)
			if tc.flipBit < 0 {
				if n := r.mismatches.Load(); n != 0 || err != nil {
					t.Fatalf("exact payload: %d mismatches, verdict %v; want 0 and PASS", n, err)
				}
				return
			}
			if n := r.mismatches.Load(); n != 1 {
				t.Fatalf("one flipped bit: %d mismatches, want 1", n)
			}
			if err == nil || !strings.Contains(err.Error(), "SILENT CORRUPTION") {
				t.Fatalf("verdict = %v, want the SILENT CORRUPTION error", err)
			}
		})
	}
}

// TestSoakVerdictEndToEnd runs the self-served harness with a soak
// campaign: on an unprotected tenant the injected flips surface as silent
// corruptions and the run fails; the same seed on cop-er passes.
func TestSoakVerdictEndToEnd(t *testing.T) {
	args := func(scheme string) []string {
		return []string{"-scheme", scheme, "-soak", "-soak-faults", "60", "-soak-blocks", "256",
			"-ops", "40", "-keys", "256", "-workers", "2", "-shards", "2", "-seed", "0x5EED"}
	}
	var out bytes.Buffer
	err := run(args("unprotected"), &out)
	if err == nil || !strings.Contains(err.Error(), "SILENT CORRUPTION") {
		t.Fatalf("unprotected soak: err = %v, want SILENT CORRUPTION\n%s", err, out.String())
	}
	out.Reset()
	if err := run(args("cop-er"), &out); err != nil {
		t.Fatalf("cop-er soak: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("cop-er soak printed no PASS verdict:\n%s", out.String())
	}
}
