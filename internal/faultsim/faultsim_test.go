package faultsim

import (
	"strings"
	"testing"

	"cop/internal/memctrl"
	"cop/internal/reliability"
	"cop/internal/trace"
)

// TestCampaignDeterministic is the acceptance campaign: >=10k injections
// across all five field failure modes, run twice with the same seed, must
// produce byte-identical outcome tables, with the corrected class
// byte-verified by the shadow oracle and no background-traffic leaks.
func TestCampaignDeterministic(t *testing.T) {
	injections := 10000
	if testing.Short() {
		injections = 2000
	}
	cfg := Config{Scheme: memctrl.Scheme{Mode: memctrl.COP}, Seed: 0xC0FFEE, Injections: injections}

	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign 1: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign 2: %v", err)
	}
	t1, t2 := r1.Table(), r2.Table()
	if t1 != t2 {
		t.Fatalf("same seed produced different tables:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
	if got := r1.TotalFaults(); got != injections {
		t.Fatalf("TotalFaults = %d, want %d", got, injections)
	}
	if len(r1.Rows) != 5 {
		t.Fatalf("want 5 failure-mode rows, got %d", len(r1.Rows))
	}
	for _, row := range r1.Rows {
		if row.Faults == 0 {
			t.Errorf("mode %s received no injection budget", row.Mode)
		}
	}
	if r1.Outcomes(Corrected) == 0 {
		t.Error("campaign produced no corrected reads — injection is not reaching live data")
	}
	if r1.BackgroundMismatches != 0 {
		t.Errorf("background traffic saw %d corrupt reads — a fault leaked outside its classified window", r1.BackgroundMismatches)
	}
	// A different seed must visit different faults.
	r3, err := Run(Config{Scheme: memctrl.Scheme{Mode: memctrl.COP}, Seed: 0xBEEF, Injections: injections})
	if err != nil {
		t.Fatalf("campaign 3: %v", err)
	}
	if r3.Table() == t1 {
		t.Error("different seeds produced identical tables — RNG is not keyed on the seed")
	}
}

// TestCampaignAllSchemes runs a short campaign against every registry
// scheme and checks the scheme-level invariants the paper's §4 comparison
// rests on.
func TestCampaignAllSchemes(t *testing.T) {
	for _, sc := range memctrl.Schemes {
		sc, m := sc, sc.Mode
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Scheme: sc, Seed: 7, Injections: 600, Blocks: 1024})
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			if res.TotalFaults() != 600 {
				t.Fatalf("TotalFaults = %d, want 600", res.TotalFaults())
			}
			if res.BackgroundMismatches != 0 {
				t.Errorf("%d background mismatches", res.BackgroundMismatches)
			}
			switch m {
			case memctrl.Unprotected:
				if got := res.Outcomes(Corrected); got != 0 {
					t.Errorf("unprotected memory claimed %d corrected reads", got)
				}
				if res.Outcomes(Silent) == 0 {
					t.Error("unprotected memory showed no silent corruption under injected faults")
				}
			default:
				if res.Outcomes(Corrected) == 0 {
					t.Errorf("%s corrected nothing", sc)
				}
			}
		})
	}
}

// TestSingleBitFullyCorrected: one flipped bit is inside every scheme's
// correction boundary (SECDED per codeword / word, SEC on pointers), so a
// single-bit-only campaign must contain no silent corruption and no
// oracle refutations.
func TestSingleBitFullyCorrected(t *testing.T) {
	for _, m := range []memctrl.Mode{memctrl.COPER, memctrl.ECCDIMM, memctrl.ECCRegion} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Scheme: memctrl.Scheme{Mode: m}, Seed: 11, Injections: 400, Blocks: 1024,
				Modes: []reliability.FailureMode{reliability.SingleBit},
			})
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			row := res.Rows[0]
			if row.Counts[Silent] != 0 || row.Counts[FalseAlias] != 0 {
				t.Errorf("single-bit faults escaped correction: silent=%d false-alias=%d",
					row.Counts[Silent], row.Counts[FalseAlias])
			}
			if row.OracleMismatches != 0 {
				t.Errorf("oracle refuted %d single-bit corrections", row.OracleMismatches)
			}
			if row.Counts[Corrected] == 0 {
				t.Error("no corrected reads")
			}
		})
	}
}

// TestParallelMatchesSerial: with partitioned footprints and per-trial
// RNG streams, running the same COP campaign on 4 concurrent workers must
// reproduce the serial 4-worker table bit for bit.
func TestParallelMatchesSerial(t *testing.T) {
	base := Config{Scheme: memctrl.Scheme{Mode: memctrl.COP}, Seed: 0xFEED, Injections: 1500, Workers: 4}
	serialCfg, parallelCfg := base, base
	parallelCfg.Parallel = true

	serial, err := Run(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := Run(parallelCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if s, p := serial.Table(), parallel.Table(); s != p {
		t.Fatalf("parallel campaign diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestBudgetSplit checks the largest-remainder apportioning: exact total,
// field-rate ordering preserved.
func TestBudgetSplit(t *testing.T) {
	modes := DefaultModes()
	parts := splitBudget(10000, modes)
	sum := 0
	for _, p := range parts {
		sum += p
	}
	if sum != 10000 {
		t.Fatalf("budget parts sum to %d, want 10000", sum)
	}
	for i, m := range modes {
		for j, n := range modes {
			if m.FieldRate() > n.FieldRate() && parts[i] < parts[j] {
				t.Errorf("%s (rate %.3f) got %d injections but %s (rate %.3f) got %d",
					m, m.FieldRate(), parts[i], n, n.FieldRate(), parts[j])
			}
		}
	}
}

// TestTableShape: the rendered table names every failure mode and outcome
// column (copbench prints it verbatim).
func TestTableShape(t *testing.T) {
	res, err := Run(Config{Scheme: memctrl.Scheme{Mode: memctrl.COPER}, Seed: 3, Injections: 200, Blocks: 512})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	table := res.Table()
	for _, want := range []string{
		"corrected", "silent", "false-alias", "detected", "oracle-miss",
		"single-bit", "single-word", "single-row", "single-column", "single-bank",
		"total",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestCampaignBlackBoxDump is the flight-recorder acceptance test: a
// campaign on an unprotected memory must hit silent corruption, freeze the
// attached tracer, and cut a dump whose tail identifies the injected
// fault — a KindFaultInject record at the same block address as the
// anomaly trigger, followed by the read that observed the corruption.
func TestCampaignBlackBoxDump(t *testing.T) {
	tr := trace.New(trace.Config{})
	tr.Start()
	res, err := Run(Config{Scheme: memctrl.Scheme{Mode: memctrl.Unprotected}, Seed: 0xC0FFEE, Injections: 500, Tracer: tr})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.Outcomes(Silent) == 0 {
		t.Fatal("unprotected campaign produced no silent corruption — test premise broken")
	}
	if res.TraceDumps != 1 {
		t.Fatalf("TraceDumps = %d, want 1 (first freeze wins)", res.TraceDumps)
	}
	if !tr.Frozen() {
		t.Error("tracer not frozen after silent corruption")
	}
	d := tr.LastDump()
	if d == nil {
		t.Fatal("no dump recorded")
	}
	if d.Reason != trace.ReasonSilentCorruption {
		t.Errorf("dump reason = %s, want silent-corruption", d.Reason)
	}
	if d.Trigger.Kind != trace.KindAnomaly || d.Trigger.Flags&trace.FlagTrigger == 0 {
		t.Errorf("trigger record = %+v", d.Trigger)
	}
	faulty := d.Trigger.Addr
	var sawInject, sawRead bool
	// The blast radius must be in the dump's tail: the injection into the
	// corrupted block and the load that read it back.
	for _, r := range d.Records {
		if r.Addr == faulty && r.Kind == trace.KindFaultInject {
			sawInject = true
		}
		if r.Addr == faulty && sawInject && r.Kind == trace.KindLoad {
			sawRead = true
		}
	}
	if !sawInject || !sawRead {
		t.Errorf("dump tail does not identify the injected fault at %#x (inject=%v read=%v, %d records)",
			faulty, sawInject, sawRead, len(d.Records))
	}
	// Once frozen, the rings stop moving: a second campaign over the same
	// tracer must not cut another dump until Reset.
	res2, err := Run(Config{Scheme: memctrl.Scheme{Mode: memctrl.Unprotected}, Seed: 0xBEEF, Injections: 200, Tracer: tr})
	if err != nil {
		t.Fatalf("campaign 2: %v", err)
	}
	if res2.TraceDumps != 0 {
		t.Errorf("frozen tracer cut %d more dumps", res2.TraceDumps)
	}
	tr.Reset()
	if tr.Frozen() {
		t.Error("Reset did not unfreeze")
	}
}
