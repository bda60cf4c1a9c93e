package experiments

import (
	"bytes"
	"fmt"

	"cop/internal/memctrl"
	"cop/internal/workload"
)

func init() {
	register("chipfail", chipFail)
}

// chipFail runs the whole-chip-failure campaign across every protection
// mode: populate the functional memory with benchmark content, kill one
// ×8 chip's contribution to a block, read it back, classify the outcome.
// Only the COP-CK-ER extension survives; conventional SECDED (even on an
// ECC DIMM) cannot, which is exactly why the paper points to chipkill as
// the natural extension (§5).
func chipFail(o Options) (*Report, error) {
	modes := []struct {
		name string
		m    memctrl.Mode
	}{
		{"Unprotected", memctrl.Unprotected},
		{"COP", memctrl.COP},
		{"COP-ER", memctrl.COPER},
		{"ECC DIMM", memctrl.ECCDIMM},
		{"COP-CK-ER", memctrl.COPChipkill},
	}
	p, err := workload.Get("gcc")
	if err != nil {
		return nil, err
	}
	blocks := o.Samples / 4
	if blocks < 128 {
		blocks = 128
	}
	faults := blocks // one campaign pass
	r := &Report{
		ID:     "chipfail",
		Title:  "Whole-chip (×8) failure outcomes per protection mode",
		Header: []string{"mode", "corrected", "silent", "detected", "silent rate"},
		Notes: []string{
			fmt.Sprintf("%s content, %d blocks, %d injected chip failures", p.Name, blocks, faults),
			"silent = wrong data returned without error; detected = error raised (crash, not corruption)",
			"the §5 chipkill extension (COP-CK-ER) is the only design that corrects these",
		},
	}

	rows := make([][]string, len(modes))
	if err := forEach(len(modes), func(mi int) error {
		mem := memctrl.New(memctrl.Config{Mode: modes[mi].m, LLCBytes: 64 * 1024, LLCWays: 8})
		ref := make(map[uint64][]byte, blocks)
		for i := 0; i < blocks; i++ {
			addr := uint64(i) * memctrl.BlockBytes
			data := p.Block(addr, 0)
			ref[addr] = data
			if err := mem.Write(addr, data); err != nil {
				return err
			}
		}
		if err := mem.Flush(); err != nil {
			return err
		}
		rng := newXorshift(0xC41F)
		var corrected, silent, detected int
		for i := 0; i < faults; i++ {
			addr := (rng.next() % uint64(blocks)) * memctrl.BlockBytes
			chip := int(rng.next() % 8)
			if !mem.InjectChipFailure(addr, chip, byte(rng.next())) {
				continue
			}
			got, info, rerr := mem.ReadWithInfo(addr)
			switch {
			case rerr != nil:
				detected++
			case !bytes.Equal(got, ref[addr]):
				silent++
			case info.Corrected > 0 || info.CorrectedPointer:
				corrected++
			}
			// Restore for the next trial.
			mem.LLC().Evict(addr)
			if err := mem.Write(addr, ref[addr]); err != nil {
				return err
			}
			if err := mem.Flush(); err != nil {
				return err
			}
		}
		total := corrected + silent + detected
		rows[mi] = []string{
			modes[mi].name,
			fmt.Sprint(corrected), fmt.Sprint(silent), fmt.Sprint(detected),
			pct(float64(silent) / float64(total)),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}
