package dram

// Energy model: the paper's motivation is cost — ECC DIMMs "substantially
// increase power consumption relative to non-ECC DIMMs" because the ninth
// chip draws background power and participates in every access. This
// model quantifies that argument with a DDR3-style per-operation energy
// budget so the energy experiment can compare protection schemes.
//
// Parameters are per *chip* in nanojoules (derived from typical 4 Gb
// DDR3-1600 datasheet currents; absolute values matter less than the
// chip-count scaling, which is exact).

import "cop/internal/telemetry"

// EnergyParams holds per-chip energy costs.
type EnergyParams struct {
	// ActivateNJ is the energy of one ACT+PRE pair (row open/close).
	ActivateNJ float64
	// ReadNJ / WriteNJ are per-column-burst energies.
	ReadNJ, WriteNJ float64
	// BackgroundNWPerChip is background (idle+refresh) power per chip in
	// nanowatts... expressed as nanojoules per memory-bus cycle for easy
	// integration with the timing model.
	BackgroundNJPerCycle float64
}

// DDR3Energy returns the default per-chip energy parameters.
func DDR3Energy() EnergyParams {
	return EnergyParams{
		ActivateNJ:           2.5,
		ReadNJ:               1.2,
		WriteNJ:              1.3,
		BackgroundNJPerCycle: 0.008,
	}
}

// EnergyAccount integrates chip energy over a run.
type EnergyAccount struct {
	params EnergyParams
	// ChipsPerRank distinguishes non-ECC (8) from ECC (9) DIMMs.
	ChipsPerRank int
	totalNJ      float64
}

// NewEnergyAccount builds an account; chipsPerRank is 8 for non-ECC and 9
// for ECC DIMMs.
func NewEnergyAccount(params EnergyParams, chipsPerRank int) *EnergyAccount {
	return &EnergyAccount{params: params, ChipsPerRank: chipsPerRank}
}

// Charge integrates the energy of a finished run from DRAM statistics and
// the elapsed time (in memory cycles). Every chip in the rank participates
// in every access (×8 DIMMs drive all chips per burst), and all chips of
// all ranks burn background power for the whole run.
func (a *EnergyAccount) Charge(st telemetry.DRAMStats, elapsedCycles uint64, totalRanks int) {
	chips := float64(a.ChipsPerRank)
	a.totalNJ += float64(st.RowMisses) * a.params.ActivateNJ * chips
	a.totalNJ += float64(st.Reads) * a.params.ReadNJ * chips
	a.totalNJ += float64(st.Writes) * a.params.WriteNJ * chips
	a.totalNJ += float64(elapsedCycles) * a.params.BackgroundNJPerCycle * chips * float64(totalRanks)
}

// TotalNJ returns the accumulated energy in nanojoules.
func (a *EnergyAccount) TotalNJ() float64 { return a.totalNJ }
