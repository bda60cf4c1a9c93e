package cop_test

// One table test over every entry of the scheme registry, through each
// way the system builds a memory from a scheme name: the public Open, a
// copserve tenant (copnet.TenantConfig), and a faultsim campaign. Every
// entry must open and round-trip data, its COP geometry must reach the
// controller (a cop-8 entry built as COP-4 fails here), and a live
// migration to every other entry must either succeed or fail with
// memctrl's "cannot migrate" error.

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"
	"testing"

	"cop"
	"cop/internal/copnet"
	"cop/internal/faultsim"
	"cop/internal/memctrl"
	"cop/internal/migrate"
	"cop/internal/reliability"
	"cop/internal/shard"
)

// registryBlocks is each memory's compressible footprint: small-integer
// words every COP geometry compresses.
func registryBlocks() [][]byte {
	blocks := make([][]byte, 64)
	for i := range blocks {
		b := make([]byte, cop.BlockBytes)
		for w := 0; w < 8; w++ {
			binary.BigEndian.PutUint64(b[8*w:], 0x00007F00_00000000|uint64(i*8+w))
		}
		blocks[i] = b
	}
	return blocks
}

// checkEntry writes the footprint, flushes it to DRAM, and reads it back:
// every block must round-trip, and in COP and COP-ER memories every
// decoded image must carry the entry's number of clean code words.
func checkEntry(t *testing.T, st cop.Store, sc memctrl.Scheme) {
	t.Helper()
	blocks := registryBlocks()
	for i, b := range blocks {
		if err := st.Write(uint64(i)*cop.BlockBytes, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, cop.BlockBytes)
	decoded := 0
	for i, want := range blocks {
		info, err := st.ReadInto(dst, uint64(i)*cop.BlockBytes)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %d: round trip mangled the data", i)
		}
		if !info.FromDRAM {
			continue
		}
		decoded++
		if hasGeometry(sc) && info.ValidCodewords != sc.COP.Segments {
			t.Fatalf("block %d: %d clean code words, want %s's %d", i, info.ValidCodewords, sc, sc.COP.Segments)
		}
	}
	if decoded == 0 {
		t.Fatal("no read decoded a DRAM image")
	}
}

// hasGeometry reports whether the entry's COP config shapes its images.
func hasGeometry(sc memctrl.Scheme) bool { return sc.Mode == memctrl.COP || sc.Mode == memctrl.COPER }

// liveMigratable mirrors memctrl's rule: COP-ER and COP-CK region entries
// cannot be carried across a live re-encode.
func liveMigratable(sc memctrl.Scheme) bool {
	return sc.Mode != memctrl.COPER && sc.Mode != memctrl.COPChipkill
}

// checkMigration migrates a fresh memory of entry from to entry to and
// checks the outcome against the migratable rule; a completed migration
// must keep the data and adopt the target's geometry.
func checkMigration(t *testing.T, from, to memctrl.Scheme, open func() (*cop.BatchedMemory, error),
	migrateTo func(*cop.BatchedMemory, string) error) {
	t.Helper()
	bm, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	blocks := registryBlocks()
	for i, b := range blocks {
		if err := bm.Write(uint64(i)*cop.BlockBytes, b); err != nil {
			t.Fatal(err)
		}
	}
	err = migrateTo(bm, to.Name)
	switch {
	case liveMigratable(from) && liveMigratable(to):
		if err != nil {
			t.Fatalf("%s -> %s: %v", from, to, err)
		}
		checkEntry(t, bm, to)
	case err == nil:
		t.Fatalf("%s -> %s: migrated, want memctrl's cannot-migrate error", from, to)
	case !strings.Contains(err.Error(), "cannot migrate"):
		t.Fatalf("%s -> %s: %v, want memctrl's cannot-migrate error", from, to, err)
	}
}

func TestRegistryEntries(t *testing.T) {
	for _, sc := range memctrl.Schemes {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			openBatched := func() (*cop.BatchedMemory, error) {
				st, err := cop.Open(cop.WithScheme(sc.Name), cop.WithLLC(64*1024, 8),
					cop.WithShards(2), cop.WithBatching(0, 0))
				if err != nil {
					return nil, err
				}
				return st.(*cop.BatchedMemory), nil
			}
			openTenant := func() (*shard.Batched, error) {
				return copnet.TenantConfig{Scheme: sc.Name, Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}.Open()
			}

			t.Run("open", func(t *testing.T) {
				st, err := cop.Open(cop.WithScheme(sc.Name), cop.WithLLC(64*1024, 8))
				if err != nil {
					t.Fatal(err)
				}
				checkEntry(t, st, sc)
				for _, to := range memctrl.Schemes {
					if to.Name != sc.Name {
						checkMigration(t, sc, to, openBatched, func(bm *cop.BatchedMemory, name string) error {
							return cop.Migrate(bm, name, cop.MigrateOptions{})
						})
					}
				}
			})
			t.Run("tenant", func(t *testing.T) {
				b, err := openTenant()
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				checkEntry(t, b, sc)
				for _, to := range memctrl.Schemes {
					if to.Name != sc.Name {
						checkMigration(t, sc, to, openTenant, func(bm *cop.BatchedMemory, name string) error {
							return migrate.MigrateTo(bm, name, migrate.Options{})
						})
					}
				}
			})
			t.Run("faultsim", func(t *testing.T) {
				res, err := faultsim.Run(faultsim.Config{
					Scheme: sc, Seed: 0x5EED, Blocks: 512, Injections: 200,
					Modes: []reliability.FailureMode{reliability.SingleBit},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.BackgroundMismatches != 0 {
					t.Fatalf("%d background reads disagreed with the shadow copy", res.BackgroundMismatches)
				}
				if res.Scheme.Name != sc.Name {
					t.Errorf("result scheme %q, want %q", res.Scheme, sc.Name)
				}
				// The most code words any fill saw is a clean compressed
				// block's full count, so the histogram's top bucket names
				// the geometry.
				h := res.Memory.Controller.ValidCodewords
				if want := bits.Len(uint(sc.COP.Segments)); hasGeometry(sc) && len(h.Buckets)-1 != want {
					t.Errorf("valid-code-word histogram tops out in bucket %d, want %d (%d code words)",
						len(h.Buckets)-1, want, sc.COP.Segments)
				}
			})
		})
	}
}
