// Package migrate is the online reconfiguration engine over the batched
// shard front-end: live protection-scheme migration (re-encode every
// resident DRAM block under a new scheme while traffic keeps flowing),
// driven shard by shard in bounded-pause chunks, plus a background
// scrubber that walks resident DRAM images during idle cycles.
//
// The shape of a live migration follows the paper's deployment story: a
// COP memory can tighten or relax its protection (COP-4 with stronger
// per-word ECC versus COP-8 with wider coverage, or fall back to a
// dedicated ECC region) without taking the memory offline. The engine
// drains ONE shard at a time just long enough to flip its decode
// machinery (memctrl.BeginMigration), resumes it immediately, and then
// converts that shard's old-encoded blocks in chunks — each chunk holds
// the shard lock for at most ChunkBlocks conversions, so the pause seen
// by traffic is bounded; blocks not yet converted remain readable through
// the retiring scheme's decoder, and ordinary writebacks convert blocks
// organically ahead of the walker. Elastic resharding is the shard
// package's Reshard; this package re-exports nothing of it.
package migrate

import (
	"fmt"

	"cop/internal/memctrl"
	"cop/internal/shard"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// Options parameterizes a live migration.
type Options struct {
	// ChunkBlocks bounds how many blocks are re-encoded per shard-lock
	// acquisition — the pause bound traffic observes. Zero selects 256.
	ChunkBlocks int
}

func (o Options) normalize() Options {
	if o.ChunkBlocks <= 0 {
		o.ChunkBlocks = 256
	}
	return o
}

// MigrateTo migrates b's memory to the named scheme of the registry
// (memctrl.Schemes). Targets memctrl cannot migrate to fail with its
// "cannot migrate" error.
func MigrateTo(b *shard.Batched, scheme string, opts Options) error {
	s, ok := memctrl.LookupScheme(scheme)
	if !ok {
		return fmt.Errorf("migrate: unknown scheme %q", scheme)
	}
	return Migrate(b, s, opts)
}

// Migrate converts every resident block of b's memory to scheme s while
// the front-end keeps serving, shard by shard: drain the shard, switch
// its machinery, resume it, then convert its blocks in bounded chunks
// under live traffic. The scheme commits up front (after the last shard's
// machinery switches), so a conversion error — an uncorrectable
// old-encoded block — leaves a consistent memory with the migration
// resumable: re-running Migrate with the same target picks up the
// remaining blocks (per-shard BeginMigration refuses only a *different*
// in-flight target).
//
// Serialized against Reshard and concurrent Migrate calls via the
// front-end's reconfiguration lock; ordinary traffic is never excluded.
func Migrate(b *shard.Batched, s memctrl.Scheme, opts Options) error {
	opts = opts.normalize()
	return b.Reconfigure(func() error {
		mig := b.MigrationTel()
		from := b.Mode()
		n := b.NumShards()

		// Phase 1 — flip every shard's machinery, one bounded drain each.
		for i := 0; i < n; i++ {
			if err := beginShard(b, i, from, s); err != nil {
				return err
			}
		}
		// The memory now IS scheme s for every new write; record that
		// before the long conversion walk so a failure mid-walk leaves
		// config and machinery agreeing.
		b.CommitScheme(s.Mode, s.COP)

		// Phase 2 — convert resident blocks in bounded chunks, under
		// traffic.
		var total uint64
		for i := 0; i < n; i++ {
			converted, err := convertShard(b, i, opts.ChunkBlocks, mig)
			total += converted
			if err != nil {
				return err
			}
		}
		mig.BlocksMigrated.Add(total)
		mig.SchemeMigrations.Inc()
		return nil
	})
}

// beginShard quiesces shard i just long enough to switch its decode and
// encode machinery to the target scheme, then resumes it.
func beginShard(b *shard.Batched, i int, from memctrl.Mode, s memctrl.Scheme) error {
	if err := b.DrainShard(i); err != nil {
		b.SetShardMode(i, shard.ModeEnabled)
		return fmt.Errorf("migrate: drain shard %d: %w", i, err)
	}
	err := b.WithShard(i, func(c *memctrl.Controller) error {
		if c.Migrating() && c.Mode() == s.Mode {
			// Resuming an interrupted migration to the same target: the
			// machinery is already switched; skip to conversion.
			return nil
		}
		if err := c.BeginMigration(s.Mode, s.COP); err != nil {
			return err
		}
		if h := c.Tracer(); h.Enabled() {
			h.ResetFlow()
			h.Record(trace.KindMigrateBegin, 0, uint32(c.MigrationPending()), 0,
				uint64(from), uint64(s.Mode), 0)
		}
		return nil
	})
	b.SetShardMode(i, shard.ModeEnabled)
	if err != nil {
		return fmt.Errorf("migrate: shard %d: %w", i, err)
	}
	return nil
}

// convertShard walks shard i's old-encoded blocks in chunks, each chunk
// one shard-lock acquisition, interleaving with live traffic between
// chunks. Returns how many blocks this walk converted (writebacks racing
// the walk convert blocks organically and are counted too — conversion
// progress is measured by the pending count draining).
func convertShard(b *shard.Batched, i, chunk int, mig *telemetry.MigrationCounters) (uint64, error) {
	var total uint64
	for {
		var remaining int
		var before int
		err := b.WithShard(i, func(c *memctrl.Controller) error {
			before = c.MigrationPending()
			if before == 0 {
				return nil
			}
			var cerr error
			remaining, cerr = c.MigrateChunk(chunk)
			if h := c.Tracer(); h.Enabled() {
				h.ResetFlow()
				h.Record(trace.KindMigrateChunk, 0, uint32(before-remaining), 0,
					uint64(remaining), 0, 0)
			}
			return cerr
		})
		if before == 0 && err == nil {
			break
		}
		total += uint64(before - remaining)
		mig.Chunks.Inc()
		if err != nil {
			return total, fmt.Errorf("migrate: shard %d: %w", i, err)
		}
		if remaining == 0 {
			break
		}
	}
	err := b.WithShard(i, func(c *memctrl.Controller) error {
		if h := c.Tracer(); h.Enabled() {
			h.ResetFlow()
			h.Record(trace.KindMigrateEnd, 0, uint32(total), 0, 0, 0, 0)
		}
		return nil
	})
	return total, err
}
