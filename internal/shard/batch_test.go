package shard

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cop/internal/memctrl"
)

// newBatched builds a batched controller over the same geometry as
// newSharded, with a small ring so full-ring backpressure gets exercised.
func newBatched(m memctrl.Mode) *Batched {
	return must(NewBatched(BatchedConfig{
		Shard:    Config{Mem: memctrl.Config{Mode: m, LLCBytes: 64 * 1024, LLCWays: 8}, Shards: 4},
		RingSize: 32,
		BatchMax: 8,
	}))
}

// TestBatchedMatchesShardedReplay drives the same single-threaded mixed
// trace (writes, reads, settles, injections, flushes) through a sharded
// and a batched controller in lockstep and requires byte-identical
// results: every read, every decoder verdict, the DRAM residency and
// stored-kind ground truth of every block, the op counter, and the full
// telemetry snapshot (minus the batch-only section).
func TestBatchedMatchesShardedReplay(t *testing.T) {
	for _, m := range []memctrl.Mode{memctrl.COP, memctrl.COPER} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			sh := newSharded(m)
			ba := newBatched(m)
			defer ba.Close()
			rng := rand.New(rand.NewSource(0xBA7C4))
			const blocks = 1 << 11 // 8x the aggregate LLC: plenty of evictions

			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(blocks)) * BlockBytes
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					var data []byte
					if rng.Intn(4) == 0 {
						data = randomData(rng)
					} else {
						data = compressibleData(rng)
					}
					errS := sh.Write(addr, data)
					errB := ba.Write(addr, data)
					if (errS == nil) != (errB == nil) {
						t.Fatalf("op %d: Write(%#x) err sharded=%v batched=%v", i, addr, errS, errB)
					}
				case 4, 5, 6:
					gotS, infoS, errS := sh.ReadWithInfo(addr)
					gotB, infoB, errB := ba.ReadWithInfo(addr)
					if (errS == nil) != (errB == nil) || infoS != infoB || !bytes.Equal(gotS, gotB) {
						t.Fatalf("op %d: ReadWithInfo(%#x) diverged: err %v/%v info %+v/%+v", i, addr, errS, errB, infoS, infoB)
					}
				case 7:
					errS := sh.Settle(addr)
					errB := ba.Settle(addr)
					if (errS == nil) != (errB == nil) {
						t.Fatalf("op %d: Settle(%#x) err sharded=%v batched=%v", i, addr, errS, errB)
					}
				case 8:
					bit := rng.Intn(8 * BlockBytes)
					okS := sh.InjectBitFlip(addr, bit)
					okB := ba.InjectBitFlip(addr, bit)
					if okS != okB {
						t.Fatalf("op %d: InjectBitFlip(%#x,%d) sharded=%v batched=%v", i, addr, bit, okS, okB)
					}
				case 9:
					if rng.Intn(50) == 0 {
						errS := sh.Flush()
						errB := ba.Flush()
						if (errS == nil) != (errB == nil) {
							t.Fatalf("op %d: Flush err sharded=%v batched=%v", i, errS, errB)
						}
					}
				}
			}

			if errS, errB := sh.Flush(), ba.Flush(); (errS == nil) != (errB == nil) {
				t.Fatalf("final Flush err sharded=%v batched=%v", errS, errB)
			}
			if sh.Ops() != ba.Ops() {
				t.Fatalf("Ops: sharded=%d batched=%d", sh.Ops(), ba.Ops())
			}

			// Telemetry snapshots must match byte-for-byte once the batch
			// section (which the sharded front-end does not have) is removed.
			snapB := ba.Snapshot()
			if snapB.Batch == nil || snapB.Batch.Enqueued == 0 || snapB.Batch.Batches == 0 {
				t.Fatalf("batched snapshot is missing batch counters: %+v", snapB.Batch)
			}
			snapB.Batch = nil
			jsS, err := sh.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			jsB, err := snapB.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsS, jsB) {
				t.Fatalf("telemetry snapshots diverged:\nsharded: %s\nbatched: %s", jsS, jsB)
			}

			// DRAM ground truth, block by block.
			for blk := 0; blk < blocks; blk++ {
				addr := uint64(blk) * BlockBytes
				if inS, inB := sh.InDRAM(addr), ba.InDRAM(addr); inS != inB {
					t.Fatalf("InDRAM(%#x): sharded=%v batched=%v", addr, inS, inB)
				}
				if kS, kB := sh.StoredKind(addr), ba.StoredKind(addr); kS != kB {
					t.Fatalf("StoredKind(%#x): sharded=%v batched=%v", addr, kS, kB)
				}
			}
		})
	}
}

// TestBatchedRangeOpsMatchUnsharded drives random non-aligned,
// shard-straddling byte ranges through an unsharded reference, the
// sharded front-end, and the batched front-end, and demands identical
// bytes from all three.
func TestBatchedRangeOpsMatchUnsharded(t *testing.T) {
	ref := newUnsharded(memctrl.COP)
	sh := newSharded(memctrl.COP)
	ba := newBatched(memctrl.COP)
	defer ba.Close()
	rng := rand.New(rand.NewSource(0x0B17E5))
	const span = 1 << 16 // bytes of address space

	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(span))
		n := 1 + rng.Intn(4*BlockBytes) // up to 4 blocks: RMW at both ends
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if err := ref.WriteBytes(addr, data); err != nil {
				t.Fatalf("op %d: ref WriteBytes: %v", i, err)
			}
			if err := sh.WriteBytes(addr, data); err != nil {
				t.Fatalf("op %d: sharded WriteBytes: %v", i, err)
			}
			if err := ba.WriteBytes(addr, data); err != nil {
				t.Fatalf("op %d: batched WriteBytes: %v", i, err)
			}
		} else {
			want, err := ref.ReadBytes(addr, n)
			if err != nil {
				t.Fatalf("op %d: ref ReadBytes: %v", i, err)
			}
			gotS, err := sh.ReadBytes(addr, n)
			if err != nil {
				t.Fatalf("op %d: sharded ReadBytes: %v", i, err)
			}
			gotB := make([]byte, n)
			if err := ba.ReadBytesInto(gotB, addr); err != nil {
				t.Fatalf("op %d: batched ReadBytesInto: %v", i, err)
			}
			if !bytes.Equal(want, gotS) || !bytes.Equal(want, gotB) {
				t.Fatalf("op %d: ReadBytes(%#x,%d) diverged\nref:     %x\nsharded: %x\nbatched: %x",
					i, addr, n, want, gotS, gotB)
			}
		}
	}
}

// TestBatchedGroupAsync checks the asynchronous window API: writes and
// reads issued through groups land exactly like synchronous ones.
func TestBatchedGroupAsync(t *testing.T) {
	ba := newBatched(memctrl.COP)
	defer ba.Close()

	const blocks = 512
	want := make([][]byte, blocks)
	g := ba.NewGroup()
	for i := range want {
		want[i] = compressibleData(rand.New(rand.NewSource(int64(i))))
		g.Write(uint64(i)*BlockBytes, want[i])
		if i%64 == 63 {
			if err := g.Wait(); err != nil {
				t.Fatalf("write window %d: %v", i/64, err)
			}
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}

	got := make([][]byte, blocks)
	for i := range got {
		got[i] = make([]byte, BlockBytes)
		g.Read(got[i], uint64(i)*BlockBytes)
		if i%64 == 63 {
			if err := g.Wait(); err != nil {
				t.Fatalf("read window %d: %v", i/64, err)
			}
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("block %d: got %x want %x", i, got[i], want[i])
		}
	}
}

// TestBatchedConcurrentStress hammers the batched controller from many
// goroutines through group windows, then checks the exact op count and
// that a final Drain fences everything.
func TestBatchedConcurrentStress(t *testing.T) {
	ba := newBatched(memctrl.COP)
	defer ba.Close()
	const goroutines = 8
	const opsPerG = 3000

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			grp := ba.NewGroup()
			// One destination buffer per in-flight slot: concurrent reads
			// in the same window may complete on different shard workers.
			dst := make([]byte, 16*BlockBytes)
			inflight := 0
			for i := 0; i < opsPerG; i++ {
				addr := uint64(rng.Intn(1<<10)) * BlockBytes
				if i%3 == 0 {
					grp.Write(addr, compressibleData(rng))
				} else {
					grp.Read(dst[inflight*BlockBytes:(inflight+1)*BlockBytes], addr)
				}
				inflight++
				if inflight == 16 {
					if err := grp.Wait(); err != nil && errs[gi] == nil {
						errs[gi] = err
					}
					inflight = 0
				}
			}
			if err := grp.Wait(); err != nil && errs[gi] == nil {
				errs[gi] = err
			}
		}(gi)
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", gi, err)
		}
	}
	if got, want := ba.Ops(), uint64(goroutines*opsPerG); got != want {
		t.Fatalf("Ops() = %d, want %d", got, want)
	}
	if err := ba.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !ba.Quiesced() {
		t.Fatal("not quiesced after Drain")
	}
	ba.Resume()
}

// TestBatchedDrainFence checks the drain state machine: Drain quiesces
// every shard, a producer submitting during the drain blocks until
// Resume, and the shard modes read back as expected throughout.
func TestBatchedDrainFence(t *testing.T) {
	ba := newBatched(memctrl.COP)
	defer ba.Close()
	rng := rand.New(rand.NewSource(0xD7A1))
	for i := 0; i < 500; i++ {
		addr := uint64(rng.Intn(256)) * BlockBytes
		if err := ba.Write(addr, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}

	if err := ba.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !ba.Quiesced() {
		t.Fatal("not quiesced after Drain")
	}
	for i := 0; i < ba.NumShards(); i++ {
		if m := ba.ShardMode(i); m != ModeDraining {
			t.Fatalf("shard %d mode = %v, want draining", i, m)
		}
	}

	// A producer entering now must block until Resume, then complete.
	done := make(chan error, 1)
	go func() {
		done <- ba.Write(0, compressibleData(rand.New(rand.NewSource(1))))
	}()
	select {
	case err := <-done:
		t.Fatalf("write completed during drain (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	ba.Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still blocked after Resume")
	}
	for i := 0; i < ba.NumShards(); i++ {
		if m := ba.ShardMode(i); m != ModeEnabled {
			t.Fatalf("shard %d mode = %v, want enabled", i, m)
		}
	}
}

// TestBatchedPauseResume checks that ModePaused holds already-enqueued
// work unexecuted until the shard is re-enabled.
func TestBatchedPauseResume(t *testing.T) {
	ba := newBatched(memctrl.COP)
	defer ba.Close()
	if err := ba.Write(0, compressibleData(rand.New(rand.NewSource(7)))); err != nil {
		t.Fatal(err)
	}
	ba.SetMode(ModePaused)
	done := make(chan error, 1)
	go func() {
		done <- ba.Write(BlockBytes, compressibleData(rand.New(rand.NewSource(8))))
	}()
	select {
	case err := <-done:
		t.Fatalf("write completed while paused (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	ba.Resume()
	if err := <-done; err != nil {
		t.Fatalf("write after resume: %v", err)
	}
}

// TestBatchedDrainShard drains one shard while the others keep serving —
// the live-migration shape.
func TestBatchedDrainShard(t *testing.T) {
	ba := newBatched(memctrl.COP)
	defer ba.Close()
	rng := rand.New(rand.NewSource(0x51))
	for i := 0; i < 256; i++ {
		if err := ba.Write(uint64(i)*BlockBytes, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ba.DrainShard(0); err != nil {
		t.Fatalf("DrainShard(0): %v", err)
	}
	if m := ba.ShardMode(0); m != ModeDraining {
		t.Fatalf("shard 0 mode = %v, want draining", m)
	}
	// Shard 0 is striped over block indices ≡ 0 (mod 4); the other shards
	// must still serve. Block index 1 lives on shard 1.
	if err := ba.Write(1*BlockBytes, compressibleData(rng)); err != nil {
		t.Fatalf("write to live shard during per-shard drain: %v", err)
	}
	ba.SetShardMode(0, ModeEnabled)
	if err := ba.Write(4*BlockBytes, compressibleData(rng)); err != nil {
		t.Fatalf("write to re-enabled shard: %v", err)
	}
}

// TestBatchedCloseRejects checks that submissions after Close fail with
// ErrClosed instead of deadlocking.
func TestBatchedCloseRejects(t *testing.T) {
	ba := newBatched(memctrl.COP)
	if err := ba.Write(0, compressibleData(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	ba.Close()
	if err := ba.Write(0, compressibleData(rand.New(rand.NewSource(4)))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if _, err := ba.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}
}

// TestBatchedConfigValidation pins the BatchedConfig error cases.
func TestBatchedConfigValidation(t *testing.T) {
	mem := memctrl.Config{Mode: memctrl.COP, LLCBytes: 64 * 1024, LLCWays: 8}
	for _, tc := range []BatchedConfig{
		{Shard: Config{Mem: mem}, RingSize: 3},
		{Shard: Config{Mem: mem}, RingSize: 1},
		{Shard: Config{Mem: mem}, BatchMax: -1},
		{Shard: Config{Mem: mem, Shards: 3}},
	} {
		if _, err := NewBatched(tc); err == nil {
			t.Errorf("config %+v: want error, got nil", tc)
		}
	}
	b, err := NewBatched(BatchedConfig{Shard: Config{Mem: mem}, RingSize: 16, BatchMax: 64})
	if err != nil {
		t.Fatalf("BatchMax clamp: %v", err)
	}
	if b.batchMax != 16 {
		t.Errorf("BatchMax = %d, want clamped to 16", b.batchMax)
	}
	b.Close()
}

// TestBatchedModeString pins the mode names used in logs and errors.
func TestBatchedModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeEnabled:  "enabled",
		ModePaused:   "paused",
		ModeDraining: "draining",
		modeClosed:   "closed",
		Mode(42):     "mode(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int32(m), got, want)
		}
	}
}

// TestBatchReorderKeepsSameBlockOrder pins the FR-FCFS reorder contract:
// same-block order is preserved, non-read/write ops act as barriers.
func TestBatchReorderKeepsSameBlockOrder(t *testing.T) {
	mk := func(op txnOp, inner uint64, seq int32) Txn {
		return Txn{op: op, inner: inner, arg: seq}
	}
	row := uint64(1) << batchRowShift
	txns := []Txn{
		mk(opRead, 3*row, 0),
		mk(opWrite, 0, 1),
		mk(opRead, 0, 2),
		mk(opSettle, 5*row, 3), // barrier
		mk(opWrite, 4*row, 4),
		mk(opRead, 2*row, 5),
	}
	batch := make([]*Txn, len(txns))
	for i := range txns {
		batch[i] = &txns[i]
	}
	newRowSorter(len(batch)).reorder(batch)
	// First run sorts to rows {0,0,3}; same-block pair (1 then 2) stays
	// ordered. Barrier stays put. Second run sorts to rows {2,4}.
	wantSeq := []int32{1, 2, 0, 3, 5, 4}
	for i, want := range wantSeq {
		if batch[i].arg != want {
			got := make([]int32, len(batch))
			for j := range batch {
				got[j] = batch[j].arg
			}
			t.Fatalf("reordered sequence = %v, want %v", got, wantSeq)
		}
	}
}

// TestBatchReorderScatteredRows drives the insertion-sort fallback (row
// span past the counting-sort window) and cross-checks both sorters
// against each other on the same shuffled run.
func TestBatchReorderScatteredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50F7))
	const n = 64
	txns := make([]Txn, n)
	for i := range txns {
		// Rows scattered over a 4096-row span force the fallback path.
		row := uint64(rng.Intn(4096))
		txns[i] = Txn{op: opRead, inner: row<<batchRowShift | uint64(i), arg: int32(i)}
	}
	batch := make([]*Txn, n)
	for i := range txns {
		batch[i] = &txns[i]
	}
	newRowSorter(n).reorder(batch)
	for i := 1; i < n; i++ {
		prev, cur := batch[i-1].inner>>batchRowShift, batch[i].inner>>batchRowShift
		if prev > cur {
			t.Fatalf("rows out of order at %d: %d > %d", i, prev, cur)
		}
		if prev == cur && batch[i-1].arg > batch[i].arg {
			t.Fatalf("stability broken at %d: seq %d before %d", i, batch[i-1].arg, batch[i].arg)
		}
	}
}

// TestTxnRing pins the MPSC ring's ordering and backpressure behavior.
func TestTxnRing(t *testing.T) {
	r := newTxnRing(8)
	const producers = 4
	const perProducer = 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				c, pos := r.reserve()
				c.txn.addr = uint64(p)
				c.txn.inner = uint64(i)
				r.publish(c, pos)
			}
		}(p)
	}
	seen := make([]uint64, producers)
	total := 0
	var batch []*Txn
	for total < producers*perProducer {
		batch = r.peek(batch[:0], 8)
		for _, tx := range batch {
			p, seq := tx.addr, tx.inner
			if seq != seen[p] {
				t.Fatalf("producer %d: got seq %d, want %d (per-producer FIFO broken)", p, seq, seen[p])
			}
			seen[p]++
			total++
		}
		r.release(len(batch))
	}
	wg.Wait()
	if !r.empty() {
		t.Fatal("ring not empty after draining")
	}
}
