package copnet

import "cop/internal/trace"

// Pooled per-request server state. The serve datapath's whole per-frame
// footprint — request body, decoded op list, result table, read-payload
// arena, and response buffer — lives in one frameScratch recycled through
// a sync.Pool (a /batch request takes one per frame, a stream holds one
// for its lifetime), so a steady-state frame performs zero heap
// allocations: one pooled slab is sliced into op payloads instead of N
// small makes, and the response is built into a pooled buffer written
// straight to the ResponseWriter.

// maxRetainBytes bounds how large a scratch slab the pool will retain.
// A hostile (or merely huge) frame may grow the slabs up to the request
// cap; returning such a scratch would pin megabytes per pool entry, so
// oversized ones are dropped for the GC instead.
const maxRetainBytes = 1 << 20

// frameScratch is the per-request working set of the serve datapath.
// Every slice is reused capacity-first; see Server.getScratch.
type frameScratch struct {
	prefix  [streamPrefix]byte // a stream record's length prefix
	body    []byte             // raw request frame
	ops     []reqOp            // decoded operations (data aliases body)
	results []opResult         // per-op outcomes (data slices alias arena)
	arena   []byte             // one slab backing every read/read-range payload
	resp    []byte             // streamPrefix bytes of headroom, then the response frame

	// Per-frame observability state: the wire trace id (0 when untraced),
	// whether flight-recorder records should be emitted for this frame,
	// and the per-stage wall-clock attribution the handler accumulates.
	traceID uint64
	traced  bool
	stageNs [trace.NumServeStages]uint64
}

// getScratch takes a scratch from the pool (counting a hit) or allocates
// a fresh one (counting a miss). Steady state is all hits.
func (s *Server) getScratch() *frameScratch {
	if v := s.scratch.Get(); v != nil {
		s.net.PoolHits.Inc()
		return v.(*frameScratch)
	}
	s.net.PoolMisses.Inc()
	return &frameScratch{}
}

// putScratch recycles sc unless one of its slabs outgrew the retention
// cap. The op and result tables are cleared so stale aliases into body
// and arena do not pin those slabs' previous contents alive semantically
// (the backing arrays are reused anyway) and so the next request starts
// from zeroed entries.
func (s *Server) putScratch(sc *frameScratch) {
	if cap(sc.body) > maxRetainBytes || cap(sc.arena) > maxRetainBytes ||
		cap(sc.resp) > maxRetainBytes || cap(sc.ops) > maxFrameOps {
		return
	}
	s.scratch.Put(sc)
}

// grow returns b with length n, reusing capacity when it suffices and
// reallocating (amortized, like append) when it does not. Contents are
// unspecified.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n, max(n, 2*cap(b)))
}

// growResults returns r with length n and every entry zeroed.
func growResults(r []opResult, n int) []opResult {
	if cap(r) < n {
		r = make([]opResult, n)
	} else {
		r = r[:n]
		for i := range r {
			r[i] = opResult{}
		}
	}
	return r
}
